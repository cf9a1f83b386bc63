"""Command-line interface.

Subcommands:

* ``zeros``     print positive Bessel-function zeros
* ``spectrum``  enumerate and group the spectrum below a cutoff
* ``bottom``    closed-form bottom of the spectrum and its minimizer
* ``verify``    run the built-in verification suites
* ``oracle``    expose the finite-difference radial eigenvalue oracle
* ``inverse``   expand a sampled coefficient grid and apply the operator
                or its inverse

Each subcommand imports the modules it uses when it runs, so a run loads
only what it prints: `zeros` and `bottom` load no numpy, `spectrum` loads
neither the calculus (`eigenforms`, `spectral_ops`) nor the oracles, and
only `oracle fd` loads scipy.linalg.  Flag parsing imports nothing: the
`--suite` and `--bc` choices are written out.

Output is deterministic byte for byte for identical flags: floats are
serialized with 17 significant digits (lossless for doubles), orderings
are canonical, and JSON is emitted by a fixed-layout writer.  `spectrum`
writes its points straight from the class table's arrays, a batch at a
time, and JSON witnesses from its index chunks, with the text of each
factor label, J and value made once; it makes no `EigenMode`.  Exit codes:
0 success, 2 flag/usage errors, 3 domain/range errors, 1 failed
verification.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys

from . import __version__
from .errors import (
    InvalidArgumentError,
    OracleInsufficientError,
    PolyspecError,
    UnsupportedRangeError,
)

SCHEMA_VERSION = "2"

EXIT_OK = 0
EXIT_FAILED_CHECK = 1
EXIT_USAGE = 2
EXIT_RANGE = 3


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------

def _fmt_float(v: float) -> str:
    """17 significant digits: lossless round-trip for IEEE doubles."""
    if math.isnan(v) or math.isinf(v):
        raise InvalidArgumentError("non-finite value in output")
    return format(float(v), ".17g")


class _Text(str):
    """A value's JSON text, laid out beforehand; `_json` writes it as it is."""


def _json(value, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        rows = [
            f'{pad}  "{k}": {_json(v, indent + 1)}' for k, v in value.items()
        ]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        rows = [f"{pad}  {_json(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _fmt_float(value)
    if isinstance(value, _Text):
        return value
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    raise InvalidArgumentError(f"unserializable value {value!r}")


def _factor_record(f) -> dict:
    return {
        "kind": f.kind.value,
        "angular_order": f.angular_order,
        "radial_index": f.radial_index,
        "radius": f.radius,
        "lambda": f.lambda_k,
    }


def _mode_text(indent: int, J: str, value: str, family: str, infinite: bool, factors) -> str:
    """One mode record as `_json` lays it out at `indent`, from the texts
    of its J (made at indent + 1), its value and its factor records (made
    at indent + 2), so a caller can make each of them once."""
    pad = "  " * indent
    items = f",\n{pad}    ".join(factors)
    return (
        f'{{\n{pad}  "J": {J},\n{pad}  "value": {value},\n{pad}  "family": "{family}",\n'
        f'{pad}  "infinite_family": {"true" if infinite else "false"},\n'
        f'{pad}  "factors": [\n{pad}    {items}\n{pad}  ]\n{pad}}}'
    )


def _eigenmode_text(m, indent: int) -> str:
    """The mode record of an `EigenMode` at `indent`."""
    factors = [_json(_factor_record(f), indent + 2) for f in m.factors]
    J = _json(list(m.J), indent + 1)
    return _mode_text(indent, J, _fmt_float(m.value), m.family, m.has_holomorphic, factors)


# points per write when a spectrum is written from its class table
_POINTS = 4096


def _point_rows(table, points, lo: int, hi: int):
    """Points lo..hi - 1 of `table` as (value text, finite multiplicity,
    infinite flag, family bits), from `table.points()`."""
    starts, *rest = (a[lo:hi] for a in points)
    return zip(map(_fmt_float, table.value[starts].tolist()), *(a.tolist() for a in rest))


# ---------------------------------------------------------------------------
# flag parsing helpers
# ---------------------------------------------------------------------------

def _parse_radii(parser: argparse.ArgumentParser, text: str) -> tuple[float, ...]:
    try:
        radii = tuple(float(x) for x in text.split(","))
    except ValueError:
        parser.error(f"--radii: cannot parse {text!r} as comma-separated reals")
    if len(radii) < 2:
        parser.error("--radii: need at least two radii")
    return radii


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_zeros(args, out) -> int:
    from .zeros import ZeroCache

    cache = ZeroCache()
    values = [cache.zero(args.order, j) for j in range(1, args.count + 1)]
    if args.format == "json":
        out.write(_json({"order": args.order, "count": args.count, "zeros": values}) + "\n")
    elif args.format == "csv":
        out.write("order,index,value\n")
        for j, v in enumerate(values, start=1):
            out.write(f"{args.order},{j},{_fmt_float(v)}\n")
    else:
        for j, v in enumerate(values, start=1):
            out.write(f"lambda({args.order},{j}) = {_fmt_float(v)}\n")
    return EXIT_OK


def _cmd_spectrum(args, out) -> int:
    from .polydisc import Polydisc
    from .spectrum import _FAMILIES, _class_table
    from .zeros import ZeroCache

    P = Polydisc(args.radii)
    if args.witnesses < 0:
        raise InvalidArgumentError(f"--witnesses must be >= 0, got {args.witnesses}")
    table = _class_table(P, args.q, args.max, ZeroCache())
    points = table.points() if len(table) else ()
    if args.format == "json":
        _write_spectrum_json(out, P, args, table, points)
        return EXIT_OK
    # csv and table print no witnesses, so none is found
    if args.format == "csv":
        out.write("value,finite_multiplicity,infinite,family\n")
    else:
        out.write(f"spectrum on radii {list(P.radii)}, q={args.q}, cutoff {args.max}\n")
    for lo in range(0, len(points[0]) if points else 0, _POINTS):
        text = []
        for value, finite, infinite, bits in _point_rows(table, points, lo, lo + _POINTS):
            families = "+".join(_FAMILIES[bits])
            if args.format == "csv":
                text.append(f"{value},{finite},{'true' if infinite else 'false'},{families}\n")
            else:
                mult = "inf" if infinite else str(finite)
                extra = f" (+{finite} finite)" if infinite and finite else ""
                text.append(f"  {value:<24} multiplicity {mult}{extra}  [{families}]\n")
        out.write("".join(text))
    return EXIT_OK


def _write_spectrum_json(out, P, args, table, points) -> None:
    """The spectrum record as `_json` would lay it out, written straight
    from the class table: the points a batch at a time, each as soon as
    the witness chunks hold its last witness.  The text of each label, J
    and value is made once, and no `EigenMode` is made."""
    from .spectrum import _FAMILIES

    # every label is made, and checked, before anything is written
    factor = table.labels.factor if points and args.witnesses else None
    request = {
        "radii": list(P.radii),
        "q": args.q,
        "max_lambda": args.max,
        "witnesses": args.witnesses,
    }
    head = _json({"schema_version": SCHEMA_VERSION, "request": request})
    out.write(head[: -len("\n}")] + ',\n  "points": ')  # left open for the points
    if not points:
        out.write("[]\n}\n")
        return
    families = {bits: _json(list(names), 3) for bits, names in _FAMILIES.items()}
    # a witness is a mode record at indent 4, in its point's list at indent 3
    J_text = [_json(list(J), 5) for J in table.J_list]
    label_text: dict[int, str] = {}

    def witnesses(chunk) -> list[str]:
        for i in set(chunk.ids.ravel().tolist()) - label_text.keys():
            label_text[i] = _json(_factor_record(factor[i]), 6)
        values = map(_fmt_float, chunk.value.tolist())
        return [
            _mode_text(4, J_text[J], value, _FAMILIES[bits][0], bits != 4, factors)
            for J, value, bits, factors in zip(
                chunk.J.tolist(),
                itertools.chain.from_iterable(map(itertools.repeat, values, chunk.take.tolist())),
                table.families(chunk.ids).tolist(),
                zip(*(map(label_text.__getitem__, row) for row in chunk.ids.tolist())),
            )
        ]

    ends, chunks = table.expand(points[0], args.witnesses)
    pending: list[str] = []  # witness texts not yet written, of modes base, base + 1, ...
    base = written = 0
    out.write("[\n")
    for chunk in itertools.chain(chunks, [None]):
        if chunk is None:
            ready = len(ends)
        else:
            pending += witnesses(chunk)
            ready = int(ends.searchsorted(base + len(pending), "right"))
        for lo in range(written, ready, _POINTS):
            text = []
            rows = _point_rows(table, points, lo, min(lo + _POINTS, ready))
            for p, (value, finite, infinite, bits) in enumerate(rows, start=lo):
                w = pending[(ends[p - 1] if p else 0) - base : ends[p] - base]
                w = "[\n        " + ",\n        ".join(w) + "\n      ]" if w else "[]"
                text.append(
                    f'    {{\n      "value": {value},\n      "finite_multiplicity": {finite},\n'
                    f'      "infinite": {"true" if infinite else "false"},\n'
                    f'      "families": {families[bits]},\n      "witnesses": {w}\n    }}'
                )
            out.write((",\n" if lo else "") + ",\n".join(text))
        if ready > written:
            del pending[: ends[ready - 1] - base]
            base, written = int(ends[ready - 1]), ready
    out.write("\n  ]\n}\n")


def _cmd_bottom(args, out) -> int:
    from .polydisc import Polydisc, bottom
    from .zeros import ZeroCache

    P = Polydisc(args.radii)
    value, J = bottom(P, args.q, ZeroCache())
    if args.format == "json":
        out.write(_json({"value": value, "J": list(J)}) + "\n")
    else:
        out.write(f"bottom = {_fmt_float(value)} at J = {list(J)}\n")
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    from .selfcheck import SUITES, run_suites

    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    reports = run_suites(names, seed=args.seed)
    record = {
        "schema_version": SCHEMA_VERSION,
        "seed": args.seed,
        "passed": all(r["passed"] for r in reports),
        "suites": reports,
    }
    if args.format == "json":
        out.write(_json(record) + "\n")
    else:
        for r in reports:
            for c in r["checks"]:
                mark = "PASS" if c["passed"] else "FAIL"
                detail = f"  ({c['detail']})" if c["detail"] else ""
                out.write(f"[{mark}] {r['suite']}: {c['name']}{detail}\n")
    if not record["passed"]:
        failing = [
            f"{r['suite']}: {c['name']}"
            for r in reports
            for c in r["checks"]
            if not c["passed"]
        ]
        print(f"verification failed: {failing[0]}", file=sys.stderr)
        return EXIT_FAILED_CHECK
    return EXIT_OK


def _cmd_oracle(args, out) -> int:
    from .verify import BoundaryCondition, FdConfig, fd_radial_eigs

    bc = BoundaryCondition(args.bc)
    cfg = FdConfig(args.grid, args.radius, args.order, bc)
    values = fd_radial_eigs(cfg, args.count)
    record = {
        "config": {
            "grid_points": args.grid,
            "radius": args.radius,
            "angular_order": args.order,
            "bc": bc.value,
        },
        "eigenvalues": values,
    }
    if args.format == "json":
        out.write(_json(record) + "\n")
    else:
        for i, v in enumerate(values):
            out.write(f"eig[{i}] = {_fmt_float(v)}\n")
    return EXIT_OK


def _cmd_inverse(args, out) -> int:
    from .gridfile import read_grid
    from .polydisc import Polydisc
    from .spectral_ops import apply_box, apply_inverse, expand_from_samples
    from .zeros import ZeroCache

    n, q, counts, samples = read_grid(args.input)
    P = Polydisc(args.radii)
    if n != P.n:
        raise InvalidArgumentError(f"grid file has n={n}, flags give n={P.n}")
    if q != args.q:
        raise InvalidArgumentError(f"grid file has q={q}, flags give q={args.q}")
    radial = {c[0] for c in counts}
    angular = {c[1] for c in counts}
    if len(radial) != 1 or len(angular) != 1:
        raise InvalidArgumentError("per-variable node counts must agree across variables")
    try:
        J = tuple(int(x) for x in str(args.J).split(","))
    except ValueError:
        raise InvalidArgumentError(f"--J: cannot parse {args.J!r} as comma-separated integers")
    cache = ZeroCache()
    x = expand_from_samples(
        samples,
        P,
        q,
        J,
        args.max_lambda,
        cache,
        quad_nodes=radial.pop(),
        angular_nodes=angular.pop(),
        p_max=args.p_max,
    )
    if args.op == "inverse":
        x = apply_inverse(x)
    elif args.op == "box":
        x = apply_box(x)
    record = {
        "schema_version": SCHEMA_VERSION,
        "op": args.op,
        "J": list(x.J),
        "truncation_lambda": x.truncation_lambda,
        "terms": [
            {"mode": _Text(_eigenmode_text(m, 3)), "coeff_re": c.real, "coeff_im": c.imag}
            for m, c in x.terms
        ],
    }
    text = _json(record) + "\n"
    if args.output and args.output != "-":
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        out.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyspec",
        description="Spectrum of the dbar-Neumann Laplacian on polydiscs.",
    )
    parser.add_argument("--version", action="version", version=f"polyspec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = {"choices": ("json", "csv", "table"), "default": "json"}

    p = sub.add_parser("zeros", help="positive zeros of J_m")
    p.add_argument("--order", type=int, required=True, help="Bessel order m (sign ignored)")
    p.add_argument("--count", type=int, required=True, help="number of zeros to print")
    p.add_argument("--format", **fmt, help="output format (default: %(default)s)")
    p.set_defaults(func=_cmd_zeros)

    p = sub.add_parser("spectrum", help="enumerate and group the spectrum")
    p.add_argument("--radii", required=True, help="comma-separated polydisc radii, n >= 2")
    p.add_argument("--q", type=int, required=True, help="form degree, 1 <= q <= n-1")
    p.add_argument("--max", type=float, required=True, help="eigenvalue cutoff")
    p.add_argument(
        "--witnesses",
        type=int,
        default=8,
        help="max witness modes stored per spectral point (default: %(default)s)",
    )
    p.add_argument("--format", **fmt, help="output format (default: %(default)s)")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("bottom", help="closed-form bottom of the spectrum")
    p.add_argument("--radii", required=True, help="comma-separated polydisc radii")
    p.add_argument("--q", type=int, required=True, help="form degree")
    p.add_argument("--format", choices=("json", "table"), default="json",
                   help="output format (default: %(default)s)")
    p.set_defaults(func=_cmd_bottom)

    p = sub.add_parser("verify", help="run built-in verification suites")
    p.add_argument(
        "--suite",
        # selfcheck.SUITES, written out so that parsing flags imports no suite
        choices=("bessel", "fd", "forms", "modes", "spectrum-oracle", "zeros", "all"),
        default="all",
        help="suite to run (default: %(default)s)",
    )
    p.add_argument("--seed", type=int, default=0, help="sampling seed (default: %(default)s)")
    p.add_argument("--format", choices=("json", "table"), default="json",
                   help="output format (default: %(default)s)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", help="independent oracles")
    oracle_sub = p.add_subparsers(dest="oracle_kind", required=True)
    pf = oracle_sub.add_parser("fd", help="finite-difference radial eigenvalues")
    pf.add_argument("--order", type=int, required=True, help="angular order m (signed)")
    pf.add_argument(
        "--bc",
        choices=("dirichlet", "dbar-neumann"),  # verify.BoundaryCondition's values
        required=True,
        help="outer boundary condition",
    )
    pf.add_argument("--grid", type=int, default=2000,
                    help="radial grid points (default: %(default)s)")
    pf.add_argument("--count", type=int, default=3,
                    help="number of eigenvalues (default: %(default)s)")
    pf.add_argument("--radius", type=float, default=1.0,
                    help="disc radius (default: %(default)s)")
    pf.add_argument("--format", choices=("json", "table"), default="json",
                    help="output format (default: %(default)s)")
    pf.set_defaults(func=_cmd_oracle)

    p = sub.add_parser(
        "inverse", help="expand a sampled grid and apply the operator or its inverse"
    )
    p.add_argument("--input", required=True, help="PSPC sampled-grid file")
    p.add_argument("--radii", required=True, help="comma-separated polydisc radii")
    p.add_argument("--q", type=int, required=True, help="form degree")
    p.add_argument("--J", required=True, help="comma-separated q-tuple of variable indices")
    p.add_argument("--max-lambda", type=float, required=True, help="expansion truncation")
    p.add_argument(
        "--p-max",
        type=int,
        default=16,
        help="largest materialized monomial exponent (default: %(default)s)",
    )
    p.add_argument(
        "--op",
        choices=("inverse", "box", "none"),
        default="inverse",
        help="transformation to apply to the expansion (default: %(default)s)",
    )
    p.add_argument("--output", default="-", help="output path, '-' for stdout (default)")
    p.set_defaults(func=_cmd_inverse)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "radii"):
        args.radii = _parse_radii(parser, args.radii)
    if getattr(args, "seed", 0) < 0:
        parser.error(f"--seed: must be non-negative, got {args.seed}")
    if args.command == "zeros" and args.count < 1:
        parser.error(f"--count: must be at least 1, got {args.count}")
    try:
        return args.func(args, sys.stdout)
    except (UnsupportedRangeError, InvalidArgumentError, OracleInsufficientError) as exc:
        print(f"polyspec: {exc}", file=sys.stderr)
        return EXIT_RANGE
    except PolyspecError as exc:
        print(f"polyspec: internal error: {exc}", file=sys.stderr)
        return EXIT_RANGE
    except OSError as exc:
        print(f"polyspec: {exc}", file=sys.stderr)
        return EXIT_RANGE


if __name__ == "__main__":
    sys.exit(main())
