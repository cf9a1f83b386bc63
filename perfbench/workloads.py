"""The three benchmark workloads: request generation, execution and checks.

All are closed loops with one client and one request in flight.  Each
workload builds its requests from the seed during set-up, serves them in
order (cycling the pool if the run outlasts it), and checks every output
against `oracle`, which shares no code with polyspec.

* ``spectrum-warm``: `assemble_spectrum` on n = 3 or 4 polydiscs whose
  cutoffs hit target mode counts spread log-uniformly over 1e3..10^4.5, on
  one ZeroCache warmed in set-up; the first request is the anchor
  radii (1, 2, 3), q = 1, lambda = 30 (306,065 modes).  The range stops
  short of 1e5 so that a run serves enough requests for a steady median;
  the anchor covers the large end.
* ``calculus``: expand / expand_from_samples on n = 2 polydiscs (64 radial
  nodes), then apply_box, apply_inverse, synthesize and residual checks;
  the first request is acceptance criterion 8's expansion.
* ``cli-cold``: ``python -m polyspec`` subprocesses, each with a cold cache.

Request sizes follow a Kronecker sequence frac(u0 + i / golden ratio), with
u0 within half a stratum of 1/2, so the pool covers the size range evenly
and each slot has nearly the same size whatever the seed.  A run serves the
pool in whole rounds (it stops at the first round boundary after its time
is up), so every run's latencies come from the same mix of requests and its
medians do not hinge on where the clock ran out.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import resource
import subprocess
import sys
import threading

import numpy as np

import oracle

PHI_INV = (math.sqrt(5.0) - 1.0) / 2.0
SMOKE_SCALE = 0.02  # size factor of the smoke test's requests


def kronecker(u0: float, i: int) -> float:
    return (u0 + i * PHI_INV) % 1.0


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def finite_window(req, eps=1e-9) -> tuple[int, int]:
    """Oracle finite-multiplicity counts at the cutoff times (1 - eps) and (1 + eps)."""
    if "counter" not in req.params:
        req.params["counter"] = oracle.ModeCounter(req.radii, req.q)
    counter = req.params["counter"]
    return counter.counts(req.lam * (1.0 - eps))[1], counter.counts(req.lam * (1.0 + eps))[1]


class Request:
    """One request: its parameters, a label for reports, and the expected facts."""

    def __init__(self, label: str, **params):
        self.label = label
        self.params = params

    def __getattr__(self, key):
        try:
            return self.params[key]
        except KeyError:
            raise AttributeError(key) from None


class Workload:
    """Shared skeleton; subclasses generate requests, run and check them."""

    name = ""

    def __init__(self, seed: int, smoke: bool, out_dir: str):
        self.seed = seed
        self.smoke = smoke
        self.out_dir = out_dir
        self.pool: list[Request] = []
        self.first: list[Request] = []

    def requests(self):
        """The request stream: the fixed first requests, then the pool, cycled."""
        yield from self.first
        yield from itertools.cycle(self.pool)

    def round_of(self, rid: int):
        """The round of the pool that request number `rid` of the stream is in (None before)."""
        k = rid - len(self.first)
        return k // len(self.pool) if k >= 0 else None

    def at_round_start(self, rid: int) -> bool:
        """True when request number `rid` of the stream begins a round after the first.

        A run may stop only there, so it serves at least one whole round.
        """
        k = rid - len(self.first)
        return k > 0 and k % len(self.pool) == 0

    def prepare(self, req):
        """Untimed input made just before the request (None by default)."""
        return None

    def replay(self, req, inp=None, tracer=None):
        """The request as run in process, for the traced run."""
        return self.run(req, inp, tracer)

    def finish(self) -> list[str]:
        """Checks made once after the timed phase; returns failure messages."""
        return []

    def peak_rss_kb(self) -> int:
        """Peak RSS of the process that served the requests."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ---------------------------------------------------------------------------
# spectrum-warm
# ---------------------------------------------------------------------------

def _spectrum_digest(points) -> bytes:
    h = hashlib.sha256()
    for p in points:
        wit = [
            (m.J, tuple((f.kind.value, f.angular_order, f.radial_index) for f in m.factors), m.value.hex())
            for m in p.witnesses
        ]
        h.update(repr((p.value.hex(), p.finite_multiplicity, p.infinite, p.families, wit)).encode())
    return h.digest()


class SpectrumWarm(Workload):
    name = "spectrum-warm"
    POOL = 32
    ANCHOR_MODES = 306065

    def setup(self):
        import polyspec as ps

        self.ps = ps
        rng = np.random.default_rng(self.seed)
        pool = self.POOL if not self.smoke else 4
        # the seed moves every target by less than half a stratum
        u0 = 0.5 + float(rng.uniform(-0.5, 0.5)) / pool
        lo, hi = (3.0, 4.5) if not self.smoke else (2.0, 2.5)
        anchor_lam = 30.0 if not self.smoke else 8.0
        self.first = [Request("anchor", radii=(1.0, 2.0, 3.0), q=1, lam=anchor_lam)]
        for i in range(pool):
            # (n, q), the target mode count and the spread of the radii (largest
            # over smallest, 1 to 2.5) are fixed by the slot, so each seed has
            # the same mix; the seed draws the scale and jitters each radius
            n = 3 + i % 2
            q = 1 + (i // 2) % (n - 1)
            spread = math.log(2.5) * kronecker(0.25, i)
            logs = spread * np.arange(n) / (n - 1) + rng.uniform(-0.05, 0.05, n)
            radii = tuple(float(a) for a in np.exp(logs + rng.uniform(-0.2, 0.2)))
            target = 10.0 ** (lo + (hi - lo) * kronecker(u0, i))
            counter = oracle.ModeCounter(radii, q)
            lam = counter.cutoff_for(int(target))
            self.pool.append(Request(f"n{n}q{q}", radii=radii, q=q, lam=lam, counter=counter))
        self.cache = ps.ZeroCache()
        for req in self.first + self.pool:
            for a in req.radii:
                # every zero the factor tables look up: below a*sqrt(4 lam (1 + slack)),
                # plus the first one past it in each order
                x_max = a * math.sqrt(4.0 * req.lam * (1.0 + 1e-8))
                nu = 0
                while self.cache.zero(nu, 1) <= x_max:
                    self.cache.zeros_upto(nu, x_max)
                    nu += 1
        self._anchor_ran = False

    def run(self, req, inp=None, tracer=None):
        P = self.ps.Polydisc(req.radii)
        return self.ps.assemble_spectrum(P, req.q, req.lam, cache=self.cache)

    def check(self, req, points):
        errors = []
        if not points:
            return ["empty spectrum"], b""
        P = self.ps.Polydisc(req.radii)
        b, _ = self.ps.bottom(P, req.q, self.cache)
        if not (_close(points[0].value, b, 1e-12) and _close(b, oracle.bottom_value(req.radii, req.q), 1e-12)):
            errors.append(f"lowest point {points[0].value!r} != bottom {b!r}")
        if not points[0].infinite:
            errors.append("lowest point not flagged infinite")
        finite = sum(p.finite_multiplicity for p in points)
        lo, hi = finite_window(req)
        if not lo <= finite <= hi:
            errors.append(f"finite multiplicity {finite} outside oracle window [{lo}, {hi}]")
        values = [p.value for p in points]
        if values != sorted(values) or values[-1] > req.lam:
            errors.append("points not ascending below the cutoff")
        if req.label == "anchor":
            self._anchor_ran = True
        # the digest walks every witness and costs a third of the request
        # itself, so it is taken on a request's first run only
        digest = None if req.params.get("digested") else _spectrum_digest(points)
        req.params["digested"] = True
        return errors, digest

    def finish(self):
        if not self._anchor_ran:
            return []
        req = self.first[0]
        want = self.ANCHOR_MODES if not self.smoke else oracle.mode_counts(req.radii, req.q, req.lam)[0]
        modes = self.ps.enumerate_modes(self.ps.Polydisc(req.radii), req.q, req.lam, self.cache)
        if len(modes) != want:
            return [f"anchor enumerates {len(modes)} modes, expected {want}"]
        return []


# ---------------------------------------------------------------------------
# calculus
# ---------------------------------------------------------------------------

QUAD_NODES = 64


def _basis(radii, J, p_max, bound):
    """Oracle list of (descriptor, value) of every J-mode with value <= bound / 4."""
    per_var = []
    for k, a in enumerate(radii, start=1):
        nu = 0
        facs = []
        while True:
            z = oracle.zeros_below(nu, a * math.sqrt(bound))
            if z.size == 0:
                break
            for j, zz in enumerate(z, start=1):
                lam = (zz / a) ** 2
                if k in J:
                    orders = (0,) if nu == 0 else (nu, -nu)
                    facs += [(("dirichlet", m, j), lam) for m in orders]
                else:
                    orders = (-1,) if nu == 0 else (nu - 1, -nu - 1)
                    facs += [(("neumann", m, j), lam) for m in orders]
            nu += 1
        if k not in J:
            facs += [(("holomorphic", p, None), 0.0) for p in range(p_max + 1)]
        per_var.append(facs)
    out = []
    for combo in itertools.product(*per_var):
        total = sum(lam for _, lam in combo)
        if total <= bound:
            out.append(((tuple(J), tuple(d for d, _ in combo)), total / 4.0))
    out.sort(key=lambda t: t[1])
    return out


def truncation(radii, J, p_max, target):
    """A cutoff midway between two mode values with about `target` J-modes below it.

    Returns (cutoff, [(descriptor, value)] of the modes below it).
    """
    base = 0.25 * (oracle.bessel_zeros(0, 1)[0] / radii[J[0] - 1]) ** 2
    modes = _basis(radii, J, p_max, 4.0 * 12.0 * base)
    values = sorted({round(v, 9) for _, v in modes})
    k = 0
    while k + 2 < len(values) and sum(1 for _, v in modes if v <= values[k]) < target:
        k += 1
    lam = float(0.5 * (values[k] + values[k + 1]))
    return lam, [(d, v) for d, v in modes if v < lam]


def angular_nodes(basis, p_max):
    """The smallest multiple of 4 angular nodes that does not alias any basis order."""
    max_m = max([p_max] + [abs(f[1]) for d, _ in basis for f in d[1]])
    return 4 * math.ceil((2 * max_m + 2) / 4)


class Calculus(Workload):
    name = "calculus"
    POOL = 48

    def setup(self):
        import polyspec as ps
        from polyspec.spectral_ops import sample_on_grid

        self.ps = ps
        self.sample_on_grid = sample_on_grid
        # The anchor is the request of acceptance criterion 8: radii (1, 1),
        # J = (1,), cutoff 8, p_max 6, 64 x 32 nodes.  It is the largest grid,
        # so it sets peak RSS whatever the seed.
        basis = _basis((1.0, 1.0), (1,), 6, 4.0 * 8.0)
        osc = [d for d, _ in basis if all(f[0] != "holomorphic" for f in d[1])]
        self.first = [
            Request(
                "anchor", radii=(1.0, 1.0), J=(1,), p_max=6, lam=8.0, angular=32, family="modes",
                combo=[(basis[0][0], 1.25 + 0j), (osc[0], -0.75j), (osc[1], 0.5 + 0.5j)],
                points=[((0.3, 0.6), (0.4, 2.0)), ((0.7, 0.2), (3.0, 1.0)), ((0.5, 0.5), (5.5, 4.5))],
                from_samples=False, residual_seed=8,
            )
        ]
        rng = np.random.default_rng(self.seed)
        pool = self.POOL if not self.smoke else 3
        u0 = 0.5 + float(rng.uniform(-0.5, 0.5)) / pool
        for i in range(pool):
            # J, p_max, the family and the ratio of the radii (up to 1.75 either
            # way) cycle with the slot, and the target term count follows the
            # Kronecker sequence, so each seed has the same mix; the seed draws
            # the scale and jitters each radius
            ratio = math.log(1.75) * (2.0 * kronecker(0.25, i) - 1.0)
            logs = np.array([ratio / 2.0, -ratio / 2.0]) + rng.uniform(-0.03, 0.03, 2)
            radii = tuple(float(a) for a in np.exp(logs + rng.uniform(-0.1, 0.1) + math.log(1.06)))
            J = (1,) if i % 2 == 0 else (2,)
            p_max = 3 + (i // 2) % 4
            lam, basis = truncation(radii, J, p_max, 15 + int(35 * kronecker(u0, i)))
            angular = angular_nodes(basis, p_max)
            family = "smooth" if i % 3 == 2 else "modes"
            if family == "modes":
                picks = rng.choice(len(basis), size=min(3, len(basis)), replace=False)
                combo = [
                    (basis[int(t)][0], complex(rng.normal(), rng.normal()))
                    for t in sorted(picks)
                ]
            else:
                combo = [(int(rng.integers(0, 3)), float(rng.uniform(0.5, 2.0)))]
            points = [
                (tuple(rng.uniform(0.05, 0.95, 2) * radii), tuple(rng.uniform(0, 2 * math.pi, 2)))
                for _ in range(3)
            ]
            self.pool.append(
                Request(
                    f"{family}-{'samples' if i % 4 >= 2 else 'function'}",
                    radii=radii, J=J, p_max=p_max, lam=lam, angular=angular,
                    family=family, combo=combo, points=points,
                    from_samples=i % 4 >= 2, residual_seed=int(rng.integers(2**31)),
                )
            )
        self.cache = ps.ZeroCache()
        for req in self.first + self.pool:
            # warm the cache with the request's own truncation
            P = ps.Polydisc(req.radii)
            ps.enumerate_modes(P, 1, req.lam, self.cache)

    @staticmethod
    def function(req):
        radii = req.radii
        if req.family == "modes":
            def f(z1, z2):
                total = 0.0
                for (J, factors), w in req.combo:
                    part = w
                    for (kind, m, j), a, z in zip(factors, radii, (z1, z2)):
                        part = part * oracle.factor_values(kind, m, j, a, z)
                    total = total + part
                return total
        else:
            (k, alpha), = req.combo

            def f(z1, z2):
                return np.exp(-alpha * (np.abs(z1) ** 2 + np.abs(z2) ** 2)) * z1**k * (1.0 + 0.5 * z2)
        return f

    def prepare(self, req):
        """Untimed per-request input: the sample grid for expand_from_samples."""
        if req.from_samples:
            P = self.ps.Polydisc(req.radii)
            return np.ascontiguousarray(
                self.sample_on_grid(self.function(req), P, QUAD_NODES, req.angular)
            )
        return None

    def run(self, req, inp=None, tracer=None):
        ps = self.ps
        P = ps.Polydisc(req.radii)
        if inp is not None:
            x = ps.expand_from_samples(inp, P, 1, req.J, req.lam, self.cache, QUAD_NODES, req.angular, req.p_max)
        else:
            f = self.function(req)
            if tracer is not None:
                f = tracer.wrap_user(f, "bench.function")
            x = ps.expand(f, P, 1, req.J, req.lam, self.cache, QUAD_NODES, req.angular, req.p_max)
        boxed = ps.apply_box(x)
        back = ps.apply_inverse(boxed)
        synth = [ps.synthesize(x, ps.FormPoint.from_polar(r, t)) for r, t in req.points]
        rng = np.random.default_rng(req.residual_seed)
        picks = rng.choice(len(x.terms), size=min(3, len(x.terms)), replace=False)
        residuals = []
        dbar = []
        off = 2 if req.J == (1,) else 1
        for t in sorted(picks):
            mode = x.terms[int(t)][0]
            for _ in range(2):
                r = rng.uniform(0.05, 0.95, 2) * np.asarray(req.radii)
                pt = ps.FormPoint.from_polar(r, rng.uniform(0, 2 * math.pi, 2))
                residuals.append(ps.laplacian_residual(mode, pt))
            dbar.append(ps.dbar_boundary_residual(mode, off, float(rng.uniform(0, 2 * math.pi))))
        return x, back, synth, residuals, dbar

    def check(self, req, out):
        x, back, synth, residuals, dbar = out
        errors = []
        desc = self.ps.mode_descriptor
        if len(back.terms) != len(x.terms):
            errors.append("round trip changed the number of terms")
        for (m1, c1), (m2, c2) in zip(x.terms, back.terms):
            if desc(m1) != desc(m2) or abs(c1 - c2) > 1e-12 * max(abs(c1), 1e-300):
                errors.append(f"apply_inverse(apply_box(x)) != x at {desc(m1)}")
                break
        if req.family == "modes":
            got = {desc(m): c for m, c in x.terms}
            want = dict(req.combo)
            for d, w in want.items():
                if d not in got or abs(got[d] - w) > 1e-7:
                    errors.append(f"coefficient of {d} is {got.get(d)}, expected {w}")
            leftover = max((abs(c) for d, c in got.items() if d not in want), default=0.0)
            if leftover > 1e-7:
                errors.append(f"leftover coefficient {leftover:.3g} > 1e-7")
            f = self.function(req)
            for (r, t), s in zip(req.points, synth):
                z = [np.asarray(rv * np.exp(1j * tv)) for rv, tv in zip(r, t)]
                ref = complex(f(*z))
                if abs(s - ref) > 1e-6 * max(1.0, abs(ref)):
                    errors.append(f"synthesize {s} != f {ref}")
        if not all(np.isfinite(abs(s)) for s in synth):
            errors.append("synthesize returned a non-finite value")
        if max(residuals, default=0.0) >= 1e-8:
            errors.append(f"laplacian residual {max(residuals):.3g} >= 1e-8")
        if max(dbar, default=0.0) >= 1e-10:
            errors.append(f"dbar boundary residual {max(dbar):.3g} >= 1e-10")
        h = hashlib.sha256()
        for m, c in x.terms:
            h.update(repr((desc(m), m.value.hex(), c.real.hex(), c.imag.hex())).encode())
        h.update(repr([(s.real.hex(), s.imag.hex()) for s in synth]).encode())
        return errors, h.digest()


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class CliCold(Workload):
    name = "cli-cold"
    CYCLE = (
        "spectrum-csv", "zeros", "bottom", "inverse", "spectrum-json", "zeros",
        "spectrum-table", "verify", "oracle", "inverse", "zeros", "spectrum-csv",
    )

    def setup(self):
        import polyspec as ps
        from polyspec.gridfile import write_grid
        from polyspec.spectral_ops import sample_on_grid

        self.child_rss_kb = 0
        rng = np.random.default_rng(self.seed)
        u0 = 0.5 + float(rng.uniform(-0.5, 0.5)) / len(self.CYCLE)
        os.makedirs(self.out_dir, exist_ok=True)
        # PSPC inputs for `inverse`: finite mode combinations on n = 2 polydiscs
        self.grids = []
        for g in range(2):
            radii = tuple(float(a) for a in np.exp(rng.uniform(math.log(0.8), math.log(1.3), 2)))
            J = (1,) if g == 0 else (2,)
            p_max = 3
            lam, basis = truncation(radii, J, p_max, 30)
            picks = rng.choice(len(basis), size=3, replace=False)
            combo = [(basis[int(t)][0], complex(rng.normal(), rng.normal())) for t in sorted(picks)]
            angular = angular_nodes(basis, p_max)
            req = Request("grid", radii=radii, J=J, p_max=p_max, lam=lam, family="modes", combo=combo)
            F = sample_on_grid(Calculus.function(req), ps.Polydisc(radii), QUAD_NODES, angular)
            path = os.path.join(self.out_dir, f"grid{g}.pspc")
            write_grid(path, 2, 1, [(QUAD_NODES, angular)] * 2, np.ascontiguousarray(F))
            self.grids.append((path, req))
        # one large JSON request per run, so serialization memory sets peak RSS
        radii, lam = ((1.0, 2.0, 3.0), 12.0) if not self.smoke else ((1.0, 2.0), 4.0)
        argv = ["spectrum", "--radii", ",".join(map(repr, radii)), "--q", "1", "--max", repr(lam), "--format", "json"]
        self.first = [Request("spectrum-json-large", argv=argv, radii=radii, q=1, lam=lam, fmt="json")]
        size = 1.0 if not self.smoke else SMOKE_SCALE
        for i, kind in enumerate(self.CYCLE):
            self.pool.append(self._make(kind, kronecker(u0, i), i, rng, size))

    def _make(self, kind, x, i, rng, size):
        if kind == "zeros":
            order = int(x * 11)
            count = 5 + int(rng.integers(0, 11))
            fmt = ("json", "csv", "table")[i % 3]
            argv = ["zeros", "--order", str(order), "--count", str(count), "--format", fmt]
            return Request(kind, argv=argv, order=order, count=count, fmt=fmt)
        if kind.startswith("spectrum"):
            fmt = kind.split("-")[1]
            n = 2 if fmt != "csv" or i % 2 == 0 else 3
            radii = tuple(round(float(a), 6) for a in np.exp(rng.uniform(0.0, math.log(2.0), n)))
            q = int(rng.integers(1, n))
            counter = oracle.ModeCounter(radii, q)
            lam = round(counter.cutoff_for(max(20, int(10.0 ** (2.3 + 1.0 * x) * size))), 6)
            argv = ["spectrum", "--radii", ",".join(map(repr, radii)), "--q", str(q), "--max", repr(lam), "--format", fmt]
            return Request(kind, argv=argv, radii=radii, q=q, lam=lam, fmt=fmt, counter=counter)
        if kind == "bottom":
            n = int(rng.integers(2, 5))
            radii = tuple(round(float(a), 6) for a in np.exp(rng.uniform(math.log(0.5), math.log(3.0), n)))
            q = int(rng.integers(1, n))
            return Request(kind, argv=["bottom", "--radii", ",".join(map(repr, radii)), "--q", str(q)], radii=radii, q=q)
        if kind == "inverse":
            path, grid = self.grids[(i // 6) % 2]
            op = ("inverse", "box")[(i // 6) % 2]
            argv = [
                "inverse", "--input", path, "--radii", ",".join(map(repr, grid.radii)), "--q", "1",
                "--J", ",".join(map(str, grid.J)), "--max-lambda", repr(grid.lam),
                "--p-max", str(grid.p_max), "--op", op,
            ]
            return Request(kind, argv=argv, grid=grid, op=op)
        if kind == "verify":
            return Request(kind, argv=["verify", "--suite", "zeros"])
        m = int(rng.integers(-2, 3))
        count = int(rng.integers(2, 5))
        argv = ["oracle", "fd", "--order", str(m), "--bc", "dirichlet", "--grid", "500", "--count", str(count)]
        return Request("oracle", argv=argv, order=m, count=count)

    def run(self, req, inp=None, tracer=None):
        err_path = os.path.join(self.out_dir, "stderr.txt")
        with open(err_path, "wb") as err_fh:
            proc = subprocess.Popen(
                [sys.executable, "-m", "polyspec", *req.argv],
                stdout=subprocess.PIPE, stderr=err_fh, env=child_env(),
            )
            timer = threading.Timer(120.0, proc.kill)
            timer.start()
            try:
                out = proc.stdout.read()
                proc.stdout.close()
                # wait4 rather than wait(): it returns the child's peak RSS
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        with open(err_path, "rb") as fh:
            err = fh.read()
        return proc.returncode, out, err

    def peak_rss_kb(self) -> int:
        """The largest peak RSS of any CLI child."""
        return self.child_rss_kb

    def replay(self, req, inp=None, tracer=None):
        from polyspec import cli

        sink = io.StringIO()
        err = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(req.argv))
            except SystemExit as exc:  # argparse rejects a flag
                code = exc.code
        return code, sink.getvalue().encode(), err.getvalue().encode()

    def check(self, req, out):
        code, stdout, stderr = out
        if code != 0:
            return [f"{' '.join(req.argv)} exited {code}: {stderr.decode(errors='replace')[-200:]}"], stdout
        try:
            errors = getattr(self, "_check_" + req.label.split("-")[0])(req, stdout.decode())
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            errors = [f"{req.label} output does not parse: {type(exc).__name__}: {exc}"]
        return errors, stdout

    def _check_zeros(self, req, text):
        if req.fmt == "json":
            vals = json.loads(text)["zeros"]
        elif req.fmt == "csv":
            vals = [float(r["value"]) for r in csv.DictReader(io.StringIO(text))]
        else:
            vals = [float(line.split("=")[1]) for line in text.splitlines()]
        ref = oracle.bessel_zeros(req.order, req.count)
        if len(vals) != req.count or any(not _close(v, r, 1e-12) for v, r in zip(vals, ref)):
            return [f"zeros of J_{req.order} disagree with jn_zeros beyond 1e-12"]
        return []

    def _check_spectrum(self, req, text):
        if req.fmt == "json":
            pts = json.loads(text)["points"]
            rows = [(p["value"], p["finite_multiplicity"], p["infinite"]) for p in pts]
        elif req.fmt == "csv":
            rows = [
                (float(r["value"]), int(r["finite_multiplicity"]), r["infinite"] == "true")
                for r in csv.DictReader(io.StringIO(text))
            ]
        else:
            rows = []
            for line in text.splitlines()[1:]:
                parts = line.split()
                mult = parts[2]
                extra = int(parts[3].strip("(+")) if len(parts) > 3 and parts[3].startswith("(+") else 0
                rows.append((float(parts[0]), extra if mult == "inf" else int(mult), mult == "inf"))
        errors = []
        b = oracle.bottom_value(req.radii, req.q)
        if not rows or not _close(rows[0][0], b, 1e-12) or not rows[0][2]:
            errors.append("lowest point is not the infinite bottom")
        finite = sum(r[1] for r in rows)
        lo, hi = finite_window(req)
        if not lo <= finite <= hi:
            errors.append(f"finite multiplicity {finite} outside oracle window [{lo}, {hi}]")
        return errors

    def _check_bottom(self, req, text):
        rec = json.loads(text)
        n = len(req.radii)
        best = min(
            itertools.combinations(range(1, n + 1), req.q),
            key=lambda J: (sum(1.0 / req.radii[k - 1] ** 2 for k in J), J),
        )
        ok = _close(rec["value"], oracle.bottom_value(req.radii, req.q), 1e-12)
        if not ok or tuple(rec["J"]) != best:
            return [f"bottom {rec} disagrees with the closed form at J = {best}"]
        return []

    def _check_inverse(self, req, text):
        rec = json.loads(text)
        grid = req.grid
        want = {(tuple(grid.J), d[1]): w for d, w in grid.combo}
        errors = []
        got = {}
        for t in rec["terms"]:
            mode = t["mode"]
            d = (tuple(mode["J"]), tuple((f["kind"], f["angular_order"], f["radial_index"]) for f in mode["factors"]))
            c = complex(t["coeff_re"], t["coeff_im"])
            scale = {"inverse": mode["value"], "box": 1.0 / mode["value"], "none": 1.0}[req.op]
            got[d] = c * scale
        for d, w in want.items():
            if d not in got or abs(got[d] - w) > 1e-7:
                errors.append(f"inverse: coefficient of {d} is {got.get(d)}, expected {w}")
        leftover = max((abs(c) for d, c in got.items() if d not in want), default=0.0)
        if leftover > 1e-7:
            errors.append(f"inverse: leftover coefficient {leftover:.3g}")
        return errors

    def _check_verify(self, req, text):
        return [] if json.loads(text)["passed"] is True else ["verify reported a failed check"]

    def _check_oracle(self, req, text):
        vals = json.loads(text)["eigenvalues"]
        ref = oracle.bessel_zeros(req.order, req.count) ** 2
        if len(vals) != req.count or any(not _close(v, r, 1e-3) for v, r in zip(vals, ref)):
            return ["FD eigenvalues disagree with squared jn_zeros beyond 1e-3"]
        return []


WORKLOADS = {w.name: w for w in (SpectrumWarm, Calculus, CliCold)}
