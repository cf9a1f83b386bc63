"""Correctness checks behind both `polyspec verify` and the acceptance tests.

Each `check_*` function re-runs some of the package's correctness arguments
(identities, certified zeros, residuals, oracle agreement, FD convergence)
on the workload given as its arguments, after the random generator and the
zero cache that every check takes, and returns named `CheckResult`s.  A
check fails, and says why, when a value it samples is NaN or infinite or
when it samples nothing.  `SUITES` holds verify's small workloads.

`bessel` and `zeros`, which every suite loads, are imported here; a check
that uses other modules imports them itself, so a suite loads only what
its checks use (`verify --suite zeros` loads no disc modes, spectrum,
eigenforms or oracles).
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .bessel import bessel_j, bessel_j_prime, bessel_j_second, oracle_bessel_j
from .errors import InvalidArgumentError, PolyspecError
from .zeros import ZeroCache, j0_bracket

__all__ = ["CheckResult", "SUITES", "run_checks", "run_suite", "run_suites"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _holds(name: str, values, holds: bool, detail: str = "") -> CheckResult:
    """`holds` decides, unless `values` is empty or has a NaN or an inf."""
    v = np.asarray(values, dtype=float)
    bad = v.size - int(np.count_nonzero(np.isfinite(v)))
    if bad or not v.size:
        why = f"{bad} of {v.size} values not finite" if bad else "no values sampled"
        return CheckResult(name, False, why)
    return CheckResult(name, bool(holds), detail)


def _max_below(name: str, values, tol: float, label: str = "max") -> CheckResult:
    worst = max(values, default=math.nan)
    return _holds(name, values, worst < tol, f"{label} {worst:.3g}")


def _close(value: float, expected: float, rel: float) -> bool:
    """Closeness as `pytest.approx(expected, rel=rel)` judges it: floor 1e-12."""
    return abs(value - expected) <= max(rel * abs(expected), 1e-12)


def _draws(rng, samples: int, orders: int, z_range: tuple[float, float]):
    """`samples` pairs (m, z): m uniform in [0, orders), then z in z_range."""
    return [(int(rng.integers(0, orders)), float(rng.uniform(*z_range))) for _ in range(samples)]


def check_parity(rng, cache: ZeroCache, samples: int) -> list[CheckResult]:
    devs = [
        abs(bessel_j(-m, z) - (-1.0) ** m * bessel_j(m, z))
        for m, z in _draws(rng, samples, 40, (0.0, 80.0))
    ]
    # below the least positive double: the deviations must all be exactly 0
    return [_max_below("parity J_(-m) = (-1)^m J_m", devs, math.ulp(0.0), "max abs dev")]


def check_identities(rng, cache: ZeroCache, samples, zs, points, integral_samples):
    """Residuals of Bessel identities: the three-term recurrence and Bessel's
    equation at `samples` draws each, sum_m t^m J_m(z) = exp(z (t - 1/t) / 2)
    at `points` points t of the unit circle for each z in `zs`, and the
    integral representation at `integral_samples` draws."""
    recurrence = [
        abs(m * bessel_j(m, z) - 0.5 * z * (bessel_j(m + 1, z) + bessel_j(m - 1, z)))
        for m, z in _draws(rng, samples, 31, (1e-6, 60.0))
    ]
    equation = []
    for m, z in _draws(rng, samples, 31, (0.3, 60.0)):
        lhs = bessel_j_second(m, z) + bessel_j_prime(m, z) / z
        equation.append(abs(lhs + (1.0 - m * m / (z * z)) * bessel_j(m, z)))
    generating = []
    for z in zs:
        for i in range(points):
            t = cmath.exp(2j * math.pi * (i + 0.5) / points)
            total = sum(t**m * bessel_j(m, z) for m in range(-60, 61))
            generating.append(abs(total - cmath.exp(0.5 * z * (t - 1.0 / t))))
    theta = 2.0 * math.pi * np.arange(2048) / 2048
    integral = [
        abs(float(np.mean(np.cos(m * theta - z * np.sin(theta)))) - bessel_j(m, z))
        for m, z in _draws(rng, integral_samples, 11, (0.0, 30.0))
    ]
    return [
        _max_below("three-term recurrence residual < 1e-10", recurrence, 1e-10),
        _max_below("Bessel-equation residual < 1e-9", equation, 1e-9),
        _max_below("generating-function identity < 1e-10", generating, 1e-10),
        _max_below("integral representation < 1e-9", integral, 1e-9),
    ]


def check_oracle_agreement(rng, cache: ZeroCache) -> list[CheckResult]:
    errs = []
    for m, z in ((0, 2.0), (1, 1.0), (5, 1.0), (7, 25.0), (0, 40.0)):
        ref = float(oracle_bessel_j(m, z, 30))
        errs.append(abs(bessel_j(m, z) - ref) / max(abs(ref), 1e-13))
    return [_max_below("agreement with arbitrary-precision oracle", errs, 1e-12, "max rel")]


def check_zeros(rng, cache: ZeroCache, count: int, up_to: int) -> list[CheckResult]:
    """The first `count` J_0 zeros lie in their a-priori brackets; for orders
    m < up_to and indices j < up_to the zeros interlace and J_m vanishes there."""
    brackets, inside = [], True
    for k in range(count):
        lo, hi = (k + 0.5) * math.pi, (k + 1) * math.pi
        blo, bhi = j0_bracket(k)
        z = cache.zero(0, k + 1)
        brackets += [blo, bhi, z]
        inside = inside and lo < z < hi and _close(blo, lo, 1e-6) and _close(bhi, hi, 1e-6)
    triples = [
        (cache.zero(m, j), cache.zero(m + 1, j), cache.zero(m, j + 1))
        for m in range(up_to)
        for j in range(1, up_to)
    ]
    interlaced = all(a < b < c for a, b, c in triples)
    res = [abs(bessel_j(m, cache.zero(m, j))) for m in range(up_to) for j in range(1, up_to)]
    return [
        _holds(f"first {count} J_0 zeros inside ((k+1/2)pi,(k+1)pi)", brackets, inside),
        _holds(f"interlacing up to order/index {up_to}", triples, interlaced),
        _max_below("|J_m| < 1e-11 at cached zeros", res, 1e-11),
    ]


def check_simple_zeros(rng, cache: ZeroCache, up_to: int) -> list[CheckResult]:
    """|J'_m| stays clear of 0 at the zeros below `up_to`; negative orders share |m|'s zeros."""
    slopes = [
        abs(bessel_j_prime(m, cache.zero(m, j))) for m in range(up_to) for j in range(1, up_to)
    ]
    least = min(slopes, default=math.nan)
    pair = [cache.zero(-3, 2), cache.zero(3, 2)]
    return [
        _holds("zeros are simple (|J'_m| > 1e-3)", slopes, least > 1e-3, f"min {least:.3g}"),
        _holds("negative order reduces to |m|", pair, pair[0] == pair[1]),
    ]


def check_disc_factors(rng, cache: ZeroCache) -> list[CheckResult]:
    from .disc_modes import dirichlet_factors, holomorphic_factor, neumann_factors, robin_residual

    facs = dirichlet_factors(1.0, 6.0, cache)
    lams = [f.lambda_k for f in facs]
    one = len(facs) == 1 and facs[0].angular_order == 0
    one = one and abs(lams[0] - 5.783185962946785) < 1e-10
    out = [_holds("Dirichlet factors on unit disc below 6", lams, one, f"got {len(facs)} factors")]
    nfac = neumann_factors(1.0, 20.0, cache)
    residuals = [robin_residual(f) for f in nfac]
    out.append(_max_below("Robin residual < 1e-10 at construction", residuals, 1e-10))
    f0 = nfac[0]
    res = robin_residual(replace(f0, lambda_k=f0.lambda_k * 1.01))
    name = "Robin residual detects 1% eigenvalue perturbation"
    out.append(_holds(name, [res], res > 1e-3, f"residual {res:.3g}"))
    try:
        holomorphic_factor(-1, 1.0)
        rejected = False
    except InvalidArgumentError:
        rejected = True
    out.append(CheckResult("negative monomial exponent rejected", rejected, ""))
    return out


def check_eigenform_residuals(rng, cache: ZeroCache, lam_max, interior, boundary):
    """Every 1-form mode of the unit bidisc below `lam_max`: the eigenvalue
    equation at `interior` points, and at `boundary` points of each circle
    |z_k| = 1 the Dirichlet condition (k in J) or the dbar condition."""
    from .eigenforms import FormPoint, dbar_boundary_residual, eval_coefficient, laplacian_residual
    from .polydisc import Polydisc
    from .spectrum import enumerate_modes

    pde, dirichlet, dbar = [], [], []
    for mode in enumerate_modes(Polydisc((1.0, 1.0)), 1, lam_max, cache):
        for _ in range(interior):
            p = FormPoint.from_polar(rng.uniform(0.02, 0.98, 2), rng.uniform(0.0, 2 * math.pi, 2))
            pde.append(laplacian_residual(mode, p))
        for k in (1, 2):
            if k in mode.J:
                for theta_pair in rng.uniform(0.0, 2 * math.pi, (boundary, 2)):
                    r = [float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.1, 0.9))]
                    r[k - 1] = 1.0
                    p = FormPoint.from_polar(r, theta_pair)
                    dirichlet.append(abs(eval_coefficient(mode, p)))
            else:
                for theta in rng.uniform(0.0, 2 * math.pi, boundary):
                    dbar.append(dbar_boundary_residual(mode, k, float(theta)))
    return [
        _max_below("eigenvalue-equation residual < 1e-8", pde, 1e-8),
        _max_below("Dirichlet boundary values < 1e-11", dirichlet, 1e-11),
        _max_below("dbar boundary residuals < 1e-10", dbar, 1e-10),
    ]


def check_enumeration_oracle(rng, cache: ZeroCache, radii_sets, lam_max) -> list[CheckResult]:
    """Every q-form mode below `lam_max`, value and descriptor, against brute
    force inside certified index bounds, for each 1 <= q < n."""
    from .polydisc import Polydisc
    from .spectrum import enumerate_modes, mode_descriptor
    from .verify import brute_force_spectrum

    out = []
    for radii in radii_sets:
        P = Polydisc(radii)
        for q in range(1, P.n):
            modes = enumerate_modes(P, q, lam_max, cache)
            pairs = brute_force_spectrum(P, q, lam_max, cache)
            ours = {mode_descriptor(m): m.value for m in modes}
            oracle = {d: v for v, d in pairs}
            # a repeated descriptor shrinks its dict below its list
            same = len(ours) == len(modes) == len(pairs) == len(oracle) and all(
                abs(v - oracle.get(d, math.inf)) < 1e-10 for d, v in ours.items()
            )
            name = f"enumeration equals brute force on radii {radii}, q={q}"
            values = [m.value for m in modes] + [v for v, _ in pairs]
            out.append(_holds(name, values, same, f"{len(modes)} vs {len(pairs)} modes"))
    return out


def check_closed_form_bottom(rng, cache: ZeroCache, samples: int) -> list[CheckResult]:
    """On random polydiscs (n = 2..4, radii in [0.4, 3), random q), `bottom` is
    the least lambda_{0,1}^2/4 * sum_{k in J} 1/a_k^2 over q-subsets J and the
    first spectral point, of infinite multiplicity."""
    from .polydisc import Polydisc, bottom
    from .spectrum import assemble_spectrum

    lam01_sq = cache.zero(0, 1) ** 2
    values, wrong = [], []
    for _ in range(samples):
        n = int(rng.integers(2, 5))
        radii = tuple(float(rng.uniform(0.4, 3.0)) for _ in range(n))
        q = int(rng.integers(1, n))
        P = Polydisc(radii)
        val, _ = bottom(P, q, cache)
        best = min(
            0.25 * lam01_sq * sum(1.0 / radii[k - 1] ** 2 for k in J)
            for J in itertools.combinations(range(1, n + 1), q)
        )
        head = []
        if _close(val, best, 1e-12):
            head = assemble_spectrum(P, q, val * 1.02, cache=cache)[:1]
        first = [(p.value, p.infinite) for p in head]
        values += [val, best] + [v for v, _ in first]
        if not (first and _close(first[0][0], val, 1e-12) and first[0][1]):
            wrong.append(f"radii {radii} q={q}: bottom {val!r}, closed form {best!r}: {first}")
    name = "closed-form bottom is the first point, of infinite multiplicity"
    return [_holds(name, values, not wrong, wrong[0] if wrong else f"{samples} polydiscs")]


def check_fd_convergence(rng, cache: ZeroCache, orders, count, grid_sizes, richardson_tol):
    """FD radial eigenvalues on the unit disc per order m and boundary
    condition: order-2 error decay and Richardson agreement.  The dbar-Neumann
    problem has a zero mode exactly when m >= 0, and its least eigenvalue is
    the first positive closed form otherwise."""
    from .verify import BoundaryCondition, fd_convergence_report

    out = []
    for m, bc in itertools.product(orders, BoundaryCondition):
        rep = fd_convergence_report(m, bc, 1.0, count, cache, grid_sizes=grid_sizes)
        eigs = rep["eigenvalues"]
        slopes = [s for e in eigs for s in e["slopes"]]
        rich = [e["richardson_rel_error"] for e in eigs]
        zero_mode = list((rep["zero_mode"] or {}).values())
        coarsest, first_positive = eigs[0]["fd"][grid_sizes[0]], eigs[0]["exact"]
        ok = all(abs(s - 2.0) <= 0.3 for s in slopes) and all(r < richardson_tol for r in rich)
        if bc is BoundaryCondition.DBAR_NEUMANN:
            ok = ok and rep["zero_mode_expected"] == (m >= 0) and (
                all(abs(v) < 1e-3 * first_positive for v in zero_mode)
                if m >= 0
                else coarsest > 0.5 * first_positive
            )
        detail = f"slopes {', '.join(f'{s:.3g}' for s in slopes)}; Richardson {max(rich):.3g}"
        values = slopes + rich + zero_mode + [coarsest]
        out.append(_holds(f"FD convergence m={m} bc={bc.value}", values, ok, detail))
    return out


SUITES = {
    "bessel": (
        (check_parity, dict(samples=20)),
        (check_identities, dict(samples=30, zs=(5.0,), points=8, integral_samples=3)),
        (check_oracle_agreement, {}),
    ),
    "zeros": ((check_zeros, dict(count=10, up_to=8)), (check_simple_zeros, dict(up_to=8))),
    "modes": ((check_disc_factors, {}),),
    "spectrum-oracle": (
        (check_enumeration_oracle, dict(radii_sets=((1.0, 1.0), (1.0, 2.0**0.5)), lam_max=10.0)),
        (check_closed_form_bottom, dict(samples=3)),
    ),
    "forms": ((check_eigenform_residuals, dict(lam_max=8.0, interior=5, boundary=1)),),
    "fd": (
        (
            check_fd_convergence,
            dict(orders=(-1, 0, 1), count=2, grid_sizes=(500, 1000, 2000), richardson_tol=1e-5),
        ),
    ),
}


def run_checks(rng, cache: ZeroCache, workloads) -> list[CheckResult]:
    """Run each (check, workload) pair in turn; a check that reports nothing fails."""
    out: list[CheckResult] = []
    for check, workload in workloads:
        out += check(rng, cache, **workload) or [CheckResult(check.__name__, False, "no results")]
    return out


def run_suite(name: str, seed: int = 0, cache: ZeroCache | None = None) -> dict:
    """Run one suite; returns {suite, seed, passed, checks: [...]}."""
    if name not in SUITES:
        raise InvalidArgumentError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if cache is None:
        cache = ZeroCache()
    try:
        checks = run_checks(np.random.default_rng(seed), cache, SUITES[name])
    except PolyspecError as exc:  # a suite must never die silently
        checks = [CheckResult(f"{name} suite execution", False, f"{type(exc).__name__}: {exc}")]
    return {
        "suite": name,
        "seed": seed,
        "passed": all(c.passed for c in checks),
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail} for c in checks],
    }


def run_suites(names: list[str], seed: int = 0) -> list[dict]:
    cache = ZeroCache()
    return [run_suite(n, seed, cache) for n in names]
