"""Spectral calculus: expand coefficient functions and apply the operator.

For a fixed q-tuple J the eigenform coefficients form a complete
orthogonal family in L^2 of the polydisc, so a coefficient function f
expands as f = sum c_e e with c_e = <f, e> / <e, e>.  The operator acts
diagonally on such expansions: applying it multiplies each coefficient by
the mode eigenvalue, and applying its inverse (the dbar-Neumann operator)
divides by it, which is always possible since the bottom of the spectrum
is positive.

Inner products use tensor quadrature: Gauss-Legendre radially (with the
polar weight r), uniform trapezoid angularly.  Mode norms use the closed
forms: a^2 J_{m+1}(lambda_{m,j})^2 / 2 for Dirichlet factors, the Robin
analogue a^2 J_m(lambda_{m+1,j})^2 / 2 for Neumann-positive factors, and
a^{2p+2} / (2p + 2) for monomials.

Expansions evaluate each variable's distinct factors once: one row-wise
`bessel_j_many` call per expansion gives every variable's oscillatory
radial profiles on its quadrature nodes (the Dirichlet pair +-m shares one
row), and each distinct profile's closed-form norm is computed once.
`synthesize` evaluates each distinct factor once per point.  Every result
keeps the bits of the mode-by-mode formulas (`mode_norm_sq`,
`eval_coefficient`).

Holomorphic families cannot be materialized in full (the exponent is a
free parameter), so expansions instantiate them up to an explicit cap
`p_max`; the truncation is the caller's to choose and is visible in the
expansion itself.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import warnings
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .bessel import bessel_j, bessel_j_many
from .disc_modes import FactorKind, ModeFactor, _profile_order, holomorphic_factor
from .eigenforms import FormPoint, _coefficient, _factor_value
from .errors import InvalidArgumentError, InvariantViolationError
from .spectrum import EigenMode, Polydisc, enumerate_modes
from .zeros import ZeroCache

__all__ = [
    "Expansion",
    "expand",
    "expand_from_samples",
    "apply_box",
    "apply_inverse",
    "synthesize",
    "mode_norm_sq",
    "expansion_norm",
    "radial_quadrature",
    "angular_quadrature",
    "sample_on_grid",
    "sampled_norm_sq",
]


@dataclass(frozen=True)
class Expansion:
    """Truncated eigen-expansion of one dbar_J coefficient."""

    J: tuple[int, ...]
    terms: tuple[tuple[EigenMode, complex], ...]
    truncation_lambda: float

    def __post_init__(self) -> None:
        for mode, _ in self.terms:
            if mode.J != self.J:
                raise InvalidArgumentError("all expansion modes must share the tuple J")
            if mode.value > self.truncation_lambda * (1.0 + 1e-12):
                raise InvalidArgumentError("expansion mode above its truncation")


@functools.lru_cache(maxsize=16)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per n.

    The arrays are shared between callers, hence read-only.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def radial_quadrature(a: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [0, a] (plain dr weights)."""
    if not isinstance(n, numbers.Integral) or n < 1:
        raise InvalidArgumentError(
            f"radial quadrature node count must be an integer >= 1, got {n!r}"
        )
    x, w = _gauss_legendre(n)
    return 0.5 * a * (x + 1.0), 0.5 * a * w


def angular_quadrature(t: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform angular nodes with trapezoid (equal) weights summing to 2 pi."""
    if not isinstance(t, numbers.Integral) or t < 1:
        raise InvalidArgumentError(
            f"angular quadrature node count must be an integer >= 1, got {t!r}"
        )
    theta = 2.0 * math.pi * np.arange(t) / t
    return theta, np.full(t, 2.0 * math.pi / t)


def sample_on_grid(
    f, P: Polydisc, quad_nodes: int, angular_nodes: int
) -> np.ndarray:
    """Sample f on the tensor quadrature grid.

    f is called once with n numpy-broadcastable complex arrays (one per
    variable) and must return the broadcast result; wrap a scalar-only
    callable with np.vectorize first.  The returned array has shape
    (R, T, R, T, ...), radial and angular axes interleaved per variable.
    """
    n = P.n
    full_shape = (quad_nodes, angular_nodes) * n
    zs = []
    for k in range(n):
        r, _ = radial_quadrature(P.radii[k], quad_nodes)
        theta, _ = angular_quadrature(angular_nodes)
        zk = r[:, None] * np.exp(1j * theta)[None, :]
        shape = [1] * (2 * n)
        shape[2 * k] = quad_nodes
        shape[2 * k + 1] = angular_nodes
        zs.append(zk.reshape(shape))
    F = np.asarray(f(*zs), dtype=complex)
    return np.broadcast_to(F, full_shape)


def sampled_norm_sq(F: np.ndarray, P: Polydisc, quad_nodes: int, angular_nodes: int) -> float:
    """Quadrature value of int |F|^2 over the polydisc volume."""
    W = np.ones(())
    for k in range(P.n):
        r, wr = radial_quadrature(P.radii[k], quad_nodes)
        _, wt = angular_quadrature(angular_nodes)
        W = np.multiply.outer(W, np.multiply.outer(wr * r, wt))
    return float(np.sum(W * np.abs(F) ** 2))


def _factor_norm_sq(f: ModeFactor) -> float:
    """2 pi times the closed-form squared radial norm of one factor."""
    a = f.radius
    if f.kind is FactorKind.HOLOMORPHIC:
        p = f.angular_order
        radial = a ** (2 * p + 2) / (2 * p + 2)
    else:
        x = math.sqrt(f.lambda_k) * a
        if f.kind is FactorKind.DIRICHLET:
            edge = bessel_j(abs(f.angular_order) + 1, x)
        else:
            edge = bessel_j(f.angular_order, x)
        radial = 0.5 * a * a * edge * edge
    return 2.0 * math.pi * radial


def _factor_norms(factors) -> dict[ModeFactor, float]:
    """`_factor_norm_sq` of each distinct factor, computed once per profile
    (the Dirichlet pair +-m has one)."""
    by_profile: dict[tuple, float] = {}
    out: dict[ModeFactor, float] = {}
    for f in factors:
        if f not in out:
            key = (f.kind, _profile_order(f), f.lambda_k, f.radius)
            if key not in by_profile:
                by_profile[key] = _factor_norm_sq(f)
            out[f] = by_profile[key]
    return out


def mode_norm_sq(mode: EigenMode) -> float:
    """Closed-form squared L^2 norm of the mode's coefficient."""
    return math.prod(_factor_norm_sq(f) for f in mode.factors)


def _materialize_holomorphic(modes: list[EigenMode], p_max: int) -> list[EigenMode]:
    """Expand canonical p = 0 holomorphic slots into explicit exponents."""
    out: list[EigenMode] = []
    for mode in modes:
        slots = [
            i for i, f in enumerate(mode.factors) if f.kind is FactorKind.HOLOMORPHIC
        ]
        if not slots:
            out.append(mode)
            continue
        exponents = [range(p_max + 1)] * len(slots)
        for combo in itertools.product(*exponents):
            factors = list(mode.factors)
            for slot, p in zip(slots, combo):
                factors[slot] = holomorphic_factor(p, factors[slot].radius)
            out.append(EigenMode(mode.J, tuple(factors), mode.value))
    return out


def _factor_grids(factors: list[list[ModeFactor]], nodes: list[np.ndarray], theta: np.ndarray):
    """Yield each variable's factors on its polar grid, stacked as
    (factor, r, theta).

    One row-wise `bessel_j_many` call gives every oscillatory profile, one
    row per distinct (variable, order, lambda): the nodes scale with each
    radius, and the Dirichlet pair +-m shares J_{|m|}.  Monomials give r^p,
    and each distinct angular order gives one phase row.
    """
    profiles = dict.fromkeys(
        (k, _profile_order(f), f.lambda_k)
        for k, fs in enumerate(factors)
        for f in fs
        if f.kind is not FactorKind.HOLOMORPHIC
    )
    if profiles:
        z = np.stack([math.sqrt(lam) * nodes[k] for k, _, lam in profiles])
        profiles = dict(zip(profiles, bessel_j_many([o for _, o, _ in profiles], z)))
    phases: dict[int, np.ndarray] = {}
    for k, (fs, r) in enumerate(zip(factors, nodes)):
        radial = []
        for f in fs:
            m = f.angular_order
            if f.kind is FactorKind.HOLOMORPHIC:
                radial.append(r**m if m else np.ones_like(r))
            else:
                radial.append(profiles[(k, _profile_order(f), f.lambda_k)])
            if m not in phases:
                phases[m] = np.exp(1j * m * theta)
        phase = np.stack([phases[f.angular_order] for f in fs])
        yield np.stack(radial)[:, :, None] * phase[:, None, :]


def _checked_J(P: Polydisc, q: int, J, quad_nodes: int, p_max: int) -> tuple[int, ...]:
    """J as a tuple of ints, once J, the radial node count and p_max pass the
    checks an expansion makes before it reads any sample."""
    if not isinstance(J, Iterable):
        raise InvalidArgumentError(f"J = {J!r} is not a tuple of integers")
    if not all(isinstance(k, numbers.Integral) for k in J):
        raise InvalidArgumentError(f"J = {J!r} holds an entry that is not an integer")
    J = tuple(int(k) for k in J)
    if len(J) != q or list(J) != sorted(set(J)) or J[0] < 1 or J[-1] > P.n:
        raise InvalidArgumentError(f"J = {J} is not a strictly increasing {q}-tuple in 1..{P.n}")
    if not isinstance(quad_nodes, numbers.Integral) or quad_nodes < 64:
        raise InvalidArgumentError(
            f"radial quadrature node count must be an integer >= 64, got {quad_nodes!r}"
        )
    if not isinstance(p_max, numbers.Integral) or p_max < 0:
        raise InvalidArgumentError(f"p_max must be an integer >= 0, got {p_max!r}")
    return J


def expand_from_samples(
    F: np.ndarray,
    P: Polydisc,
    q: int,
    J: tuple[int, ...],
    truncation_lambda: float,
    cache: ZeroCache,
    quad_nodes: int = 64,
    angular_nodes: int = 32,
    p_max: int = 16,
) -> Expansion:
    """Expansion of pre-sampled data on the canonical quadrature grid.

    A NaN or infinite sample raises InvalidArgumentError.
    """
    J = _checked_J(P, q, J, quad_nodes, p_max)
    expected = (quad_nodes, angular_nodes) * P.n
    if F.shape != expected:
        raise InvalidArgumentError(f"sample grid has shape {F.shape}, expected {expected}")

    modes = [m for m in enumerate_modes(P, q, truncation_lambda, cache) if m.J == J]
    modes = _materialize_holomorphic(modes, p_max)
    if not modes:
        warnings.warn("truncation lies below the bottom of the spectrum; empty expansion")
        return Expansion(J, (), truncation_lambda)
    max_m = max(abs(f.angular_order) for mode in modes for f in mode.factors)
    if angular_nodes < 2 * max_m + 2:
        raise InvalidArgumentError(
            f"{angular_nodes} angular nodes alias angular order {max_m}; "
            f"need at least {2 * max_m + 2}"
        )

    # Distinct factors per variable, then one tensor contraction per variable.
    per_var_factors: list[list[ModeFactor]] = []
    per_var_index: list[dict[ModeFactor, int]] = []
    for k in range(P.n):
        seen: dict[ModeFactor, int] = {}
        for mode in modes:
            f = mode.factors[k]
            if f not in seen:
                seen[f] = len(seen)
        per_var_index.append(seen)
        per_var_factors.append(list(seen))
    G = np.asarray(F, dtype=complex)
    radial = [radial_quadrature(a, quad_nodes) for a in P.radii]
    theta, wt = angular_quadrature(angular_nodes)
    grids = _factor_grids(per_var_factors, [r for r, _ in radial], theta)
    for (r, wr), grid in zip(radial, grids):
        stack = np.conj(grid) * np.multiply.outer(wr * r, wt)
        with np.errstate(invalid="ignore"):  # inf samples: refused below
            G = np.tensordot(G, stack, axes=([0, 1], [1, 2]))
    # a NaN or inf sample reaches every contracted entry: checking them is exact
    if not np.isfinite(G).all():
        raise InvalidArgumentError("sample grid holds a non-finite value")

    norms = _factor_norms(f for fs in per_var_factors for f in fs)
    terms = []
    for mode in modes:
        idx = tuple(per_var_index[k][mode.factors[k]] for k in range(P.n))
        # the product in mode_norm_sq's order, so each coefficient keeps its bits
        coeff = complex(G[idx]) / math.prod(norms[f] for f in mode.factors)
        terms.append((mode, coeff))
    return Expansion(J, tuple(terms), truncation_lambda)


def expand(
    f,
    P: Polydisc,
    q: int,
    J: tuple[int, ...],
    truncation_lambda: float,
    cache: ZeroCache,
    quad_nodes: int = 64,
    angular_nodes: int = 32,
    p_max: int = 16,
) -> Expansion:
    """Project a coefficient function onto the eigenbasis below the cutoff.

    Coefficients are <f, e> / <e, e> with tensor quadrature for the inner
    product and closed-form norms.  See `sample_on_grid` for the callable
    contract of f, which is called only once J, p_max and the node counts
    have passed their checks.
    """
    _checked_J(P, q, J, quad_nodes, p_max)
    F = sample_on_grid(f, P, quad_nodes, angular_nodes)
    return expand_from_samples(
        F, P, q, J, truncation_lambda, cache, quad_nodes, angular_nodes, p_max
    )


def apply_box(x: Expansion) -> Expansion:
    """Apply the operator: multiply each coefficient by its eigenvalue."""
    return Expansion(
        x.J, tuple((m, c * m.value) for m, c in x.terms), x.truncation_lambda
    )


def apply_inverse(x: Expansion) -> Expansion:
    """Apply the inverse (the dbar-Neumann operator): divide by eigenvalues."""
    for mode, _ in x.terms:
        if mode.value <= 0.0:
            raise InvariantViolationError(
                "expansion contains a non-positive eigenvalue; the inverse "
                "is defined because the bottom of the spectrum is positive"
            )
    return Expansion(
        x.J, tuple((m, c / m.value) for m, c in x.terms), x.truncation_lambda
    )


def synthesize(x: Expansion, p: FormPoint) -> complex:
    """Pointwise value of the expansion's coefficient function.

    Equal, bit for bit, to sum(c * eval_coefficient(mode, p)) over the
    terms; each distinct (variable, factor) value is evaluated once.
    """
    values: dict[tuple[int, ModeFactor], complex] = {}

    def value(k: int, f: ModeFactor, r: float, theta: float) -> complex:
        v = values.get((k, f))
        if v is None:
            v = values[(k, f)] = _factor_value(f, r, theta)
        return v

    return sum((c * _coefficient(m, p, value) for m, c in x.terms), complex(0.0))


def expansion_norm(x: Expansion) -> float:
    """L^2 norm of the expansion, sqrt(sum |c|^2 ||e||^2)."""
    norms = _factor_norms(f for m, _ in x.terms for f in m.factors)
    return math.sqrt(
        sum(abs(c) ** 2 * math.prod(norms[f] for f in m.factors) for m, c in x.terms)
    )
