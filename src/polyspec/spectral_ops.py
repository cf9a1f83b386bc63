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

Holomorphic families cannot be materialized in full (the exponent is a
free parameter), so expansions instantiate them up to an explicit cap
`p_max`; the truncation is the caller's to choose and is visible in the
expansion itself.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bessel import DEFAULT_CONFIG, EvalConfig, bessel_j, bessel_j_many
from .disc_modes import FactorKind, ModeFactor, holomorphic_factor
from .eigenforms import FormPoint, eval_coefficient
from .errors import InvalidArgumentError, InvariantViolationError
from .spectrum import EigenMode, Polydisc, _ClassTable
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


def radial_quadrature(a: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [0, a] (plain dr weights)."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * a * (x + 1.0), 0.5 * a * w


def angular_quadrature(t: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform angular nodes with trapezoid (equal) weights summing to 2 pi."""
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


def mode_norm_sq(mode: EigenMode, cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """Closed-form squared L^2 norm of the mode's coefficient."""
    out = 1.0
    for f in mode.factors:
        a = f.radius
        if f.kind is FactorKind.HOLOMORPHIC:
            p = f.angular_order
            radial = a ** (2 * p + 2) / (2 * p + 2)
        else:
            x = math.sqrt(f.lambda_k) * a
            if f.kind is FactorKind.DIRICHLET:
                edge = bessel_j(abs(f.angular_order) + 1, x, cfg)
            else:
                edge = bessel_j(f.angular_order, x, cfg)
            radial = 0.5 * a * a * edge * edge
        out *= 2.0 * math.pi * radial
    return out


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


def _factor_grid(
    f: ModeFactor, r: np.ndarray, theta: np.ndarray, cfg: EvalConfig
) -> np.ndarray:
    m = f.angular_order
    if f.kind is FactorKind.HOLOMORPHIC:
        radial = r**m if m else np.ones_like(r)
    else:
        s = math.sqrt(f.lambda_k)
        order = abs(m) if f.kind is FactorKind.DIRICHLET else m
        radial = bessel_j_many(order, s * r, cfg)
    return radial[:, None] * np.exp(1j * m * theta)[None, :]


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
    cfg: EvalConfig = DEFAULT_CONFIG,
) -> Expansion:
    """Expansion of pre-sampled data on the canonical quadrature grid."""
    J = tuple(int(k) for k in J)
    if len(J) != q or list(J) != sorted(set(J)) or J[0] < 1 or J[-1] > P.n:
        raise InvalidArgumentError(f"J = {J} is not a strictly increasing {q}-tuple in 1..{P.n}")
    if quad_nodes < 64:
        raise InvalidArgumentError("need at least 64 radial quadrature nodes per dimension")
    if p_max < 0:
        raise InvalidArgumentError("p_max must be non-negative")
    expected = (quad_nodes, angular_nodes) * P.n
    if F.shape != expected:
        raise InvalidArgumentError(f"sample grid has shape {F.shape}, expected {expected}")

    modes = list(_ClassTable(P, q, truncation_lambda, cache, J).modes())
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
    for k in range(P.n):
        r, wr = radial_quadrature(P.radii[k], quad_nodes)
        theta, wt = angular_quadrature(angular_nodes)
        weight = np.multiply.outer(wr * r, wt)
        stack = np.stack(
            [np.conj(_factor_grid(f, r, theta, cfg)) * weight for f in per_var_factors[k]]
        )
        G = np.tensordot(G, stack, axes=([0, 1], [1, 2]))

    terms = []
    for mode in modes:
        idx = tuple(per_var_index[k][mode.factors[k]] for k in range(P.n))
        coeff = complex(G[idx]) / mode_norm_sq(mode, cfg)
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
    cfg: EvalConfig = DEFAULT_CONFIG,
) -> Expansion:
    """Project a coefficient function onto the eigenbasis below the cutoff.

    Coefficients are <f, e> / <e, e> with tensor quadrature for the inner
    product and closed-form norms.  See `sample_on_grid` for the callable
    contract of f.
    """
    F = sample_on_grid(f, P, quad_nodes, angular_nodes)
    return expand_from_samples(
        F, P, q, J, truncation_lambda, cache, quad_nodes, angular_nodes, p_max, cfg
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


def synthesize(x: Expansion, p: FormPoint, cfg: EvalConfig = DEFAULT_CONFIG) -> complex:
    """Pointwise value of the expansion's coefficient function."""
    return sum((c * eval_coefficient(m, p, cfg) for m, c in x.terms), complex(0.0))


def expansion_norm(x: Expansion, cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """L^2 norm of the expansion, sqrt(sum |c|^2 ||e||^2)."""
    return math.sqrt(sum(abs(c) ** 2 * mode_norm_sq(m, cfg) for m, c in x.terms))
