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

Samples stream through the projection in slabs of at most `_SLAB` (2**20)
samples: whole radial rows of the last variable, in radial order, against
every node of the others.  `expand` calls f once per slab and
`expand_from_samples` reads views of its grid's slabs; each slab is
contracted over variables 1..n-1 as it comes, the partial results are
joined, and only then is variable n contracted.  So no full grid or
full-grid temporary of f is held, and no coefficient's bits depend on the
slab size.  `sample_on_grid` fills its one output array by the same slabs.

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
from .quadrature import _check_count, _gauss_legendre
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

# Most samples one call of f or one slab of a sample grid holds (16 MiB of
# complex128), unless a single radial row of the last variable holds more.
_SLAB = 1 << 20


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
    _check_count("radial", n, 1)
    x, w = _gauss_legendre(n)
    return 0.5 * a * (x + 1.0), 0.5 * a * w


def angular_quadrature(t: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform angular nodes with trapezoid (equal) weights summing to 2 pi."""
    _check_count("angular", t, 1)
    theta = 2.0 * math.pi * np.arange(t) / t
    return theta, np.full(t, 2.0 * math.pi / t)


def _grid_axes(P: Polydisc, quad_nodes: int, angular_nodes: int) -> list[np.ndarray]:
    """Each variable's nodes r e^{i theta}, shaped to broadcast over the
    interleaved (R, T, R, T, ...) grid."""
    n = P.n
    theta, _ = angular_quadrature(angular_nodes)
    zs = []
    for k in range(n):
        r, _ = radial_quadrature(P.radii[k], quad_nodes)
        shape = [1] * (2 * n)
        shape[2 * k] = quad_nodes
        shape[2 * k + 1] = angular_nodes
        zs.append((r[:, None] * np.exp(1j * theta)[None, :]).reshape(shape))
    return zs


def _row_slices(n: int, quad_nodes: int, angular_nodes: int) -> list[slice]:
    """The last variable's radial rows in radial order, cut into slabs of at
    most _SLAB samples (one row per slab if a row alone holds more)."""
    row = (quad_nodes * angular_nodes) ** (n - 1) * angular_nodes
    step = max(1, _SLAB // row)
    return [slice(lo, min(lo + step, quad_nodes)) for lo in range(0, quad_nodes, step)]


def _sample_slab(f, zs: list[np.ndarray], rows: slice) -> np.ndarray:
    """f on the slab of the grid whose last variable takes the radial `rows`."""
    *head, last = zs
    last = last[..., rows, :]
    shape = np.broadcast_shapes(*(z.shape for z in head), last.shape)
    return np.broadcast_to(np.asarray(f(*head, last), dtype=complex), shape)


def sample_on_grid(
    f, P: Polydisc, quad_nodes: int, angular_nodes: int
) -> np.ndarray:
    """Sample f on the tensor quadrature grid.

    f must be pointwise: it is called with n numpy-broadcastable complex
    arrays (one per variable) and returns the broadcast result; wrap a
    scalar-only callable with np.vectorize first.  It is called once per
    slab: whole radial rows of the last variable, in their radial order,
    against every node of the others, at most 2**20 samples unless one row
    holds more.  The returned array is fresh and has shape
    (R, T, R, T, ...), radial and angular axes interleaved per variable.
    """
    zs = _grid_axes(P, quad_nodes, angular_nodes)
    out = np.empty((quad_nodes, angular_nodes) * P.n, dtype=complex)
    for rows in _row_slices(P.n, quad_nodes, angular_nodes):
        out[..., rows, :] = _sample_slab(f, zs, rows)
    return out


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


def _checked_J(
    P: Polydisc, q: int, J, quad_nodes: int, angular_nodes: int, p_max: int
) -> tuple[int, ...]:
    """J as a tuple of ints, once J, the node counts and p_max pass the
    checks an expansion makes before it reads any sample."""
    if not isinstance(J, Iterable):
        raise InvalidArgumentError(f"J = {J!r} is not a tuple of integers")
    if not all(isinstance(k, numbers.Integral) for k in J):
        raise InvalidArgumentError(f"J = {J!r} holds an entry that is not an integer")
    J = tuple(int(k) for k in J)
    if len(J) != q or list(J) != sorted(set(J)) or J[0] < 1 or J[-1] > P.n:
        raise InvalidArgumentError(f"J = {J} is not a strictly increasing {q}-tuple in 1..{P.n}")
    _check_count("radial", quad_nodes, 64)
    _check_count("angular", angular_nodes, 1)
    if not isinstance(p_max, numbers.Integral) or p_max < 0:
        raise InvalidArgumentError(f"p_max must be an integer >= 0, got {p_max!r}")
    return J


def _expansion_modes(
    P: Polydisc,
    q: int,
    J: tuple[int, ...],
    truncation_lambda: float,
    cache: ZeroCache,
    angular_nodes: int,
    p_max: int,
) -> list[EigenMode]:
    """The modes on J below the cutoff, holomorphic exponents up to p_max.

    Warns when there are none, and refuses an angular node count that
    aliases one of their orders.
    """
    modes = [m for m in enumerate_modes(P, q, truncation_lambda, cache) if m.J == J]
    modes = _materialize_holomorphic(modes, p_max)
    if not modes:
        warnings.warn("truncation lies below the bottom of the spectrum; empty expansion")
        return modes
    max_m = max(abs(f.angular_order) for mode in modes for f in mode.factors)
    if angular_nodes < 2 * max_m + 2:
        raise InvalidArgumentError(
            f"{angular_nodes} angular nodes alias angular order {max_m}; "
            f"need at least {2 * max_m + 2}"
        )
    return modes


def _contract(G, stacks: list[np.ndarray]) -> np.ndarray:
    """Contract G's leading (r, theta) axis pairs with the stacks in turn;
    each appends one factor axis."""
    G = np.asarray(G, dtype=complex)
    with np.errstate(invalid="ignore"):  # inf samples: refused by _project
        for stack in stacks:
            G = np.tensordot(G, stack, axes=([0, 1], [1, 2]))
    return G


def _project(
    slabs: Iterable, P: Polydisc, modes: list[EigenMode], quad_nodes: int, angular_nodes: int
) -> tuple[tuple[EigenMode, complex], ...]:
    """The terms <F, e> / <e, e> of the modes, from the slabs of the sample
    grid F in the radial order of the last variable (`_row_slices`).

    Each slab is contracted over variables 1..n-1 as it arrives; the
    partial results are joined, and only then is variable n contracted, so
    the full grid is never held and the bits do not depend on the slabs.
    """
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
    radial = [radial_quadrature(a, quad_nodes) for a in P.radii]
    theta, wt = angular_quadrature(angular_nodes)
    grids = _factor_grids(per_var_factors, [r for r, _ in radial], theta)
    stacks = [
        np.conj(grid) * np.multiply.outer(wr * r, wt) for (r, wr), grid in zip(radial, grids)
    ]
    # BLAS sums a single factor on its vector path, whose entries depend on
    # how many rows a slab has; a zero second factor, never read, keeps
    # every slab on the matrix path, whose entries do not
    inner = [np.concatenate([s, np.zeros_like(s)]) if len(s) == 1 else s for s in stacks[:-1]]
    # map drops each slab before it asks for the next
    parts = list(map(functools.partial(_contract, stacks=inner), slabs))
    G = _contract(parts[0] if len(parts) == 1 else np.concatenate(parts), stacks[-1:])
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
    return tuple(terms)


def expand_from_samples(
    F,
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

    F is anything `np.asarray` takes, holding numbers (bool, integer, real
    or complex) in the shape (R, T, R, T, ...) of `sample_on_grid`; any
    other input, including None or a ragged nested list, raises
    InvalidArgumentError, and so does a NaN or infinite sample.  The
    projection reads F one slab of radial rows of the last variable at a
    time, as `expand` reads f.
    """
    J = _checked_J(P, q, J, quad_nodes, angular_nodes, p_max)
    try:
        F = np.asarray(F)
    except ValueError as exc:  # a ragged nested list
        raise InvalidArgumentError(f"sample grid is not an array: {exc}") from None
    expected = (quad_nodes, angular_nodes) * P.n
    if F.shape != expected:
        raise InvalidArgumentError(f"sample grid has shape {F.shape}, expected {expected}")
    if F.dtype.kind not in "biufc":
        raise InvalidArgumentError(f"sample grid holds {F.dtype} values, not numbers")
    modes = _expansion_modes(P, q, J, truncation_lambda, cache, angular_nodes, p_max)
    if not modes:
        return Expansion(J, (), truncation_lambda)
    slabs = (F[..., rows, :] for rows in _row_slices(P.n, quad_nodes, angular_nodes))
    return Expansion(J, _project(slabs, P, modes, quad_nodes, angular_nodes), truncation_lambda)


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
    product and closed-form norms.  f must be pointwise (see
    `sample_on_grid`): it is called once per slab of the grid, in the
    radial order of the last variable, and each slab is projected before f
    is called again, so the full grid is never held.  f is first called
    once J, p_max and the node counts have passed their checks, the
    angular nodes have been found not to alias any mode, and the truncation
    has been found to hold a mode; an empty truncation warns and returns
    an empty expansion without calling f.
    """
    J = _checked_J(P, q, J, quad_nodes, angular_nodes, p_max)
    modes = _expansion_modes(P, q, J, truncation_lambda, cache, angular_nodes, p_max)
    if not modes:
        return Expansion(J, (), truncation_lambda)
    zs = _grid_axes(P, quad_nodes, angular_nodes)
    slabs = (_sample_slab(f, zs, rows) for rows in _row_slices(P.n, quad_nodes, angular_nodes))
    return Expansion(J, _project(slabs, P, modes, quad_nodes, angular_nodes), truncation_lambda)


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
