"""Independent oracles for the analytic machinery.

Nothing here shares evaluation paths with the modules it checks:

* `fd_radial_eigs` discretizes the separated radial problems directly, in
  self-adjoint form -(1/r)(r S')' + (m^2/r^2) S = lambda S with weight r on
  a staggered uniform grid, and solves the resulting symmetric tridiagonal
  eigenproblem by Sturm-sequence bisection (LAPACK, via scipy).  Its
  eigenvalues converge at second order to the analytic closed forms.
* `quad_inner_product` checks the weighted Bessel orthogonality relations
  by Gauss-Legendre quadrature.
* `brute_force_spectrum` re-enumerates small polydisc spectra, for any n,
  with plain exhaustive loops over index bounds from `sufficient_bounds`,
  no pruning, and verifies at every radius that the bounds are generous
  enough to be complete.

The staggered grid r_i = (i - 1/2) h avoids the r = 0 coordinate
singularity without one-sided stencils (the inner flux coefficient r = 0
vanishes identically), and the outer condition enters through a
second-order ghost-point closure, which keeps the matrix symmetric
tridiagonal after the similarity scaling by sqrt(r).
"""

from __future__ import annotations

import enum
import itertools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .bessel import bessel_j_many
from .errors import (
    InternalConsistencyError,
    InvalidArgumentError,
    OracleInsufficientError,
    UnsupportedRangeError,
)
from .polydisc import Polydisc
from .quadrature import _check_count, _gauss_legendre
from .zeros import ZeroCache

__all__ = [
    "BoundaryCondition",
    "FdConfig",
    "MAX_GRID_POINTS",
    "fd_radial_eigs",
    "fd_convergence_report",
    "quad_inner_product",
    "radial_basis_gram",
    "brute_force_spectrum",
    "sufficient_bounds",
]


# Largest radial grid `FdConfig` accepts: 25 times the finest grid the checks
# use (4,000), and refused before anything is allocated.
MAX_GRID_POINTS = 100_000
# Largest |angular order| `FdConfig` accepts: far above the zero window's
# 150, and refused before m * m can overflow a float in the matrix assembly.
MAX_ANGULAR_ORDER = 10_000
# LAPACK's Sturm-sequence bisection works with the squared off-diagonal
# entries.  Entries outside this range have squares that leave the normal
# floats, and the eigenvalues come back wrong without an error (radii above
# ~1e78 at 2,000 points) or the solver fails (below ~1e-72).
_FD_ENTRY_MIN = 1e-150
_FD_ENTRY_MAX = 1e150


class BoundaryCondition(enum.Enum):
    DIRICHLET = "dirichlet"
    DBAR_NEUMANN = "dbar-neumann"


@dataclass(frozen=True)
class FdConfig:
    """Radial finite-difference discretization parameters.

    The DBAR_NEUMANN case imposes the Robin form a S'(a) = m S(a) obtained
    from the separated boundary condition (signed m; the sign is what makes
    the zero eigenvalue appear for m >= 0 and not for m < 0).
    """

    grid_points: int
    radius: float
    angular_order: int
    bc: BoundaryCondition

    def __post_init__(self) -> None:
        if not isinstance(self.grid_points, numbers.Integral) or not (
            64 <= self.grid_points <= MAX_GRID_POINTS
        ):
            raise InvalidArgumentError(
                f"need 64 to {MAX_GRID_POINTS} grid points, got {self.grid_points}"
            )
        if not (self.radius > 0.0) or not math.isfinite(self.radius):
            raise InvalidArgumentError(f"radius must be positive and finite, got {self.radius}")
        if not isinstance(self.angular_order, numbers.Integral) or (
            abs(self.angular_order) > MAX_ANGULAR_ORDER
        ):
            raise InvalidArgumentError(
                f"need an integer |angular order| <= {MAX_ANGULAR_ORDER}, "
                f"got {self.angular_order}"
            )


@np.errstate(divide="ignore", over="ignore", invalid="ignore")  # refused below instead
def fd_radial_eigs(cfg: FdConfig, count: int) -> list[float]:
    """Smallest `count` eigenvalues of the discretized radial problem.

    A matrix whose entries the eigensolver cannot square within the normal
    floats raises UnsupportedRangeError.  With 2,000 grid points and m = 0
    that refuses radii outside about [3e-72, 2e78]; the window moves up with
    the number of points, and its lower end rises with |m|.
    """
    if not isinstance(count, numbers.Integral) or not (1 <= count <= 10):
        raise InvalidArgumentError(f"count must be an integer in [1, 10], got {count!r}")
    n = cfg.grid_points
    a = cfg.radius
    m = cfg.angular_order
    h = np.float64(a) / n  # h**2 overflows to inf, where a float would raise
    r = (np.arange(1, n + 1) - 0.5) * h
    r_plus = np.arange(1, n + 1) * h   # r_{i+1/2}; r_{1/2} = 0 kills the inner flux
    r_minus = np.arange(0, n) * h
    diag = (r_plus + r_minus) / h**2 + (m * m) / r
    off = -r_plus[:-1] / h**2
    if cfg.bc is BoundaryCondition.DIRICHLET:
        # ghost closure (S_N + S_{N+1})/2 = 0
        diag[-1] += r_plus[-1] / h**2
    else:
        # ghost closure of a S'(a) = m S(a): S_{N+1} = g S_N
        if m * h >= 2.0 * a:
            raise InvalidArgumentError(
                f"Robin closure ill-posed at this resolution: need m*h < 2a, "
                f"got m={m}, h={h:.3g}, a={a}"
            )
        g = (2.0 * a + m * h) / (2.0 * a - m * h)
        diag[-1] = r_minus[-1] / h**2 + (m * m) / r[-1] - r_plus[-1] * (g - 1.0) / h**2
    # weight r: symmetrize T = W^{-1/2} A W^{-1/2}
    d = diag / r
    e = off / np.sqrt(r[:-1] * r[1:])
    # the exact matrix has a strictly negative off-diagonal; NaN fails too
    if not (
        (np.abs(d) <= _FD_ENTRY_MAX).all()
        and ((-_FD_ENTRY_MAX <= e) & (e <= -_FD_ENTRY_MIN)).all()
    ):
        raise UnsupportedRangeError(
            f"FD matrix not representable at radius {a}, order {m}, {n} grid points"
        )
    from scipy.linalg import eigh_tridiagonal  # only this oracle needs scipy.linalg

    try:
        vals = eigh_tridiagonal(
            d, e, select="i", select_range=(0, count - 1), eigvals_only=True
        )
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise InternalConsistencyError(f"tridiagonal eigensolver failed: {exc}") from exc
    return [float(v) for v in vals]


def fd_convergence_report(
    m: int,
    bc: BoundaryCondition,
    a: float,
    count: int,
    cache: ZeroCache,
    grid_sizes: tuple[int, ...] = (500, 1000, 2000, 4000),
) -> dict:
    """Grid-refinement study of the FD eigenvalues against the closed forms.

    Returns a dict with, per tracked eigenvalue: the analytic value
    (lambda_{|m|,j}/a)^2 or (lambda_{|m+1|,j}/a)^2, the FD values, the
    log2 error-decay slopes, and the Richardson extrapolant from the two
    finest grids.  For the Robin case the zero eigenvalue (present exactly
    when m >= 0) is reported separately and excluded from the fits.
    """
    if len(grid_sizes) < 2 or sorted(grid_sizes) != list(grid_sizes):
        raise InvalidArgumentError("grid_sizes must be ascending, at least two")
    if bc is BoundaryCondition.DIRICHLET:
        exact = [(cache.zero(abs(m), j) / a) ** 2 for j in range(1, count + 1)]
        expect_zero_mode = False
    else:
        nu = abs(m + 1)
        exact = [(cache.zero(nu, j) / a) ** 2 for j in range(1, count + 1)]
        expect_zero_mode = m >= 0
    solve_count = count + 1 if expect_zero_mode else count
    per_grid = {
        n: fd_radial_eigs(FdConfig(n, a, m, bc), solve_count) for n in grid_sizes
    }
    zero_mode = None
    if expect_zero_mode:
        zero_mode = {n: per_grid[n][0] for n in grid_sizes}
        per_grid = {n: vals[1:] for n, vals in per_grid.items()}
    eigs = []
    n_fine, n_coarse = grid_sizes[-1], grid_sizes[-2]
    for idx in range(count):
        errs = [abs(per_grid[n][idx] - exact[idx]) / exact[idx] for n in grid_sizes]
        slopes = [
            math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1) if errs[i + 1] > 0
        ]
        rich = (4.0 * per_grid[n_fine][idx] - per_grid[n_coarse][idx]) / 3.0
        eigs.append(
            {
                "exact": exact[idx],
                "fd": {n: per_grid[n][idx] for n in grid_sizes},
                "rel_errors": errs,
                "slopes": slopes,
                "richardson": rich,
                "richardson_rel_error": abs(rich - exact[idx]) / exact[idx],
            }
        )
    return {
        "angular_order": m,
        "bc": bc.value,
        "radius": a,
        "grid_sizes": list(grid_sizes),
        "zero_mode": zero_mode,
        "zero_mode_expected": expect_zero_mode,
        "eigenvalues": eigs,
    }


def quad_inner_product(
    m: int,
    j: int,
    k: int,
    cache: ZeroCache,
    nodes: int = 256,
) -> float:
    """Gauss-Legendre value of int_0^1 r J_m(l_{m,j} r) J_m(l_{m,k} r) dr.

    Vanishes for j != k; equals J_{m+1}(lambda_{m,j})^2 / 2 on the diagonal.
    """
    if m < 0:
        raise InvalidArgumentError("order must be non-negative here")
    if j < 1 or k < 1:
        raise InvalidArgumentError("zero indices must be >= 1")
    _check_count("radial", nodes, 256)
    x, w = _gauss_legendre(nodes)
    r = 0.5 * (x + 1.0)
    wr = 0.5 * w
    fj, fk = bessel_j_many(m, np.outer([cache.zero(m, j), cache.zero(m, k)], r))
    return float(np.sum(wr * r * fj * fk))


def radial_basis_gram(
    m: int,
    size: int,
    cache: ZeroCache,
    nodes: int = 384,
) -> np.ndarray:
    """Gram matrix (weight r on [0,1]) of {r^m} + {J_m(l_{m+1,j} r)}_{j<size}.

    These are the first elements of the complete orthogonal radial basis for
    the dbar-Neumann factor at angular order m >= 0, so the matrix must be
    (numerically) diagonal and nonsingular.
    """
    if m < 0:
        raise InvalidArgumentError("order must be non-negative here")
    if not isinstance(size, numbers.Integral) or size < 2:
        raise InvalidArgumentError(f"need an integer size >= 2 basis elements, got {size!r}")
    _check_count("radial", nodes, 1)
    x, w = _gauss_legendre(nodes)
    r = 0.5 * (x + 1.0)
    wr = 0.5 * w * r
    lams = [cache.zero(m + 1, j) for j in range(1, size)]
    basis = [r**m, *bessel_j_many(m, np.outer(lams, r))]
    gram = np.empty((size, size))
    for i in range(size):
        for j2 in range(i, size):
            gram[i, j2] = gram[j2, i] = float(np.sum(wr * basis[i] * basis[j2]))
    return gram


def sufficient_bounds(
    P: Polydisc, lambda_max: float, cache: ZeroCache
) -> tuple[int, int]:
    """Smallest (m_bound, j_bound) that certify brute-force completeness."""
    if not math.isfinite(lambda_max):
        raise InvalidArgumentError(f"lambda_max must be finite, got {lambda_max!r}")
    budget = 4.0 * lambda_max
    a_max = max(P.radii)
    m_bound = 0
    while (cache.zero(m_bound + 1, 1) / a_max) ** 2 <= budget:
        m_bound += 1
    j_bound = 1
    while (cache.zero(0, j_bound + 1) / a_max) ** 2 <= budget:
        j_bound += 1
    return m_bound, j_bound


def brute_force_spectrum(
    P: Polydisc, q: int, lambda_max: float, cache: ZeroCache
) -> list[tuple[float, tuple]]:
    """Exhaustive oracle enumeration for any n; no pruning, no shared code.

    Every factor tuple inside the index bounds of `sufficient_bounds` is
    summed, left to right from an exact 0.0.  The bounds are certified at
    every radius first: the smallest contribution they exclude must exceed
    4 * lambda_max, otherwise the enumeration could be incomplete and an
    OracleInsufficientError is raised (never a silent truncation).  Returns
    (value, descriptor) pairs in no specified order; descriptors follow
    `spectrum.mode_descriptor`.
    """
    n = P.n
    if not isinstance(q, numbers.Integral) or not (1 <= q <= n - 1):
        raise InvalidArgumentError(f"q = {q!r} is not an integer in [1, {n - 1}]")
    m_bound, j_bound = sufficient_bounds(P, lambda_max, cache)
    budget = 4.0 * lambda_max
    for a in P.radii:
        excluded = min(
            (cache.zero(m_bound + 1, 1) / a) ** 2,
            (cache.zero(0, j_bound + 1) / a) ** 2,
        )
        if excluded <= budget:
            raise OracleInsufficientError(
                f"bounds (m_bound={m_bound}, j_bound={j_bound}) exclude a factor "
                f"contribution {excluded:.6g} <= 4*lambda_max = {budget:.6g} at radius {a}"
            )

    # Per-variable candidate tables, built with plain loops.
    dir_vals: list[np.ndarray] = []
    dir_desc: list[list[tuple]] = []
    com_vals: list[np.ndarray] = []
    com_desc: list[list[tuple]] = []
    for a in P.radii:
        vals, desc = [], []
        for m in range(-m_bound, m_bound + 1):
            for j in range(1, j_bound + 1):
                vals.append((cache.zero(abs(m), j) / a) ** 2)
                desc.append(("dirichlet", m, j))
        dir_vals.append(np.array(vals))
        dir_desc.append(desc)
        vals, desc = [0.0], [("holomorphic", 0, None)]
        for m in range(-m_bound - 1, m_bound):  # |m + 1| <= m_bound
            for j in range(1, j_bound + 1):
                vals.append((cache.zero(abs(m + 1), j) / a) ** 2)
                desc.append(("neumann", m, j))
        com_vals.append(np.array(vals))
        com_desc.append(desc)

    # Every index tuple of the first n - 2 variables, then one outer sum of
    # the last two: ((0.0 + v_1) + v_2) + ... + v_n.
    out: list[tuple[float, tuple]] = []
    for J in itertools.combinations(range(1, n + 1), q):
        jset = set(J)
        vals = [dir_vals[k - 1] if k in jset else com_vals[k - 1] for k in range(1, n + 1)]
        descs = [dir_desc[k - 1] if k in jset else com_desc[k - 1] for k in range(1, n + 1)]
        for head in itertools.product(*(range(len(v)) for v in vals[:-2])):
            partial = 0.0
            for v, i in zip(vals, head):
                partial += v[i]
            total = ((partial + vals[-2][:, None]) + vals[-1][None, :]) / 4.0
            head_desc = tuple(d[i] for d, i in zip(descs, head))
            for i1, i2 in np.argwhere(total <= lambda_max):
                out.append(
                    (float(total[i1, i2]), (J, (*head_desc, descs[-2][i1], descs[-1][i2])))
                )
    return out
