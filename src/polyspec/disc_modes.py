"""Separated one-variable modes on a disc of radius a.

Three kinds of factor occur in the product eigenforms:

* Dirichlet: u = 0 on the circle.  Eigenvalues (lambda_{|m|,j}/a)^2 with
  radial profile J_{|m|}(lambda_{|m|,j} r / a) and angular factor e^{im t}.
* Neumann-positive: the dbar-derivative of u vanishes on the circle and the
  eigenvalue is positive.  After separation the radial problem carries the
  Robin condition  x R'(x) - m R(x) = 0  at x = sqrt(lambda) a, which via the
  derivative recurrence is exactly J_{m+1}(sqrt(lambda) a) = 0.  Hence the
  eigenvalues are (lambda_{|m+1|,j}/a)^2 with profile J_m and angular order m.
* Holomorphic: the zero eigenvalue of the dbar-Neumann factor; eigenfunctions
  are the monomials z^p.  Smoothness at the origin forces p >= 0.

Both oscillatory kinds come from one table per disc, the squared scaled
zeros (lambda_{nu,j}/a)^2: Dirichlet labels zero order nu with m = +-nu,
Neumann-positive with m = nu - 1 and m = -nu - 1.

Factor identity is (kind, angular_order, radial_index): equal eigenvalues
with different angular orders are distinct modes.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .bessel import DEFAULT_CONFIG, EvalConfig, bessel_j, bessel_j_prime
from .errors import InvalidArgumentError
from .zeros import ZeroCache

__all__ = [
    "FactorKind",
    "ModeFactor",
    "dirichlet_factor",
    "neumann_factor",
    "holomorphic_factor",
    "dirichlet_factors",
    "neumann_factors",
    "zero_table",
    "row_factors",
    "robin_residual",
    "radial_profile",
]


class FactorKind(enum.Enum):
    DIRICHLET = "dirichlet"
    NEUMANN_POSITIVE = "neumann"
    HOLOMORPHIC = "holomorphic"


@dataclass(frozen=True)
class ModeFactor:
    """One separated per-variable mode.

    For HOLOMORPHIC factors `angular_order` doubles as the monomial
    exponent p >= 0 and `radial_index` is None.
    """

    kind: FactorKind
    angular_order: int
    radial_index: int | None
    radius: float
    lambda_k: float

    def __post_init__(self) -> None:
        if not (self.radius > 0.0) or not math.isfinite(self.radius):
            raise InvalidArgumentError("factor radius must be positive and finite")
        if self.kind is FactorKind.HOLOMORPHIC:
            if self.angular_order < 0:
                raise InvalidArgumentError(
                    "holomorphic exponent must be >= 0 (smoothness at the origin)"
                )
            if self.radial_index is not None or self.lambda_k != 0.0:
                raise InvalidArgumentError("holomorphic factors carry lambda_k = 0")
        else:
            if self.radial_index is None or self.radial_index < 1:
                raise InvalidArgumentError("oscillatory factors need a radial index >= 1")
            if not (self.lambda_k > 0.0):
                raise InvalidArgumentError("oscillatory factors carry lambda_k > 0")


def dirichlet_factor(m: int, j: int, a: float, cache: ZeroCache) -> ModeFactor:
    lam = (cache.zero(abs(m), j) / a) ** 2
    return ModeFactor(FactorKind.DIRICHLET, m, j, a, lam)


def neumann_factor(m: int, j: int, a: float, cache: ZeroCache) -> ModeFactor:
    lam = (cache.zero(abs(m + 1), j) / a) ** 2
    return ModeFactor(FactorKind.NEUMANN_POSITIVE, m, j, a, lam)


def holomorphic_factor(p: int, a: float) -> ModeFactor:
    return ModeFactor(FactorKind.HOLOMORPHIC, p, None, a, 0.0)


def _sort_key(f: ModeFactor) -> tuple:
    return (f.lambda_k, f.kind.value, f.angular_order, f.radial_index or 0)


def zero_table(
    a: float, lambda_max: float, cache: ZeroCache
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The disc's zero table below the cutoff, as arrays (lam, nu, j).

    One row per (nu, j) with lam = (lambda_{nu,j} / a)^2 <= lambda_max,
    ascending in lam.  Completeness of the truncation relies on
    lambda_{nu,1} growing strictly with nu (interlacing).
    """
    if not (a > 0.0):
        raise InvalidArgumentError("radius must be positive")
    lams: list[float] = []
    nus: list[int] = []
    js: list[int] = []
    if lambda_max > 0.0:
        nu = 0
        # compare the contracted quantity (z/a)^2 itself, so no borderline
        # factor is gained or lost to the rounding of a sqrt
        while (cache.zero(nu, 1) / a) ** 2 <= lambda_max:
            j = 1
            while (lam := (cache.zero(nu, j) / a) ** 2) <= lambda_max:
                lams.append(lam)
                nus.append(nu)
                js.append(j)
                j += 1
            nu += 1
    order = np.argsort(lams, kind="stable")
    return (
        np.array(lams, dtype=float)[order],
        np.array(nus, dtype=np.int64)[order],
        np.array(js, dtype=np.int64)[order],
    )


def row_factors(
    kind: FactorKind, nu: int, j: int, a: float, cache: ZeroCache
) -> tuple[ModeFactor, ...]:
    """The factors of one oscillatory kind on the zero-table row (nu, j),
    ascending in angular order.

    Dirichlet labels zero order nu with m = -nu and m = nu; Neumann-positive
    relabels it by |m + 1| = nu: m = -nu - 1 and m = nu - 1.  At nu = 0 the
    two labels coincide (m = 0, resp. m = -1), so the row holds one factor.
    """
    if kind is FactorKind.DIRICHLET:
        return tuple(dirichlet_factor(m, j, a, cache) for m in ((-nu, nu) if nu else (0,)))
    if kind is FactorKind.NEUMANN_POSITIVE:
        return tuple(neumann_factor(m, j, a, cache) for m in ((-nu - 1, nu - 1) if nu else (-1,)))
    raise InvalidArgumentError("row_factors needs an oscillatory kind")


def _table_factors(
    kind: FactorKind, a: float, lambda_max: float, cache: ZeroCache
) -> list[ModeFactor]:
    _, nus, js = zero_table(a, lambda_max, cache)
    out = [
        f
        for nu, j in zip(nus.tolist(), js.tolist())
        for f in row_factors(kind, nu, j, a, cache)
    ]
    out.sort(key=_sort_key)
    return out


def dirichlet_factors(a: float, lambda_max: float, cache: ZeroCache) -> list[ModeFactor]:
    """Every Dirichlet factor on the disc of radius a with lambda_k <= lambda_max.

    Zero order nu labels m = nu and m = -nu: +m and -m are distinct factors
    for m != 0 (their eigenvalues coincide, the modes do not).
    """
    return _table_factors(FactorKind.DIRICHLET, a, lambda_max, cache)


def neumann_factors(a: float, lambda_max: float, cache: ZeroCache) -> list[ModeFactor]:
    """Every Neumann-positive factor with lambda_k <= lambda_max.

    The same table as `dirichlet_factors`, relabelled by |m + 1| = nu: for
    nu = 0 that is m = -1 alone, for nu >= 1 both m = nu - 1 and m = -nu - 1.
    Holomorphic (lambda = 0) factors are not included here.
    """
    return _table_factors(FactorKind.NEUMANN_POSITIVE, a, lambda_max, cache)


def robin_residual(f: ModeFactor, cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """Residual |x J'_m(x) - m J_m(x)| at x = sqrt(lambda_k) * a.

    This is the separated boundary condition of a Neumann-positive factor,
    evaluated at its claimed eigenvalue; by the derivative recurrence it
    equals |x J_{m+1}(x)|, so it vanishes exactly at the construction points.
    """
    if f.kind is not FactorKind.NEUMANN_POSITIVE:
        raise InvalidArgumentError("robin_residual applies to Neumann-positive factors")
    x = math.sqrt(f.lambda_k) * f.radius
    m = f.angular_order
    return abs(x * bessel_j_prime(m, x, cfg) - m * bessel_j(m, x, cfg))


def radial_profile(f: ModeFactor, r: float, cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """Radial part of the factor at radius r in [0, a].

    Dirichlet -> J_{|m|}(sqrt(lambda) r); Neumann-positive -> J_m(sqrt(lambda) r)
    (signed order); holomorphic -> r^p.
    """
    if not (0.0 <= r <= f.radius):
        raise InvalidArgumentError(f"r = {r} outside [0, {f.radius}]")
    if f.kind is FactorKind.HOLOMORPHIC:
        return r ** f.angular_order if f.angular_order else 1.0
    s = math.sqrt(f.lambda_k)
    if f.kind is FactorKind.DIRICHLET:
        return bessel_j(abs(f.angular_order), s * r, cfg)
    return bessel_j(f.angular_order, s * r, cfg)
