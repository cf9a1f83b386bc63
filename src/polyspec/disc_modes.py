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
Neumann-positive with m = nu - 1 and m = -nu - 1.  `disc_table` is that
table as the spectrum's class walk reads it.

Factor identity is (kind, angular_order, radial_index): equal eigenvalues
with different angular orders are distinct modes.
"""

from __future__ import annotations

import enum
import itertools
import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bessel import bessel_j, bessel_j_prime
from .errors import InternalConsistencyError, InvalidArgumentError
from .polydisc import check_radius
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
    "FactorTable",
    "disc_table",
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
        if not math.isfinite(self.lambda_k):
            raise InvalidArgumentError(f"factor eigenvalue must be finite, got {self.lambda_k!r}")
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
    a = check_radius(a)
    lam = (cache.zero(abs(m), j) / a) ** 2
    return ModeFactor(FactorKind.DIRICHLET, m, j, a, lam)


def neumann_factor(m: int, j: int, a: float, cache: ZeroCache) -> ModeFactor:
    a = check_radius(a)
    lam = (cache.zero(abs(m + 1), j) / a) ** 2
    return ModeFactor(FactorKind.NEUMANN_POSITIVE, m, j, a, lam)


def holomorphic_factor(p: int, a: float) -> ModeFactor:
    return ModeFactor(FactorKind.HOLOMORPHIC, p, None, a, 0.0)


def zero_table(
    a: float, lambda_max: float, cache: ZeroCache
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The disc's zero table below the cutoff, as arrays (lam, nu, j).

    One row per (nu, j) with lam = (lambda_{nu,j} / a)^2 <= lambda_max,
    strictly increasing in lam.  Completeness of the truncation relies on
    lambda_{nu,1} growing strictly with nu (interlacing).  Two equal lam are
    refused (InternalConsistencyError): no two positive zeros of J_nu and
    J_{nu+k} coincide (Bourget's hypothesis, proved by Siegel; Watson 15.28).
    A radius outside `polydisc.check_radius`'s range, where some lam would
    leave the normal doubles, raises UnsupportedRangeError, as it does in
    `dirichlet_factor` and `neumann_factor`.
    """
    a = check_radius(a)
    if not math.isfinite(lambda_max):
        raise InvalidArgumentError(f"cutoff must be finite, got {lambda_max!r}")
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
    lam = np.array(lams, dtype=float)[order]
    if not (np.diff(lam) > 0.0).all():
        raise InternalConsistencyError(f"two zero-table rows of the disc a = {a} coincide")
    return lam, np.array(nus, dtype=np.int64)[order], np.array(js, dtype=np.int64)[order]


def row_factors(
    kind: FactorKind, nu: int, j: int, a: float, lam: float
) -> tuple[ModeFactor, ...]:
    """The factors of one oscillatory kind on the `zero_table` row (lam, nu, j),
    ascending in angular order; each carries the row's lam as its eigenvalue.

    Dirichlet labels zero order nu with m = -nu and m = nu; Neumann-positive
    relabels it by |m + 1| = nu: m = -nu - 1 and m = nu - 1.  At nu = 0 the
    two labels coincide (m = 0, resp. m = -1), so the row holds one factor.
    """
    if kind not in (FactorKind.DIRICHLET, FactorKind.NEUMANN_POSITIVE):
        raise InvalidArgumentError("row_factors needs an oscillatory kind")
    shift = 1 if kind is FactorKind.NEUMANN_POSITIVE else 0
    orders = (-nu - shift, nu - shift) if nu else (-shift,)
    return tuple(ModeFactor(kind, m, j, a, lam) for m in orders)


class FactorTable(NamedTuple):
    """One variable's factor eigenvalues, as the spectrum's class walk reads them.

    Row r of the ascending `lam` (ties allowed) is the eigenvalue of factors
    in J and off J, two of each where `paired[r]`.  `labels()` makes them,
    one tuple per slot: the holomorphic slot, the rows in J, the rows off J.
    """

    lam: np.ndarray
    paired: np.ndarray
    labels: Callable[[], list[tuple[ModeFactor, ...]]]


def disc_table(a: float, lambda_max: float, cache: ZeroCache) -> FactorTable:
    """The disc's `zero_table` below the cutoff: rows with nu >= 1 are paired,
    and the labels are `holomorphic_factor(0, a)` and the `row_factors`, all
    made with the checked radius."""
    a = check_radius(a)
    lam, nu, j = zero_table(a, lambda_max, cache)

    def labels() -> list[tuple[ModeFactor, ...]]:
        rows = list(zip(nu.tolist(), j.tolist(), itertools.repeat(a), lam.tolist()))
        kinds = (FactorKind.DIRICHLET, FactorKind.NEUMANN_POSITIVE)
        return [(holomorphic_factor(0, a),)] + [row_factors(k, *row) for k in kinds for row in rows]

    return FactorTable(lam, nu >= 1, labels)


def _profile_order(f: ModeFactor) -> int:
    """Order of an oscillatory factor's Bessel profile: |m| for Dirichlet, m otherwise."""
    return abs(f.angular_order) if f.kind is FactorKind.DIRICHLET else f.angular_order


def dirichlet_factors(a: float, lambda_max: float, cache: ZeroCache) -> list[ModeFactor]:
    """Every Dirichlet factor on the disc of radius a with lambda_k <= lambda_max.

    Zero order nu labels m = nu and m = -nu: +m and -m are distinct factors
    for m != 0 (their eigenvalues coincide, the modes do not).
    """
    t = disc_table(a, lambda_max, cache)
    return [f for fs in t.labels()[1 : 1 + len(t.lam)] for f in fs]


def neumann_factors(a: float, lambda_max: float, cache: ZeroCache) -> list[ModeFactor]:
    """Every Neumann-positive factor with lambda_k <= lambda_max.

    The same table as `dirichlet_factors`, relabelled by |m + 1| = nu: for
    nu = 0 that is m = -1 alone, for nu >= 1 both m = nu - 1 and m = -nu - 1.
    Holomorphic (lambda = 0) factors are not included here.
    """
    t = disc_table(a, lambda_max, cache)
    return [f for fs in t.labels()[1 + len(t.lam) :] for f in fs]


def robin_residual(f: ModeFactor) -> float:
    """Residual |x J'_m(x) - m J_m(x)| at x = sqrt(lambda_k) * a.

    This is the separated boundary condition of a Neumann-positive factor,
    evaluated at its claimed eigenvalue; by the derivative recurrence it
    equals |x J_{m+1}(x)|, so it vanishes exactly at the construction points.
    """
    if f.kind is not FactorKind.NEUMANN_POSITIVE:
        raise InvalidArgumentError("robin_residual applies to Neumann-positive factors")
    x = math.sqrt(f.lambda_k) * f.radius
    m = f.angular_order
    return abs(x * bessel_j_prime(m, x) - m * bessel_j(m, x))


def radial_profile(f: ModeFactor, r: float) -> float:
    """Radial part of the factor at radius r in [0, a].

    Dirichlet -> J_{|m|}(sqrt(lambda) r); Neumann-positive -> J_m(sqrt(lambda) r)
    (signed order); holomorphic -> r^p.  r is taken as a double.
    """
    if not isinstance(r, numbers.Real) or not (0.0 <= (r := float(r)) <= f.radius):
        raise InvalidArgumentError(f"r = {r} outside [0, {f.radius}]")
    if f.kind is FactorKind.HOLOMORPHIC:
        return r ** f.angular_order if f.angular_order else 1.0
    return bessel_j(_profile_order(f), math.sqrt(f.lambda_k) * r)
