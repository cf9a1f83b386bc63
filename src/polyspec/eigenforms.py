"""Pointwise evaluation and verification of eigenform coefficients.

Each eigenform has a single dbar_J component; its coefficient is the
product over variables of the separated factors (Bessel profiles times
angular phases, or holomorphic monomials).  This module evaluates that
coefficient and checks, at chosen points,

* the eigenvalue equation: one quarter of the (negated) Laplacian equals
  the eigenvalue times the coefficient;
* the Dirichlet condition (coefficient vanishes where |z_k| = a_k, k in J);
* the dbar condition for k not in J, via the polar Wirtinger derivative
  (e^{i t}/2)(d/dr + (i/r) d/dt) evaluated on the circle.

All derivatives are analytic: radial ones come from the Bessel recurrences
(the second derivative from the first-derivative recurrence applied twice,
so residuals against the Bessel equation stay meaningful), monomial ones
are exact.  No finite differences.
"""

from __future__ import annotations

import cmath
import math
import numbers
from dataclasses import dataclass

from .bessel import _bessel_j_and_derivatives, bessel_j, bessel_j_prime
from .disc_modes import FactorKind, ModeFactor, _profile_order, radial_profile
from .errors import InvalidArgumentError
from .spectrum import EigenMode

__all__ = [
    "FormPoint",
    "eval_coefficient",
    "laplacian_residual",
    "box_coefficient_value",
    "dbar_boundary_residual",
    "factor_dbar_boundary",
]

_BOUNDARY_FUZZ = 1e-12  # tolerated relative overshoot of |z_k| past a_k


@dataclass(frozen=True)
class FormPoint:
    """A point of the closed polydisc, kept in polar parts per variable."""

    r: tuple[float, ...]
    theta: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.r) != len(self.theta):
            raise InvalidArgumentError(
                f"point has {len(self.r)} radii but {len(self.theta)} angles"
            )
        if not all(map(math.isfinite, self.r)):
            raise InvalidArgumentError(f"point radii must be finite, got {self.r}")
        if not all(map(math.isfinite, self.theta)):
            raise InvalidArgumentError(f"point angles must be finite, got {self.theta}")

    @classmethod
    def from_complex(cls, z) -> "FormPoint":
        zs = tuple(complex(v) for v in z)
        return cls(tuple(abs(v) for v in zs), tuple(cmath.phase(v) for v in zs))

    @classmethod
    def from_polar(cls, r, theta) -> "FormPoint":
        rr = tuple(float(v) for v in r)
        if any(v < 0.0 for v in rr):
            raise InvalidArgumentError("polar radii must be non-negative")
        return cls(rr, tuple(float(v) for v in theta))

    @property
    def z(self) -> tuple[complex, ...]:
        return tuple(rv * cmath.exp(1j * tv) for rv, tv in zip(self.r, self.theta))


def _check_point(mode: EigenMode, p: FormPoint) -> None:
    if len(p.r) != len(mode.factors):
        raise InvalidArgumentError(
            f"point has {len(p.r)} variables, mode has {len(mode.factors)}"
        )
    for rv, f in zip(p.r, mode.factors):
        if rv > f.radius * (1.0 + _BOUNDARY_FUZZ):
            raise InvalidArgumentError(f"point lies outside the closed polydisc (r={rv})")


def _factor_value(f: ModeFactor, r: float, theta: float) -> complex:
    return radial_profile(f, r) * cmath.exp(1j * f.angular_order * theta)


def _coefficient(mode: EigenMode, p: FormPoint, value) -> complex:
    """Product over the mode's factors of value(k, f, r_k, theta_k), r_k
    clipped to the factor's radius, after the point check."""
    _check_point(mode, p)
    out = complex(1.0)
    for k, (f, rv, tv) in enumerate(zip(mode.factors, p.r, p.theta)):
        out *= value(k, f, min(rv, f.radius), tv)
    return out


def eval_coefficient(mode: EigenMode, p: FormPoint) -> complex:
    """The coefficient of dbar_J at p: the product of all factor values."""
    return _coefficient(mode, p, lambda k, f, r, theta: _factor_value(f, r, theta))


def _factor_value_and_laplacian(f: ModeFactor, r: float, theta: float) -> tuple[complex, complex]:
    """The factor's value and its per-variable Laplacian in polar form.

    An oscillatory factor takes J and its first two derivatives from one
    helper call, which evaluates each order m-2..m+2 once.
    """
    m = f.angular_order
    if f.kind is FactorKind.HOLOMORPHIC:
        return _factor_value(f, r, theta), 0.0  # monomials z^p are harmonic, exactly
    s = math.sqrt(f.lambda_k)
    val, dj, ddj = _bessel_j_and_derivatives(_profile_order(f), s * r, 2)
    phase = cmath.exp(1j * m * theta)
    d1 = s * dj
    d2 = s * s * ddj
    radial = d2 + d1 / r - (m * m) / (r * r) * val
    return val * phase, radial * phase


def _value_and_laplacian(mode: EigenMode, p: FormPoint) -> tuple[complex, complex]:
    _check_point(mode, p)
    for rv, f in zip(p.r, mode.factors):
        if rv >= f.radius:
            raise InvalidArgumentError("interior point required, got r on or past the boundary")
        if f.kind is not FactorKind.HOLOMORPHIC and rv <= 0.0:
            raise InvalidArgumentError("polar-chart axis r = 0 excluded for oscillatory factors")
    values, laps = zip(
        *(_factor_value_and_laplacian(f, rv, tv) for f, rv, tv in zip(mode.factors, p.r, p.theta))
    )
    u = complex(1.0)
    for v in values:
        u *= v
    lap_u = complex(0.0)
    for k in range(len(values)):
        term = laps[k]
        for k2, v in enumerate(values):
            if k2 != k:
                term *= v
        lap_u += term
    return u, lap_u


def laplacian_residual(mode: EigenMode, p: FormPoint) -> float:
    """Relative residual |(-1/4) Lap(u) - lambda u| / max(1e-30, |lambda u|) at p.

    Requires a strictly interior point with r_k > 0 wherever the factor is
    oscillatory (the polar chart is singular on the coordinate axes).
    """
    u, lap_u = _value_and_laplacian(mode, p)
    target = mode.value * u
    return abs(-0.25 * lap_u - target) / max(1e-30, abs(target))


def box_coefficient_value(mode: EigenMode, p: FormPoint) -> complex:
    """Pointwise value of -(1/4) Lap applied to the mode's coefficient.

    Computed from the analytic derivatives, not from the eigenvalue, so it
    provides an independent pointwise route to the operator's action.
    """
    _, lap_u = _value_and_laplacian(mode, p)
    return -0.25 * lap_u


def factor_dbar_boundary(f: ModeFactor, theta: float) -> complex:
    """Polar Wirtinger derivative (e^{it}/2)(d/dr + (i/r) d/dt) at r = a.

    For a factor g(r) e^{imt} this is (e^{i(m+1)t}/2)(g'(a) - (m/a) g(a)).
    Holomorphic monomials give 0; Neumann-positive factors reduce through
    the derivative recurrence to a multiple of J_{m+1} at a zero of J_{m+1},
    hence vanish; Dirichlet profiles generically do not (J' is nonzero at a
    simple zero of J).
    """
    if not math.isfinite(theta):
        raise InvalidArgumentError(f"angle must be finite, got {theta}")
    a = f.radius
    m = f.angular_order
    if f.kind is FactorKind.HOLOMORPHIC:
        g = a**m if m else 1.0
        gp = m * a ** (m - 1) if m else 0.0
    else:
        s = math.sqrt(f.lambda_k)
        order = _profile_order(f)
        g = bessel_j(order, s * a)
        gp = s * bessel_j_prime(order, s * a)
    return 0.5 * (gp - (m / a) * g) * cmath.exp(1j * (m + 1) * theta)


def dbar_boundary_residual(mode: EigenMode, k: int, theta: float) -> float:
    """|dbar_k of the k-th factor| on the circle |z_k| = a_k, for k not in J."""
    if not isinstance(k, numbers.Integral) or not (1 <= k <= len(mode.factors)):
        raise InvalidArgumentError(
            f"variable index {k!r} is not an integer in 1..{len(mode.factors)}"
        )
    if k in set(mode.J):
        raise InvalidArgumentError(f"variable {k} lies in J; the dbar condition applies off J")
    return abs(factor_dbar_boundary(mode.factors[k - 1], theta))
