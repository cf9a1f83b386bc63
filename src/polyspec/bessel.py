"""Bessel functions J_m of integer order on the non-negative real axis.

Two evaluation regimes, selected by the argument size:

* small arguments: the alternating power series

      J_m(z) = sum_l (-1)^l (z/2)^(2l+m) / (l! (l+m)!)

  summed in compensated (double-double) arithmetic, so the massive
  cancellation for moderate z does not eat into the result;
* large arguments: Miller's backward recurrence, normalized with the
  even-order sum identity  J_0(z) + 2*sum_k J_{2k}(z) = 1.

Negative orders reduce through J_{-m}(z) = (-1)^m J_m(z), so the parity
identity is bit-exact by construction.  Derivatives come from the
three-term recurrences, never from finite differences.

A slow arbitrary-precision series (`oracle_bessel_j`, mpmath-backed) is
provided as independent ground truth for the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np

from .errors import InternalConsistencyError, InvalidArgumentError, UnsupportedRangeError

__all__ = [
    "EvalConfig",
    "DEFAULT_CONFIG",
    "MAX_ORDER",
    "MAX_ARGUMENT",
    "bessel_j",
    "bessel_j_many",
    "bessel_j_prime",
    "bessel_j_second",
    "oracle_bessel_j",
]

# Supported window.  Chosen to cover every zero/eigenvalue reachable at desk
# scale; outside it we reject instead of silently degrading.
MAX_ORDER = 200
MAX_ARGUMENT = 500.0

_SPLIT = 134217729.0  # 2**27 + 1, Dekker/Veltkamp splitting constant
_RESCALE = 1e-250
_RESCALE_LIMIT = 1e250


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation parameters for `bessel_j` and friends.

    Attributes:
        series_switch_point: argument threshold between the power series
            and the backward recurrence.
        max_terms: hard cap on series terms (safety net, never reached in
            the supported window).
    """

    series_switch_point: float = 18.0
    max_terms: int = 400

    def __post_init__(self) -> None:
        if self.max_terms < 1:
            raise InvalidArgumentError("max_terms must be at least 1")
        if not (self.series_switch_point > 0.0):
            raise InvalidArgumentError("series_switch_point must be positive")


DEFAULT_CONFIG = EvalConfig()


# ---------------------------------------------------------------------------
# double-double primitives (error-free transformations)
# ---------------------------------------------------------------------------

def _two_sum(a: float, b: float) -> tuple[float, float]:
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _two_prod(a: float, b: float) -> tuple[float, float]:
    p = a * b
    t = _SPLIT * a
    ah = t - (t - a)
    al = a - ah
    t = _SPLIT * b
    bh = t - (t - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_mul(xh: float, xl: float, yh: float, yl: float) -> tuple[float, float]:
    p, e = _two_prod(xh, yh)
    e += xh * yl + xl * yh
    return _two_sum(p, e)


def _dd_div_d(xh: float, xl: float, d: float) -> tuple[float, float]:
    q1 = xh / d
    p, e = _two_prod(q1, d)
    q2 = ((xh - p) - e + xl) / d
    return _two_sum(q1, q2)


def _dd_add(xh: float, xl: float, yh: float, yl: float) -> tuple[float, float]:
    s, e = _two_sum(xh, yh)
    e += xl + yl
    return _two_sum(s, e)


# ---------------------------------------------------------------------------
# evaluation kernels (nonnegative order assumed)
# ---------------------------------------------------------------------------

def _series_j(m: int, z: float, max_terms: int) -> float:
    """Alternating power series in double-double arithmetic."""
    h = 0.5 * z
    # leading term (z/2)^m / m!, built incrementally (no factorial overflow)
    th, tl = 1.0, 0.0
    for i in range(1, m + 1):
        th, tl = _dd_mul(th, tl, h, 0.0)
        th, tl = _dd_div_d(th, tl, float(i))
        if th == 0.0:
            return 0.0  # underflow: true value is below double range
    sh, sl = th, tl
    qh, ql = _two_prod(h, h)
    qh, ql = -qh, -ql  # ratio numerator -(z/2)^2
    for l in range(1, max_terms + 1):
        th, tl = _dd_mul(th, tl, qh, ql)
        th, tl = _dd_div_d(th, tl, float(l * (l + m)))
        sh, sl = _dd_add(sh, sl, th, tl)
        # <= so subnormal-scale sums (threshold underflows to 0) converge
        if l > h and abs(th) <= 1e-40 * (abs(sh) + 1e-300):
            return sh + sl
    raise InternalConsistencyError(
        f"power series for J_{m}({z}) did not converge within {max_terms} terms"
    )


def _miller_j(m: int, z: float) -> float:
    """Backward recurrence from a seed order well above max(m, z).

    The start offset keeps the seed contamination below ~1e-15 relative over
    the whole supported window (validated against the oracle in the tests).
    """
    start = max(m, int(z)) + 40 + int(2.0 * math.sqrt(z))
    if start % 2:
        start += 1
    fkp1 = 0.0
    fk = 1e-30
    jm = 0.0
    norm = 0.0
    comp = 0.0  # Neumaier compensation for the normalization sum
    two_over_z = 2.0 / z
    for k in range(start, 0, -1):
        fkm1 = k * two_over_z * fk - fkp1
        fkp1 = fk
        fk = fkm1
        order = k - 1
        if order == m:
            jm = fk
        if order % 2 == 0:
            t = fk if order == 0 else 2.0 * fk
            s = norm + t
            if abs(norm) >= abs(t):
                comp += (norm - s) + t
            else:
                comp += (t - s) + norm
            norm = s
        if abs(fk) > _RESCALE_LIMIT:
            fk *= _RESCALE
            fkp1 *= _RESCALE
            jm *= _RESCALE
            norm *= _RESCALE
            comp *= _RESCALE
    norm += comp
    if norm == 0.0 or not math.isfinite(norm):
        raise InternalConsistencyError(
            f"backward recurrence normalization failed for J_{m}({z})"
        )
    return jm / norm


# Vector kernels.  The double-double primitives above are elementwise on
# numpy arrays too (numpy rounds once per operation, which is all Dekker
# arithmetic needs).  The vector product alone keeps its own form: it adds
# its error terms as (e + a) + b, where `_dd_mul` adds e + (a + b), and
# merging the two would change `bessel_j_many` bits.

def _v_dd_mul(xh, xl, yh, yl):
    p, e = _two_prod(xh, yh)
    e = e + xh * yl + xl * yh
    return _two_sum(p, e)


def _series_j_vec(m: int, z: np.ndarray, max_terms: int) -> np.ndarray:
    h = 0.5 * z
    th = np.ones_like(z)
    tl = np.zeros_like(z)
    zero_h = np.zeros_like(z)
    for i in range(1, m + 1):
        th, tl = _v_dd_mul(th, tl, h, zero_h)
        th, tl = _dd_div_d(th, tl, float(i))
    sh, sl = th.copy(), tl.copy()
    qh, ql = _two_prod(h, h)
    qh, ql = -qh, -ql
    h_max = float(np.max(h)) if z.size else 0.0
    for l in range(1, max_terms + 1):
        th, tl = _v_dd_mul(th, tl, qh, ql)
        th, tl = _dd_div_d(th, tl, float(l * (l + m)))
        sh, sl = _dd_add(sh, sl, th, tl)
        # <= so the z = 0 lane (where the threshold underflows to 0) converges
        if l > h_max and np.all(np.abs(th) <= 1e-40 * (np.abs(sh) + 1e-300)):
            return sh + sl
    raise InternalConsistencyError(
        f"vector power series for J_{m} did not converge within {max_terms} terms"
    )


def _miller_j_vec(m: int, z: np.ndarray) -> np.ndarray:
    z_max = float(np.max(z))
    start = max(m, int(z_max)) + 40 + int(2.0 * math.sqrt(z_max))
    if start % 2:
        start += 1
    fkp1 = np.zeros_like(z)
    fk = np.full_like(z, 1e-30)
    jm = np.zeros_like(z)
    norm = np.zeros_like(z)
    comp = np.zeros_like(z)
    two_over_z = 2.0 / z
    for k in range(start, 0, -1):
        fkm1 = k * two_over_z * fk - fkp1
        fkp1 = fk
        fk = fkm1
        order = k - 1
        if order == m:
            jm = fk.copy()
        if order % 2 == 0:
            t = fk if order == 0 else 2.0 * fk
            s = norm + t
            comp = comp + np.where(np.abs(norm) >= np.abs(t), (norm - s) + t, (t - s) + norm)
            norm = s
        big = np.abs(fk) > _RESCALE_LIMIT
        if big.any():
            scale = np.where(big, _RESCALE, 1.0)
            fk = fk * scale
            fkp1 = fkp1 * scale
            jm = jm * scale
            norm = norm * scale
            comp = comp * scale
    norm = norm + comp
    if np.any(norm == 0.0) or not np.all(np.isfinite(norm)):
        raise InternalConsistencyError(f"vector backward recurrence failed for order {m}")
    return jm / norm


def bessel_j_many(m: int, z, cfg: EvalConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Elementwise J_m over an array of arguments; same contract as `bessel_j`.

    One backward-recurrence sweep serves all large arguments at once, so
    quadrature-sized batches are much cheaper than a scalar loop.
    """
    if not isinstance(m, int):
        raise InvalidArgumentError(f"order must be an integer, got {m!r}")
    zs = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(zs)):
        raise InvalidArgumentError("arguments must be finite")
    if abs(m) > MAX_ORDER or (zs.size and (zs.min() < 0.0 or zs.max() > MAX_ARGUMENT)):
        raise UnsupportedRangeError(
            f"requested values outside |m| <= {MAX_ORDER}, 0 <= z <= {MAX_ARGUMENT}"
        )
    sign = 1.0
    mm = m
    if mm < 0:
        mm = -mm
        if mm % 2:
            sign = -1.0
    flat = zs.ravel()
    out = np.empty_like(flat)
    small = flat <= cfg.series_switch_point
    if small.any():
        out[small] = _series_j_vec(mm, flat[small], cfg.max_terms)
    if (~small).any():
        out[~small] = _miller_j_vec(mm, flat[~small])
    return sign * out.reshape(zs.shape)


def _validate(m: int, z: float) -> None:
    if not isinstance(m, int):
        raise InvalidArgumentError(f"order must be an integer, got {m!r}")
    if not math.isfinite(z):
        raise InvalidArgumentError(f"argument must be finite, got {z!r}")
    if abs(m) > MAX_ORDER or z < 0.0 or z > MAX_ARGUMENT:
        raise UnsupportedRangeError(
            f"(m, z) = ({m}, {z}) outside supported window "
            f"|m| <= {MAX_ORDER}, 0 <= z <= {MAX_ARGUMENT}"
        )


# ---------------------------------------------------------------------------
# public surface
# ---------------------------------------------------------------------------

def bessel_j(m: int, z: float, cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """Evaluate J_m(z) for integer m and z >= 0.

    Accuracy: relative error <= 1e-12 wherever |J_m(z)| is not vanishingly
    small, absolute error <= 1e-13 otherwise.

    Raises:
        UnsupportedRangeError: (m, z) outside |m| <= 200, 0 <= z <= 500.
        InvalidArgumentError: non-finite z or non-integer m.
    """
    _validate(m, z)
    sign = 1.0
    if m < 0:
        m = -m
        if m % 2:
            sign = -1.0
    if z == 0.0:
        return 1.0 if m == 0 else 0.0
    if z <= cfg.series_switch_point:
        return sign * _series_j(m, z, cfg.max_terms)
    return sign * _miller_j(m, z)


def bessel_j_prime(m: int, z: float, cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """Derivative J'_m(z) via the recurrence J'_m = (J_{m-1} - J_{m+1}) / 2."""
    _validate(m, z)
    # keep neighbor orders inside the window at the edge
    if abs(m - 1) > MAX_ORDER or abs(m + 1) > MAX_ORDER:
        raise UnsupportedRangeError(f"derivative at order {m} needs |m|+1 <= {MAX_ORDER}")
    return 0.5 * (bessel_j(m - 1, z, cfg) - bessel_j(m + 1, z, cfg))


def bessel_j_second(m: int, z: float, cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """Second derivative from the first-derivative recurrence applied twice.

    J''_m = (J_{m-2} - 2 J_m + J_{m+2}) / 4.  Deliberately not derived from
    the Bessel differential equation, so that residual checks against that
    equation stay non-circular.
    """
    _validate(m, z)
    if abs(m - 2) > MAX_ORDER or abs(m + 2) > MAX_ORDER:
        raise UnsupportedRangeError(f"second derivative at order {m} needs |m|+2 <= {MAX_ORDER}")
    return 0.25 * (
        bessel_j(m - 2, z, cfg) - 2.0 * bessel_j(m, z, cfg) + bessel_j(m + 2, z, cfg)
    )


def oracle_bessel_j(m: int, z, digits: int = 50) -> mp.mpf:
    """Arbitrary-precision power-series evaluation of J_m(z) (test oracle).

    Sums the series with mpmath, stopping once the terms are alternating
    with decreasing magnitude and the last added term is below
    10**-(digits+10) relative, which bounds the tail by its first omitted
    term.  Working precision carries ~0.44*z guard digits on top of
    `digits` because the largest series term is ~e^z times the result.

    Slow by design; no code shared with `bessel_j`.

    Args:
        m: integer order (negative orders reduce by parity).
        z: argument; int/float/str/mpf accepted, converted exactly.
        digits: requested decimal digits, at most 100.
    """
    if not isinstance(m, int):
        raise InvalidArgumentError(f"order must be an integer, got {m!r}")
    if digits > 100 or digits < 1:
        raise InvalidArgumentError("digits must lie in [1, 100]")
    sign = 1
    if m < 0:
        m = -m
        if m % 2:
            sign = -1
    # series cancellation grows like e^z (largest term ~ I_m(z)); pad the
    # working precision accordingly so the final digits are trustworthy
    guard = 15 + int(0.4343 * abs(float(mp.mpf(z)))) + 5
    with mp.workdps(digits + guard):
        zz = mp.mpf(z)
        if zz < 0:
            raise InvalidArgumentError("oracle expects z >= 0")
        if zz == 0:
            result = mp.mpf(1 if m == 0 else 0)
        else:
            h = zz / 2
            term = h**m / mp.factorial(m)
            total = term
            ratio_num = -(h * h)
            stop = mp.mpf(10) ** (-(digits + 10))
            l = 1
            while True:
                term = term * ratio_num / (l * (l + m))
                total += term
                if l > h and abs(term) < stop * (abs(total) + stop):
                    break
                l += 1
                if l > 100000:
                    raise InternalConsistencyError("oracle series failed to converge")
            result = sign * total
        return +result
