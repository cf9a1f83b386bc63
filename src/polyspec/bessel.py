"""Bessel functions J_m of integer order on the non-negative real axis.

Two evaluation regimes, selected by the argument size:

* small arguments: the alternating power series

      J_m(z) = sum_l (-1)^l (z/2)^(2l+m) / (l! (l+m)!)

  summed in compensated (double-double) arithmetic, so the massive
  cancellation for moderate z does not eat into the result;
* large arguments: Miller's backward recurrence, normalized with the
  even-order sum identity  J_0(z) + 2*sum_k J_{2k}(z) = 1.

The switch point is fixed at z = 18.  Above it no recurrence in the window
grows past about 1e221, so the recurrence runs without rescaling; were one
to overflow, its normalization would fail and the value be refused.

Negative orders reduce through J_{-m}(z) = (-1)^m J_m(z), so the parity
identity is bit-exact by construction.  Derivatives come from the
three-term recurrences, never from finite differences.

`bessel_j` evaluates one value.  `bessel_j_many` evaluates arrays: one
order over any array of arguments, or one order per row of a 2-D argument
array.  It works on flat lanes of (|m|, z), and every value has exactly
the bits of `bessel_j(m, z)`.  The series regime runs as one loop over all
its lanes, through the double-double primitives of the scalar series,
which is what makes a whole stack of radial profiles cheap in one call.
Each lane above the switch point is the `_miller_j` call that `bessel_j`
makes, so `_miller_pass` is the one recurrence kernel.  A single value is
cheaper from `bessel_j`.

A slow arbitrary-precision series (`oracle_bessel_j`, mpmath-backed) is
provided as independent ground truth for the test suite.

Only `bessel_j_many` and its series lane kernel use numpy, and they
import it when called, so the scalar kernels and the zero fill load no
numpy.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import InternalConsistencyError, InvalidArgumentError, UnsupportedRangeError

if TYPE_CHECKING:
    import mpmath as mp
    import numpy as np

__all__ = [
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
# Hard cap on series terms: a safety net, never reached in the window.
_MAX_TERMS = 400


@dataclass(frozen=True)
class EvalConfig:
    """The fixed evaluation parameters, as a record that profiling tools read.

    Attributes:
        series_switch_point: the power series serves z up to it, the
            backward recurrence z above it.
    """

    series_switch_point: float = 18.0


DEFAULT_CONFIG = EvalConfig()


# ---------------------------------------------------------------------------
# double-double primitives (error-free transformations)
# ---------------------------------------------------------------------------

def _split(a):
    """Dekker's split of a into a high half and the exact rest."""
    t = _SPLIT * a
    hi = t - (t - a)
    return hi, a - hi


def _neg_square(h, hh, hl):
    """-(h * h) as a double-double, from the split (hh, hl) of h."""
    p = h * h
    return -p, -(((hh * hh - p) + hh * hl + hl * hh) + hl * hl)


def _dd_mul_div(xh, xl, yh, yl, yhh, yhl, d):
    """(xh, xl) * (yh, yl) / d for an integer d < 2**26, with (yhh, yhl) =
    `_split(yh)` made once for a loop-invariant multiplier.

    The product's error terms add as e + (a + b).  The quotient has the
    bits of a full Dekker product q1 * d for such a d, as every series term
    in the window has: d splits as (d, 0.0), and the products with that 0.0
    add nothing, since the sums they join are never -0.0.  Splits and
    two-sums are written out, since this runs once per series term.
    """
    p = xh * yh
    t = _SPLIT * xh
    ah = t - (t - xh)
    al = xh - ah
    e = ((ah * yhh - p) + ah * yhl + al * yhh) + al * yhl
    e += xh * yl + xl * yh
    xh = p + e
    bb = xh - p
    xl = (p - (xh - bb)) + (e - bb)
    q1 = xh / d
    p = q1 * d
    t = _SPLIT * q1
    ah = t - (t - q1)
    al = q1 - ah
    q2 = ((xh - p) - ((ah * d - p) + al * d) + xl) / d
    xh = q1 + q2
    bb = xh - q1
    return xh, (q1 - (xh - bb)) + (q2 - bb)


def _dd_add(xh, xl, yh, yl):
    s = xh + yh
    bb = s - xh
    e = (xh - (s - bb)) + (yh - bb)
    e += xl + yl
    xh = s + e
    bb = xh - s
    return xh, (s - (xh - bb)) + (e - bb)


# ---------------------------------------------------------------------------
# evaluation kernels (nonnegative order assumed)
# ---------------------------------------------------------------------------

def _series_j(m: int, z: float) -> float:
    """Alternating power series in double-double arithmetic.

    Each term is one `_dd_mul_div` and one `_dd_add`, the steps of the lane
    kernel `_series_lanes`.
    """
    h = 0.5 * z
    hh, hl = _split(h)
    # leading term (z/2)^m / m!, built incrementally (no factorial overflow);
    # once th is 0.0 the chain keeps it there, so an underflow shows at its end
    th, tl = 1.0, 0.0
    for i in range(1, m + 1):
        th, tl = _dd_mul_div(th, tl, h, 0.0, hh, hl, float(i))
    if th == 0.0:
        return 0.0  # underflow: true value is below double range
    sh, sl = th, tl
    # ratio numerator -(z/2)^2
    qh, ql = _neg_square(h, hh, hl)
    qhh, qhl = _split(qh)
    mf = float(m)
    for l in range(1, _MAX_TERMS + 1):
        th, tl = _dd_mul_div(th, tl, qh, ql, qhh, qhl, l * (l + mf))
        sh, sl = _dd_add(sh, sl, th, tl)
        # <= so subnormal-scale sums (threshold underflows to 0) converge
        if l > h and abs(th) <= 1e-40 * (abs(sh) + 1e-300):
            return sh + sl
    raise InternalConsistencyError(
        f"power series for J_{m}({z}) did not converge within {_MAX_TERMS} terms"
    )


def _miller_start(m: int, z: float) -> int:
    """Even seed order of the backward recurrence for J_m(z), well above max(m, z).

    The offset keeps the seed contamination below ~1e-15 relative over the
    whole supported window (validated against the oracle in the tests).
    """
    start = max(m, int(z)) + 40 + int(2.0 * math.sqrt(z))
    return start + start % 2


def _miller_pass(lo: int, hi: int, z: float, start: int) -> list[float]:
    """J_lo(z) .. J_hi(z) from one backward recurrence seeded at even order `start`.

    The recurrence and its normalization do not depend on the captured
    orders, so each value has the bits of a one-order pass from the same
    seed: `_miller_j` when `start` is that order's own seed.  Each turn of
    the loop takes an odd and then an even order, so no step tests parity.
    The normalization is summed with TwoSum compensation, and no step
    rescales: an overflow leaves a normalization that is not finite, which
    is refused.  `bessel_j`, `bessel_j_many` and the derivative helper all
    reach the recurrence regime through this one kernel.
    """
    fkp1 = 0.0
    fk = 1e-30
    got = [0.0] * (hi - lo + 1)
    norm = 0.0
    comp = 0.0  # TwoSum compensation for the normalization sum
    two_over_z = 2.0 / z
    for k in range(start, 0, -2):
        # odd order k - 1
        fkm1 = k * two_over_z * fk - fkp1
        fkp1 = fk
        fk = fkm1
        order = k - 1
        # one test per step above the captured orders, as a one-order pass had
        if order <= hi and order >= lo:
            got[order - lo] = fk
        # even order k - 2
        fkm1 = (k - 1) * two_over_z * fk - fkp1
        fkp1 = fk
        fk = fkm1
        order = k - 2
        if order <= hi and order >= lo:
            got[order - lo] = fk
        t = fk if order == 0 else 2.0 * fk
        s = norm + t
        bb = s - norm
        comp += (norm - (s - bb)) + (t - bb)
        norm = s
    norm += comp
    if norm == 0.0 or not math.isfinite(norm):
        raise InternalConsistencyError(
            f"backward recurrence normalization failed at z = {z}"
        )
    return [v / norm for v in got]


def _miller_j(m: int, z: float) -> float:
    """Backward recurrence for J_m(z) from its own seed order."""
    return _miller_pass(m, m, z, _miller_start(m, z))[0]


# The series lane kernel.  `bessel_j_many` runs flat lanes of (|m|, z), and
# each series lane takes the steps of `_series_j`, so it has the bits of
# `bessel_j(m, z)`: both call the same double-double primitives, which are
# elementwise on numpy arrays too (numpy rounds once per operation, which
# is all Dekker arithmetic needs).


def _series_lanes(m: np.ndarray, z: np.ndarray) -> np.ndarray:
    """`_series_j` on each lane of (m, z), z > 0.

    A lane whose leading term underflows gives 0.0, and every other lane
    the sums of the term at which its own stopping test holds.  Stopped
    lanes are carried along until they make up half of the working arrays,
    which are then compacted.
    """
    import numpy as np

    out = np.zeros_like(z)
    if not z.size:
        return out
    # leading terms (z/2)^m / m!: with the lanes in descending order of m,
    # those still in the chain at factor i are a prefix
    lane = np.argsort(-m, kind="stable")
    m, h = m[lane], 0.5 * z[lane]
    th, tl = np.ones_like(h), np.zeros_like(h)
    hh, hl = _split(h)
    in_chain = np.searchsorted(-m, -np.arange(int(m[0]) + 1), side="right").tolist()
    for i, n in enumerate(in_chain[1:], 1):
        th[:n], tl[:n] = _dd_mul_div(th[:n], tl[:n], h[:n], 0.0, hh[:n], hl[:n], float(i))
    # once th is 0.0 the chain keeps it there, so an underflow shows at its end
    live = th != 0.0
    lane, m, h, hh, hl, th, tl = (a[live] for a in (lane, m, h, hh, hl, th, tl))
    if not lane.size:
        return out
    sh, sl = th, tl
    qh, ql = _neg_square(h, hh, hl)
    # one order for all lanes stays a float, which is cheaper per term; a
    # lane that has stopped gets sh = NaN, so its test never holds again
    mf = float(m[0]) if m[0] == m[-1] else m.astype(float)
    arrays = [lane, mf, h, qh, ql, *_split(qh), th, tl, sh, sl]
    left, h_top = len(lane), float(h.max())
    for l in range(1, _MAX_TERMS + 1):
        lane, mf, h, qh, ql, qhh, qhl, th, tl, sh, sl = arrays
        th, tl = _dd_mul_div(th, tl, qh, ql, qhh, qhl, l * (l + mf))
        sh, sl = _dd_add(sh, sl, th, tl)
        arrays[-4:] = th, tl, sh, sl
        # <= so subnormal-scale sums (threshold underflows to 0) converge
        stop = np.abs(th) <= 1e-40 * (np.abs(sh) + 1e-300)
        if l <= h_top:
            stop &= l > h
        if not stop.any():
            continue
        out[lane[stop]] = sh[stop] + sl[stop]
        sh[stop] = np.nan
        left -= np.count_nonzero(stop)
        if not left:
            return out
        if 2 * left <= len(sh):
            keep = ~np.isnan(sh)
            arrays = [a if isinstance(a, float) else a[keep] for a in arrays]
    raise InternalConsistencyError(
        f"power series did not converge within {_MAX_TERMS} terms on {left} lanes"
    )


def bessel_j_many(m, z) -> np.ndarray:
    """Elementwise J_m over arrays of arguments; every value has exactly the
    bits of `bessel_j`, which refuses the same inputs.

    Two forms:

    * `m` an int: J_m over every entry of `z` (any shape), shape preserved;
    * `m` a 1-D integer sequence of F orders and `z` of shape (F, N): row i
      holds J_{m[i]}(z[i]).

    Each order is broadcast to the lanes of its row.  The series regime
    runs once for all its lanes, so one call serves a whole stack of radial
    profiles; each lane above the switch point is the `_miller_j` call of
    `bessel_j`.  A call with series lanes pays for a loop over series terms
    whatever its size, so a few values are cheaper from `bessel_j`.
    """
    import numpy as np

    zs = np.asarray(z)
    if zs.dtype.kind not in "biuf" and not all(isinstance(x, numbers.Real) for x in zs.flat):
        raise InvalidArgumentError(f"arguments must be real numbers, got {zs.dtype} values")
    try:  # objects too: ints past int64 and Fractions, as `bessel_j` takes them
        zs = zs.astype(float)
    except OverflowError:  # past the double range
        raise UnsupportedRangeError(f"arguments outside 0 <= z <= {MAX_ARGUMENT}") from None
    if isinstance(m, int):
        orders = np.array([m], dtype=object)
        rows = zs.reshape(1, -1)
    else:
        orders = np.asarray(m)
        if orders.ndim != 1 or (orders.size and orders.dtype.kind not in "biu"):
            raise InvalidArgumentError(
                f"order must be an integer or a 1-D integer sequence, got {m!r}"
            )
        if zs.ndim != 2 or zs.shape[0] != orders.size:
            raise InvalidArgumentError(
                f"{orders.size} orders need arguments of shape ({orders.size}, N), "
                f"got {zs.shape}"
            )
        rows = zs
    if not np.all(np.isfinite(zs)):
        raise InvalidArgumentError("arguments must be finite")
    # as Python ints, so no order wraps around before it is checked
    if (orders.size and max(-int(orders.min()), int(orders.max())) > MAX_ORDER) or (
        zs.size and (zs.min() < 0.0 or zs.max() > MAX_ARGUMENT)
    ):
        raise UnsupportedRangeError(
            f"requested values outside |m| <= {MAX_ORDER}, 0 <= z <= {MAX_ARGUMENT}"
        )
    orders = orders.astype(np.int64)
    mags = np.repeat(np.abs(orders), rows.shape[1])
    lanes = rows.ravel()
    out = np.empty_like(lanes)
    zero = lanes == 0.0
    switch = DEFAULT_CONFIG.series_switch_point
    small = ~zero & (lanes <= switch)
    big = lanes > switch
    out[zero] = mags[zero] == 0
    out[small] = _series_lanes(mags[small], lanes[small])
    # the recurrence regime runs lane by lane, through the call `bessel_j` makes
    out[big] = [_miller_j(*lane) for lane in zip(mags[big].tolist(), lanes[big].tolist())]
    # J_{-m} = (-1)^m J_m away from z = 0, where `bessel_j` gives 1.0 or 0.0
    flip = np.repeat((orders < 0) & (orders % 2 == 1), rows.shape[1]) & ~zero
    out[flip] = -out[flip]
    return out.reshape(zs.shape)


def _validate(m: int, z: float) -> float:
    """z as a Python float (a float32 would run the kernels in float32)."""
    if not isinstance(m, int):
        raise InvalidArgumentError(f"order must be an integer, got {m!r}")
    if not isinstance(z, numbers.Real):
        raise InvalidArgumentError(f"argument must be a finite real number, got {z!r}")
    try:
        z = float(z)
    except OverflowError:  # an int or Fraction past the double range
        raise UnsupportedRangeError(f"argument outside 0 <= z <= {MAX_ARGUMENT}") from None
    if not math.isfinite(z):
        raise InvalidArgumentError(f"argument must be a finite real number, got {z!r}")
    if abs(m) > MAX_ORDER or z < 0.0 or z > MAX_ARGUMENT:
        raise UnsupportedRangeError(
            f"(m, z) = ({m}, {z}) outside supported window "
            f"|m| <= {MAX_ORDER}, 0 <= z <= {MAX_ARGUMENT}"
        )
    return z


# ---------------------------------------------------------------------------
# public surface
# ---------------------------------------------------------------------------

def bessel_j(m: int, z: float) -> float:
    """Evaluate J_m(z) for integer m and z >= 0.

    Accuracy: relative error <= 1e-12 wherever |J_m(z)| is not vanishingly
    small, absolute error <= 1e-13 otherwise.

    Raises:
        UnsupportedRangeError: (m, z) outside |m| <= 200, 0 <= z <= 500.
        InvalidArgumentError: z not a finite real number, or m not an int.
    """
    z = _validate(m, z)
    sign = 1.0
    if m < 0:
        m = -m
        if m % 2:
            sign = -1.0
    if z == 0.0:
        return 1.0 if m == 0 else 0.0
    if z <= DEFAULT_CONFIG.series_switch_point:
        return sign * _series_j(m, z)
    return sign * _miller_j(m, z)


def _check_neighbours(m: int, k: int, what: str) -> None:
    if abs(m - k) > MAX_ORDER or abs(m + k) > MAX_ORDER:
        raise UnsupportedRangeError(f"{what} at order {m} needs |m|+{k} <= {MAX_ORDER}")


def _prime(j_below: float, j_above: float) -> float:
    return 0.5 * (j_below - j_above)


def _second(j_below2: float, j: float, j_above2: float) -> float:
    return 0.25 * (j_below2 - 2.0 * j + j_above2)


def bessel_j_prime(m: int, z: float) -> float:
    """Derivative J'_m(z) via the recurrence J'_m = (J_{m-1} - J_{m+1}) / 2."""
    _validate(m, z)
    # keep neighbor orders inside the window at the edge
    _check_neighbours(m, 1, "derivative")
    return _prime(bessel_j(m - 1, z), bessel_j(m + 1, z))


def bessel_j_second(m: int, z: float) -> float:
    """Second derivative from the first-derivative recurrence applied twice.

    J''_m = (J_{m-2} - 2 J_m + J_{m+2}) / 4.  Deliberately not derived from
    the Bessel differential equation, so that residual checks against that
    equation stay non-circular.
    """
    _validate(m, z)
    _check_neighbours(m, 2, "second derivative")
    return _second(bessel_j(m - 2, z), bessel_j(m, z), bessel_j(m + 2, z))


def _bessel_j_and_derivatives(m: int, z: float, k: int) -> tuple[float, ...]:
    """(J_m(z), ..., J^(k)_m(z)) for k = 1 or 2, with the bits of `bessel_j`,
    `bessel_j_prime` and `bessel_j_second`, which raise the same range errors
    in the same order.

    In the backward-recurrence regime, when orders m-k and m+k share a seed
    (as they do once int(z) >= m + k), one pass yields J_{m-k} .. J_{m+k};
    otherwise each order is one `bessel_j` call.
    """
    z = _validate(m, z)
    _check_neighbours(m, 1, "derivative")
    if k == 2:
        _check_neighbours(m, 2, "second derivative")
    if (
        m >= k
        and z > DEFAULT_CONFIG.series_switch_point
        and _miller_start(m - k, z) == _miller_start(m + k, z)
    ):
        js = _miller_pass(m - k, m + k, z, _miller_start(m, z))
    else:
        js = [bessel_j(m + d, z) for d in range(-k, k + 1)]
    if k == 1:
        return js[1], _prime(js[0], js[2])
    return js[2], _prime(js[1], js[3]), _second(js[0], js[2], js[4])


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
    import mpmath as mp  # only the oracle needs it; keeps `import polyspec` light

    if not isinstance(m, int):
        raise InvalidArgumentError(f"order must be an integer, got {m!r}")
    if not isinstance(digits, int) or not (1 <= digits <= 100):
        raise InvalidArgumentError(f"digits must be an integer in [1, 100], got {digits!r}")
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
