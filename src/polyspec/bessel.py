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

`bessel_j` evaluates one value.  `bessel_j_many` evaluates arrays: one
order over any array of arguments, or one order per row of a 2-D argument
array, where every row gets exactly the bits of its own one-order call.
Each regime then runs once for all rows, which is what makes stacks of
short rows (one radial profile per row) cheap.

A slow arbitrary-precision series (`oracle_bessel_j`, mpmath-backed) is
provided as independent ground truth for the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import InternalConsistencyError, InvalidArgumentError, UnsupportedRangeError

if TYPE_CHECKING:
    import mpmath as mp

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
    """Alternating power series in double-double arithmetic.

    The Dekker steps of the vector kernel's primitives (`_two_prod`,
    `_dd_div_d`, `_dd_add`, and a product that adds its error terms as
    e + (a + b)) are written out in place, operation for operation, since
    this loop runs once per term of every scalar call.  Splits of a
    loop-invariant factor are made once.
    """
    h = 0.5 * z
    t = _SPLIT * h
    hh = t - (t - h)
    hl = h - hh
    # leading term (z/2)^m / m!, built incrementally (no factorial overflow)
    th, tl = 1.0, 0.0
    for i in range(1, m + 1):
        # (th, tl) *= (h, 0)
        p = th * h
        t = _SPLIT * th
        ah = t - (t - th)
        al = th - ah
        e = ((ah * hh - p) + ah * hl + al * hh) + al * hl
        e += th * 0.0 + tl * h
        th = p + e
        bb = th - p
        tl = (p - (th - bb)) + (e - bb)
        # (th, tl) /= i
        d = float(i)
        q1 = th / d
        p = q1 * d
        t = _SPLIT * q1
        ah = t - (t - q1)
        al = q1 - ah
        t = _SPLIT * d
        bh = t - (t - d)
        bl = d - bh
        e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
        q2 = ((th - p) - e + tl) / d
        th = q1 + q2
        bb = th - q1
        tl = (q1 - (th - bb)) + (q2 - bb)
        if th == 0.0:
            return 0.0  # underflow: true value is below double range
    sh, sl = th, tl
    # ratio numerator -(z/2)^2
    p = h * h
    e = ((hh * hh - p) + hh * hl + hl * hh) + hl * hl
    qh, ql = -p, -e
    t = _SPLIT * qh
    qhh = t - (t - qh)
    qhl = qh - qhh
    for l in range(1, max_terms + 1):
        # (th, tl) *= (qh, ql)
        p = th * qh
        t = _SPLIT * th
        ah = t - (t - th)
        al = th - ah
        e = ((ah * qhh - p) + ah * qhl + al * qhh) + al * qhl
        e += th * ql + tl * qh
        th = p + e
        bb = th - p
        tl = (p - (th - bb)) + (e - bb)
        # (th, tl) /= l (l + m)
        d = float(l * (l + m))
        q1 = th / d
        p = q1 * d
        t = _SPLIT * q1
        ah = t - (t - q1)
        al = q1 - ah
        t = _SPLIT * d
        bh = t - (t - d)
        bl = d - bh
        e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
        q2 = ((th - p) - e + tl) / d
        th = q1 + q2
        bb = th - q1
        tl = (q1 - (th - bb)) + (q2 - bb)
        # (sh, sl) += (th, tl)
        s = sh + th
        bb = s - sh
        e = (sh - (s - bb)) + (th - bb)
        e += sl + tl
        sh = s + e
        bb = sh - s
        sl = (s - (sh - bb)) + (e - bb)
        # <= so subnormal-scale sums (threshold underflows to 0) converge
        if l > h and abs(th) <= 1e-40 * (abs(sh) + 1e-300):
            return sh + sl
    raise InternalConsistencyError(
        f"power series for J_{m}({z}) did not converge within {max_terms} terms"
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
    the loop takes an odd and then an even order, so no step tests parity;
    each step keeps its own rescale test, which the bits depend on.
    """
    fkp1 = 0.0
    fk = 1e-30
    got = [0.0] * (hi - lo + 1)
    norm = 0.0
    comp = 0.0  # Neumaier compensation for the normalization sum
    two_over_z = 2.0 / z
    limit = _RESCALE_LIMIT
    for k in range(start, 0, -2):
        # odd order k - 1
        fkm1 = k * two_over_z * fk - fkp1
        fkp1 = fk
        fk = fkm1
        order = k - 1
        # one test per step above the captured orders, as a one-order pass had
        if order <= hi and order >= lo:
            got[order - lo] = fk
        if abs(fk) > limit:
            fk, fkp1, norm, comp = fk * _RESCALE, fkp1 * _RESCALE, norm * _RESCALE, comp * _RESCALE
            got = [v * _RESCALE for v in got]
        # even order k - 2
        fkm1 = (k - 1) * two_over_z * fk - fkp1
        fkp1 = fk
        fk = fkm1
        order = k - 2
        if order <= hi and order >= lo:
            got[order - lo] = fk
        t = fk if order == 0 else 2.0 * fk
        s = norm + t
        if abs(norm) >= abs(t):
            comp += (norm - s) + t
        else:
            comp += (t - s) + norm
        norm = s
        if abs(fk) > limit:
            fk, fkp1, norm, comp = fk * _RESCALE, fkp1 * _RESCALE, norm * _RESCALE, comp * _RESCALE
            got = [v * _RESCALE for v in got]
    norm += comp
    if norm == 0.0 or not math.isfinite(norm):
        raise InternalConsistencyError(
            f"backward recurrence normalization failed at z = {z}"
        )
    return [v / norm for v in got]


def _miller_j(m: int, z: float) -> float:
    """Backward recurrence for J_m(z) from its own seed order."""
    return _miller_pass(m, m, z, _miller_start(m, z))[0]


# Vector kernels.  The double-double primitives above are elementwise on
# numpy arrays too (numpy rounds once per operation, which is all Dekker
# arithmetic needs).  The vector product alone keeps its own form: it adds
# its error terms as (e + a) + b, where the scalar series adds e + (a + b),
# and merging the two would change `bessel_j_many` bits.  Its multiplier is
# loop-invariant in the series, so the Dekker split of its high part is
# made once per call (`_split`) instead of once per term.

def _split(a):
    t = _SPLIT * a
    hi = t - (t - a)
    return hi, a - hi


def _v_dd_mul(xh, xl, yh, yl, yh_split):
    """(xh, xl) * (yh, yl) with `yh_split = _split(yh)`; `_two_prod` inlined."""
    p = xh * yh
    ah, al = _split(xh)
    bh, bl = yh_split
    e = ((ah * bh - p) + ah * bl + al * bh) + al * bl
    e = e + xh * yl + xl * yh
    return _two_sum(p, e)


def _series_j_vec(orders: np.ndarray, z: np.ndarray, max_terms: int) -> np.ndarray:
    """Power series for each row of z (F, N) at its order in orders (F,).

    A row stops at the test a one-row call would stop at (past its own
    largest half-argument, every lane converged) and is retired from the
    working arrays, so each row keeps the bits of its one-row evaluation.
    Zero lanes converge at once, so callers pad short rows with 0.
    """
    h = 0.5 * z
    # leading terms (z/2)^m / m!: one product chain, each row read off at its m
    rows_at: dict[int, list[int]] = {}
    for row, m in enumerate(orders.tolist()):
        rows_at.setdefault(m, []).append(row)
    th = np.ones_like(z)
    tl = np.zeros_like(z)
    sh, sl = th.copy(), tl.copy()
    h_split = _split(h)
    for i in range(1, max(rows_at) + 1):
        th, tl = _v_dd_mul(th, tl, h, 0.0, h_split)
        th, tl = _dd_div_d(th, tl, float(i))
        if i in rows_at:
            rows = rows_at[i]
            sh[rows] = th[rows]
            sl[rows] = tl[rows]
    th, tl = sh, sl  # from here on every array is rebound, never written in place
    qh, ql = _two_prod(h, h)
    qh, ql = -qh, -ql
    q_split = _split(qh)
    # one shared order stays a float scalar, which is cheaper per term
    mf = float(orders[0]) if len(rows_at) == 1 else orders[:, None].astype(float)
    h_max = h.max(axis=1)
    h_top = float(h_max.max())
    h_min = float(h_max.min())
    live = np.arange(len(orders))
    out = np.empty_like(z)
    for l in range(1, max_terms + 1):
        th, tl = _v_dd_mul(th, tl, qh, ql, q_split)
        th, tl = _dd_div_d(th, tl, l * (l + mf))
        sh, sl = _dd_add(sh, sl, th, tl)
        if l <= h_min:
            continue
        # <= so the z = 0 lane (where the threshold underflows to 0) converges
        ok = np.abs(th) <= 1e-40 * (np.abs(sh) + 1e-300)
        if l > h_top and ok.all():
            out[live] = sh + sl
            return out
        if len(live) == 1:
            continue  # the test above was this row's own
        done = ok.all(axis=1) & (l > h_max)
        if not done.any():
            continue
        out[live[done]] = sh[done] + sl[done]
        keep = ~done
        th, tl, sh, sl, qh, ql, h_max, live = (
            a[keep] for a in (th, tl, sh, sl, qh, ql, h_max, live)
        )
        q_split = tuple(a[keep] for a in q_split)
        if not isinstance(mf, float):
            mf = mf[keep]
        h_top = float(h_max.max())
        h_min = float(h_max.min())
    raise InternalConsistencyError(
        f"vector power series for orders {sorted(rows_at)} "
        f"did not converge within {max_terms} terms"
    )


def _miller_j_vec(orders: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Backward recurrence for each row of z (F, N) at its order in orders (F,).

    Each row starts from its own seed order, taken from its largest
    argument; until then its recurrence values are held at zero, which
    leaves it exactly where a one-row call begins.  Callers pad short rows
    with the row's largest argument.
    """
    z_max = z.max(axis=1).tolist()
    seeds: dict[int, list[int]] = {}
    captures: dict[int, list[int]] = {}
    for row, (m, zm) in enumerate(zip(orders.tolist(), z_max)):
        seeds.setdefault(_miller_start(m, zm), []).append(row)
        captures.setdefault(m, []).append(row)
    fkp1 = np.zeros_like(z)
    fk = np.zeros_like(z)
    jm = np.zeros_like(z)
    norm = np.zeros_like(z)
    comp = np.zeros_like(z)
    two_over_z = 2.0 / z
    for k in range(max(seeds), 0, -1):
        if k in seeds:
            fk[seeds[k]] = 1e-30
        fkm1 = k * two_over_z * fk - fkp1
        fkp1 = fk
        fk = fkm1
        order = k - 1
        if order in captures:
            rows = captures[order]
            jm[rows] = fk[rows]
        if order % 2 == 0:
            # TwoSum's error is the exact rounding error that the scalar
            # kernel's |norm| >= |t| branch computes; only the sign of a
            # zero error can differ, and comp reaches the result only
            # through norm + comp with norm != 0
            norm, err = _two_sum(norm, fk if order == 0 else 2.0 * fk)
            comp = comp + err
        big = np.abs(fk) > _RESCALE_LIMIT
        if big.any():
            scale = np.where(big, _RESCALE, 1.0)
            fk = fk * scale
            fkp1 = fkp1 * scale
            jm = jm * scale
            norm = norm * scale
            comp = comp * scale
    norm = norm + comp
    if (norm == 0.0).any() or not np.isfinite(norm).all():
        raise InternalConsistencyError(
            f"vector backward recurrence failed for orders {sorted(captures)}"
        )
    return jm / norm


def _by_rows(
    kernel, orders: np.ndarray, z: np.ndarray, lanes: np.ndarray, pad: np.ndarray, out: np.ndarray
) -> None:
    """Run a row kernel on the selected lanes of each row of z, packed left.

    Rows without a selected lane are left out; shorter rows are filled up
    with their entry of `pad`.  Results land in the same lanes of `out`.
    """
    counts = lanes.sum(axis=1)
    hit = counts > 0
    if not hit.any():
        return
    packed_lanes = np.arange(int(counts.max())) < counts[hit, None]
    packed = np.repeat(pad[hit, None], packed_lanes.shape[1], axis=1)
    packed[packed_lanes] = z[lanes]
    out[lanes] = kernel(orders[hit], packed)[packed_lanes]


def bessel_j_many(m, z, cfg: EvalConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Elementwise J_m over arrays of arguments; same contract as `bessel_j`.

    Two forms:

    * `m` an int: J_m over every entry of `z` (any shape), shape preserved;
    * `m` a 1-D integer sequence of F orders and `z` of shape (F, N): row i
      holds J_{m[i]}(z[i]).  Row i has exactly the bits of
      `bessel_j_many(int(m[i]), z[i])`, which is the one-row case.

    Lanes split at `cfg.series_switch_point` as in `bessel_j`; each regime
    runs once for all rows, the series retiring rows as they converge and
    the backward recurrence seeding each row at its own start order.  So
    batches of quadrature size are much cheaper than a scalar loop, and
    many short rows much cheaper than one call per row.
    """
    zs = np.asarray(z, dtype=float)
    if isinstance(m, int):
        orders = np.array([m], dtype=np.int64)
        rows = zs.reshape(1, -1)
    else:
        orders = np.asarray(m)
        if orders.ndim != 1 or (orders.size and orders.dtype.kind not in "iu"):
            raise InvalidArgumentError(
                f"order must be an integer or a 1-D integer sequence, got {m!r}"
            )
        if zs.ndim != 2 or zs.shape[0] != orders.size:
            raise InvalidArgumentError(
                f"{orders.size} orders need arguments of shape ({orders.size}, N), "
                f"got {zs.shape}"
            )
        orders = orders.astype(np.int64)
        rows = zs
    if not np.all(np.isfinite(zs)):
        raise InvalidArgumentError("arguments must be finite")
    mags = np.abs(orders)
    if (mags.size and mags.max() > MAX_ORDER) or (
        zs.size and (zs.min() < 0.0 or zs.max() > MAX_ARGUMENT)
    ):
        raise UnsupportedRangeError(
            f"requested values outside |m| <= {MAX_ORDER}, 0 <= z <= {MAX_ARGUMENT}"
        )
    out = np.empty_like(rows)
    small = rows <= cfg.series_switch_point

    def series(o, zz):
        return _series_j_vec(o, zz, cfg.max_terms)

    _by_rows(series, mags, rows, small, np.zeros(len(rows)), out)
    if rows.size:
        _by_rows(_miller_j_vec, mags, rows, ~small, rows.max(axis=1), out)
    # J_{-m} = (-1)^m J_m
    sign = np.where((orders < 0) & (mags % 2 == 1), -1.0, 1.0)
    if isinstance(m, int):
        return float(sign[0]) * out.reshape(zs.shape)
    return sign[:, None] * out


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


def _bessel_j_with_derivatives(m: int, z: float) -> tuple[float, float, float]:
    """(J_m(z), J'_m(z), J''_m(z)) from one `bessel_j` call per order m-2..m+2.

    Each value has the bits of `bessel_j`, `bessel_j_prime` and
    `bessel_j_second`, which raise the same range errors in the same order.
    """
    _validate(m, z)
    _check_neighbours(m, 1, "derivative")
    _check_neighbours(m, 2, "second derivative")
    jm2, jm1, j, jp1, jp2 = (bessel_j(m + d, z) for d in range(-2, 3))
    return j, _prime(jm1, jp1), _second(jm2, j, jp2)


def _bessel_j_and_prime(m: int, z: float) -> tuple[float, float]:
    """(J_m(z), J'_m(z)) with the bits of `bessel_j` and `bessel_j_prime`.

    In the backward-recurrence regime, when J_{m-1}, J_m and J_{m+1} share a
    seed order (as they do once int(z) > m), one pass yields all three;
    otherwise the values come from those two calls.
    """
    _validate(m, z)
    _check_neighbours(m, 1, "derivative")
    if (
        m >= 1
        and z > DEFAULT_CONFIG.series_switch_point
        and _miller_start(m - 1, z) == _miller_start(m + 1, z)
    ):
        jm1, j, jp1 = _miller_pass(m - 1, m + 1, z, _miller_start(m, z))
        return j, _prime(jm1, jp1)
    return bessel_j(m, z), bessel_j_prime(m, z)


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
