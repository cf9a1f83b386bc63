"""Positive zeros lambda_{m,j} of the Bessel functions J_m, certified.

Construction is inductive in the order:

* J_0 zeros are bracketed a priori: the k-th lies in ((k+1/2)pi, (k+1)pi),
  since J_0 is positive on [k*pi, (k+1/2)*pi] for even k and negative for
  odd k (from the integral representation);
* each zero of J_{m+1} is bracketed by two consecutive zeros of J_m
  (interlacing), so level m+1 needs level m filled one index further.

Every bracket is certified by an explicit sign change before bisection;
a missing sign change aborts instead of guessing.  Refinement is bisection
to a relative width of ~1e-13, then a few Newton steps (zeros are simple,
so Newton converges quadratically).

All zeros live in a `ZeroCache`: a monotone, thread-safe table keyed by
(order, index) that also stores the final certified enclosures.
"""

from __future__ import annotations

import math
import threading

from .bessel import MAX_ARGUMENT, bessel_j, bessel_j_prime
from .errors import InternalConsistencyError, InvalidArgumentError, UnsupportedRangeError

__all__ = [
    "MAX_ZERO_ORDER",
    "MAX_ZERO_INDEX",
    "ZeroCache",
    "j0_bracket",
]

MAX_ZERO_ORDER = 150
MAX_ZERO_INDEX = 200

_MAX_BISECTIONS = 60
_MAX_NEWTON = 8
_WIDTH_TOL = 1e-13


def j0_bracket(k: int) -> tuple[float, float]:
    """Return the a-priori bracket ((k+1/2)pi, (k+1)pi) around the (k+1)-th J_0 zero.

    The sign change of J_0 across the interval is checked explicitly.
    """
    if k < 0:
        raise InvalidArgumentError("bracket index must be non-negative")
    lo = (k + 0.5) * math.pi
    hi = (k + 1.0) * math.pi
    if hi > MAX_ARGUMENT:
        raise UnsupportedRangeError(
            f"J_0 zero #{k + 1} needs evaluations beyond z = {MAX_ARGUMENT}"
        )
    if bessel_j(0, lo) * bessel_j(0, hi) >= 0.0:
        raise InternalConsistencyError(f"no sign change of J_0 on bracket #{k}")
    return lo, hi


class ZeroCache:
    """Memoized table of positive Bessel zeros with certified enclosures.

    Entries are immutable and inserted whole under a single lock, so
    concurrent lookups never observe a partially computed entry.  Growth is
    on-demand and monotone; nothing is ever invalidated.
    """

    def __init__(self, width_tol: float = _WIDTH_TOL):
        if not (width_tol > 0.0):
            raise InvalidArgumentError("width_tol must be positive")
        self._width_tol = width_tol
        self._lock = threading.RLock()
        self._table: dict[tuple[int, int], tuple[float, tuple[float, float]]] = {}
        self._filled: dict[int, int] = {}  # order -> highest contiguous index

    # -- public API ---------------------------------------------------------

    def zero(self, m: int, j: int) -> float:
        """Return lambda_{|m|, j} to ~1e-12 absolute accuracy."""
        return self._entry(m, j)[0]

    def enclosure(self, m: int, j: int) -> tuple[float, float]:
        """Return the certified (sign-change) interval around lambda_{|m|, j}."""
        return self._entry(m, j)[1]

    def zeros_upto(self, m: int, x_max: float) -> list[float]:
        """All lambda_{|m|, j} <= x_max, ascending; complete by construction."""
        if not math.isfinite(x_max):
            raise InvalidArgumentError("x_max must be finite")
        out: list[float] = []
        j = 1
        while True:
            if j > MAX_ZERO_INDEX:
                raise UnsupportedRangeError(
                    f"more than {MAX_ZERO_INDEX} zeros of J_{abs(m)} requested below {x_max}"
                )
            z = self.zero(m, j)
            if z > x_max:
                return out
            out.append(z)
            j += 1

    def known_items(self) -> list[tuple[tuple[int, int], float]]:
        """Snapshot of cached ((m, j), value) pairs (test/introspection aid)."""
        with self._lock:
            return [(key, val) for key, (val, _) in sorted(self._table.items())]

    # -- construction -------------------------------------------------------

    def _entry(self, m: int, j: int) -> tuple[float, tuple[float, float]]:
        m = abs(m)  # zeros of J_{-m} equal zeros of J_m
        if j < 1:
            raise InvalidArgumentError("zero index must be >= 1")
        if m > MAX_ZERO_ORDER or j > MAX_ZERO_INDEX:
            raise UnsupportedRangeError(
                f"(m, j) = ({m}, {j}) outside zero window "
                f"m <= {MAX_ZERO_ORDER}, j <= {MAX_ZERO_INDEX}"
            )
        got = self._table.get((m, j))
        if got is not None:
            return got
        # The inductive chain for (m, j) tops out at J_0 zero index m + j,
        # whose bracket ends at (m + j) * pi; reject if that exceeds the
        # evaluation window.
        if (m + j) * math.pi > MAX_ARGUMENT:
            raise UnsupportedRangeError(
                f"zero ({m}, {j}) needs the chain up to z ~ {(m + j) * math.pi:.1f}, "
                f"beyond the z <= {MAX_ARGUMENT} evaluation window"
            )
        with self._lock:
            got = self._table.get((m, j))
            if got is None:
                self._fill(m, j)
                got = self._table[(m, j)]
            return got

    def _fill(self, m: int, j: int) -> None:
        # level lvl must reach index j + (m - lvl): one extra zero per level
        # below supplies the interlacing bracket for the level above.
        for lvl in range(0, m + 1):
            need = j + (m - lvl)
            have = self._filled.get(lvl, 0)
            for idx in range(have + 1, need + 1):
                self._compute(lvl, idx)
            if need > have:
                self._filled[lvl] = need

    def _compute(self, m: int, j: int) -> None:
        if m == 0:
            lo, hi = j0_bracket(j - 1)
        else:
            lo = self._table[(m - 1, j)][0]
            hi = self._table[(m - 1, j + 1)][0]
        value, enclosure = self._refine(m, lo, hi)
        self._table[(m, j)] = (value, enclosure)

    def _refine(self, m: int, lo: float, hi: float) -> tuple[float, tuple[float, float]]:
        flo = bessel_j(m, lo)
        fhi = bessel_j(m, hi)
        if flo == 0.0 or fhi == 0.0 or (flo > 0.0) == (fhi > 0.0):
            raise InternalConsistencyError(
                f"bracket ({lo}, {hi}) shows no sign change for J_{m}"
            )
        target = self._width_tol * max(1.0, hi)
        for _ in range(_MAX_BISECTIONS):
            if hi - lo <= target:
                break
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                break  # interval at float resolution
            fmid = bessel_j(m, mid)
            if fmid == 0.0:
                lo = hi = mid
                break
            if (fmid > 0.0) == (flo > 0.0):
                lo, flo = mid, fmid
            else:
                hi, fhi = mid, fmid
        x = 0.5 * (lo + hi)
        for _ in range(_MAX_NEWTON):
            f = bessel_j(m, x)
            df = bessel_j_prime(m, x)
            if df == 0.0:
                break
            step = f / df
            xn = x - step
            if not (lo <= xn <= hi):
                break  # never leave the certified enclosure
            converged = abs(step) <= 1e-16 * x
            x = xn
            if converged:
                break
        return x, (lo, hi)
