"""Positive zeros lambda_{m,j} of the Bessel functions J_m, certified.

Construction is inductive in the order:

* J_0 zeros are bracketed a priori: the k-th lies in ((k+1/2)pi, (k+1)pi),
  since J_0 is positive on [k*pi, (k+1/2)*pi] for even k and negative for
  odd k (from the integral representation);
* each zero of J_{m+1} is bracketed by two consecutive zeros of J_m
  (interlacing), so level m+1 needs level m filled one index further.

Each bracket holds exactly one zero, and it is simple (interlacing; Watson
15.22, DLMF 10.21), so an evaluated sign change of J_m inside the bracket
of (m, j) certifies an enclosure of lambda_{m,j}.

Serving.  Every zero the window can ask for (m <= MAX_ZERO_ORDER and
(m + j) pi <= MAX_ARGUMENT: 12,684 of them) is stored, as (value, lo, hi),
in the package data file `zero_snapshot.bin`, which the fill below wrote.
A `ZeroCache` walks the inductive chain of the fill, and checks each entry
on first use instead of computing it:

* [lo, hi] lies inside the bracket of (m, j): ((j-1/2)pi, j pi) for m = 0,
  else [lambda_{m-1,j}, lambda_{m-1,j+1}], whose entries are checked first;
* J_m changes sign across [lo, hi], by two evaluations, neither of them 0;
* lo <= value <= hi, and hi - lo is within the fill's target width
  `_WIDTH_TOL` * max(1, b), b the upper end of the bracket.

That is the certificate the fill leaves, at 2 kernel runs per zero instead
of the fill's ~13.  An entry that fails a check, or a file of the wrong
size or header, raises InternalConsistencyError; nothing is refilled.
After a change to the Bessel kernel that moves a zero's bits, regenerate
the file with `PYTHONPATH=src python tools/make_zero_snapshot.py` (its
`--check` compares a fresh fill with the file instead); until then the
tests that tie the snapshot to the fill fail.

Fill (the snapshot's source, `_FillCache`).  Every bracket is certified by
an explicit sign change before refinement; a missing sign change aborts
instead of guessing.  Refinement:

* Illinois regula falsi narrows the bracket to an evaluated sign change
  [a, b] no wider than the target width (~1e-13 relative);
* bisection to that target width is then replayed: the same midpoints and
  stopping tests as a plain bisection of the bracket, but J is evaluated
  only at midpoints inside [a, b].  A midpoint below a takes the sign of
  the lower end and one above b the sign of the upper end, since the one
  zero lies in [a, b].  An end of the final enclosure whose sign was
  inferred is evaluated before it is returned, so every enclosure rests on
  evaluated signs at both ends; one that shows no sign change aborts.
  Wherever the computed sign of J changes once in the bracket, enclosures
  and values are bit for bit those of the plain bisection; every zero of
  the window was checked;
* a few Newton steps polish the midpoint (quadratic convergence), each
  from one backward-recurrence pass where J_{m-1}, J_m and J_{m+1} share
  a seed.

All zeros live in a `ZeroCache`: a monotone, thread-safe table keyed by
(order, index) that also stores the final certified enclosures.
"""

from __future__ import annotations

import array
import functools
import math
import numbers
import os
import struct
import sys
import threading

from .bessel import MAX_ARGUMENT, _bessel_j_and_derivatives, bessel_j
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

# The chain of (m, j) reaches the J_0 bracket ending at (m + j) pi, so the
# window holds m + j <= _MAX_CHAIN; below MAX_ZERO_INDEX, so order m holds
# the indices 1.._MAX_CHAIN - m.
_MAX_CHAIN = int(MAX_ARGUMENT // math.pi)

# The snapshot: a header, then (value, lo, hi) as little-endian doubles
# for each (m, j) of the window, ordered by m, then j.
_SNAPSHOT_FILE = os.path.join(os.path.dirname(__file__), "zero_snapshot.bin")
_SNAPSHOT_MAGIC = b"PSZEROS1"
_SNAPSHOT_HEADER = struct.Struct("<8s4I")  # magic, entries, order, index, chain limits


def _row_start(m: int) -> int:
    """Index of the snapshot entry (m, 1): orders below m hold _MAX_CHAIN - k each."""
    return m * _MAX_CHAIN - m * (m - 1) // 2


_SNAPSHOT_ENTRIES = _row_start(MAX_ZERO_ORDER + 1)


def j0_bracket(k: int) -> tuple[float, float]:
    """Return the a-priori bracket ((k+1/2)pi, (k+1)pi) around the (k+1)-th J_0 zero.

    The sign change of J_0 across the interval is checked explicitly.
    """
    return _j0_bracket(k)[:2]


def _j0_bracket(k: int) -> tuple[float, float, float, float]:
    """`j0_bracket` plus the values of J_0 at its ends."""
    if not isinstance(k, numbers.Integral) or k < 0:
        raise InvalidArgumentError(f"bracket index must be an integer >= 0, got {k!r}")
    lo = (k + 0.5) * math.pi
    hi = (k + 1.0) * math.pi
    if hi > MAX_ARGUMENT:
        raise UnsupportedRangeError(
            f"J_0 zero #{k + 1} needs evaluations beyond z = {MAX_ARGUMENT}"
        )
    flo, fhi = bessel_j(0, lo), bessel_j(0, hi)
    if flo * fhi >= 0.0:
        raise InternalConsistencyError(f"no sign change of J_0 on bracket #{k}")
    return lo, hi, flo, fhi


class ZeroCache:
    """Memoized table of positive Bessel zeros with certified enclosures.

    A zero is served from the package's snapshot of the fill, and enters
    the table once its entry passes the checks of the module docstring
    (bracket, sign change, value, width), in the fill's chain order, so
    the bracket of every entry is checked before the entry itself.  A
    failed check raises InternalConsistencyError.  Every enclosure was
    refined to one fixed relative width (`_WIDTH_TOL`), so a zero has one
    value, bit for bit the fill's.  Entries are immutable and inserted
    whole under a single lock, so concurrent lookups never observe a
    partially checked entry.  Growth is on-demand and monotone; nothing is
    ever invalidated.
    """

    def __init__(self):
        self._lock = threading.RLock()
        self._table: dict[tuple[int, int], tuple[float, tuple[float, float]]] = {}
        self._filled: dict[int, int] = {}  # order -> highest contiguous index
        self._snapshot = _snapshot  # the doubles served, read at the first miss

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
        if type(m) is not int or type(j) is not int:  # before the lookup, where 2.0 finds 2
            if not (isinstance(m, numbers.Integral) and isinstance(j, numbers.Integral)):
                raise InvalidArgumentError(f"zero order and index must be integers: {m!r}, {j!r}")
            m, j = int(m), int(j)
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
        # evaluation window, and so the snapshot.
        if m + j > _MAX_CHAIN:
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
            if need > have:
                self._extend(lvl, have + 1, need)
                self._filled[lvl] = need

    def _extend(self, m: int, first: int, last: int) -> None:
        """Enter the zeros (m, first..last), in order."""
        for j in range(first, last + 1):
            self._add(m, j)

    def _add(self, m: int, j: int) -> None:
        """Enter the snapshot's (m, j) once it passes its checks.

        A check evaluates J_m only at the ends of the stored enclosure.  The
        bracket is checked first, so both evaluations lie in the window.
        """
        if m == 0:
            a, b = (j - 0.5) * math.pi, j * math.pi  # j0_bracket(j - 1)
        else:
            a = self._table[(m - 1, j)][0]
            b = self._table[(m - 1, j + 1)][0]
        snap = self._snapshot()
        i = 3 * (_row_start(m) + j - 1)
        value, lo, hi = snap[i], snap[i + 1], snap[i + 2]
        if not (a <= lo and hi <= b):
            fault = f"lies outside its bracket [{a!r}, {b!r}]"
        elif not _sign_change(bessel_j(m, lo), bessel_j(m, hi)):
            fault = "shows no sign change"
        elif not lo <= value <= hi:
            fault = f"does not hold its value {value!r}"
        elif not hi - lo <= _WIDTH_TOL * max(1.0, b):
            fault = "is wider than the refinement target"
        else:
            self._table[(m, j)] = (value, (lo, hi))
            return None
        raise InternalConsistencyError(
            f"zero snapshot entry ({m}, {j}): enclosure [{lo!r}, {hi!r}] of J_{m} {fault}"
        )


class _FillCache(ZeroCache):
    """A `ZeroCache` that computes each zero by the fill instead of serving it.

    It writes the snapshot (tools/make_zero_snapshot.py) and ties it to the
    Bessel kernel in the tests.
    """

    def _extend(self, m: int, first: int, last: int) -> None:
        """Fill the zeros (m, first..last), in order.

        Above order 0 the bracket of (m, j + 1) starts where that of (m, j)
        ends, so J_m there, passed on as `f_lo`, is evaluated once; a J_0
        bracket comes with both of its end values.
        """
        f_lo = None
        for j in range(first, last + 1):
            f_lo = self._add(m, j, f_lo)

    def _add(self, m: int, j: int, f_lo: float | None = None) -> float | None:
        """Fill (m, j); return J_m at the upper end of its bracket, if shared."""
        if m == 0:
            lo, hi, f_lo, f_hi = _j0_bracket(j - 1)
        else:
            lo = self._table[(m - 1, j)][0]
            hi = self._table[(m - 1, j + 1)][0]
            if f_lo is None:
                f_lo = bessel_j(m, lo)
            f_hi = bessel_j(m, hi)
        self._table[(m, j)] = self._refine(m, lo, hi, f_lo, f_hi)
        return f_hi if m else None

    def _refine(
        self, m: int, lo: float, hi: float, flo: float, fhi: float
    ) -> tuple[float, tuple[float, float]]:
        if not _sign_change(flo, fhi):
            raise InternalConsistencyError(
                f"bracket ({lo}, {hi}) shows no sign change for J_{m}"
            )
        target = _WIDTH_TOL * max(1.0, hi)
        a, b = _narrow(m, lo, flo, hi, fhi, target)
        # Bisection replay: the bracket holds one zero, inside [a, b], so a
        # midpoint outside [a, b] has the sign of the end on its side.
        lo_pos = flo > 0.0
        lo_seen = hi_seen = True  # endpoint sign evaluated, not inferred
        for _ in range(_MAX_BISECTIONS):
            if hi - lo <= target:
                break
            mid = 0.5 * (lo + hi)  # strictly inside: wider than target is > 400 ulps
            if mid < a:
                lo, lo_seen = mid, False
                continue
            if mid > b:
                hi, hi_seen = mid, False
                continue
            fmid = bessel_j(m, mid)
            if fmid == 0.0:
                lo = hi = mid
                lo_seen = hi_seen = True
                break
            if (fmid > 0.0) == lo_pos:
                lo, lo_seen = mid, True
            else:
                hi, hi_seen = mid, True
        for x, seen, pos in ((lo, lo_seen, lo_pos), (hi, hi_seen, not lo_pos)):
            if not seen:
                fx = bessel_j(m, x)
                if fx == 0.0 or (fx > 0.0) != pos:
                    raise InternalConsistencyError(
                        f"enclosure ({lo}, {hi}) of a zero of J_{m} shows no sign change"
                    )
        x = 0.5 * (lo + hi)
        for _ in range(_MAX_NEWTON):
            f, df = _bessel_j_and_derivatives(m, x, 1)
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


def _sign_change(f_lo: float, f_hi: float) -> bool:
    """Whether two values of J, neither of them 0, have opposite signs."""
    return f_lo != 0.0 and f_hi != 0.0 and (f_lo > 0.0) != (f_hi > 0.0)


def _narrow(
    m: int, lo: float, flo: float, hi: float, fhi: float, target: float
) -> tuple[float, float]:
    """Evaluated sign change [a, b] of J_m inside (lo, hi), at most `target` wide.

    Illinois regula falsi: the secant point of the current bracket, with the
    value at an end that is kept twice in a row halved, so both ends close in
    superlinearly.  A secant point closer than half the target width to an
    end is moved out to that distance, so once one end sits on the zero the
    next point lands just across it and closes the bracket; a point that is
    not strictly inside (a NaN secant) is replaced by the midpoint, which is
    strictly inside: a bracket wider than the target spans many ulps.  It
    stops early only at an exact zero.
    """
    step = 0.5 * target
    a, fa, b, fb = lo, flo, hi, fhi
    kept = 0  # -1: a was replaced last, +1: b was
    for _ in range(_MAX_BISECTIONS):
        if b - a <= target:
            break
        c = min(max(b - fb * (b - a) / (fb - fa), a + step), b - step)
        if not (a < c < b):
            c = 0.5 * (a + b)
        fc = bessel_j(m, c)
        if fc == 0.0:
            break  # c is inside [a, b], where the replay evaluates every midpoint
        if (fc > 0.0) == (fa > 0.0):
            a, fa = c, fc
            if kept == -1:
                fb *= 0.5
            kept = -1
        else:
            b, fb = c, fc
            if kept == 1:
                fa *= 0.5
            kept = 1
    return a, b


@functools.cache
def _snapshot() -> array.array:
    """The snapshot's doubles, read once per process."""
    try:
        with open(_SNAPSHOT_FILE, "rb") as f:
            data = f.read()
    except OSError as exc:
        raise InternalConsistencyError(f"zero snapshot unreadable: {exc}") from exc
    return _parse_snapshot(data)


def _parse_snapshot(data: bytes) -> array.array:
    """The (value, lo, hi) doubles of a snapshot file whose size and header match the window."""
    size = _SNAPSHOT_HEADER.size + 24 * _SNAPSHOT_ENTRIES
    if len(data) != size:
        raise InternalConsistencyError(f"zero snapshot holds {len(data)} bytes, not {size}")
    header = _SNAPSHOT_HEADER.unpack_from(data)
    window = (_SNAPSHOT_MAGIC, _SNAPSHOT_ENTRIES, MAX_ZERO_ORDER, MAX_ZERO_INDEX, _MAX_CHAIN)
    if header != window:
        raise InternalConsistencyError(f"zero snapshot header {header} does not match {window}")
    doubles = array.array("d")
    doubles.frombytes(memoryview(data)[_SNAPSHOT_HEADER.size :])
    if sys.byteorder == "big":
        doubles.byteswap()
    return doubles


def _check_snapshot(data: bytes) -> None:
    """Serve every zero of the snapshot file `data` through a `ZeroCache`'s checks.

    Raises InternalConsistencyError for a bad size or header, or at the
    first entry, in chain order, that fails its checks.
    """
    doubles = _parse_snapshot(data)
    cache = ZeroCache()
    cache._snapshot = lambda: doubles
    for m in range(MAX_ZERO_ORDER + 1):
        cache._entry(m, _MAX_CHAIN - m)


def _pack_snapshot(cache: ZeroCache) -> bytes:
    """The snapshot file of every zero in the window, as `cache` gives them."""
    doubles = array.array("d")
    for m in range(MAX_ZERO_ORDER + 1):
        for j in range(1, _MAX_CHAIN - m + 1):
            value, (lo, hi) = cache._entry(m, j)
            doubles.extend((value, lo, hi))
    if sys.byteorder == "big":
        doubles.byteswap()
    header = _SNAPSHOT_HEADER.pack(
        _SNAPSHOT_MAGIC, _SNAPSHOT_ENTRIES, MAX_ZERO_ORDER, MAX_ZERO_INDEX, _MAX_CHAIN
    )
    return header + doubles.tobytes()
