"""Certified Bessel zeros: brackets, interlacing, accuracy, cache behavior."""

import array
import hashlib
import importlib.util
import inspect
import math
import pathlib
import struct
import threading
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from mpmath import iv

import polyspec.zeros as zeros_mod
from polyspec import (
    InternalConsistencyError,
    InvalidArgumentError,
    UnsupportedRangeError,
    ZeroCache,
    bessel_j,
    bessel_j_prime,
    j0_bracket,
)

LAM_0_1 = 2.404825557695773
LAM_1_1 = 3.831705970207512
LAM_0_2 = 5.520078110286311
# sha256 of "m j value lo hi" lines (floats in hex) over every zero that
# filling (m, 1) for m <= 150 makes: m + j <= 151, 11,476 zeros
FILL_SHA256 = "3688fd481ac2f06389aa76809c151dc3cbd563d61791ab1593dfaa85cf0f7292"


def test_first_zeros_frozen(cache):
    assert cache.zero(0, 1) == pytest.approx(LAM_0_1, abs=1e-12)
    assert cache.zero(1, 1) == pytest.approx(LAM_1_1, abs=1e-12)
    assert cache.zero(0, 2) == pytest.approx(LAM_0_2, abs=1e-12)
    assert LAM_0_1 < cache.zero(1, 1) < LAM_0_2


@pytest.mark.parametrize("k", [1.5, 2.0, "1", None])
def test_j0_bracket_refuses_an_index_that_is_not_an_integer(k):
    # 1.5 used to fail the sign test as an internal fault
    with pytest.raises(InvalidArgumentError, match="bracket index"):
        j0_bracket(k)


def test_j0_brackets():
    lo, hi = j0_bracket(0)
    assert lo == pytest.approx(math.pi / 2) and hi == pytest.approx(math.pi)
    lo, hi = j0_bracket(1)
    assert lo == pytest.approx(1.5 * math.pi) and hi == pytest.approx(2 * math.pi)
    # sign pattern behind the brackets: J_0 > 0 on [k pi, (k+1/2) pi] for
    # even k and < 0 for odd k, so bracket endpoint signs alternate
    for k in range(6):
        for x in (k * math.pi, (k + 0.25) * math.pi, (k + 0.5) * math.pi):
            val = bessel_j(0, x)
            assert (val > 0.0) if k % 2 == 0 else (val < 0.0)
    for k in range(6):
        lo, hi = j0_bracket(k)
        assert bessel_j(0, lo) * bessel_j(0, hi) < 0.0
    with pytest.raises(InvalidArgumentError):
        j0_bracket(-1)


def test_j0_zeros_inside_apriori_brackets(cache):
    for j in range(1, 21):
        lo, hi = (j - 0.5) * math.pi, j * math.pi
        assert lo < cache.zero(0, j) < hi


def test_accuracy_against_mpmath(cache):
    with mp.workdps(35):
        for m in range(0, 22):
            for j in range(1, 22):
                assert abs(cache.zero(m, j) - float(mp.besseljzero(m, j))) < 1e-12


def test_interlacing(cache):
    for m in range(0, 21):
        for j in range(1, 21):
            assert cache.zero(m, j) < cache.zero(m + 1, j) < cache.zero(m, j + 1)


def test_zeros_are_simple(cache):
    for m in range(0, 21):
        for j in range(1, 21):
            lam = cache.zero(m, j)
            assert abs(bessel_j(m, lam)) < 1e-11
            assert abs(bessel_j_prime(m, lam)) > 1e-3


def test_enclosures_contain_value(cache):
    for m in range(0, 10):
        for j in range(1, 10):
            lo, hi = cache.enclosure(m, j)
            v = cache.zero(m, j)
            assert lo <= v <= hi
            assert hi - lo <= 1e-12 * max(1.0, hi)


def test_negative_order_reduction(cache):
    assert cache.zero(-3, 2) == cache.zero(3, 2)
    assert cache.zeros_upto(-2, 12.0) == cache.zeros_upto(2, 12.0)


def test_zeros_upto(cache):
    assert cache.zeros_upto(0, 3.0) == [cache.zero(0, 1)]
    assert cache.zeros_upto(0, 2.0) == []
    boundary = cache.zero(5, 1)
    assert cache.zeros_upto(5, boundary) == [boundary]  # inclusive boundary
    got = cache.zeros_upto(0, 40.0)
    assert got == sorted(got)
    assert all(v <= 40.0 for v in got)
    assert cache.zero(0, len(got) + 1) > 40.0


def test_values_increase_in_index(cache):
    items = dict(cache.known_items())
    for (m, j), v in items.items():
        nxt = items.get((m, j + 1))
        if nxt is not None:
            assert v < nxt


def test_first_zero_monotone_and_exceeds_order():
    # A fresh fill, not the snapshot: FILL_SHA256 pins the fill itself, and
    # the snapshot must be that fill, bit for bit.
    fill = zeros_mod._FillCache()
    # empirical guard, validated numerically up to order 150; enumeration
    # correctness only relies on the (proved) monotone growth
    prev = 0.0
    for m in range(0, 151):
        lam = fill.zero(m, 1)
        assert lam > prev
        assert lam > m
        prev = lam
    # the bits of every value and enclosure of that fill stay pinned
    digest = hashlib.sha256()
    for m in range(0, 151):
        for j in range(1, 152 - m):
            lo, hi = fill.enclosure(m, j)
            digest.update(f"{m} {j} {fill.zero(m, j).hex()} {lo.hex()} {hi.hex()}\n".encode())
    assert digest.hexdigest() == FILL_SHA256
    # the rest of the window (m + j in 152..159) costs about 1 s more
    for m in range(0, 151):
        fill.zero(m, zeros_mod._MAX_CHAIN - m)
    with open(zeros_mod._SNAPSHOT_FILE, "rb") as f:
        stored = f.read()
    fresh = zeros_mod._pack_snapshot(fill)
    if fresh != stored:
        a, b = zeros_mod._parse_snapshot(fresh), zeros_mod._parse_snapshot(stored)
        moved = [
            _key(i)
            for i in range(zeros_mod._SNAPSHOT_ENTRIES)
            if a[3 * i : 3 * i + 3] != b[3 * i : 3 * i + 3]
        ]
        pytest.fail(
            f"{len(moved)} zeros differ from the snapshot, first {moved[:5]}; after a kernel "
            "change, run PYTHONPATH=src python tools/make_zero_snapshot.py"
        )


def _key(i):
    """The (m, j) of snapshot entry i."""
    m = max(k for k in range(zeros_mod.MAX_ZERO_ORDER + 1) if zeros_mod._row_start(k) <= i)
    return m, i - zeros_mod._row_start(m) + 1


def test_every_snapshot_entry_passes_its_checks(cache):
    for m in range(0, 151):
        cache.zero(m, zeros_mod._MAX_CHAIN - m)
    known = dict(cache.known_items())
    assert len(known) == zeros_mod._SNAPSHOT_ENTRIES == 12684
    assert all(_key(zeros_mod._row_start(m) + j - 1) == (m, j) for m, j in known)
    # a served zero is the stored one, bit for bit
    snap = zeros_mod._snapshot()
    for (m, j), value in known.items():
        assert snap[_at(m, j) : _at(m, j) + 3].tolist() == [value, *cache.enclosure(m, j)]


def test_the_snapshot_covers_exactly_the_window(cache):
    top = zeros_mod._MAX_CHAIN
    assert top * math.pi <= zeros_mod.MAX_ARGUMENT < (top + 1) * math.pi
    assert top - 1 <= zeros_mod.MAX_ZERO_INDEX  # so each order's row is 1..top - m
    for m in (0, 9, 150):
        cache.zero(m, top - m)
        with pytest.raises(UnsupportedRangeError):
            cache.zero(m, top - m + 1)


def _proven_sign(m, x):
    """+1 or -1 where interval arithmetic proves the sign of J_m(x), else 0.

    Sums the power series of J_m in `mpmath.iv` (its `besselj` is broken in
    mpmath 1.3).  Once l(l + m) > x^2/4 the terms from the l-th on alternate
    and shrink, so the l-th term bounds the tail.  The largest term is about
    e^x times the result, hence ~1.45 x bits of precision on top of 128.
    """
    x_sq = Fraction(x) ** 2
    saved = iv.prec
    iv.prec = int(1.45 * x) + 128
    try:
        h = iv.mpf(x) / 2
        ratio = -(h * h)
        term = iv.mpf(1)
        for i in range(1, m + 1):
            term = term * h / i
        total = iv.mpf(0)
        for l in range(1, 2 * int(x) + 400):
            total += term
            term = term * ratio / (l * (l + m))
            if 4 * l * (l + m) > x_sq:
                tail = abs(term).b
                if (total - tail).a > 0:
                    return 1
                if (total + tail).b < 0:
                    return -1
        return 0
    finally:
        iv.prec = saved


def _proves_enclosure(m, lo, hi):
    low, high = _proven_sign(m, lo), _proven_sign(m, hi)
    return low != 0 and high == -low


def test_corner_enclosures_have_proven_signs(cache):
    # corners of the zero window (the fill above reached all of them)
    for m, j in [(0, 1), (0, 150), (150, 1), (5, 30), (50, 20), (120, 30)]:
        lo, hi = cache.enclosure(m, j)
        assert _proves_enclosure(m, lo, hi), (m, j)
        assert _proven_sign(m, lo) == math.copysign(1, bessel_j(m, lo))
        # planted fault: an enclosure shifted by its own width holds no zero
        assert not _proves_enclosure(m, hi, hi + (hi - lo)), (m, j)


def test_high_order_accuracy_against_mpmath(cache):
    # long inductive chains (the previous test filled the cache to order 150)
    probes = [(40, 40), (80, 5), (100, 30), (150, 1)]
    with mp.workdps(35):
        for m, j in probes:
            assert abs(cache.zero(m, j) - float(mp.besseljzero(m, j))) < 1e-12


def test_window_rejection(cache):
    with pytest.raises(UnsupportedRangeError):
        cache.zero(151, 1)
    with pytest.raises(UnsupportedRangeError):
        cache.zero(0, 201)
    with pytest.raises(UnsupportedRangeError):
        cache.zero(140, 30)  # chain would need evaluations past z = 500
    with pytest.raises(UnsupportedRangeError):
        cache.zeros_upto(0, 600.0)
    with pytest.raises(InvalidArgumentError):
        cache.zero(0, 0)


@pytest.mark.parametrize("m,j", [(2.5, 1), (1, 1.5), (1.0, 2.0), (1, None), ("1", 1)])
def test_non_integral_order_or_index_is_refused(m, j):
    cache = ZeroCache()
    for lookup in (cache.zero, cache.enclosure):
        with pytest.raises(InvalidArgumentError):
            lookup(m, j)
    assert cache.zero(np.int64(2), np.int64(3)) == cache.zero(2, 3)


@pytest.mark.parametrize("m,j", [(2.0, 1), (1, 2.0), (1, None), ("1", 1), (None, 1)])
def test_warm_cache_refuses_what_a_cold_cache_refuses(m, j):
    # 2.0 hashes and compares equal to 2, so a check behind the lookup
    # would answer these from the filled entries
    cache = ZeroCache()
    cache.zero(2, 2)
    assert (2, 1) in dict(cache.known_items()) and (1, 2) in dict(cache.known_items())
    for lookup in (cache.zero, cache.enclosure):
        with pytest.raises(InvalidArgumentError, match="must be integers"):
            lookup(m, j)
    assert cache.zero(np.int64(2), np.int64(1)) == cache.zero(2, 1)


def test_the_enclosure_width_is_fixed():
    # another width would give other last bits for some zeros
    assert not inspect.signature(ZeroCache).parameters
    with pytest.raises(TypeError):
        ZeroCache(width_tol=1e-3)


def test_bracket_failure_aborts(monkeypatch):
    # a sign-change certification that fails must abort, never guess,
    # whether the zero is served or filled
    monkeypatch.setattr(zeros_mod, "bessel_j", lambda m, z: 1.0)
    for kind in (ZeroCache, zeros_mod._FillCache):
        with pytest.raises(InternalConsistencyError):
            kind().zero(0, 1)


def test_inferred_endpoint_with_wrong_sign_aborts(monkeypatch):
    # The replay infers the sign of a midpoint outside the narrowed bracket
    # and evaluates such an end of the enclosure before returning it.  Flip
    # J at one end of a clean enclosure: an inferred end must then abort; an
    # end the replay evaluated instead steers it to another enclosure.
    real = zeros_mod.bessel_j
    aborted = 0
    for j in range(1, 7):
        clean = zeros_mod._FillCache().enclosure(0, j)
        for end in clean:

            def flipped(m, z, end=end):
                value = real(m, z)
                return -value if z == end else value

            monkeypatch.setattr(zeros_mod, "bessel_j", flipped)
            try:
                assert zeros_mod._FillCache().enclosure(0, j) != clean
            except InternalConsistencyError:
                aborted += 1
            # the snapshot's check evaluates both ends, and refuses
            with pytest.raises(InternalConsistencyError, match="no sign change"):
                ZeroCache().enclosure(0, j)
            monkeypatch.setattr(zeros_mod, "bessel_j", real)
    assert aborted > 0


def test_j0_bracket_ends_are_evaluated_once(monkeypatch):
    # A cold fill of the first ten J_0 zeros made 130 calls of bessel_j when
    # the refinement evaluated both bracket ends again; it takes them from
    # the bracket check now, two calls fewer per zero.  Serving them from
    # the snapshot takes the two sign tests of each enclosure.
    real = zeros_mod.bessel_j
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(zeros_mod, "bessel_j", counted)
    zeros_mod._FillCache().zero(0, 10)
    assert calls == 130 - 2 * 10
    calls = 0
    ZeroCache().zero(0, 10)
    assert calls == 2 * 10


def _no_refill(monkeypatch):
    def refill(*args):
        raise AssertionError("a refused snapshot entry was refilled")

    monkeypatch.setattr(zeros_mod._FillCache, "_add", refill)
    monkeypatch.setattr(zeros_mod, "_narrow", refill)


def _planted(monkeypatch, edit):
    """Serve a copy of the snapshot that `edit` changed; refilling fails the test."""
    doubles = array.array("d", zeros_mod._snapshot())
    edit(doubles)
    monkeypatch.setattr(zeros_mod, "_snapshot", lambda: doubles)
    _no_refill(monkeypatch)


def _at(m, j):
    """Offset of the (value, lo, hi) of (m, j) in the snapshot's doubles."""
    return 3 * (zeros_mod._row_start(m) + j - 1)


def _refused(m, j, match):
    cache = ZeroCache()
    for _ in range(2):  # a refusal is not remembered as a gap to fill
        with pytest.raises(InternalConsistencyError, match=match):
            cache.zero(m, j)
    assert (m, j) not in dict(cache.known_items())


def _flip(x, bit):
    (u,) = struct.unpack("<Q", struct.pack("<d", x))
    return struct.unpack("<d", struct.pack("<Q", u ^ (1 << bit)))[0]


@pytest.mark.parametrize("m,j", [(0, 4), (3, 2), (37, 2)])
def test_a_flipped_low_bit_of_an_enclosure_end_is_refused(monkeypatch, m, j):
    value, lo, hi = zeros_mod._snapshot()[_at(m, j) : _at(m, j) + 3]
    # the lowest bit whose flip moves the lower end across the zero
    bit = next(k for k in range(52) if _flip(lo, k) > value)
    assert bit < 16 and bessel_j(m, _flip(lo, bit)) * bessel_j(m, hi) > 0.0

    def edit(d):
        d[_at(m, j) + 1] = _flip(lo, bit)

    _planted(monkeypatch, edit)
    _refused(m, j, "no sign change")


@pytest.mark.parametrize("m,j", [(0, 3), (4, 7)])
def test_swapped_snapshot_entries_are_refused(monkeypatch, m, j):
    def edit(d):
        i, k = _at(m, j), _at(m, j + 1)
        d[i : i + 3], d[k : k + 3] = d[k : k + 3], d[i : i + 3]

    _planted(monkeypatch, edit)
    _refused(m, j, "outside its bracket")


def test_an_enclosure_wider_than_the_fill_target_is_refused(monkeypatch, cache):
    # the target is set by the bracket's upper end b: for (1, 2) the stored
    # enclosure is wider than _WIDTH_TOL times its own upper end
    b = cache.zero(0, 3)
    lo, hi = cache.enclosure(1, 2)
    assert hi - lo > zeros_mod._WIDTH_TOL * hi
    wide = hi - 1.5 * zeros_mod._WIDTH_TOL * b

    def edit(d):
        d[_at(1, 2) + 1] = wide

    _planted(monkeypatch, edit)
    _refused(1, 2, "wider than the refinement target")


def test_an_entry_that_misses_its_value_is_refused(monkeypatch):
    def edit(d):
        i = _at(2, 5)
        d[i] = d[i + 2] + (d[i + 2] - d[i + 1])

    _planted(monkeypatch, edit)
    _refused(2, 5, "does not hold its value")


@pytest.mark.parametrize(
    "damage,match",
    [
        (lambda data: data[:-8], "bytes"),
        (lambda data: data[:100], "bytes"),
        (lambda data: b"", "bytes"),
        (lambda data: data + bytes(24), "bytes"),
        (lambda data: b"PSZEROS0" + data[8:], "header"),
        (lambda data: data[:12] + bytes(4) + data[16:], "header"),
    ],
)
def test_a_damaged_snapshot_file_is_refused(monkeypatch, tmp_path, damage, match):
    with open(zeros_mod._SNAPSHOT_FILE, "rb") as f:
        data = f.read()
    with pytest.raises(InternalConsistencyError, match=match):
        zeros_mod._parse_snapshot(damage(data))
    path = tmp_path / "zero_snapshot.bin"
    path.write_bytes(damage(data))
    monkeypatch.setattr(zeros_mod, "_SNAPSHOT_FILE", str(path))
    zeros_mod._snapshot.cache_clear()
    try:
        _no_refill(monkeypatch)
        _refused(0, 1, match)
        monkeypatch.setattr(zeros_mod, "_SNAPSHOT_FILE", str(tmp_path / "missing.bin"))
        _refused(0, 1, "unreadable")
    finally:
        zeros_mod._snapshot.cache_clear()


def _generator():
    path = pathlib.Path(__file__).parents[1] / "tools" / "make_zero_snapshot.py"
    spec = importlib.util.spec_from_file_location("make_zero_snapshot", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_generator_writes_no_file_that_the_checks_refuse(monkeypatch, tmp_path):
    # A fill whose bisection meets an exact zero of J_m leaves lo == hi, an
    # enclosure with no sign change that a ZeroCache would refuse.
    with open(zeros_mod._SNAPSHOT_FILE, "rb") as f:
        bad = bytearray(f.read())
    value, _, _ = zeros_mod._snapshot()[_at(0, 1) : _at(0, 1) + 3]
    lo_at = zeros_mod._SNAPSHOT_HEADER.size + 8 * (_at(0, 1) + 1)  # then hi
    struct.pack_into("<dd", bad, lo_at, value, value)
    with pytest.raises(InternalConsistencyError, match=r"\(0, 1\).*no sign change"):
        zeros_mod._check_snapshot(bad)
    tool = _generator()
    path = tmp_path / "zero_snapshot.bin"
    monkeypatch.setattr(zeros_mod, "_SNAPSHOT_FILE", str(path))
    monkeypatch.setattr(zeros_mod, "_pack_snapshot", lambda cache: bytes(bad))
    assert tool.main([]) == 1
    assert not path.exists()


def test_concurrent_fill_is_consistent():
    fresh = ZeroCache()
    results = {}
    errors = []

    def worker(tid):
        try:
            vals = [fresh.zero(m, j) for m in range(0, 6) for j in range(1, 6)]
            results[tid] = vals
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    baseline = results[0]
    assert all(results[t] == baseline for t in results)
