"""Certified Bessel zeros: brackets, interlacing, accuracy, cache behavior."""

import hashlib
import inspect
import math
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


def test_first_zero_monotone_and_exceeds_order(cache):
    # empirical guard, validated numerically up to order 150; enumeration
    # correctness only relies on the (proved) monotone growth
    prev = 0.0
    for m in range(0, 151):
        lam = cache.zero(m, 1)
        assert lam > prev
        assert lam > m
        prev = lam
    # the bits of every value and enclosure of that fill stay pinned
    digest = hashlib.sha256()
    for m in range(0, 151):
        for j in range(1, 152 - m):
            lo, hi = cache.enclosure(m, j)
            digest.update(f"{m} {j} {cache.zero(m, j).hex()} {lo.hex()} {hi.hex()}\n".encode())
    assert digest.hexdigest() == FILL_SHA256


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
    # a sign-change certification that fails must abort, never guess
    monkeypatch.setattr(zeros_mod, "bessel_j", lambda m, z: 1.0)
    with pytest.raises(InternalConsistencyError):
        ZeroCache().zero(0, 1)


def test_inferred_endpoint_with_wrong_sign_aborts(monkeypatch):
    # The replay infers the sign of a midpoint outside the narrowed bracket
    # and evaluates such an end of the enclosure before returning it.  Flip
    # J at one end of a clean enclosure: an inferred end must then abort; an
    # end the replay evaluated instead steers it to another enclosure.
    real = zeros_mod.bessel_j
    aborted = 0
    for j in range(1, 7):
        clean = ZeroCache().enclosure(0, j)
        for end in clean:

            def flipped(m, z, end=end):
                value = real(m, z)
                return -value if z == end else value

            monkeypatch.setattr(zeros_mod, "bessel_j", flipped)
            try:
                assert ZeroCache().enclosure(0, j) != clean
            except InternalConsistencyError:
                aborted += 1
            monkeypatch.setattr(zeros_mod, "bessel_j", real)
    assert aborted > 0


def test_j0_bracket_ends_are_evaluated_once(monkeypatch):
    # A cold fill of the first ten J_0 zeros made 130 calls of bessel_j when
    # the refinement evaluated both bracket ends again; it takes them from
    # the bracket check now, two calls fewer per zero.
    real = zeros_mod.bessel_j
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(zeros_mod, "bessel_j", counted)
    ZeroCache().zero(0, 10)
    assert calls == 130 - 2 * 10


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
