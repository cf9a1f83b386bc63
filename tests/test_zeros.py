"""Certified Bessel zeros: brackets, interlacing, accuracy, cache behavior."""

import math
import threading

import mpmath as mp
import pytest

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


def test_first_zeros_frozen(cache):
    assert cache.zero(0, 1) == pytest.approx(LAM_0_1, abs=1e-12)
    assert cache.zero(1, 1) == pytest.approx(LAM_1_1, abs=1e-12)
    assert cache.zero(0, 2) == pytest.approx(LAM_0_2, abs=1e-12)
    assert LAM_0_1 < cache.zero(1, 1) < LAM_0_2


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


def test_bracket_failure_aborts(monkeypatch):
    # a sign-change certification that fails must abort, never guess
    monkeypatch.setattr(zeros_mod, "bessel_j", lambda m, z, cfg=None: 1.0)
    with pytest.raises(InternalConsistencyError):
        ZeroCache().zero(0, 1)


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
