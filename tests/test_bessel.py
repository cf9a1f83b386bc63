"""Bessel evaluation: oracle agreement, identities, window handling.

Expected values marked "oracle" below were computed with
`oracle_bessel_j` (arbitrary-precision series) and frozen.
"""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from polyspec import (
    InternalConsistencyError,
    InvalidArgumentError,
    UnsupportedRangeError,
    bessel_j,
    bessel_j_many,
    bessel_j_prime,
    bessel_j_second,
    oracle_bessel_j,
)
from polyspec import bessel
from polyspec.bessel import _bessel_j_and_derivatives, _miller_start

J1_AT_1 = 0.4400505857449335  # oracle, 30+ digits: 0.44005058574493351...
J0_AT_2 = 0.22389077914123567  # oracle: 0.22389077914123566805...
# sha256 of "m z J_m(z)" lines (floats in hex) over the sample of
# `test_scalar_kernel_bits_pinned`
KERNEL_SHA256 = "82791612373970f4d89af8e3f4cb81345f6a37f69663a5b99a876577fb0b8a6e"


def test_value_at_origin():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(3, 0.0) == 0.0
    assert bessel_j(-5, 0.0) == 0.0


def test_frozen_series_values():
    assert bessel_j(1, 1.0) == pytest.approx(J1_AT_1, abs=1e-15)
    assert bessel_j(-1, 1.0) == pytest.approx(-J1_AT_1, abs=1e-15)
    assert bessel_j(0, 2.0) == pytest.approx(J0_AT_2, abs=1e-15)


def test_parity_is_bit_exact():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = int(rng.integers(1, 60))
        z = float(rng.uniform(0.0, 120.0))
        assert bessel_j(-m, z) == (-1.0) ** m * bessel_j(m, z)


def test_agreement_with_oracle_across_window():
    rng = np.random.default_rng(11)
    points = [(int(rng.integers(0, 201)), float(rng.uniform(0.0, 500.0))) for _ in range(120)]
    points += [
        (0, 17.999), (0, 18.0), (0, 18.001), (1, 18.0),  # both sides of the switch
        (0, 500.0), (200, 500.0), (200, 20.0), (150, 160.0),
        (5, 1e-8), (40, 3.0), (0, 1e-300),
    ]
    for m, z in points:
        ref = float(oracle_bessel_j(m, z, 25))
        got = bessel_j(m, z)
        assert abs(got - ref) <= max(1e-12 * abs(ref), 1e-13), (m, z, got, ref)


def test_scalar_kernel_bits_pinned():
    rng = np.random.default_rng(2024)
    points = [(0, 18.0), (7, 18.0), (-7, 18.0000001), (200, 500.0), (3, 1e-300), (150, 0.5)]
    for i in range(2000):
        z = rng.uniform(0.0, 18.0) if i % 2 == 0 else rng.uniform(18.0, 500.0)
        points.append((int(rng.integers(-200, 201)), float(z)))
    digest = hashlib.sha256()
    for m, z in points:
        digest.update(f"{m} {z.hex()} {bessel_j(m, z).hex()}\n".encode())
    assert digest.hexdigest() == KERNEL_SHA256


def test_shared_pass_matches_separate_calls():
    rng = np.random.default_rng(29)
    cases = []
    for _ in range(150):  # int(z) > m: one pass for J_{m-1}, J_m, J_{m+1}
        m = int(rng.integers(1, 199))
        cases.append((m, float(rng.uniform(max(m + 1.0, 18.5), 500.0))))
    cases += [(0, 30.0), (0, 250.0), (-3, 40.0)]  # m < 1
    cases += [(5, 18.0), (5, 17.5), (3, 0.0), (30, 1e-9)]  # series regime, z <= 18
    cases += [(40, 40.5), (41, 41.5)]  # int(z) == m: unequal seeds, then equal by parity
    cases += [(60, 59.2), (199, 30.0), (120, 18.5)]  # m > z: unequal seeds
    for m, z in cases:
        got = _bessel_j_and_derivatives(m, z, 1)
        assert np.array_equal(_bits(got), _bits([bessel_j(m, z), bessel_j_prime(m, z)])), (m, z)
    for m, z in ((200, 30.0), (-200, 30.0), (1, 500.5), (1, -1.0)):
        with pytest.raises(UnsupportedRangeError):
            _bessel_j_and_derivatives(m, z, 1)
    # k = 2: one pass for J_{m-2} .. J_{m+2} once int(z) >= m + 2
    cases = [(m, z) for m, z in cases if abs(m) <= 198]
    cases += [(1, 30.0), (2, 30.0), (198, 250.0), (-198, 250.0)]
    cases += [(40, 41.5), (40, 40.5), (41, 42.5)]  # int(z) < m + 2: seeds equal by parity or not
    for m, z in cases:
        want = [bessel_j(m, z), bessel_j_prime(m, z), bessel_j_second(m, z)]
        assert np.array_equal(_bits(_bessel_j_and_derivatives(m, z, 2)), _bits(want)), (m, z)
    for m, z, what in (
        (200, 30.0, "derivative at order 200"),
        (199, 30.0, "second derivative at order 199"),
        (-199, 30.0, "second derivative at order -199"),
        (2, 500.5, "outside"),
        (2, -1.0, "outside"),
    ):
        with pytest.raises(UnsupportedRangeError, match=what):
            _bessel_j_and_derivatives(m, z, 2)


def test_vector_evaluator_contract():
    rng = np.random.default_rng(23)
    for m in (0, 3, -4, 55, 200):
        z = np.concatenate(
            [rng.uniform(0.0, 18.0, 24), rng.uniform(18.0, 500.0, 24), [0.0, 18.0, 500.0]]
        )
        vec = bessel_j_many(m, z)
        assert vec.shape == z.shape
        for zi, vi in zip(z, vec):
            ref = float(oracle_bessel_j(m, float(zi), 25))
            assert abs(vi - ref) <= max(1e-12 * abs(ref), 1e-13), (m, zi)
    # shape preservation, empty inputs, and window errors
    grid = bessel_j_many(1, np.array([[0.5, 1.0], [2.0, 30.0]]))
    assert grid.shape == (2, 2)
    empty = bessel_j_many(2, np.array([]))
    assert empty.shape == (0,)
    with pytest.raises(UnsupportedRangeError):
        bessel_j_many(0, np.array([1.0, 501.0]))
    with pytest.raises(InvalidArgumentError):
        bessel_j_many(0, np.array([1.0, float("nan")]))


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def test_row_form_matches_one_row_calls_bit_for_bit():
    rng = np.random.default_rng(61)
    orders = np.arange(-60, 61)
    Z = np.empty((orders.size, 20))
    for i in range(orders.size):
        kind = i % 3
        if kind == 0:  # series lanes only
            Z[i] = rng.uniform(0.0, 18.0, 20)
        elif kind == 1:  # backward-recurrence lanes only
            Z[i] = rng.uniform(18.0, 500.0, 20) * rng.uniform(0.05, 1.0)
        else:  # both regimes in one row, the switch point itself included
            Z[i] = np.concatenate(
                [rng.uniform(0.0, 18.0, 9), rng.uniform(18.0, 120.0, 9), [18.0, 0.0]]
            )
    Z[::7, 3] = 18.0
    got = bessel_j_many(orders, Z)
    assert got.shape == Z.shape
    for i, m in enumerate(orders.tolist()):
        assert np.array_equal(_bits(got[i]), _bits(bessel_j_many(m, Z[i]))), m
    # one row, one lane, and a shuffled subset of rows
    assert np.array_equal(_bits(bessel_j_many([7], Z[:1])[0]), _bits(bessel_j_many(7, Z[0])))
    lane = bessel_j_many([3, -3, 0], np.array([[18.0], [25.0], [0.0]]))
    assert np.array_equal(
        _bits(lane[:, 0]),
        _bits([bessel_j_many(3, 18.0), bessel_j_many(-3, 25.0), bessel_j_many(0, 0.0)]),
    )
    pick = rng.permutation(orders.size)[:11]
    sub = bessel_j_many(orders[pick], Z[pick])
    assert np.array_equal(_bits(sub), _bits(got[pick]))
    # empty inputs
    assert bessel_j_many([], np.empty((0, 4))).shape == (0, 4)
    assert bessel_j_many([2, 5], np.empty((2, 0))).shape == (2, 0)


def test_row_form_validation():
    Z = np.ones((2, 3))
    with pytest.raises(InvalidArgumentError):
        bessel_j_many([1.5, 2.0], Z)
    with pytest.raises(InvalidArgumentError):
        bessel_j_many([1, 2, 3], Z)
    with pytest.raises(InvalidArgumentError):
        bessel_j_many([[1, 2]], Z)
    with pytest.raises(InvalidArgumentError):
        bessel_j_many(np.int64(1), Z)
    with pytest.raises(UnsupportedRangeError):
        bessel_j_many([1, 201], Z)
    with pytest.raises(UnsupportedRangeError):
        bessel_j_many([1, 2], np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 501.0]]))


@pytest.mark.parametrize(
    "m,z",
    [
        (np.array([2**63], dtype=np.uint64), np.ones((1, 3))),  # wraps to -2**63 in int64
        (np.array([-(2**63)]), np.ones((1, 3))),  # np.abs wraps to itself
        (np.array([2**64 - 1], dtype=np.uint64), np.ones((1, 3))),  # wraps to -1
        (2**70, np.array([1.0])),  # no int64 holds it
    ],
    ids=["uint64-2**63", "int64-min", "uint64-max", "int-2**70"],
)
def test_many_refuses_orders_outside_the_window(m, z):
    with pytest.raises(UnsupportedRangeError):
        bessel_j_many(m, z)


@pytest.mark.parametrize(
    "z",
    [
        np.array([1 + 1j]),
        np.array(["1.0"]),
        np.array([10**400, 1j], dtype=object),
        [10**400, "1.0"],
    ],
    ids=["complex", "string", "huge-int-and-complex", "huge-int-and-string"],
)
def test_many_refuses_arguments_that_are_not_real_numbers(z):
    with pytest.raises(InvalidArgumentError):
        bessel_j_many(0, z)


def _contract_sample():
    """(m, z) pairs over both regimes and the edges of the lane kernels."""
    rng = np.random.default_rng(67)
    m = rng.integers(-200, 201, 1500)
    z = np.concatenate([rng.uniform(0.0, 18.0, 750), rng.uniform(18.0, 500.0, 750)])
    switch = [18.0, np.nextafter(18.0, 0.0), np.nextafter(18.0, 19.0)]
    edges = [(k, x) for k in (0, 1, -1, 7, -7, 200, -200) for x in (0.0, *switch, 500.0)]
    edges += [(k, x) for k in range(150, 201) for x in (1e-300, 1e-8)]  # leading term underflows
    edges += [(-k, 1e-8) for k in range(150, 201)]
    m = np.concatenate([m, [k for k, _ in edges]])
    z = np.concatenate([z, [x for _, x in edges]])
    return m, z


def test_many_has_the_bits_of_bessel_j_on_every_lane():
    m, z = _contract_sample()
    ref = _bits([bessel_j(int(k), float(x)) for k, x in zip(m, z)])
    # the row form, one lane per case
    assert np.array_equal(_bits(bessel_j_many(m, z[:, None])[:, 0]), ref)
    # the row form with every argument in each row, and the int form over
    # the arguments and over a 2-D array of them
    orders = [-200, -7, 0, 1, 150]
    want = np.array([_bits([bessel_j(k, float(x)) for x in z]) for k in orders])
    assert np.array_equal(_bits(bessel_j_many(orders, np.tile(z, (len(orders), 1)))), want)
    square = z[:1600].reshape(40, 40)
    for k, row in zip(orders, want):
        assert np.array_equal(_bits(bessel_j_many(k, z)), row)
        assert np.array_equal(_bits(bessel_j_many(k, square)), row[:1600].reshape(40, 40))


def test_no_recurrence_in_the_window_nears_overflow():
    # Why the Miller kernels keep no rescale: replayed from their seed, the
    # recurrence peaks at the top orders just above the switch point (about
    # 4.2e220 at (199, 18.000000000000004)), far below the double range.
    switch = bessel.DEFAULT_CONFIG.series_switch_point
    zs = [float(np.nextafter(switch, 19.0)), *np.linspace(switch, 19.0, 41)[1:].tolist(), 500.0]
    top = 0.0
    for m in (199, 200):
        for z in zs:
            fkp1, fk, peak = 0.0, 1e-30, 1e-30
            two_over_z = 2.0 / z
            for k in range(_miller_start(m, z), 0, -1):
                fk, fkp1 = k * two_over_z * fk - fkp1, fk
                peak = max(peak, abs(fk))
            assert peak < 1e250, (m, z, peak)
            top = max(top, peak)
    assert top > 1e220  # the replay reaches the peak it bounds


def test_a_recurrence_that_overflows_is_refused(monkeypatch):
    # Below a lowered switch point the recurrence for J_200(1.5) overflows:
    # its normalization is not finite, and both kernels refuse the value.
    monkeypatch.setattr(bessel, "DEFAULT_CONFIG", bessel.EvalConfig(series_switch_point=1.0))
    with pytest.raises(InternalConsistencyError):
        bessel_j(200, 1.5)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(InternalConsistencyError):
            bessel_j_many([200, 0], [[1.5], [1.5]])


def test_bools_are_numbers_in_every_form():
    # as in Python's numeric tower: True is 1 and False is 0, as order or argument
    for b in (False, True):
        for x in (0.5, 25.0):
            want = _bits(bessel_j(int(b), float(x)))
            assert _bits(bessel_j(b, x)) == want
            assert _bits(bessel_j_many(b, x)) == want
            assert np.array_equal(_bits(bessel_j_many([b], [[x]])), [[want]])
            assert np.array_equal(_bits(bessel_j_many(np.array([b]), [[x]])), [[want]])
        want = _bits(bessel_j(0, float(b)))
        assert _bits(bessel_j(0, b)) == want
        assert _bits(bessel_j_many(0, b)) == want
        assert np.array_equal(_bits(bessel_j_many(0, np.array([b]))), [want])
        assert np.array_equal(_bits(bessel_j_many(0, [b, 1.0])), [want, _bits(bessel_j(0, 1.0))])
        assert np.array_equal(_bits(bessel_j_many([0], np.array([[b]]))), [[want]])
    rows = bessel_j_many(np.array([True, False]), np.array([[True, 30.0], [False, 2.0]]))
    want = [[bessel_j(1, 1.0), bessel_j(1, 30.0)], [bessel_j(0, 0.0), bessel_j(0, 2.0)]]
    assert np.array_equal(_bits(rows), _bits(want))


def test_recurrence_residual_contract():
    # m J_m(z) = (z/2)(J_{m+1}(z) + J_{m-1}(z)) on 100 random points
    rng = np.random.default_rng(7)
    for _ in range(100):
        m = int(rng.integers(0, 31))
        z = float(rng.uniform(1e-6, 60.0))
        res = abs(m * bessel_j(m, z) - 0.5 * z * (bessel_j(m + 1, z) + bessel_j(m - 1, z)))
        assert res < 1e-10


def test_bessel_equation_residual():
    # J'' from the derivative recurrence applied twice, never from the ODE
    rng = np.random.default_rng(13)
    for _ in range(100):
        m = int(rng.integers(0, 31))
        z = float(rng.uniform(0.3, 60.0))
        res = abs(
            bessel_j_second(m, z)
            + bessel_j_prime(m, z) / z
            + (1.0 - m * m / (z * z)) * bessel_j(m, z)
        )
        assert res < 1e-9


def test_generating_function_identity():
    # sum_m t^m J_m(z) = exp((z/2)(t - 1/t)) on the unit circle
    import cmath

    for z in (1.0, 5.0, 10.0):
        for i in range(16):
            t = cmath.exp(2j * math.pi * (i + 0.5) / 16)
            total = sum(t**m * bessel_j(m, z) for m in range(-60, 61))
            assert abs(total - cmath.exp(0.5 * z * (t - 1.0 / t))) < 1e-10


def test_integral_representation():
    theta = 2.0 * math.pi * np.arange(2048) / 2048
    rng = np.random.default_rng(17)
    pairs = [(0, 7.0), (1, 0.5), (10, 30.0)]
    pairs += [(int(rng.integers(0, 11)), float(rng.uniform(0.1, 30.0))) for _ in range(20)]
    for m, z in pairs:
        quad = float(np.mean(np.cos(m * theta - z * np.sin(theta))))
        assert abs(quad - bessel_j(m, z)) < 1e-9


def test_derivative_recurrences():
    assert bessel_j_prime(0, 1.0) == -bessel_j(1, 1.0)
    # z J_{m-1}(z) = z J'_m(z) + m J_m(z) at (2, 3.0)
    m, z = 2, 3.0
    assert abs(z * bessel_j(m - 1, z) - (z * bessel_j_prime(m, z) + m * bessel_j(m, z))) < 1e-11
    # J'_1 at the first J_0 zero: the J_0 term of (J_0 - J_2)/2 nearly vanishes
    lam01 = 2.404825557695773
    lhs = bessel_j_prime(1, lam01)
    rhs = 0.5 * (float(oracle_bessel_j(0, lam01, 30)) - float(oracle_bessel_j(2, lam01, 30)))
    assert abs(lhs - rhs) < 1e-13


def test_window_rejection():
    with pytest.raises(UnsupportedRangeError):
        bessel_j(201, 1.0)
    with pytest.raises(UnsupportedRangeError):
        bessel_j(0, 500.5)
    with pytest.raises(UnsupportedRangeError):
        bessel_j(0, -1.0)
    with pytest.raises(InvalidArgumentError):
        bessel_j(0, float("nan"))
    with pytest.raises(InvalidArgumentError):
        bessel_j(0, float("inf"))
    with pytest.raises(InvalidArgumentError):
        bessel_j(1.5, 1.0)  # type: ignore[arg-type]


@pytest.mark.parametrize("z", [1 + 1j, "1.0", None], ids=["complex", "string", "none"])
def test_scalar_refuses_arguments_that_are_not_real_numbers(z):
    for f in (bessel_j, bessel_j_prime, bessel_j_second):
        with pytest.raises(InvalidArgumentError):
            f(0 if f is bessel_j else 3, z)


@pytest.mark.parametrize("z", [10**400, -(10**400), Fraction(10**400, 3)])
def test_arguments_past_the_double_range_are_outside_the_window(z):
    # float(z) overflows: the argument lies outside the window, not in a bug
    for f in (bessel_j, bessel_j_prime, bessel_j_second):
        with pytest.raises(UnsupportedRangeError):
            f(0 if f is bessel_j else 3, z)
    # numpy holds these in object arrays
    for zs in (z, [z], [1.0, z], [[z]]):
        with pytest.raises(UnsupportedRangeError):
            bessel_j_many(0, zs)
    with pytest.raises(UnsupportedRangeError):
        bessel_j_many([0], [[1.0, z]])


@pytest.mark.parametrize("m,z", [(3, 7.5), (0, 0.3), (5, 30.0), (-2, 250.0)])
def test_float32_argument_runs_in_double_precision(m, z):
    # under NEP 50 a float32 would pull the whole kernel down to float32
    z32 = np.float32(z)
    got = bessel_j(m, z32)
    assert type(got) is float
    assert got.hex() == bessel_j(m, float(z32)).hex()
    assert bessel_j_prime(m, z32).hex() == bessel_j_prime(m, float(z32)).hex()


def test_series_that_runs_out_of_terms_is_an_internal_fault(monkeypatch):
    monkeypatch.setattr(bessel, "_MAX_TERMS", 1)
    with pytest.raises(InternalConsistencyError):
        bessel_j(3, 10.0)
    with pytest.raises(InternalConsistencyError):
        bessel_j_many(3, [10.0])


def test_oracle_contract():
    assert oracle_bessel_j(0, 0, 50) == 1
    v = float(oracle_bessel_j(0, 2, 50))
    assert abs(v - bessel_j(0, 2.0)) < 1e-12
    small = float(oracle_bessel_j(5, 1, 50))
    assert 0.0 < small < 1e-3
    assert small < (0.5**5) / math.factorial(5)  # bounded by its leading term
    assert float(oracle_bessel_j(-3, 2, 40)) == -float(oracle_bessel_j(3, 2, 40))
    with pytest.raises(InvalidArgumentError):
        oracle_bessel_j(0, 1, 101)
    with pytest.raises(InvalidArgumentError, match="integer"):
        oracle_bessel_j(0, 1.0, 2.5)
