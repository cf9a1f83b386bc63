"""Spectrum enumeration, grouping, bottom formula, counting."""

import numpy as np
import pytest

from polyspec import (
    FactorKind,
    InvalidArgumentError,
    Polydisc,
    assemble_spectrum,
    bottom,
    counting,
    enumerate_modes,
    mode_descriptor,
)
from polyspec.spectrum import mode_sort_key

BOTTOM_11 = 1.445796490736696  # lambda_{0,1}^2 / 4
BOTTOM_12 = 0.361449122684174  # lambda_{0,1}^2 / 16
PAIR_11 = 2.891592981473392    # lambda_{0,1}^2 / 2
CROSS_11 = 5.116289151267669   # (lambda_{0,1}^2 + lambda_{1,1}^2) / 4


def _kinds(mode):
    return tuple(f.kind for f in mode.factors)


def test_two_bottom_modes(cache):
    P = Polydisc((1.0, 1.0))
    modes = enumerate_modes(P, 1, 1.5, cache)
    assert len(modes) == 2
    assert {m.J for m in modes} == {(1,), (2,)}
    for m in modes:
        assert m.value == pytest.approx(BOTTOM_11, abs=1e-12)
        assert _kinds(m) in (
            (FactorKind.DIRICHLET, FactorKind.HOLOMORPHIC),
            (FactorKind.HOLOMORPHIC, FactorKind.DIRICHLET),
        )
        assert m.has_holomorphic


def test_below_bottom_is_empty(cache):
    assert enumerate_modes(Polydisc((1.0, 1.0)), 1, 1.0, cache) == []


def test_modes_up_to_5_2(cache):
    P = Polydisc((1.0, 1.0))
    modes = enumerate_modes(P, 1, 5.2, cache)
    values = sorted({round(m.value, 9) for m in modes})
    assert values == [
        round(BOTTOM_11, 9),
        round(PAIR_11, 9),
        round(3.670492660530973, 9),  # lambda_{1,1}^2 / 4, Dirichlet(+-1,1) x holo
        round(CROSS_11, 9),
    ]
    pairs = [m for m in modes if abs(m.value - PAIR_11) < 1e-9]
    assert len(pairs) == 2
    for m in pairs:
        kinds = dict(zip(range(1, 3), m.factors))
        k_out = 2 if m.J == (1,) else 1
        f = kinds[k_out]
        assert f.kind is FactorKind.NEUMANN_POSITIVE and f.angular_order == -1
    cross = [m for m in modes if abs(m.value - CROSS_11) < 1e-6]
    assert len(cross) == 8  # D0xN(0), D0xN(-2), D(+-1)xN(-1) for each J


def test_no_duplicates_and_sorted(cache):
    modes = enumerate_modes(Polydisc((1.0, 1.3)), 1, 12.0, cache)
    descs = [mode_descriptor(m) for m in modes]
    assert len(set(descs)) == len(descs)
    assert [m.value for m in modes] == sorted(m.value for m in modes)


def test_value_recomputes_exactly(cache):
    for m in enumerate_modes(Polydisc((1.0, 2.0)), 1, 9.0, cache):
        assert sum(f.lambda_k for f in m.factors) / 4.0 == m.value


def test_assemble_first_points(cache):
    pts = assemble_spectrum(Polydisc((1.0, 1.0)), 1, 3.0, cache=cache)
    assert pts[0].value == pytest.approx(BOTTOM_11, abs=1e-12)
    assert pts[0].finite_multiplicity == 0 and pts[0].infinite
    assert pts[1].value == pytest.approx(PAIR_11, abs=1e-12)
    assert pts[1].finite_multiplicity == 2 and not pts[1].infinite

    pts = assemble_spectrum(Polydisc((1.0, 2.0)), 1, 1.0, cache=cache)
    assert pts[0].value == pytest.approx(BOTTOM_12, abs=1e-12)
    assert pts[0].witnesses[0].J == (2,)


def test_grouping_monotone_under_tol(cache):
    P = Polydisc((1.0, 1.0))
    coarse = assemble_spectrum(P, 1, 12.0, group_tol=1e-9, cache=cache)
    fine = assemble_spectrum(P, 1, 12.0, group_tol=1e-10, cache=cache)
    assert len(fine) >= len(coarse)
    # every fine group lies inside one coarse group
    coarse_edges = [p.value for p in coarse]
    for p in fine:
        assert any(abs(p.value - v) <= 1e-8 * max(1.0, v) or p.value >= v for v in coarse_edges)


def test_witness_cap(cache):
    pts = assemble_spectrum(Polydisc((1.0, 1.0)), 1, 5.2, cache=cache, witness_cap=3)
    assert all(len(p.witnesses) <= 3 for p in pts)
    assert pts[-1].finite_multiplicity == 8  # cap limits witnesses, not the count


def test_negative_witness_cap_rejected(cache):
    with pytest.raises(InvalidArgumentError):
        assemble_spectrum(Polydisc((1.0, 1.0)), 1, 5.2, cache=cache, witness_cap=-1)


@pytest.mark.parametrize(
    "radii,q,lam",
    [((1.0, 1.0, 1.0), 1, 12.0), ((1.0, 1.0, 1.0, 1.0), 2, 8.0), ((1.0, 1.3), 1, 14.0)],
)
def test_enumeration_is_the_concatenated_witnesses(cache, radii, q, lam):
    # equal radii give distinct classes with equal value bits and equal J,
    # whose modes interleave in mode_sort_key order
    P = Polydisc(radii)
    modes = enumerate_modes(P, q, lam, cache)
    points = assemble_spectrum(P, q, lam, cache=cache, witness_cap=10**9)
    assert modes == [m for p in points for m in p.witnesses]
    assert modes == sorted(modes, key=mode_sort_key)
    assert sum(p.finite_multiplicity for p in points) == sum(
        not m.has_holomorphic for m in modes
    )


def test_bottom_examples(cache):
    val, J = bottom(Polydisc((1.0, 1.0)), 1, cache)
    assert val == pytest.approx(BOTTOM_11, abs=1e-12) and J == (1,)  # lexicographic tie
    val, J = bottom(Polydisc((1.0, 2.0)), 1, cache)
    assert val == pytest.approx(BOTTOM_12, abs=1e-12) and J == (2,)
    val, J = bottom(Polydisc((1.0, 2.0, 3.0)), 2, cache)
    assert J == (2, 3)
    assert val == pytest.approx(0.522093177210474, rel=1e-12)  # (l01^2/4)(1/4+1/9)


def test_bottom_matches_first_point_and_is_essential(cache):
    rng = np.random.default_rng(5)
    for _ in range(8):
        n = int(rng.integers(2, 5))
        radii = tuple(float(rng.uniform(0.5, 3.0)) for _ in range(n))
        q = int(rng.integers(1, n))
        P = Polydisc(radii)
        val, _ = bottom(P, q, cache)
        pts = assemble_spectrum(P, q, val * 1.05, cache=cache)
        assert pts, (radii, q, val)
        assert pts[0].value == pytest.approx(val, rel=1e-12)
        assert pts[0].infinite


def test_bottom_monotone_in_radii(cache):
    rng = np.random.default_rng(9)
    for _ in range(10):
        radii = [float(rng.uniform(0.5, 2.5)) for _ in range(3)]
        q = int(rng.integers(1, 3))
        v1, _ = bottom(Polydisc(radii), q, cache)
        k = int(rng.integers(0, 3))
        radii[k] *= float(rng.uniform(1.0, 2.0))
        v2, _ = bottom(Polydisc(radii), q, cache)
        assert v2 <= v1 * (1 + 1e-14)


def test_mirror_symmetry_under_radius_permutation(cache):
    a = (1.0, 2.0, 1.0)
    b = (1.0, 1.0, 2.0)
    for q in (1, 2):
        pa = assemble_spectrum(Polydisc(a), q, 4.0, cache=cache)
        pb = assemble_spectrum(Polydisc(b), q, 4.0, cache=cache)
        assert [(p.value, p.finite_multiplicity, p.infinite) for p in pa] == [
            (p.value, p.finite_multiplicity, p.infinite) for p in pb
        ]


def test_counting(cache):
    P = Polydisc((1.0, 1.0))
    finite, essential = counting(P, 1, 1.5, cache)
    assert finite == 0
    assert len(essential) == 1 and essential[0] == pytest.approx(BOTTOM_11, abs=1e-9)
    finite, essential = counting(P, 1, 1.0, cache)
    assert (finite, essential) == (0, [])
    finite, essential = counting(P, 1, 3.0, cache)
    assert finite == 2
    assert len(essential) == 1 and essential[0] == pytest.approx(BOTTOM_11, abs=1e-9)


def test_counting_multiple_essential_values(cache):
    # below 4.0 the essential values are the bottom and lambda_{1,1}^2/4
    finite, essential = counting(Polydisc((1.0, 1.0)), 1, 4.0, cache)
    assert finite == 2
    assert len(essential) == 2
    assert essential[0] == pytest.approx(BOTTOM_11, abs=1e-9)
    assert essential[1] == pytest.approx(3.670492660530973, abs=1e-9)


def test_zero_never_in_spectrum(cache):
    # bottom > 0 for every admissible (P, q)
    rng = np.random.default_rng(21)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        P = Polydisc(tuple(float(rng.uniform(0.2, 4.0)) for _ in range(n)))
        for q in range(1, n):
            val, _ = bottom(P, q, cache)
            assert val > 0.0


def test_q_validation(cache):
    P = Polydisc((1.0, 1.0))
    for bad_q in (0, 2, -1):
        with pytest.raises(InvalidArgumentError):
            enumerate_modes(P, bad_q, 5.0, cache)
        with pytest.raises(InvalidArgumentError):
            bottom(P, bad_q, cache)
    with pytest.raises(InvalidArgumentError):
        Polydisc((1.0,))
    with pytest.raises(InvalidArgumentError):
        Polydisc((1.0, -2.0))
