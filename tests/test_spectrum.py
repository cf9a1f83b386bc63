"""Spectrum enumeration, grouping, bottom formula, counting."""

import bisect
import collections
import dataclasses
import hashlib
import itertools
import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest

from polyspec import (
    EigenMode,
    FactorKind,
    InvalidArgumentError,
    Polydisc,
    UnsupportedRangeError,
    assemble_spectrum,
    bottom,
    counting,
    disc_modes,
    enumerate_modes,
    mode_descriptor,
    spectrum,
    verify,
)
from polyspec.disc_modes import (
    FactorTable,
    dirichlet_factors,
    holomorphic_factor,
    neumann_factor,
    neumann_factors,
    row_factors,
)
from polyspec.spectrum import SpectralPoint, _ClassTable, mode_sort_key

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


# mpmath besseljzero at 40 digits: (lambda_{15,4}^2 + (lambda_{11,13} / 1.5)^2) / 4
# and (lambda_{8,6}^2 + (lambda_{42,3} / 1.5)^2) / 4, 9.3e-12 apart relative
CLOSE_PAIR = ("603.40994598590671788", "603.40994599150818114")


def test_distinct_keys_closer_than_1e_11_stay_two_points(cache):
    points = assemble_spectrum(Polydisc((1.0, 1.5)), 1, 603.41, cache=cache, witness_cap=0)
    assert len(points) == 99974
    assert [(p.value, p.finite_multiplicity, p.infinite) for p in points[-2:]] == [
        (603.4099459859068, 8, False),
        (603.4099459915083, 8, False),
    ]
    for p, exact in zip(points[-2:], CLOSE_PAIR):
        assert abs(Fraction(p.value) / Fraction(exact) - 1) < Fraction(1, 10**15)


def _brute_force_points(P, q, lam, cache):
    """The brute-force modes grouped by their own exact key, the sorted
    (radius, zero order, j) of the factors, with zero order |m| for
    Dirichlet and |m + 1| for Neumann-positive factors: per key its least
    value, finite mode count and infinite flag, ascending."""
    groups = collections.defaultdict(list)
    for value, (_, factors) in verify.brute_force_spectrum(P, q, lam, cache):
        key = sorted(
            (a, -1, 0) if kind == "holomorphic" else (a, abs(m + (kind == "neumann")), j)
            for a, (kind, m, j) in zip(P.radii, factors)
        )
        groups[tuple(key)].append((value, any(f[0] == "holomorphic" for f in factors)))
    return sorted(
        (min(v for v, _ in modes), sum(not h for _, h in modes), any(h for _, h in modes))
        for modes in groups.values()
    )


@pytest.mark.parametrize(
    "radii,q,lam", [((1.0, 1.0, 1.0), 1, 20.0), ((1.0, 1.0, 2.0), 2, 16.0), ((1.0, 1.5), 1, 10.0)]
)
def test_points_are_the_brute_force_key_groups(cache, radii, q, lam):
    P = Polydisc(radii)
    points = assemble_spectrum(P, q, lam, cache=cache, witness_cap=0)
    assert [(p.value, p.finite_multiplicity, p.infinite) for p in points] == _brute_force_points(
        P, q, lam, cache
    )


@pytest.mark.parametrize("radii,q,lam", [((1.0, 1.0, 1.0), 1, 60.0), ((1.0,) * 4, 2, 24.0)])
def test_no_key_is_split_across_points(cache, radii, q, lam):
    # equal radii: classes of one key whose sums differ in the last bits
    # must still sit next to each other in value order
    table = spectrum._class_table(Polydisc(radii), q, lam, cache)
    key = np.sort(table.rows, axis=0)
    runs = 1 + np.count_nonzero((key[:, 1:] != key[:, :-1]).any(axis=0))
    assert len(table.points()[0]) == runs == np.unique(key, axis=1).shape[1]
    assert runs < len(table)


def test_witness_cap(cache):
    pts = assemble_spectrum(Polydisc((1.0, 1.0)), 1, 5.2, cache=cache, witness_cap=3)
    assert all(len(p.witnesses) <= 3 for p in pts)
    assert pts[-1].finite_multiplicity == 8  # cap limits witnesses, not the count


def test_negative_witness_cap_rejected(cache):
    with pytest.raises(InvalidArgumentError):
        assemble_spectrum(Polydisc((1.0, 1.0)), 1, 5.2, cache=cache, witness_cap=-1)


@pytest.mark.parametrize("cap", [2.5, None, "3"])
def test_non_integral_witness_cap_rejected(cache, cap):
    with pytest.raises(InvalidArgumentError):
        assemble_spectrum(Polydisc((1.0, 1.0)), 1, 5.2, cache=cache, witness_cap=cap)


@pytest.mark.parametrize("radii", [None, 3.0, (1j, 2.0), ("1", "2"), (1.0, None)])
def test_non_real_radii_are_refused(radii):
    with pytest.raises(InvalidArgumentError, match="radi"):
        Polydisc(radii)


@pytest.mark.parametrize("lam", ["5", None, 1j])
def test_non_real_cutoffs_are_refused(cache, lam):
    P = Polydisc((1.0, 1.5))
    with pytest.raises(InvalidArgumentError, match="real number"):
        enumerate_modes(P, 1, lam, cache)
    with pytest.raises(InvalidArgumentError, match="real number"):
        assemble_spectrum(P, 1, lam, cache=cache)
    with pytest.raises(InvalidArgumentError, match="real number"):
        counting(P, 1, lam, cache)


@pytest.mark.parametrize("a", [1e160, 1e-160, 1e-200, 2.0**500 * 1.5, 2.0**-501, 10**400])
def test_radii_outside_the_admissible_range_are_refused(a):
    # a**2, a**-2 or (lambda/a)**2 would overflow, underflow or be subnormal
    with pytest.raises(UnsupportedRangeError, match=r"\[2\*\*-500, 2\*\*500\]"):
        Polydisc((1.0, a))


def test_a_float32_radius_is_checked_as_a_double():
    # compared in float32, 2**500 overflowed the cast: a RuntimeWarning, and
    # under -W error a refusal of an admissible radius
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        radii = Polydisc((np.float32(1.5), 2.0)).radii
        assert radii == (1.5, 2.0) and all(type(a) is float for a in radii)
        # ints and Fractions past the double range are still range errors
        for a in (10**400, Fraction(10**400, 3)):
            with pytest.raises(UnsupportedRangeError, match="admissible range"):
                Polydisc((1.0, a))


def test_bottom_at_the_ends_of_the_admissible_range_is_a_normal_double(cache):
    for a in (2.0**-500, 2.0**500):
        value, J = bottom(Polydisc((1.0, a)), 1, cache)
        assert sys.float_info.min <= value <= sys.float_info.max
        assert J == ((2,) if a > 1.0 else (1,))


def test_numpy_integer_witness_cap_and_keyword_only_options(cache):
    P = Polydisc((1.0, 1.0))
    assert assemble_spectrum(P, 1, 5.2, cache=cache, witness_cap=np.int64(3)) == assemble_spectrum(
        P, 1, 5.2, cache=cache, witness_cap=3
    )
    with pytest.raises(TypeError):
        assemble_spectrum(P, 1, 5.2, cache)  # a fourth positional argument


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


_REFERENCE_MODES: dict = {}


def _reference_modes(P, q, lam, cache):
    """Every mode below lam, sorted by mode_sort_key: for each J a walk over
    the public factor lists (Dirichlet on J, holomorphic then
    Neumann-positive elsewhere), summing left to right and pruned by the
    budget, each mode made by the public constructor."""
    key = (P.radii, q, lam)
    if key not in _REFERENCE_MODES:
        budget = 4.0 * lam
        bound = budget * (1.0 + 1e-9)
        modes = []
        for J in itertools.combinations(range(1, P.n + 1), q):
            lists = [
                dirichlet_factors(a, budget, cache)
                if k + 1 in J
                else [holomorphic_factor(0, a)] + neumann_factors(a, budget, cache)
                for k, a in enumerate(P.radii)
            ]
            floor = [sum(t[0].lambda_k for t in lists[k:]) for k in range(P.n + 1)]

            def walk(k, total, factors, J=J, lists=lists, floor=floor):
                if k == P.n:
                    if total / 4.0 <= lam:
                        modes.append(EigenMode(J, factors, total / 4.0))
                    return
                for f in lists[k]:  # ascending in lambda_k
                    if total + f.lambda_k + floor[k + 1] > bound:
                        break
                    walk(k + 1, total + f.lambda_k, factors + (f,))

            if all(lists):
                walk(0, 0.0, ())
        _REFERENCE_MODES[key] = sorted(modes, key=mode_sort_key)
    return _REFERENCE_MODES[key]


def _reference_witnesses(P, q, lam, cache, cap):
    """Each point's witnesses: the reference modes, each filed under the
    last point whose value is <= its own, cut to the first `cap`."""
    values = [p.value for p in assemble_spectrum(P, q, lam, cache=cache, witness_cap=0)]
    filed = [[] for _ in values]
    for m in _reference_modes(P, q, lam, cache):
        filed[bisect.bisect_right(values, m.value) - 1].append(m)
    return [tuple(w[:cap]) for w in filed]


@pytest.mark.parametrize(
    "radii,q,lam",
    [
        ((1.0, 1.0, 1.0), 1, 20.0),
        ((1.0, 1.0, 1.0, 1.0), 2, 12.0),
        ((1.0, 1.3, 1.7, 2.2), 1, 10.0),
        ((1.0, 1.1, 1.3, 1.6, 2.0, 2.4), 1, 6.0),  # all 63 sets fit: 20,218 modes
        ((1.0,) * 6, 3, 14.0),  # C(6, 3) J's per class of six slots: the J cut runs
    ],
)
# on the equal radii, caps 1, 7, 8 and 9 stop inside blocks of several classes,
# whose modes the class path merges by factor key
@pytest.mark.parametrize("cap", [0, 1, 7, 8, 9, 1000])
def test_witnesses_match_mode_by_mode_expansion(cache, radii, q, lam, cap):
    P = Polydisc(radii)
    if radii[-1] == 2.2:
        # a class with four oscillatory slots, nu >= 1, and C(4, 1) J's: 64 modes
        assert 4 * 16 in spectrum._class_table(P, q, lam, cache).weight
    points = assemble_spectrum(P, q, lam, cache=cache, witness_cap=cap)
    assert [p.witnesses for p in points] == _reference_witnesses(P, q, lam, cache, cap)


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("radii,q,lam", [((1.0, 1.0, 1.0), 1, 20.0), ((1.0, 1.0, 1.0, 1.0), 2, 12.0)])
def test_witnesses_do_not_depend_on_the_chunk_size(cache, monkeypatch, radii, q, lam, chunk):
    # chunks of 1 and 7 candidates cut the expansion between nearly all blocks
    monkeypatch.setattr(spectrum, "_CHUNK", chunk)
    P = Polydisc(radii)
    for cap in (0, 1, 7, 8, 9, 1000):
        points = assemble_spectrum(P, q, lam, cache=cache, witness_cap=cap)
        assert [p.witnesses for p in points] == _reference_witnesses(P, q, lam, cache, cap)
    points = assemble_spectrum(P, q, lam, cache=cache, witness_cap=10**9)
    assert enumerate_modes(P, q, lam, cache) == [m for p in points for m in p.witnesses]


def test_blocks_of_several_classes_expand_no_J_past_the_cut(cache, monkeypatch):
    # on equal radii a block holds many classes, each with C(6, 3) = 20 J's
    # when |S| = 6; a J with the block's take modes on lower J's is not expanded
    seen = []
    block_modes = _ClassTable._block_modes

    def record(self, block, length, take, cls, count):
        seen.append((int(count.sum()), int(take.sum())))
        return block_modes(self, block, length, take, cls, count)

    monkeypatch.setattr(_ClassTable, "_block_modes", record)
    assemble_spectrum(Polydisc((1.0,) * 6), 3, 14.0, cache=cache)
    candidates, modes = map(sum, zip(*seen))
    assert modes == 216 and candidates <= 3 * modes  # 4,060 candidates without the cut


_STRUCTURE_CASES = [
    ((1.0, 1.3, 2.0), 14.0),
    ((1.0, 1.3, 2.0, 2.5), 9.0),
    ((1.0, 1.0, 1.0), 12.0),
    ((0.7, 1.1, 1.9, 1.4), 8.0),
]


def _summary(points):
    return [(p.value, p.finite_multiplicity, p.infinite, p.families) for p in points]


@pytest.mark.parametrize("radii,lam", _STRUCTURE_CASES)
def test_doubling_the_radii_quarters_every_value_exactly(cache, radii, lam):
    for q in range(1, len(radii)):
        points = assemble_spectrum(Polydisc(radii), q, lam, cache=cache, witness_cap=0)
        doubled = assemble_spectrum(
            Polydisc([2.0 * a for a in radii]), q, lam / 4.0, cache=cache, witness_cap=0
        )
        assert _summary(doubled) == [
            (v / 4.0, finite, infinite, families) for v, finite, infinite, families in _summary(points)
        ]


@pytest.mark.parametrize("radii,lam", _STRUCTURE_CASES)
def test_finite_part_is_the_dirichlet_spectrum_times_binomial(cache, radii, lam):
    # every oscillatory set is all of the variables: C(n, q) choices of J
    n = len(radii)
    finite = {}
    for q in range(1, n):
        points = assemble_spectrum(Polydisc(radii), q, lam, cache=cache, witness_cap=0)
        counts = {p.value: p.finite_multiplicity for p in points if p.finite_multiplicity}
        assert all(c % math.comb(n, q) == 0 for c in counts.values())
        finite[q] = {v: c // math.comb(n, q) for v, c in counts.items()}
    assert finite[1]
    assert all(finite[q] == finite[1] for q in finite)


@pytest.mark.parametrize("radii,lam", _STRUCTURE_CASES)
def test_essential_part_is_the_spectra_with_one_disc_removed(cache, radii, lam):
    n = len(radii)
    for q in range(1, n - 1):
        points = assemble_spectrum(Polydisc(radii), q, lam, cache=cache, witness_cap=0)
        removed = {
            p.value
            for k in range(n)
            for p in assemble_spectrum(
                Polydisc(radii[:k] + radii[k + 1 :]), q, lam, cache=cache, witness_cap=0
            )
        }
        assert {p.value for p in points if p.infinite} == removed


def _square_table(top):
    """The Dirichlet values j^2 + k^2 <= top of -Delta on a square of side pi,
    one row per 1 <= j <= k, ascending, paired iff j < k (the rows (j, k)
    and (k, j)).  Distinct rows tie, such as 50 = 1 + 49 = 25 + 25."""
    rows = sorted(
        (j * j + k * k, j < k)
        for k in range(1, math.isqrt(top) + 1)
        for j in range(1, k + 1)
        if j * j + k * k <= top
    )
    lam, paired = zip(*rows)
    return FactorTable(np.array(lam, dtype=float), np.array(paired), None)  # no witnesses


def _square_oracle(n, q, lam):
    """(value, finite multiplicity, infinite, family bits) per value V <= lam
    reached on a product of n squares, by exact integer convolution: p[s][4V]
    counts the choices of one mode (j, k) on each of s squares that sum to 4V."""
    top = int(4 * lam)
    r = np.zeros(top + 1, dtype=np.int64)  # r(v) = #{(j, k) >= 1 : j^2 + k^2 = v}
    for j in range(1, math.isqrt(top) + 1):
        for k in range(1, math.isqrt(top - j * j) + 1):
            r[j * j + k * k] += 1
    p = [np.eye(1, top + 1, dtype=np.int64)[0]]
    for _ in range(n):
        p.append(np.convolve(p[-1], r)[: top + 1])
    out = []
    for v in range(top + 1):
        sizes = [s for s in range(q, n + 1) if p[s][v]]
        if sizes:
            bits = 2 * (q in sizes) | any(q < s < n for s in sizes) | 4 * (n in sizes)
            out.append((v / 4, math.comb(n, q) * int(p[n][v]), min(sizes) < n, bits))
    return out


@pytest.mark.parametrize(
    "n,q,lam", [(2, 1, 400.0), (3, 1, 60.0), (3, 2, 70.0), (4, 1, 22.0), (4, 2, 26.0), (4, 3, 30.0)]
)
def test_walk_on_squares_matches_the_exact_convolution(n, q, lam):
    # every variable shares one table, so tied rows are distinct keys of one
    # value: merge the points of equal value before comparing
    table = _ClassTable([_square_table(int(4 * lam))] * n, q, lam)
    assert len(table) >= 10**4
    starts, finite, infinite, bits = table.points()
    merged = {}
    for v, f, i, b in zip(table.value[starts].tolist(), finite.tolist(), infinite.tolist(), bits):
        f0, i0, b0 = merged.get(v, (0, False, 0))
        merged[v] = (f0 + f, i0 or i, b0 | int(b))
    assert [(v, *merged[v]) for v in sorted(merged)] == _square_oracle(n, q, lam)


def _spectrum_sha256(points):
    h = hashlib.sha256()
    for p in points:
        h.update(repr((p.value.hex(), p.finite_multiplicity, p.infinite, p.families)).encode())
        for w in p.witnesses:
            h.update(repr((mode_descriptor(w), w.value.hex())).encode())
    return h.hexdigest()


def test_anchor_spectrum_bits_are_pinned(cache):
    # the benchmark's anchor request at the default cap: 21,543 points whose
    # witnesses span several expansion chunks; digest recorded before the
    # witnesses were built by index arithmetic
    points = assemble_spectrum(Polydisc((1, 2, 3)), 1, 30.0, cache=cache)
    assert len(points) == 21543
    assert _spectrum_sha256(points) == (
        "912be2f74492f4f64ad3ffad5c15a1885df230aca24565aba5f75ec4b8e7a9ce"
    )


def test_wrong_kind_labels_are_refused_on_the_class_path(cache, monkeypatch):
    # a Dirichlet slot handed Neumann-positive labels, and the reverse
    swap = {
        FactorKind.DIRICHLET: FactorKind.NEUMANN_POSITIVE,
        FactorKind.NEUMANN_POSITIVE: FactorKind.DIRICHLET,
    }
    monkeypatch.setattr(
        disc_modes, "row_factors", lambda kind, *args: row_factors(swap[kind], *args)
    )
    # on equal radii the blocks hold several classes
    for radii in ((1.0, 1.3), (1.0, 1.0, 1.0)):
        P = Polydisc(radii)
        with pytest.raises(InvalidArgumentError, match="Dirichlet"):
            assemble_spectrum(P, 1, 12.0, cache=cache, witness_cap=1)
        with pytest.raises(InvalidArgumentError, match="Dirichlet"):
            enumerate_modes(P, 1, 12.0, cache)

    # disc 1's Neumann-positive labels made Dirichlet: no witness at cap 1
    # uses them, but every label is checked once made
    def fault(kind, nu, j, a, lam):
        if kind is FactorKind.NEUMANN_POSITIVE and a == 1.0:
            kind = FactorKind.DIRICHLET
        return row_factors(kind, nu, j, a, lam)

    monkeypatch.setattr(disc_modes, "row_factors", fault)
    with pytest.raises(InvalidArgumentError, match="variable 1 not in J cannot be Dirichlet"):
        assemble_spectrum(Polydisc((1.0, 1.3)), 1, 12.0, cache=cache, witness_cap=1)


def test_spectral_point_is_a_slotted_frozen_dataclass(cache):
    point = assemble_spectrum(Polydisc((1.0, 1.0)), 1, 3.0, cache=cache, witness_cap=1)[1]
    fields = (point.value, point.finite_multiplicity, point.infinite, point.witnesses, point.families)
    assert not hasattr(point, "__dict__")
    again = SpectralPoint(*fields)
    assert again == point and hash(again) == hash(point)
    assert repr(point) == (
        f"SpectralPoint(value={fields[0]!r}, finite_multiplicity={fields[1]!r}, "
        f"infinite={fields[2]!r}, witnesses={fields[3]!r}, families={fields[4]!r})"
    )
    other = dataclasses.replace(point, finite_multiplicity=3)
    assert other != point and other.finite_multiplicity == 3
    assert (other.value, other.witnesses) == (point.value, point.witnesses)
    with pytest.raises(dataclasses.FrozenInstanceError):
        point.value = 0.0


def test_public_constructor_still_checks_kinds(cache):
    mode = enumerate_modes(Polydisc((1.0, 1.0)), 1, 1.5, cache)[0]
    with pytest.raises(InvalidArgumentError, match="variable 1 in J must carry a Dirichlet"):
        EigenMode((1,), mode.factors[::-1], mode.value)
    with pytest.raises(InvalidArgumentError, match="variable 2 not in J cannot be Dirichlet"):
        EigenMode((1,), (mode.factors[0], mode.factors[0]), mode.value)
    assert EigenMode(mode.J, mode.factors, mode.value) == mode
    assert not hasattr(mode, "__dict__")  # slotted


def _holomorphic_and_neumann(cache):
    return (holomorphic_factor(0, 1.0), neumann_factor(0, 1, 1.0, cache))


@pytest.mark.parametrize("J", [(3,), (2, 1), (1, 1), (0,), [1]])
def test_malformed_J_is_refused(cache, J):
    with pytest.raises(InvalidArgumentError, match="strictly increasing tuple"):
        EigenMode(J, _holomorphic_and_neumann(cache), 1.0)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_mode_value_is_refused(cache, value):
    with pytest.raises(InvalidArgumentError, match="finite"):
        EigenMode((), _holomorphic_and_neumann(cache), value)


def test_cutoffs_past_the_tables_budget_are_refused(cache):
    P = Polydisc((1.0, 1.5))
    for lam in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidArgumentError, match="finite"):
            assemble_spectrum(P, 1, lam, cache=cache)
    # 4 * lambda_max overflows: a range error, as for any cutoff past the
    # zero window, not the tables' refusal of an infinite cutoff
    with pytest.raises(UnsupportedRangeError, match="zero window"):
        assemble_spectrum(P, 1, 1e308, cache=cache)


def test_empty_J_and_zero_value_stay_legal(cache):
    mode = EigenMode((), _holomorphic_and_neumann(cache), 0.0)
    assert mode.J == () and mode.value == 0.0


def test_bottom_examples(cache):
    val, J = bottom(Polydisc((1.0, 1.0)), 1, cache)
    assert val == pytest.approx(BOTTOM_11, abs=1e-12) and J == (1,)  # lexicographic tie
    val, J = bottom(Polydisc((1.0, 2.0)), 1, cache)
    assert val == pytest.approx(BOTTOM_12, abs=1e-12) and J == (2,)
    val, J = bottom(Polydisc((1.0, 2.0, 3.0)), 2, cache)
    assert J == (2, 3)
    assert val == pytest.approx(0.522093177210474, rel=1e-12)  # (l01^2/4)(1/4+1/9)


def _exhaustive_bottom(radii, q, cache):
    """The first J, lexicographically, whose float sum of a_k^-2 is least."""
    best, best_J = math.inf, None
    for J in itertools.combinations(range(1, len(radii) + 1), q):
        s = sum(1.0 / radii[k - 1] ** 2 for k in J)
        if s < best:
            best, best_J = s, J
    z01 = cache.zero(0, 1)
    return 0.25 * z01 * z01 * best, best_J


def _first_exact_minimizer(radii, q):
    """The lexicographically first J whose exact sum of the float terms is least."""
    terms = [Fraction(1.0 / a**2) for a in radii]
    return min(
        itertools.combinations(range(1, len(radii) + 1), q),
        key=lambda J: sum(terms[k - 1] for k in J),
    )


def test_bottom_breaks_ties_lexicographically(cache):
    # the float sum of (1, 3, 4) happens to round below that of (1, 2, 3)
    radii = (2.4264688198451054, 2.2, 2.909360102350604, 2.2)
    assert bottom(Polydisc(radii), 3, cache)[1] == (1, 2, 3)
    assert _exhaustive_bottom(radii, 3, cache)[1] == (1, 3, 4)


def test_bottom_equals_exhaustive_search_on_untied_radii(cache):
    rng = np.random.default_rng(44)
    for _ in range(150):
        n = int(rng.integers(2, 9))
        radii = tuple(float(a) for a in rng.uniform(0.3, 3.0, n))
        for q in range(1, n):
            assert bottom(Polydisc(radii), q, cache) == _exhaustive_bottom(radii, q, cache)


def test_bottom_on_tied_radii_is_the_first_minimizer(cache):
    rng = np.random.default_rng(45)
    for _ in range(150):
        n = int(rng.integers(2, 9))
        radii = tuple(float(a) for a in rng.choice((0.7, 1.1, 2.2, 2.4264688198451054), n))
        for q in range(1, n):
            value, J = bottom(Polydisc(radii), q, cache)
            assert J == _first_exact_minimizer(radii, q)
            assert value == pytest.approx(_exhaustive_bottom(radii, q, cache)[0], rel=1e-12)


def test_bottom_needs_no_tuple_search(cache):
    # C(40, 20) is about 1.4e11 tuples
    radii = tuple(1.0 + 0.01 * ((7 * k) % 40) for k in range(40))
    value, J = bottom(Polydisc(radii), 20, cache)
    assert sorted(radii[k - 1] for k in J) == sorted(radii)[20:]
    assert value > 0.0


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


def test_many_discs_visit_only_the_sets_that_fit(cache):
    # 2^64 sets of variables; just above the bottom only single discs fit
    P = Polydisc([1.0 + 0.01 * k for k in range(64)])
    value, J = bottom(P, 1, cache)
    points = assemble_spectrum(P, 1, 1.02 * value, cache=cache)
    assert points[0].value == pytest.approx(value, rel=1e-12) and points[0].infinite
    assert points[0].witnesses[0].J == J


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


def test_numpy_integer_q_is_an_integer(cache):
    P = Polydisc((1.0, 1.5))
    q = np.int64(1)
    assert enumerate_modes(P, q, 8.0, cache) == enumerate_modes(P, 1, 8.0, cache)
    assert assemble_spectrum(P, q, 8.0, cache=cache) == assemble_spectrum(P, 1, 8.0, cache=cache)
    assert counting(P, q, 8.0, cache) == counting(P, 1, 8.0, cache)
    assert bottom(P, q, cache) == bottom(P, 1, cache)


@pytest.mark.parametrize("q", [1.0, np.float64(1.0), "1", None])
def test_q_of_the_wrong_type_is_refused_for_its_type(cache, q):
    P = Polydisc((1.0, 1.5))
    for call in (
        lambda: enumerate_modes(P, q, 8.0, cache),
        lambda: assemble_spectrum(P, q, 8.0, cache=cache),
        lambda: counting(P, q, 8.0, cache),
        lambda: bottom(P, q, cache),
    ):
        with pytest.raises(InvalidArgumentError, match="q must be an integer"):
            call()
