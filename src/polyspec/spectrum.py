"""Spectrum assembly for the dbar-Neumann Laplacian on a polydisc.

An eigenmode on P(a_1, ..., a_n) for (0, q)-forms picks a strictly
increasing q-tuple J of variable indices and one separated factor per
variable: Dirichlet for k in J, Neumann-positive or holomorphic for k not
in J.  Its eigenvalue is one quarter of the sum of the factor eigenvalues.

The enumeration tensorizes the per-variable factor families, so it also
produces the mixed modes where some complement variables are holomorphic
and others oscillatory; the two pure families are tagged but not special-
cased.  Omitting the mixed products would leave the eigenbasis incomplete.

Holomorphic factors are emitted once, with canonical exponent p = 0, and
mark their mode as an infinite family: raising the exponent changes the
eigenform but not the eigenvalue, so such an eigenvalue has infinite
multiplicity (it lies in the essential spectrum).  The bottom of the
spectrum, min over |J| = q of (lambda_{0,1}^2 / 4) * sum_{k in J} a_k^-2,
is always of this kind.

Enumeration works on radial classes, not modes.  Each disc's zero table
(lambda_{nu,j} / a)^2 is read once per request into arrays; a class is J
plus one table row per variable (the holomorphic slot, lambda = 0, heads
each complement list).  Its modes are the +-m labels of its rows, 2 per
oscillatory row with nu >= 1, and share its value bits.  For each J numpy
forms the pruned sums of the tables left to right in variable order, then
divides by 4, so every value has the bits of the mode-by-mode sum.
Classes are sorted by (value, J) and grouped; point counts and families
come from the class weights.

`EigenMode` objects are made only where modes are asked for: a point's
witnesses, `enumerate_modes` and `spectral_ops.expand_from_samples`.  A
block is a run of classes with equal value bits and equal J.  Numpy finds
from the class weights how many modes each block gives before its point
reaches the cap, and the factor labels of those modes by index arithmetic:
a class's mode i takes the sign of each oscillatory slot with nu >= 1 from
one bit of i, the last slot's bit lowest.  That is the product order of
the slots' label pairs, each ascending in angular order, so a class's
modes come in factor-key order; a block of several classes (equal radii)
is put in that order by one lexsort on per-slot label ranks.  A label
(variable, list, row, sign) is made on first use, once per table, and
checked then: the Dirichlet list's labels must be Dirichlet and the
complement list's must not, which makes each mode's J/kind check.  The
modes are made in C-level batches of a bounded number of candidates, with
no Python frame per mode.  Every mode list is in `mode_sort_key` order.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .disc_modes import FactorKind, ModeFactor, holomorphic_factor, row_factors, zero_table
from .errors import InvalidArgumentError
from .zeros import ZeroCache

__all__ = [
    "Polydisc",
    "EigenMode",
    "SpectralPoint",
    "FAMILY_PURE_HOLOMORPHIC",
    "FAMILY_PURE_NEUMANN",
    "FAMILY_MIXED",
    "enumerate_modes",
    "assemble_spectrum",
    "bottom",
    "counting",
    "mode_descriptor",
    "mode_sort_key",
]

FAMILY_PURE_HOLOMORPHIC = "pure-holomorphic"
FAMILY_PURE_NEUMANN = "pure-neumann"
FAMILY_MIXED = "mixed"

# Pruning slack: never lets rounding in prefix sums drop a borderline mode;
# candidates inside the slack are explored and rejected by the exact test.
_PRUNE_SLACK = 1e-9

_GROUP_TOL = 1e-11  # relative; see assemble_spectrum

# families of a point from its family bits: 1 mixed, 2 pure-holomorphic,
# 4 pure-neumann (sorted names, as the bits ascend)
_FAMILIES = {
    bits: tuple(
        name
        for bit, name in ((1, FAMILY_MIXED), (2, FAMILY_PURE_HOLOMORPHIC), (4, FAMILY_PURE_NEUMANN))
        if bits & bit
    )
    for bits in range(1, 8)
}


@dataclass(frozen=True)
class Polydisc:
    """The polydisc P(a_1, ..., a_n) = {|z_k| < a_k}, n >= 2."""

    radii: tuple[float, ...]

    def __init__(self, radii) -> None:
        object.__setattr__(self, "radii", tuple(float(a) for a in radii))
        if len(self.radii) < 2:
            raise InvalidArgumentError("a polydisc needs at least two radii")
        for a in self.radii:
            if not (a > 0.0) or not math.isfinite(a):
                raise InvalidArgumentError(f"radii must be positive and finite, got {a}")

    @property
    def n(self) -> int:
        return len(self.radii)


_DIRICHLET = FactorKind.DIRICHLET

# Candidate modes expanded at a time by `_ClassTable.expand`; bounds the
# size of its temporaries, not its output.
_CHUNK = 8192


def _check_kind(k: int, in_J: bool, f: ModeFactor) -> None:
    """Raise unless variable k carries a Dirichlet factor exactly if k is in J."""
    if in_J != (f.kind is _DIRICHLET):
        raise InvalidArgumentError(
            f"variable {k} in J must carry a Dirichlet factor"
            if in_J
            else f"variable {k} not in J cannot be Dirichlet"
        )


def _check_kinds(J: tuple[int, ...], factors: tuple[ModeFactor, ...]) -> None:
    """Raise unless exactly the variables in J carry Dirichlet factors."""
    for k, f in enumerate(factors, start=1):
        _check_kind(k, k in J, f)


@dataclass(frozen=True, slots=True)
class EigenMode:
    """One eigenmode: the q-tuple J (1-based) plus one factor per variable."""

    J: tuple[int, ...]
    factors: tuple[ModeFactor, ...]
    value: float  # (1/4) sum of factor eigenvalues, fixed arithmetic path

    def __post_init__(self) -> None:
        _check_kinds(self.J, self.factors)

    @property
    def has_holomorphic(self) -> bool:
        return any(f.kind is FactorKind.HOLOMORPHIC for f in self.factors)

    @property
    def family(self) -> str:
        # __post_init__ makes the Dirichlet factors exactly those in J
        kinds = {f.kind for f in self.factors} - {FactorKind.DIRICHLET}
        if kinds == {FactorKind.HOLOMORPHIC}:
            return FAMILY_PURE_HOLOMORPHIC
        if kinds == {FactorKind.NEUMANN_POSITIVE}:
            return FAMILY_PURE_NEUMANN
        return FAMILY_MIXED


@dataclass(frozen=True, slots=True)
class SpectralPoint:
    """A grouped eigenvalue.

    `finite_multiplicity` counts the modes at this value whose factors are
    all oscillatory; `infinite` is set when any mode at this value carries a
    holomorphic factor (an infinite family).  `witnesses` is a bounded,
    deterministically ordered sample of the contributing modes.
    """

    value: float
    finite_multiplicity: int
    infinite: bool
    witnesses: tuple[EigenMode, ...]
    families: tuple[str, ...]


def _batch(cls, n: int, *columns) -> list:
    """n instances of the slotted dataclass `cls`, made without `__init__`:
    its fields, in order, are set from `columns`, one C-level pass per field
    and no Python frame per instance.  The caller has made the checks."""
    objs = list(map(object.__new__, itertools.repeat(cls, n)))
    for field, column in zip(dataclasses.fields(cls), columns):
        collections.deque(map(getattr(cls, field.name).__set__, objs, column), maxlen=0)
    return objs


def _runs(items, counts):
    """Each item repeated by its count, in order."""
    return itertools.chain.from_iterable(map(itertools.repeat, items, counts))


def _factor_key(f: ModeFactor) -> tuple:
    return (f.kind._value_, f.angular_order, f.radial_index or 0)


def mode_sort_key(mode: EigenMode) -> tuple:
    return (mode.value, mode.J, tuple(map(_factor_key, mode.factors)))


def mode_descriptor(mode: EigenMode) -> tuple:
    """Canonical hashable descriptor, shared vocabulary with the oracle."""
    return (
        mode.J,
        tuple((f.kind._value_, f.angular_order, f.radial_index) for f in mode.factors),
    )


def _validate_q(P: Polydisc, q: int) -> None:
    if not isinstance(q, int) or not (1 <= q <= P.n - 1):
        raise InvalidArgumentError(
            f"q = {q!r} out of range: need 1 <= q <= n - 1 = {P.n - 1}"
        )


class _Rows(NamedTuple):
    """One disc's factor list as table rows, ascending in lam."""

    lam: np.ndarray
    nu: np.ndarray  # -1 marks the holomorphic slot
    j: np.ndarray


class _Labels(NamedTuple):
    """A class table's factor labels, by id.  Sign s (0 for the lower angular
    order) of row r of variable k's Dirichlet list has id offset[k] + 2 r + s,
    and of row r of its complement list offset[k] + 2 (size[k] + r) + s, so
    id // 2 numbers the rows of all lists."""

    offset: np.ndarray
    size: np.ndarray  # rows of each variable's Dirichlet list
    start: np.ndarray  # per variable and J_list entry: the id of row 0 of its list
    nu: np.ndarray  # of each label's row; -1 marks the holomorphic slot
    rank: np.ndarray  # place in factor-key order among the labels
    factor: np.ndarray  # object: the ModeFactor, None until its row is built


class _ClassTable:
    """Radial classes below the cutoff, sorted by (value, J).

    A class is a tuple J plus one row per variable: a (nu, j) row of the
    disc's zero table, or the holomorphic slot.  All of its modes share the
    value bits; it stands for 2 modes per oscillatory slot with nu >= 1.
    """

    def __init__(
        self,
        P: Polydisc,
        q: int,
        lambda_max: float,
        cache: ZeroCache,
        only_J: tuple[int, ...] | None = None,
    ) -> None:
        _validate_q(P, q)
        if not math.isfinite(lambda_max):
            raise InvalidArgumentError("lambda_max must be finite")
        n = P.n
        self.radii = P.radii
        self.n_complement = n - q
        self.cache = cache
        self.J_list = [only_J] if only_J is not None else list(
            itertools.combinations(range(1, n + 1), q)
        )
        self.value = np.empty(0)
        self.J_index = np.empty(0, dtype=np.int64)
        self.rows = np.empty((n, 0), dtype=np.int64)
        self.weight = np.empty(0, dtype=np.int64)
        self.holomorphic = np.empty(0, dtype=np.int64)
        if lambda_max <= 0.0:
            return
        budget = 4.0 * lambda_max
        slack = _PRUNE_SLACK * max(1.0, budget)
        bound = budget + slack
        dmin = [(cache.zero(0, 1) / a) ** 2 for a in P.radii]
        # One zero table per disc, cut where the q - 1 partners of disc k sit
        # at their smallest ground values: the most room any J leaves it.  The
        # pruned sums below cut it where a J leaves less.  Row 0 of a
        # complement list is the holomorphic slot: lambda = 0, nu = -1.
        self.dirichlet: list[_Rows] = []
        self.complement: list[_Rows] = []
        for k, a in enumerate(P.radii):
            partners = sorted(dmin[:k] + dmin[k + 1 :])[: q - 1]
            cap = budget - sum(partners) + slack  # final exact test filters
            lam, nu, j = zero_table(a, cap, cache)
            self.dirichlet.append(_Rows(lam, nu, j))
            self.complement.append(_Rows(np.append(0.0, lam), np.append(-1, nu), np.append(0, j)))

        parts = []
        for index, J in enumerate(self.J_list):
            lists = [self._list(J, k) for k in range(n)]
            if not all(len(t.lam) for t in lists):
                continue
            suffix_min = [0.0] * (n + 1)
            for i in range(n - 1, -1, -1):
                suffix_min[i] = suffix_min[i + 1] + lists[i].lam[0]
            # The value of a mode is ((lambda_1 + lambda_2) + ...) / 4, summed
            # left to right in variable order.  Lists ascend and rounding is
            # monotone, so the prune keeps a prefix of each list per partial
            # sum; columns that fail even the smallest partial sum are cut
            # before the outer sum is formed.
            partial = np.zeros(1)
            rows: list[np.ndarray] = []
            for i, t in enumerate(lists):
                fits = partial.min(initial=np.inf) + t.lam + suffix_min[i + 1] <= bound
                lam = t.lam[: np.count_nonzero(fits)]
                s = partial[:, None] + lam[None, :]
                prev, row = np.nonzero(s + suffix_min[i + 1] <= bound)
                partial = s[prev, row]
                rows = [r[prev] for r in rows] + [row]
            value = partial / 4.0
            keep = value <= lambda_max
            rows = [r[keep] for r in rows]
            slot_nu = np.stack([t.nu[r] for t, r in zip(lists, rows)])
            weight = 1 << np.count_nonzero(slot_nu >= 1, axis=0)
            holomorphic = np.count_nonzero(slot_nu < 0, axis=0)
            parts.append(
                (value[keep], np.full(len(weight), index), np.stack(rows), weight, holomorphic)
            )
        if not parts:
            return
        value, J_index, rows, weight, holomorphic = (
            np.concatenate(cols, axis=-1) for cols in zip(*parts)
        )
        order = np.lexsort((J_index, value))
        self.value = value[order]
        self.J_index = J_index[order]
        self.rows = rows[:, order]
        self.weight = weight[order]
        self.holomorphic = holomorphic[order]

    def _list(self, J: tuple[int, ...], k: int) -> _Rows:
        return self.dirichlet[k] if k + 1 in J else self.complement[k]

    def __len__(self) -> int:
        return len(self.value)

    def points(self, group_tol: float) -> tuple[np.ndarray, ...]:
        """Group the classes into points: start index, finite multiplicity,
        infinite flag and family bits (1 mixed, 2 pure-holomorphic,
        4 pure-neumann) per point.

        Adjacent values chain into one point while
        cur - prev <= group_tol * max(cur, prev).
        """
        v = self.value
        joined = v[1:] - v[:-1] <= group_tol * np.maximum(v[1:], v[:-1])
        starts = np.flatnonzero(np.concatenate(([True], ~joined)))
        holomorphic = self.holomorphic > 0
        finite = np.add.reduceat(np.where(holomorphic, 0, self.weight), starts)
        infinite = np.logical_or.reduceat(holomorphic, starts)
        family = np.where(
            self.holomorphic == self.n_complement, 2, np.where(holomorphic, 1, 4)
        )
        return starts, finite, infinite, np.bitwise_or.reduceat(family, starts)

    def expand(self, starts, cap: int) -> tuple[list[EigenMode], list[int]]:
        """The first `cap` modes of each run of classes, in one flat list.

        A run goes from one entry of `starts` (ascending, from 0) to the
        next, and its modes come in `mode_sort_key` order.  Returns the list
        and the end of each run's modes in it.
        """
        cap = min(cap, int(self.weight.sum()))
        if cap <= 0:
            return [], [0] * len(starts)
        n_classes = len(self)
        v, J_index = self.value, self.J_index
        # a block is a run of classes with equal value bits and equal J
        head = np.ones(n_classes, dtype=bool)
        head[1:] = (v[1:] != v[:-1]) | (J_index[1:] != J_index[:-1])
        head[starts] = True
        block = np.flatnonzero(head)
        length = np.diff(np.append(block, n_classes))
        size = np.add.reduceat(self.weight, block)
        done = np.cumsum(size) - size  # modes before each block
        first = np.searchsorted(block, starts)  # the first block of each run
        before = done - np.repeat(done[first], np.diff(np.append(first, len(block))))
        take = np.clip(cap - before, 0, size)
        ends = np.cumsum(np.add.reduceat(take, first)).tolist()
        kept = take > 0
        cls = np.flatnonzero(np.repeat(kept, length))
        block, length, take = block[kept], length[kept], take[kept]
        # each class gives at most its block's take to the block's first modes
        count = np.minimum(self.weight[cls], np.repeat(take, length))
        class_end = np.cumsum(length)
        cand = np.add.reduceat(count, class_end - length)  # candidates per block
        cand_end = np.cumsum(cand)
        out: list[EigenMode] = []
        lo = 0
        while lo < len(block):
            # whole blocks, at most _CHUNK candidates unless one block has more
            room = cand_end[lo] - cand[lo] + _CHUNK
            hi = max(lo + 1, int(np.searchsorted(cand_end, room, "right")))
            c = slice(class_end[lo] - length[lo], class_end[hi - 1])
            b = slice(lo, hi)
            out += self._block_modes(block[b], length[b], take[b], cls[c], count[c])
            lo = hi
        return out, ends

    def _block_modes(self, block, length, take, cls, count) -> list[EigenMode]:
        """The first take[b] modes, in factor-key order, of each block b: the
        length[b] classes from class block[b], whose entries in `cls` give
        their first `count` modes as candidates."""
        lab = self._labels
        slot_id = lab.start[:, self.J_index[cls]] + 2 * self.rows[:, cls]
        osc = lab.nu[slot_id] >= 1
        # A class's local mode i takes the sign of each oscillatory slot from
        # one bit of i, the last slot's lowest: itertools.product order of its
        # slots' label tuples, each ascending in angular order.
        shift = np.cumsum(osc[::-1], axis=0)[::-1] - osc
        i = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
        ids = np.repeat(slot_id, count, axis=1) + (
            (i >> np.repeat(shift, count, axis=1)) & np.repeat(osc, count, axis=1)
        )
        cand = np.add.reduceat(count, np.cumsum(length) - length)
        if (length > 1).any():
            # several classes per block: sort each block by factor key, cut it at take
            several = np.flatnonzero(np.repeat(length > 1, cand))
            keys = lab.rank[ids[::-1, several]]
            owner = np.repeat(np.arange(len(cand)), cand)
            ids[:, several] = ids[:, several[np.lexsort((*keys, owner[several]))]]
            position = np.arange(len(owner)) - np.repeat(np.cumsum(cand) - cand, cand)
            ids = ids[:, position < np.repeat(take, cand)]
        used = np.zeros(len(lab.factor) // 2, dtype=bool)
        used[ids >> 1] = True
        rows = np.flatnonzero(used)
        for row in rows[np.equal(lab.factor[2 * rows], None)].tolist():
            self._build_row(row)
        take = take.tolist()
        return _batch(
            EigenMode,
            ids.shape[1],
            _runs(map(self.J_list.__getitem__, self.J_index[block].tolist()), take),
            zip(*lab.factor[ids].tolist()),
            _runs(self.value[block].tolist(), take),
        )

    def modes(self) -> list[EigenMode]:
        """Every mode of the table, in `mode_sort_key` order."""
        return self.expand([0], int(self.weight.sum()))[0]

    @functools.cached_property
    def _labels(self) -> _Labels:
        n = len(self.radii)
        size = np.array([len(t.lam) for t in self.dirichlet])
        offset = np.cumsum(4 * size + 2) - (4 * size + 2)
        nu = np.concatenate([np.append(d.nu, c.nu) for d, c in zip(self.dirichlet, self.complement)])
        j = np.concatenate([np.append(d.j, c.j) for d, c in zip(self.dirichlet, self.complement)])
        dirichlet = np.concatenate([np.arange(2 * t + 1) < t for t in size.tolist()])
        nu, j, dirichlet = nu.repeat(2), j.repeat(2), dirichlet.repeat(2)
        sign = np.tile((0, 1), len(nu) // 2)
        # angular order: Dirichlet -nu, nu; Neumann-positive -nu - 1, nu - 1
        m = np.where(dirichlet, 0, -1) - nu + 2 * nu * sign
        m[nu < 0] = 0
        kind = np.where(dirichlet, 0, np.where(nu < 0, 1, 2))  # ranks of the sorted kind names
        rank = np.empty(len(nu), dtype=np.int64)
        rank[np.lexsort((j, m, kind))] = np.arange(len(nu))
        start = np.array(
            [[offset[k] + 2 * size[k] * (k + 1 not in J) for J in self.J_list] for k in range(n)]
        )
        return _Labels(offset, size, start, nu, rank, np.full(len(nu), None, dtype=object))

    def _build_row(self, row: int) -> None:
        """Make and check the labels of one row of a variable's list: the
        Dirichlet list's must be Dirichlet, the complement list's not."""
        lab = self._labels
        k = int(np.searchsorted(lab.offset, 2 * row, "right")) - 1
        r = row - lab.offset[k] // 2
        in_J = bool(r < lab.size[k])
        if in_J:
            t = self.dirichlet[k]
        else:
            t, r = self.complement[k], r - lab.size[k]
        nu, j = int(t.nu[r]), int(t.j[r])
        a = self.radii[k]
        if nu < 0:
            got = (holomorphic_factor(0, a),)
        else:
            kind = FactorKind.DIRICHLET if in_J else FactorKind.NEUMANN_POSITIVE
            got = row_factors(kind, nu, j, a, self.cache)
        for sign, f in enumerate(got):
            _check_kind(k + 1, in_J, f)
            lab.factor[2 * row + sign] = f


def enumerate_modes(
    P: Polydisc, q: int, lambda_max: float, cache: ZeroCache
) -> list[EigenMode]:
    """Every eigenmode with eigenvalue <= lambda_max, sorted, no duplicates.

    Holomorphic factors appear once with exponent 0 (the whole family shares
    the eigenvalue).  The modes are the full expansion of the radial class
    table, in `mode_sort_key` order.
    """
    return _ClassTable(P, q, lambda_max, cache).modes()


def assemble_spectrum(
    P: Polydisc,
    q: int,
    lambda_max: float,
    group_tol: float = _GROUP_TOL,
    cache: ZeroCache | None = None,
    witness_cap: int = 8,
) -> list[SpectralPoint]:
    """Group the modes into spectral points, ascending by value.

    Grouping is relative (|v1 - v2| <= group_tol * max(v1, v2)) and chains
    through adjacent values, so exact coincidences (equal radii) merge
    robustly.  So do distinct eigenvalues closer than group_tol: they share
    one point, whose value is the smallest of them and whose witnesses need
    not show them all.  Each point carries its first witness_cap >= 0 modes
    in `mode_sort_key` order.

    Witnesses are found by index arithmetic on the sorted classes, which
    skips the classes of a point past its cap, and made in batches.  The
    J/kind check of `EigenMode` runs once per factor label, when the label
    is made, instead of once per mode; the public constructor still checks
    each mode it is given.
    """
    if not (group_tol > 0.0):
        raise InvalidArgumentError("group_tol must be positive")
    if witness_cap < 0:
        raise InvalidArgumentError(f"witness_cap must be >= 0, got {witness_cap}")
    if cache is None:
        cache = ZeroCache()
    table = _ClassTable(P, q, lambda_max, cache)
    if not len(table):
        return []
    starts, finite, infinite, family_bits = table.points(group_tol)
    witnesses, ends = table.expand(starts, witness_cap)
    return _batch(
        SpectralPoint,
        len(starts),
        table.value[starts].tolist(),
        finite.tolist(),
        infinite.tolist(),
        map(tuple, map(witnesses.__getitem__, map(slice, [0] + ends[:-1], ends))),
        map(_FAMILIES.__getitem__, family_bits.tolist()),
    )


def bottom(P: Polydisc, q: int, cache: ZeroCache) -> tuple[float, tuple[int, ...]]:
    """Closed-form bottom of the spectrum and its minimizing tuple J.

    bottom = (lambda_{0,1}^2 / 4) * min over |J| = q of sum_{k in J} a_k^-2,
    always attained by an infinite family (Dirichlet ground factors on J,
    holomorphic factors elsewhere).  J is the q largest radii, read off one
    stable sort of the terms a_k^-2 in O(n log n) with no tuple search; equal
    terms go to the lower index, so J is the lexicographically first
    minimizer.  The value sums J's terms in index order.
    """
    _validate_q(P, q)
    z01 = cache.zero(0, 1)
    terms = [1.0 / a**2 for a in P.radii]
    J = sorted(sorted(range(P.n), key=terms.__getitem__)[:q])
    return 0.25 * z01 * z01 * sum(terms[k] for k in J), tuple(k + 1 for k in J)


def counting(
    P: Polydisc, q: int, lambda_max: float, cache: ZeroCache
) -> tuple[int, list[float]]:
    """Finite-multiplicity count below the cutoff plus essential values.

    Raw counting with multiplicity is infinite as soon as lambda_max reaches
    the bottom (infinite families), so the summary is the pair
    (sum of finite multiplicities, values flagged infinite), grouped as
    `assemble_spectrum` groups them by default.
    """
    table = _ClassTable(P, q, lambda_max, cache)
    if not len(table):
        return 0, []
    starts, finite, infinite, _ = table.points(_GROUP_TOL)
    return int(finite.sum()), table.value[starts[infinite]].tolist()
