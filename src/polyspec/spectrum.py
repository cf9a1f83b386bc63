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

Enumeration works on radial classes, not modes.  A holomorphic factor
adds exactly 0.0 to a value, and both oscillatory kinds of a disc read one
zero table (lambda_{nu,j} / a)^2 with the same weights, so no value depends
on J.  The class walk (`_ClassTable`) reads one `disc_modes.FactorTable`
per variable and nothing else of the discs: a class is a set S of at least
q variables plus one table row each, the other variables holomorphic.  One
walk forms each set's pruned sums once, then divides by 4, so every value
has the bits of the mode-by-mode sum.  Classes sorted by value form points
by exact key; a class is infinite iff |S| < n, and point counts come from
the class weights.

Modes are index arrays until an object is asked for: numpy finds each
mode's J rank and factor label ids by index arithmetic on the class
weights, and `_ClassTable.expand` yields them one chunk of whole blocks at
a time.  `assemble_spectrum` and `enumerate_modes` make `EigenMode` objects
from the chunks in C-level batches, with no Python frame per mode, and
each label is made and kind-checked once; the CLI writes text from the
same chunks and makes no object.  Every mode list is in `mode_sort_key`
order.

`Polydisc` and the closed-form `bottom` live in the numpy-free `polydisc`
module and are re-exported here.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import itertools
import math
import numbers
from collections.abc import Iterator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .disc_modes import FactorKind, FactorTable, ModeFactor, disc_table
from .errors import InvalidArgumentError
from .polydisc import Polydisc, _validate_q, bottom
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


@dataclass(frozen=True, slots=True)
class EigenMode:
    """One eigenmode: the q-tuple J (1-based) plus one factor per variable."""

    J: tuple[int, ...]
    factors: tuple[ModeFactor, ...]
    value: float  # (1/4) sum of factor eigenvalues, fixed arithmetic path

    def __post_init__(self) -> None:
        J, n = self.J, len(self.factors)
        if not isinstance(J, tuple) or not all(
            isinstance(k, int) and 1 <= k < l for k, l in zip(J, J[1:] + (n + 1,))
        ):
            raise InvalidArgumentError(f"J = {J!r} is not a strictly increasing tuple in 1..{n}")
        if not math.isfinite(self.value):
            raise InvalidArgumentError(f"mode value must be finite, got {self.value!r}")
        for k, f in enumerate(self.factors, start=1):
            _check_kind(k, k in J, f)

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


class _Labels(NamedTuple):
    """A class table's factor labels, by id.  Variable k lays its table out
    as the slots of `FactorTable.labels`, [holomorphic, rows in J, rows off
    J]: slot 1 + r holds the labels of row r in J and slot 1 + size[k] + r
    those off J.  Sign s (0 for the lower angular order) of slot x has id
    offset[k] + 2 x + s, so id // 2 numbers the slots of all variables; a
    slot that is not paired has one label, sign 0."""

    offset: np.ndarray
    size: np.ndarray  # rows of each variable's table
    rank: np.ndarray  # place in factor-key order among the labels
    factor: np.ndarray  # object: the ModeFactor; None past a slot's labels


class _Chunk(NamedTuple):
    """Consecutive modes of `_ClassTable.expand`, as index arrays.  Block b
    (a run of classes with equal value bits) gives take[b] modes of value
    value[b]; mode i takes the J of rank J[i] in `_ClassTable.J_list`, and
    the label ids[k, i] (see `_Labels`) on variable k + 1."""

    value: np.ndarray
    take: np.ndarray
    J: np.ndarray
    ids: np.ndarray


class _ClassTable:
    """Classes below the cutoff, sorted by value, from one table per variable.

    A class is a set S of at least q variables plus one row of each of their
    tables; the other variables are holomorphic slots.  Its modes take J
    among the q-subsets of S, with the rows' labels in J on J and those off
    J on the rest of S, and share the value bits, so it stands for
    C(|S|, q) times 2 modes per paired row.  A table's first row is its
    ground value; variables that share one table object form one group of
    the class key.
    """

    def __init__(self, tables: list[FactorTable], q: int, lambda_max: float) -> None:
        n = len(tables)
        self.q = q = _validate_q(n, q, lambda_max)
        self.tables = tables
        budget = 4.0 * lambda_max
        bound = budget + _PRUNE_SLACK * max(1.0, budget)
        ground = [float(t.lam[0]) if len(t.lam) else math.inf for t in tables]
        # reserve[k][r]: the least ground-state sum of r variables after k + 1
        reserve = [
            [sum(sorted(ground[k + 1 :])[:r]) if r < n - k else math.inf for r in range(q + 1)]
            for k in range(n)
        ]
        # The value of a mode is ((lambda_1 + lambda_2) + ...) / 4, summed left
        # to right in variable order, and a holomorphic slot adds exactly 0.0.
        # So one walk over the variables forms every set's sums: each variable
        # joins every live set S, extending its sums by the table's rows, or is
        # a holomorphic slot of S.  A join keeps a sum if the reserve of the
        # variables S still needs fits beside it (a prefix of the ascending rows
        # per sum).  A set carries its least sum, so a join that cannot fit is free.
        sets = [((), 0.0, np.zeros(1), np.zeros((n, 1), dtype=np.int64))]  # S, least sum, sums, rows
        # done starts with a set of no sums, so the arrays below exist when no class fits
        done = [((), 0.0, np.zeros(0), np.zeros((n, 0), dtype=np.int64))]
        for k, (t, low, room) in enumerate(zip(tables, ground, reserve), start=1):
            grown = []
            for S, least, sums, rows in sets:
                R = room[max(q - len(S) - 1, 0)]
                if least + low + R <= bound:
                    lam = t.lam[: np.count_nonzero(least + t.lam + R <= bound)]
                    s = sums[:, None] + lam[None, :]
                    prev, row = np.nonzero(s + R <= bound)
                    joined = rows[:, prev]
                    joined[k - 1] = row + 1
                    grown.append((S + (k,), least + low, s[prev, row], joined))
                grown.append((S, least, sums, rows))
            # a set no later variable can join is done if it holds q variables
            live = [least + room[max(q - len(S), 1)] <= bound for S, least, *_ in grown]
            done += [g for g, ok in zip(grown, live) if not ok and len(g[0]) >= q]
            sets = list(itertools.compress(grown, live))
        S_list, _, sums, rows = zip(*done)
        Js = [list(itertools.combinations(S, q)) for S in S_list]
        n_J, size = list(map(len, Js)), list(map(len, sums))
        self.Js = [J for set_Js in Js for J in set_Js]  # each set's J's in turn, ascending
        value = np.concatenate(sums) / 4.0
        rows = np.concatenate(rows, axis=1)  # 1 + table row; 0 holomorphic
        paired = np.array([np.append(False, t.paired)[r] for t, r in zip(tables, rows)])
        weight = np.repeat(n_J, size) << np.count_nonzero(paired, axis=0)
        J_first = np.repeat(np.cumsum(n_J) - n_J, size)  # where the set's J's start in Js
        keep = np.flatnonzero(value <= lambda_max)
        order = keep[np.argsort(value[keep], kind="stable")]
        self.value, self.rows, self.paired = value[order], rows[:, order], paired[:, order]
        self.weight, self.J_first = weight[order], J_first[order]
        # per entry of Js: its rank in the ascending J_list, and which variables it holds
        self.J_list = sorted(set(self.Js))
        rank = {J: r for r, J in enumerate(self.J_list)}
        self.J_rank = np.array([rank[J] for J in self.Js], dtype=np.int64)
        self.J_member = (np.array(self.Js)[None] == np.arange(1, n + 1)[:, None, None]).any(axis=2)

    def __len__(self) -> int:
        return len(self.value)

    def points(self) -> tuple[np.ndarray, ...]:
        """Group the classes into points: start index, finite multiplicity,
        infinite flag and family bits (1 mixed, 2 pure-holomorphic,
        4 pure-neumann) per point.

        A point is a run of classes with one key, `rows` sorted within each
        group of variables that share one table, which names the rows a
        value sums.  Without shared tables each class is its own point,
        even where two values round to the same double; with them one key
        may sum its rows in several orders, whose values differ in the last
        bits.  A class is infinite iff |S| < n, pure-neumann at |S| = n and
        pure-holomorphic at |S| = q.
        """
        _, tie = np.unique([id(t) for t in self.tables], return_inverse=True)
        key = np.concatenate([np.sort(self.rows[tie == t], axis=0) for t in range(tie.max() + 1)])
        split = (key[:, 1:] != key[:, :-1]).any(axis=0)
        starts = np.flatnonzero(np.concatenate(([True], split)))
        size = np.count_nonzero(self.rows, axis=0)
        infinite = size < len(self.tables)
        finite = np.add.reduceat(np.where(infinite, 0, self.weight), starts)
        family = np.where(size == self.q, 2, np.where(infinite, 1, 4))
        flag = np.logical_or.reduceat(infinite, starts)
        return starts, finite, flag, np.bitwise_or.reduceat(family, starts)

    def expand(self, starts, cap: int) -> tuple[np.ndarray, Iterator[_Chunk]]:
        """The first `cap` modes of each run of classes, as index arrays.

        A run goes from one entry of `starts` (ascending, from 0) to the
        next, and its modes come in `mode_sort_key` order.  Returns the end
        of each run's modes in the modes of all chunks, and an iterator over
        the chunks: whole blocks, at most `_CHUNK` candidates each unless
        one block has more, made one at a time as they are asked for.
        """
        cap = min(cap, int(self.weight.sum()))
        if cap <= 0:
            return np.zeros(len(starts), dtype=np.int64), iter(())
        n_classes = len(self)
        v = self.value
        # a block is a run of classes with equal value bits
        head = np.ones(n_classes, dtype=bool)
        head[1:] = v[1:] != v[:-1]
        head[starts] = True
        block = np.flatnonzero(head)
        length = np.diff(np.append(block, n_classes))
        size = np.add.reduceat(self.weight, block)
        done = np.cumsum(size) - size  # modes before each block
        first = np.searchsorted(block, starts)  # the first block of each run
        before = done - np.repeat(done[first], np.diff(np.append(first, len(block))))
        take = np.clip(cap - before, 0, size)
        ends = np.cumsum(np.add.reduceat(take, first))
        kept = take > 0
        cls = np.flatnonzero(np.repeat(kept, length))
        block, length, take = block[kept], length[kept], take[kept]
        # each class gives at most its block's take to the block's first modes
        count = np.minimum(self.weight[cls], np.repeat(take, length))
        if (length > 1).any():
            # A class gives its modes J by J, `unit` per J.  In a block of
            # several classes, pair each class with the J's it has candidates
            # on: a J with take modes of the block on lower J's is past the
            # cut, and so are the class's later J's.
            unit = 1 << np.count_nonzero(self.paired[:, cls], axis=0)
            n_J = np.where(np.repeat(length > 1, length), -(-count // unit), 0)
            pair = np.repeat(np.arange(len(cls)), n_J)
            t = np.arange(len(pair)) - np.repeat(np.cumsum(n_J) - n_J, n_J)
            owner, R = np.repeat(np.arange(len(block)), length)[pair], len(self.Js)
            key = owner * R + self.J_rank[self.J_first[cls[pair]] + t]  # (block, J) order
            o = np.argsort(key)
            pair, key = pair[o], key[o]
            run = np.cumsum(unit[pair]) - unit[pair]  # modes of the pairs before
            below = run[np.searchsorted(key, key)] - run[np.searchsorted(key, key // R * R)]
            reached = np.bincount(pair[below < take[key // R]], minlength=len(cls))
            count = np.where(n_J > 0, np.minimum(count, unit * reached), count)
        return ends, self._chunks(block, length, take, cls, count)

    def _chunks(self, block, length, take, cls, count) -> Iterator[_Chunk]:
        class_end = np.cumsum(length)
        cand = np.add.reduceat(count, class_end - length)  # candidates per block
        cand_end = np.cumsum(cand)
        lo = 0
        while lo < len(block):
            # whole blocks, at most _CHUNK candidates unless one block has more
            room = cand_end[lo] - cand[lo] + _CHUNK
            hi = max(lo + 1, int(np.searchsorted(cand_end, room, "right")))
            c = slice(class_end[lo] - length[lo], class_end[hi - 1])
            b = slice(lo, hi)
            J, ids = self._block_modes(block[b], length[b], take[b], cls[c], count[c])
            yield _Chunk(self.value[block[b]], take[b], J, ids)
            lo = hi

    def _block_modes(self, block, length, take, cls, count) -> tuple[np.ndarray, np.ndarray]:
        """The first take[b] modes, in (J, factor key) order, of each block b:
        the length[b] classes from class block[b], whose entries in `cls`
        give their first `count` modes as candidates.  Returns each mode's
        J rank and its label ids, as `_Chunk` holds them."""
        lab = self.labels
        x = self.rows[:, cls]
        base = lab.offset[:, None] + 2 * x  # each slot's holomorphic or Dirichlet label
        osc = self.paired[:, cls]
        # A class's local mode i takes J as the (i >> b)-th J of its set S,
        # where b counts its oscillatory slots, and the sign of each such slot
        # from one of the low b bits of i, the last slot's lowest: J first,
        # then itertools.product order of its slots' label tuples, each
        # ascending in angular order.
        shift = np.cumsum(osc[::-1], axis=0)[::-1] - osc
        each = np.repeat(np.arange(len(cls)), count)
        i = np.arange(len(each)) - np.repeat(np.cumsum(count) - count, count)
        J = self.J_first[cls][each] + (i >> (shift[0] + osc[0])[each])
        neumann = (x[:, each] > 0) & ~self.J_member[:, J]
        sign = (i >> shift[:, each]) & osc[:, each]
        ids = base[:, each] + 2 * lab.size[:, None] * neumann + sign
        cand = np.add.reduceat(count, np.cumsum(length) - length)
        if (length > 1).any():
            # several classes per block: sort each block by (J, factor key), cut it at take
            several = np.flatnonzero(np.repeat(length > 1, cand))
            owner = np.repeat(np.arange(len(cand)), cand)
            keys = (*lab.rank[ids[::-1, several]], self.J_rank[J[several]], owner[several])
            order = several[np.lexsort(keys)]
            ids[:, several], J[several] = ids[:, order], J[order]
            position = np.arange(len(owner)) - np.repeat(np.cumsum(cand) - cand, cand)
            cut = position < np.repeat(take, cand)
            ids, J = ids[:, cut], J[cut]
        return self.J_rank[J], ids

    def chunk_modes(self, chunk: _Chunk) -> list[EigenMode]:
        """The chunk's modes as `EigenMode` objects, made in C-level batches."""
        return _batch(
            EigenMode,
            len(chunk.J),
            map(self.J_list.__getitem__, chunk.J.tolist()),
            zip(*self.labels.factor[chunk.ids].tolist()),
            itertools.chain.from_iterable(
                map(itertools.repeat, chunk.value.tolist(), chunk.take.tolist())
            ),
        )

    def families(self, ids: np.ndarray) -> np.ndarray:
        """The family bits (1 mixed, 2 pure-holomorphic, 4 pure-neumann) of
        modes given by their label ids, one column per mode."""
        lab = self.labels
        slot = (ids - lab.offset[:, None]) >> 1
        holomorphic = (slot == 0).any(axis=0)
        neumann = (slot > lab.size[:, None]).any(axis=0)
        return np.where(neumann, np.where(holomorphic, 1, 4), np.where(holomorphic, 2, 1))

    def modes(self) -> list[EigenMode]:
        """Every mode of the table, in `mode_sort_key` order."""
        _, chunks = self.expand([0], int(self.weight.sum()))
        return list(itertools.chain.from_iterable(map(self.chunk_modes, chunks)))

    @functools.cached_property
    def labels(self) -> _Labels:
        """Every label of the tables, each checked once: a slot in J must
        hold Dirichlet factors, the holomorphic and off-J slots must not."""
        size = np.array([len(t.lam) for t in self.tables])
        offset = np.cumsum(4 * size + 2) - (4 * size + 2)
        factor = []
        for k, t, rows in zip(itertools.count(1), self.tables, size.tolist()):
            for x, got in enumerate(t.labels()):
                for f in got:
                    _check_kind(k, 1 <= x <= rows, f)
                factor += (*got, None)[:2]
        made = [i for i, f in enumerate(factor) if f is not None]
        rank = np.zeros(len(factor), dtype=np.int64)
        rank[sorted(made, key=lambda i: _factor_key(factor[i]))] = np.arange(len(made))
        return _Labels(offset, size, rank, np.array(factor, dtype=object))


def _class_table(P: Polydisc, q: int, lambda_max: float, cache: ZeroCache) -> _ClassTable:
    """The class table of P.  Disc k's `disc_table` is cut where the q - 1
    other discs sit at their ground values, the most room any S leaves it;
    the walk cuts it where an S leaves less.  Discs with equal radii have
    equal caps and share one table, so a row names the same zero on each."""
    q = _validate_q(P.n, q, lambda_max)
    budget = 4.0 * lambda_max
    slack = _PRUNE_SLACK * max(1.0, budget)
    dmin = [(cache.zero(0, 1) / a) ** 2 for a in P.radii]  # each table's first lam
    caps = [budget - sum(sorted(dmin[:k] + dmin[k + 1 :])[: q - 1]) + slack for k in range(P.n)]
    tables = {a: disc_table(a, cap, cache) for a, cap in dict(zip(P.radii, caps)).items()}
    return _ClassTable([tables[a] for a in P.radii], q, lambda_max)


def enumerate_modes(
    P: Polydisc, q: int, lambda_max: float, cache: ZeroCache
) -> list[EigenMode]:
    """Every eigenmode with eigenvalue <= lambda_max, sorted, no duplicates.

    Holomorphic factors appear once with exponent 0 (the whole family shares
    the eigenvalue).  The modes are the full expansion of the radial class
    table, in `mode_sort_key` order.
    """
    return _class_table(P, q, lambda_max, cache).modes()


def assemble_spectrum(
    P: Polydisc,
    q: int,
    lambda_max: float,
    *,
    cache: ZeroCache | None = None,
    witness_cap: int = 8,
) -> list[SpectralPoint]:
    """Group the modes into spectral points, ascending by value.

    A point is one exact class key (`_ClassTable.points`), with no
    tolerance; its value is the least of its modes' values.  Each point
    carries its first witness_cap >= 0 modes in `mode_sort_key` order.

    Witnesses are found by index arithmetic on the sorted classes, which
    skips the classes of a point past its cap, and made in batches.  The
    J/kind check of `EigenMode` runs once per factor label, when the label
    is made, instead of once per mode; the public constructor still checks
    each mode it is given.
    """
    if not isinstance(witness_cap, numbers.Integral) or witness_cap < 0:
        raise InvalidArgumentError(f"witness_cap must be an integer >= 0, got {witness_cap!r}")
    if cache is None:
        cache = ZeroCache()
    table = _class_table(P, q, lambda_max, cache)
    if not len(table):
        return []
    starts, finite, infinite, family_bits = table.points()
    ends, chunks = table.expand(starts, witness_cap)
    witnesses = list(itertools.chain.from_iterable(map(table.chunk_modes, chunks)))
    ends = ends.tolist()
    return _batch(
        SpectralPoint,
        len(starts),
        table.value[starts].tolist(),
        finite.tolist(),
        infinite.tolist(),
        map(tuple, map(witnesses.__getitem__, map(slice, [0] + ends[:-1], ends))),
        map(_FAMILIES.__getitem__, family_bits.tolist()),
    )


def counting(
    P: Polydisc, q: int, lambda_max: float, cache: ZeroCache
) -> tuple[int, list[float]]:
    """Finite-multiplicity count below the cutoff plus essential values.

    Raw counting with multiplicity is infinite as soon as lambda_max reaches
    the bottom (infinite families), so the summary is the pair
    (sum of finite multiplicities, values flagged infinite), one value per
    point of `assemble_spectrum`.
    """
    table = _class_table(P, q, lambda_max, cache)
    if not len(table):
        return 0, []
    starts, finite, infinite, _ = table.points()
    return int(finite.sum()), table.value[starts[infinite]].tolist()
