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
come from the class weights.  `EigenMode` objects are made only where
modes are asked for: a point's witnesses, `enumerate_modes` and
`spectral_ops.expand_from_samples`.  Classes with equal value bits and
equal J interleave their modes by factor key, so every mode list is in
`mode_sort_key` order.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Iterator
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


@dataclass(frozen=True)
class EigenMode:
    """One eigenmode: the q-tuple J (1-based) plus one factor per variable."""

    J: tuple[int, ...]
    factors: tuple[ModeFactor, ...]
    value: float  # (1/4) sum of factor eigenvalues, fixed arithmetic path

    def __post_init__(self) -> None:
        for k, f in enumerate(self.factors, start=1):
            if (k in self.J) != (f.kind is FactorKind.DIRICHLET):
                raise InvalidArgumentError(
                    f"variable {k} in J must carry a Dirichlet factor"
                    if k in self.J
                    else f"variable {k} not in J cannot be Dirichlet"
                )

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


@dataclass(frozen=True)
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


def _factor_key(f: ModeFactor) -> tuple:
    return (f.kind.value, f.angular_order, f.radial_index or 0)


def mode_sort_key(mode: EigenMode) -> tuple:
    return (mode.value, mode.J, tuple(_factor_key(f) for f in mode.factors))


def mode_descriptor(mode: EigenMode) -> tuple:
    """Canonical hashable descriptor, shared vocabulary with the oracle."""
    return (
        mode.J,
        tuple((f.kind.value, f.angular_order, f.radial_index) for f in mode.factors),
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
        self._factors: dict[tuple[int, FactorKind, int], tuple[ModeFactor, ...]] = {}
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

    def modes(self, lo: int = 0, hi: int | None = None) -> Iterator[EigenMode]:
        """The modes of classes lo..hi-1 (default: all) in `mode_sort_key` order."""
        values, J_index, rows = self._lists
        hi = len(values) if hi is None else hi
        c = lo
        while c < hi:
            d = c + 1
            while d < hi and values[d] == values[c] and J_index[d] == J_index[c]:
                d += 1
            J = self.J_list[J_index[c]]
            block = (
                EigenMode(J, combo, values[c])
                for k in range(c, d)
                for combo in itertools.product(*self._labels(J, rows[k]))
            )
            if d - c > 1:
                # classes with equal value bits and J interleave by factor key
                block = sorted(block, key=mode_sort_key)
            yield from block
            c = d

    @functools.cached_property
    def _lists(self) -> tuple[list[float], list[int], list[list[int]]]:
        return self.value.tolist(), self.J_index.tolist(), self.rows.T.tolist()

    def _labels(self, J: tuple[int, ...], rows: list[int]) -> list[tuple[ModeFactor, ...]]:
        """Per variable, the factors of one class row, sorted by factor key."""
        out = []
        for k, row in enumerate(rows):
            kind = FactorKind.DIRICHLET if k + 1 in J else FactorKind.NEUMANN_POSITIVE
            key = (k, kind, row)
            got = self._factors.get(key)
            if got is None:
                t = self._list(J, k)
                nu, j = int(t.nu[row]), int(t.j[row])
                a = self.radii[k]
                if nu < 0:
                    got = (holomorphic_factor(0, a),)
                else:
                    got = row_factors(kind, nu, j, a, self.cache)
                self._factors[key] = got
            out.append(got)
        return out


def enumerate_modes(
    P: Polydisc, q: int, lambda_max: float, cache: ZeroCache
) -> list[EigenMode]:
    """Every eigenmode with eigenvalue <= lambda_max, sorted, no duplicates.

    Holomorphic factors appear once with exponent 0 (the whole family shares
    the eigenvalue).  The modes are the full expansion of the radial class
    table, in `mode_sort_key` order.
    """
    return list(_ClassTable(P, q, lambda_max, cache).modes())


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
    ends = np.append(starts[1:], len(table))
    return [
        SpectralPoint(
            value=value,
            finite_multiplicity=count,
            infinite=inf,
            witnesses=tuple(itertools.islice(table.modes(lo, hi), witness_cap)),
            families=_FAMILIES[bits],
        )
        for value, count, inf, bits, lo, hi in zip(
            table.value[starts].tolist(),
            finite.tolist(),
            infinite.tolist(),
            family_bits.tolist(),
            starts.tolist(),
            ends.tolist(),
        )
    ]


def bottom(P: Polydisc, q: int, cache: ZeroCache) -> tuple[float, tuple[int, ...]]:
    """Closed-form bottom of the spectrum and its minimizing tuple J.

    bottom = (lambda_{0,1}^2 / 4) * min over |J| = q of sum_{k in J} a_k^-2,
    always attained by an infinite family (Dirichlet ground factors on J,
    holomorphic factors elsewhere).  Ties break lexicographically.
    """
    _validate_q(P, q)
    z01 = cache.zero(0, 1)
    best_sum = math.inf
    best_J: tuple[int, ...] | None = None
    for J in itertools.combinations(range(1, P.n + 1), q):
        s = sum(1.0 / P.radii[k - 1] ** 2 for k in J)
        if s < best_sum:
            best_sum = s
            best_J = J
    assert best_J is not None
    return 0.25 * z01 * z01 * best_sum, best_J


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
