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
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .disc_modes import (
    FactorKind,
    ModeFactor,
    dirichlet_factors,
    holomorphic_factor,
    neumann_factors,
)
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
        jset = set(self.J)
        for k, f in enumerate(self.factors, start=1):
            if k in jset and f.kind is not FactorKind.DIRICHLET:
                raise InvalidArgumentError(f"variable {k} in J must carry a Dirichlet factor")
            if k not in jset and f.kind is FactorKind.DIRICHLET:
                raise InvalidArgumentError(f"variable {k} not in J cannot be Dirichlet")

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


def enumerate_modes(
    P: Polydisc, q: int, lambda_max: float, cache: ZeroCache
) -> list[EigenMode]:
    """Every eigenmode with eigenvalue <= lambda_max, sorted, no duplicates.

    Holomorphic factors appear once with exponent 0 (the whole family shares
    the eigenvalue).  Enumeration walks per-variable factor lists sorted by
    eigenvalue with prefix-sum pruning against 4 * lambda_max; completeness
    of each list follows from the strict growth of lambda_{m,1} in m.
    """
    _validate_q(P, q)
    if not math.isfinite(lambda_max):
        raise InvalidArgumentError("lambda_max must be finite")
    modes: list[EigenMode] = []
    if lambda_max <= 0.0:
        return modes
    budget = 4.0 * lambda_max
    slack = _PRUNE_SLACK * max(1.0, budget)
    dmin = [(cache.zero(0, 1) / a) ** 2 for a in P.radii]
    # One Dirichlet and one complement list per disc, cut where the q - 1
    # partners of disc k sit at their smallest ground values: the most room
    # any J leaves it.  The walk's prune cuts each list where a J leaves less.
    dirichlet: list[list[ModeFactor]] = []
    complement: list[list[ModeFactor]] = []
    for k, a in enumerate(P.radii):
        partners = sorted(dmin[:k] + dmin[k + 1 :])[: q - 1]
        cap = budget - sum(partners) + slack  # final exact test filters
        dirichlet.append(dirichlet_factors(a, cap, cache))
        complement.append([holomorphic_factor(0, a)] + neumann_factors(a, cap, cache))

    for J in itertools.combinations(range(1, P.n + 1), q):
        lists = [dirichlet[k] if k + 1 in J else complement[k] for k in range(P.n)]
        if not all(lists):
            continue
        suffix_min = [0.0] * (P.n + 1)
        for i in range(P.n - 1, -1, -1):
            suffix_min[i] = suffix_min[i + 1] + lists[i][0].lambda_k

        chosen: list[ModeFactor] = []

        def walk(i: int, partial: float) -> None:
            if i == P.n:
                value = partial / 4.0
                if value <= lambda_max:
                    modes.append(EigenMode(J, tuple(chosen), value))
                return
            for f in lists[i]:
                s = partial + f.lambda_k
                if s + suffix_min[i + 1] > budget + slack:
                    break  # lists are ascending in lambda_k
                chosen.append(f)
                walk(i + 1, s)
                chosen.pop()

        walk(0, 0.0)

    modes.sort(key=mode_sort_key)
    return modes


def assemble_spectrum(
    P: Polydisc,
    q: int,
    lambda_max: float,
    group_tol: float = 1e-11,
    cache: ZeroCache | None = None,
    witness_cap: int = 8,
) -> list[SpectralPoint]:
    """Group enumerated modes into spectral points, ascending by value.

    Grouping is relative (|v1 - v2| <= group_tol * max(v1, v2)) and chains
    through adjacent values, so exact coincidences (equal radii) merge
    robustly while incommensurate near-degeneracies stay visible through
    the witness list.
    """
    if not (group_tol > 0.0):
        raise InvalidArgumentError("group_tol must be positive")
    if cache is None:
        cache = ZeroCache()
    modes = enumerate_modes(P, q, lambda_max, cache)
    points: list[SpectralPoint] = []
    i = 0
    while i < len(modes):
        group = [modes[i]]
        j = i + 1
        while j < len(modes):
            prev, cur = modes[j - 1].value, modes[j].value
            if cur - prev <= group_tol * max(cur, prev):
                group.append(modes[j])
                j += 1
            else:
                break
        holomorphic = [m.has_holomorphic for m in group]
        finite = holomorphic.count(False)
        infinite = any(holomorphic)
        families = tuple(sorted({m.family for m in group}))
        points.append(
            SpectralPoint(
                value=group[0].value,
                finite_multiplicity=finite,
                infinite=infinite,
                witnesses=tuple(group[:witness_cap]),
                families=families,
            )
        )
        i = j
    return points


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
    (sum of finite multiplicities, values flagged infinite).
    """
    points = assemble_spectrum(P, q, lambda_max, cache=cache)
    finite_count = sum(p.finite_multiplicity for p in points)
    essential = [p.value for p in points if p.infinite]
    return finite_count, essential
