"""The polydisc, its admissible radii and the closed-form bottom.

Everything here is plain Python on top of `zeros`, with no numpy, so that
`polyspec bottom` and the domain checks load only what they use.
`spectrum` re-exports `Polydisc` and `bottom`.

A radius is admissible when every closed form the package builds from it
is a finite normal double: a^2, a^-2, and (lambda_{nu,j} / a)^2 for every
zero of the window, pi/2 < lambda_{nu,j} <= MAX_ARGUMENT.  On
[2^-500, 2^500] all of them lie between 2^-1000 and 2^1000 times a factor
below 2.5e5, so that range is admitted and a radius outside it is refused
with UnsupportedRangeError.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import InvalidArgumentError, UnsupportedRangeError
from .zeros import ZeroCache

__all__ = ["MIN_RADIUS", "MAX_RADIUS", "Polydisc", "bottom", "check_radius"]

MIN_RADIUS = 2.0**-500
MAX_RADIUS = 2.0**500


def check_radius(a) -> float:
    """a as a float, refused unless it is an admissible radius."""
    if not isinstance(a, numbers.Real):
        raise InvalidArgumentError(f"radius must be a real number, got {a!r}")
    if not (0 < a < math.inf):  # NaN fails too; an int past the double range passes
        raise InvalidArgumentError(f"radius must be positive and finite, got {a!r}")
    try:  # compared as a double: a float32 cannot hold the bounds
        x = float(a)
    except OverflowError:  # an int or Fraction past the double range
        x = math.inf
    if not (MIN_RADIUS <= x <= MAX_RADIUS):
        raise UnsupportedRangeError(
            f"radius {a!r} outside the admissible range [2**-500, 2**500] "
            f"(about [{MIN_RADIUS:.4g}, {MAX_RADIUS:.4g}]), where a**2, a**-2 and "
            f"every (lambda/a)**2 of the zero window are normal doubles"
        )
    return x


@dataclass(frozen=True)
class Polydisc:
    """The polydisc P(a_1, ..., a_n) = {|z_k| < a_k}, n >= 2, admissible radii."""

    radii: tuple[float, ...]

    def __init__(self, radii) -> None:
        try:
            radii = tuple(radii)
        except TypeError:
            raise InvalidArgumentError(f"radii must be a sequence, got {radii!r}") from None
        if len(radii) < 2:
            raise InvalidArgumentError("a polydisc needs at least two radii")
        object.__setattr__(self, "radii", tuple(map(check_radius, radii)))

    @property
    def n(self) -> int:
        return len(self.radii)


def _validate_q(n: int, q: int, lambda_max: float = 0.0) -> int:
    """q as an int, after the checks on q and lambda_max."""
    if not isinstance(q, numbers.Integral):
        raise InvalidArgumentError(f"q must be an integer, got {q!r}")
    if not (1 <= q <= n - 1):
        raise InvalidArgumentError(f"q = {q!r} out of range: need 1 <= q <= n - 1 = {n - 1}")
    if not isinstance(lambda_max, numbers.Real):
        raise InvalidArgumentError(f"lambda_max must be a real number, got {lambda_max!r}")
    if not (-math.inf < lambda_max < math.inf):
        raise InvalidArgumentError("lambda_max must be finite")
    try:
        budget = 4.0 * lambda_max  # the factor tables' budget
    except OverflowError:  # an int past the double range
        budget = math.inf
    if not math.isfinite(budget):
        raise UnsupportedRangeError(f"lambda_max = {lambda_max!r} is beyond the zero window")
    return int(q)


def bottom(P: Polydisc, q: int, cache: ZeroCache) -> tuple[float, tuple[int, ...]]:
    """Closed-form bottom of the spectrum and its minimizing tuple J.

    bottom = (lambda_{0,1}^2 / 4) * min over |J| = q of sum_{k in J} a_k^-2,
    always attained by an infinite family (Dirichlet ground factors on J,
    holomorphic factors elsewhere).  J is the q largest radii, read off one
    stable sort of the terms a_k^-2 in O(n log n) with no tuple search; equal
    terms go to the lower index, so J is the lexicographically first
    minimizer.  The value sums J's terms in index order.
    """
    q = _validate_q(P.n, q)
    z01 = cache.zero(0, 1)
    terms = [1.0 / a**2 for a in P.radii]
    J = sorted(sorted(range(P.n), key=terms.__getitem__)[:q])
    return 0.25 * z01 * z01 * sum(terms[k] for k in J), tuple(k + 1 for k in J)
