"""Gauss-Legendre rules and the node-count check, shared by the expansions
(`spectral_ops`) and the quadrature oracles (`verify`) without either
importing the other."""

from __future__ import annotations

import functools
import numbers

import numpy as np

from .errors import InvalidArgumentError


@functools.lru_cache(maxsize=16)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per n.

    The arrays are shared between callers, hence read-only.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _check_count(what: str, n, least: int) -> None:
    """Refuse a quadrature node count that is not an integer >= least."""
    if not isinstance(n, numbers.Integral) or n < least:
        raise InvalidArgumentError(
            f"{what} quadrature node count must be an integer >= {least}, got {n!r}"
        )
