"""Independent reference values for the benchmark's correctness checks.

Nothing here imports polyspec.  Bessel zeros come from
`scipy.special.jn_zeros`, Bessel values from `scipy.special.jv`, and mode
counts from numpy outer sums plus `searchsorted`, so a check built on these
cannot share a defect with the code it checks.

Per disc of radius a, the Dirichlet and the Neumann-positive eigenvalues form
the same multiset: (lambda_{nu,j} / a)^2 with weight 1 for nu = 0 and weight 2
for nu >= 1.  A mode for the q-tuple J takes one such eigenvalue per variable
(plus the zero eigenvalue of the holomorphic family off J), and its
eigenvalue is a quarter of the sum.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.special import jn_zeros, jv


def bessel_zeros(order: int, count: int) -> np.ndarray:
    """The first `count` positive zeros of J_order."""
    return np.asarray(jn_zeros(abs(order), count), dtype=float)


def zeros_below(nu: int, x_max: float) -> np.ndarray:
    """Every positive zero of J_nu that is <= x_max, ascending."""
    count = max(1, int((x_max - nu) / math.pi) + 3)
    z = bessel_zeros(nu, count)
    while z[-1] <= x_max:
        count *= 2
        z = bessel_zeros(nu, count)
    return z[z <= x_max]


def disc_table(a: float, bound: float) -> tuple[np.ndarray, np.ndarray]:
    """Sorted eigenvalues <= bound on the disc of radius a, and their weights."""
    vals: list[np.ndarray] = []
    wts: list[np.ndarray] = []
    x_max = a * math.sqrt(max(bound, 0.0)) * (1.0 + 1e-12)
    nu = 0
    while True:
        lam = (zeros_below(nu, x_max) / a) ** 2
        lam = lam[lam <= bound]
        if lam.size == 0:
            break
        vals.append(lam)
        wts.append(np.full(lam.size, 1 if nu == 0 else 2, dtype=np.int64))
        nu += 1
    if not vals:
        return np.zeros(0), np.zeros(0, dtype=np.int64)
    v = np.concatenate(vals)
    w = np.concatenate(wts)
    order = np.argsort(v, kind="stable")
    return v[order], w[order]


def _count_sums(tables: list[tuple[np.ndarray, np.ndarray]], bound: float) -> int:
    """Weighted number of tuples, one entry per table, whose sum is <= bound."""
    if any(v.size == 0 for v, _ in tables):
        return 0
    tables = sorted(tables, key=lambda t: t[0].size)
    rest_min = np.cumsum([t[0][0] for t in tables][::-1])[::-1]
    sums = np.zeros(1)
    weights = np.ones(1, dtype=np.int64)
    for i, (v, w) in enumerate(tables[:-1]):
        room = bound - rest_min[i + 1]
        v_ok = v[v <= room - sums.min()] if sums.size else v
        s = (sums[:, None] + v_ok[None, :]).ravel()
        ww = (weights[:, None] * w[None, : v_ok.size]).ravel()
        keep = s <= room
        sums, weights = s[keep], ww[keep]
        if sums.size == 0:
            return 0
    v, w = tables[-1]
    cum = np.concatenate([[0], np.cumsum(w)])
    idx = np.searchsorted(v, bound - sums, side="right")
    return int(np.sum(weights * cum[idx]))


class ModeCounter:
    """Exact mode counts on one polydisc, from per-disc tables built once."""

    def __init__(self, radii, q: int):
        self.radii = tuple(float(a) for a in radii)
        self.q = q
        self._bound = -1.0
        self._tables: list[tuple[np.ndarray, np.ndarray]] = []

    def _tables_below(self, bound: float) -> list[tuple[np.ndarray, np.ndarray]]:
        if bound > self._bound:
            self._bound = 2.0 * bound
            self._tables = [disc_table(a, self._bound) for a in self.radii]
        out = []
        for v, w in self._tables:
            k = int(np.searchsorted(v, bound, side="right"))
            out.append((v[:k], w[:k]))
        return out

    def counts(self, lam: float) -> tuple[int, int]:
        """(all modes, modes with no holomorphic factor) with eigenvalue <= lam.

        Holomorphic families count once each, as polyspec emits them with the
        canonical exponent 0.
        """
        bound = 4.0 * lam
        tables = self._tables_below(bound)
        zero_v, zero_w = np.zeros(1), np.ones(1, dtype=np.int64)
        n = len(self.radii)
        total = finite = 0
        for J in itertools.combinations(range(n), self.q):
            finite += _count_sums(tables, bound)
            with_holo = [
                tables[k]
                if k in J
                else (np.concatenate([zero_v, tables[k][0]]), np.concatenate([zero_w, tables[k][1]]))
                for k in range(n)
            ]
            total += _count_sums(with_holo, bound)
        return total, finite

    def cutoff_for(self, target: int) -> float:
        """A cutoff whose total mode count is within a few per cent of `target`.

        Brackets the target by growing the cutoff, then narrows the bracket
        by false position on log(count) against log(cutoff).  The count is a
        step function, so the result is only as close as its jumps allow.
        """
        goal = math.log(target)

        def f(x):
            return math.log(max(self.counts(math.exp(x))[0], 1)) - goal

        lo = math.log(bottom_value(self.radii, self.q))
        f_lo = f(lo)
        hi = lo + 0.5
        f_hi = f(hi)
        while f_hi < 0.0:
            lo, f_lo = hi, f_hi
            hi += 0.5
            f_hi = f(hi)
        x, fx = hi, f_hi
        for _ in range(30):
            if abs(fx) < 0.03:
                break
            x = hi - f_hi * (hi - lo) / (f_hi - f_lo) if f_hi != f_lo else 0.5 * (lo + hi)
            x = min(max(x, lo + 0.05 * (hi - lo)), hi - 0.05 * (hi - lo))
            fx = f(x)
            if fx < 0.0:
                lo, f_lo = x, fx
            else:
                hi, f_hi = x, fx
        return math.exp(x)


def mode_counts(radii, q: int, lam: float) -> tuple[int, int]:
    """(all modes, modes with no holomorphic factor) with eigenvalue <= lam."""
    return ModeCounter(radii, q).counts(lam)


def bottom_value(radii, q: int) -> float:
    """Closed-form bottom (lambda_{0,1}^2 / 4) * min over |J| = q of sum a_k^-2."""
    z01 = float(bessel_zeros(0, 1)[0])
    inv = sorted(1.0 / a**2 for a in radii)
    return 0.25 * z01 * z01 * sum(inv[:q])


# -- eigenmodes on the sampling grid -----------------------------------------

def factor_eigenvalue(kind: str, m: int, j: int | None, a: float) -> float:
    """Eigenvalue of one separated factor, in the vocabulary of mode descriptors."""
    if kind == "holomorphic":
        return 0.0
    nu = abs(m) if kind == "dirichlet" else abs(m + 1)
    return float((bessel_zeros(nu, j)[-1] / a) ** 2)


def factor_values(kind: str, m: int, j: int | None, a: float, z: np.ndarray) -> np.ndarray:
    """Factor value at complex points z: Bessel profile times e^{i m t}, or z^p."""
    if kind == "holomorphic":
        return z**m
    s = math.sqrt(factor_eigenvalue(kind, m, j, a))
    r = np.abs(z)
    order = abs(m) if kind == "dirichlet" else m
    return jv(order, s * r) * np.exp(1j * m * np.angle(z))
