"""Acceptance gate: one test per criterion, stated tolerances, timed budgets.

Criteria 1, 2 and 4-7 run the checks of `polyspec.selfcheck` that
`polyspec verify` runs, on the full workloads given here (seeds, sample
counts, orders, radii, cutoffs); each passes when every result it got
passed.  Criteria 3 and 8 have no verify counterpart.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Budgets are wall-clock for the criterion's own work (the
session-scoped zero cache may already be warm from other tests; each
criterion stays within budget from a cold cache as well).
"""

import math
import time

import numpy as np
import pytest

from polyspec import (
    Expansion,
    Polydisc,
    apply_box,
    apply_inverse,
    bessel_j,
    enumerate_modes,
    expand,
    mode_descriptor,
    quad_inner_product,
    selfcheck,
)


class _Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"{self.name}: PASS ({elapsed:.2f}s < {self.seconds:.0f}s)")
            assert elapsed < self.seconds, f"{self.name} exceeded budget: {elapsed:.2f}s"
        else:
            print(f"{self.name}: FAIL after {elapsed:.2f}s")
        return False


def _assert_passed(check, rng, cache, **workload):
    results = selfcheck.run_checks(rng, cache, [(check, workload)])
    failed = [f"{r.name}: {r.detail}" for r in results if not r.passed]
    assert not failed, "; ".join(failed)


def test_criterion_1_zero_certification(cache):
    with _Budget("criterion 1 (zero certification)", 5.0):
        _assert_passed(selfcheck.check_zeros, None, cache, count=20, up_to=21)


def test_criterion_2_special_function_identities(cache):
    with _Budget("criterion 2 (special-function identities)", 10.0):
        rng = np.random.default_rng(101)
        workload = dict(samples=100, zs=(1.0, 5.0, 10.0), points=16, integral_samples=25)
        _assert_passed(selfcheck.check_identities, rng, cache, **workload)


def test_criterion_3_orthogonality(cache):
    with _Budget("criterion 3 (orthogonality)", 5.0):
        for m in range(0, 6):
            for j in range(1, 6):
                for k in range(j, 6):
                    val = quad_inner_product(m, j, k, cache)
                    if j != k:
                        assert abs(val) < 1e-10
                    else:
                        closed = 0.5 * bessel_j(m + 1, cache.zero(m, j)) ** 2
                        assert abs(val - closed) < 1e-8


def test_criterion_4_fd_oracle_agreement(cache):
    with _Budget("criterion 4 (FD oracle agreement)", 60.0):
        grids = (500, 1000, 2000, 4000)
        workload = dict(orders=(-2, -1, 0, 1, 2), count=3, grid_sizes=grids, richardson_tol=1e-6)
        _assert_passed(selfcheck.check_fd_convergence, None, cache, **workload)


def test_criterion_5_spectrum_oracle_equivalence(cache):
    with _Budget("criterion 5 (spectrum oracle equivalence)", 30.0):
        radii_sets = ((1.0, 1.0), (1.0, math.sqrt(2.0)), (1.0, 2.0, 3.0))
        workload = dict(radii_sets=radii_sets, lam_max=30.0)
        _assert_passed(selfcheck.check_enumeration_oracle, None, cache, **workload)


def test_criterion_6_closed_form_bottom(cache):
    with _Budget("criterion 6 (closed-form bottom)", 30.0):
        rng = np.random.default_rng(606)
        _assert_passed(selfcheck.check_closed_form_bottom, rng, cache, samples=50)


def test_criterion_7_eigenform_residuals(cache):
    with _Budget("criterion 7 (eigenform residuals)", 60.0):
        rng = np.random.default_rng(707)
        workload = dict(lam_max=30.0, interior=50, boundary=20)
        _assert_passed(selfcheck.check_eigenform_residuals, rng, cache, **workload)


def test_criterion_8_spectral_calculus(cache):
    with _Budget("criterion 8 (spectral calculus)", 30.0):
        P = Polydisc((1.0, 1.0))
        basis = [m for m in enumerate_modes(P, 1, 8.0, cache) if m.J == (1,)]
        osc = [m for m in basis if not m.has_holomorphic]
        chosen = [(basis[0], 1.25), (osc[0], -0.75j), (osc[1], 0.5 + 0.5j)]

        def f(z1, z2):
            r1, t1 = np.abs(z1), np.angle(z1)
            r2, t2 = np.abs(z2), np.angle(z2)
            total = np.zeros(np.broadcast(z1, z2).shape, dtype=complex)
            for mode, w in chosen:
                part = np.ones_like(total)
                for f_k, (r, t) in zip(mode.factors, ((r1, t1), (r2, t2))):
                    m = f_k.angular_order
                    if f_k.lambda_k == 0.0:
                        radial = r**m if m else np.ones_like(r)
                    else:
                        s = math.sqrt(f_k.lambda_k)
                        order = abs(m) if (f_k.kind.value == "dirichlet") else m
                        radial = np.vectorize(lambda rr: bessel_j(order, rr))(s * r)
                    part = part * radial * np.exp(1j * m * t)
                total = total + w * part
            return total

        x = expand(f, P, 1, (1,), 8.0, cache, p_max=6)
        got = {mode_descriptor(m): c for m, c in x.terms}
        for mode, w in chosen:
            assert abs(got[mode_descriptor(mode)] - w) < 1e-7
        leftovers = [
            abs(c)
            for m, c in x.terms
            if mode_descriptor(m) not in {mode_descriptor(mm) for mm, _ in chosen}
        ]
        assert max(leftovers) < 1e-7

        back = apply_box(apply_inverse(x))
        for (m1, c1), (m2, c2) in zip(x.terms, back.terms):
            assert mode_descriptor(m1) == mode_descriptor(m2)
            assert abs(c1 - c2) < 1e-7

        # single-mode inverse scales by the closed-form eigenvalue
        lam = (cache.zero(0, 1) ** 2 + 0.0) / 4.0
        single = Expansion((1,), ((basis[0], 1.0 + 0.0j),), 8.0)
        inv = apply_inverse(single)
        assert inv.terms[0][1] == pytest.approx(1.0 / lam, rel=1e-12)
        assert basis[0].value == pytest.approx(lam, rel=1e-14)
