"""Per-variable separated modes: factor lists, Robin residuals, profiles."""

import math
import sys
import warnings

import numpy as np
import pytest

from polyspec import (
    BoundaryCondition,
    FactorKind,
    FdConfig,
    InternalConsistencyError,
    InvalidArgumentError,
    MAX_ARGUMENT,
    ModeFactor,
    UnsupportedRangeError,
    dirichlet_factor,
    dirichlet_factors,
    fd_radial_eigs,
    holomorphic_factor,
    neumann_factor,
    neumann_factors,
    radial_profile,
    robin_residual,
)
from polyspec.disc_modes import disc_table, row_factors, zero_table

LAM01_SQ = 5.783185962946785
LAM11_SQ = 14.681970642123893
J0_AT_LAM11 = -0.402759395702553  # oracle: J_0(lambda_{1,1})


def _key(f):
    return (f.kind.value, f.angular_order, f.radial_index)


def test_dirichlet_list_below_six(cache):
    facs = dirichlet_factors(1.0, 6.0, cache)
    assert [_key(f) for f in facs] == [("dirichlet", 0, 1)]
    assert facs[0].lambda_k == pytest.approx(LAM01_SQ, rel=1e-13)


def test_dirichlet_list_below_fifteen(cache):
    facs = dirichlet_factors(1.0, 15.0, cache)
    keys = {_key(f) for f in facs}
    assert keys == {("dirichlet", 0, 1), ("dirichlet", 1, 1), ("dirichlet", -1, 1)}
    for f in facs:
        if f.angular_order != 0:
            assert f.lambda_k == pytest.approx(14.681970642, abs=1e-8)


def test_radius_scaling_quarters_eigenvalues(cache):
    base = dirichlet_factors(1.0, 15.0, cache)
    scaled = dirichlet_factors(2.0, 15.0 / 4.0, cache)
    assert [_key(f) for f in scaled] == [_key(f) for f in base]
    for f, g in zip(base, scaled):
        assert g.lambda_k == pytest.approx(f.lambda_k / 4.0, rel=1e-14)


def test_plus_minus_orders_share_eigenvalue(cache):
    facs = dirichlet_factors(1.0, 40.0, cache)
    by_key = {_key(f): f.lambda_k for f in facs}
    for (kind, m, j), lam in by_key.items():
        if m > 0:
            assert by_key[(kind, -m, j)] == lam


def test_neumann_list_below_six(cache):
    facs = neumann_factors(1.0, 6.0, cache)
    assert [_key(f) for f in facs] == [("neumann", -1, 1)]
    assert facs[0].lambda_k == pytest.approx(LAM01_SQ, rel=1e-12)


def test_neumann_list_below_fifteen(cache):
    facs = neumann_factors(1.0, 15.0, cache)
    keys = [_key(f) for f in facs]
    assert keys[0] == ("neumann", -1, 1)
    assert set(keys[1:]) == {("neumann", 0, 1), ("neumann", -2, 1)}
    for f in facs[1:]:
        assert f.lambda_k == pytest.approx(14.681970642, abs=1e-8)


def test_robin_residual_vanishes_by_construction(cache):
    for f in neumann_factors(1.0, 40.0, cache) + neumann_factors(1.7, 25.0, cache):
        assert robin_residual(f) < 1e-10


def test_robin_residual_detects_perturbation(cache):
    f = neumann_factors(1.0, 6.0, cache)[0]
    bad = ModeFactor(f.kind, f.angular_order, f.radial_index, f.radius, f.lambda_k * 1.01)
    assert robin_residual(bad) > 1e-3


def test_robin_residual_is_scaled_bessel_at_zero(cache):
    # for m = 0 the condition reduces to J_1 vanishing at lambda_{1,1}
    f = neumann_factor(0, 1, 1.0, cache)
    assert f.lambda_k == pytest.approx(LAM11_SQ, abs=1e-9)
    assert robin_residual(f) < 1e-11
    with pytest.raises(InvalidArgumentError):
        robin_residual(dirichlet_factor(0, 1, 1.0, cache))


def test_radial_profiles(cache):
    d = dirichlet_factor(0, 1, 1.0, cache)
    assert abs(radial_profile(d, 1.0)) < 1e-12  # boundary zero
    h = holomorphic_factor(0, 1.0)
    assert radial_profile(h, 0.37) == 1.0
    h2 = holomorphic_factor(3, 2.0)
    assert radial_profile(h2, 0.5) == pytest.approx(0.125)
    n = neumann_factor(0, 1, 1.0, cache)
    assert radial_profile(n, 1.0) == pytest.approx(J0_AT_LAM11, abs=1e-10)
    with pytest.raises(InvalidArgumentError):
        radial_profile(d, 1.5)
    with pytest.raises(InvalidArgumentError):
        radial_profile(d, -0.1)
    with pytest.raises(InvalidArgumentError):
        radial_profile(d, 0.5 + 0j)
    # a float32 radius is widened before the product sqrt(lambda) r
    for f in (d, n, h2):
        got = radial_profile(f, np.float32(0.3))
        assert type(got) is float and got.hex() == radial_profile(f, float(np.float32(0.3))).hex()


def test_holomorphic_exponent_validation():
    with pytest.raises(InvalidArgumentError):
        holomorphic_factor(-1, 1.0)
    f = holomorphic_factor(2, 1.0)
    assert f.kind is FactorKind.HOLOMORPHIC and f.lambda_k == 0.0


def test_infinite_factor_eigenvalue_is_refused():
    with pytest.raises(InvalidArgumentError, match="finite"):
        ModeFactor(FactorKind.DIRICHLET, 0, 1, 1.0, math.inf)


def test_factor_lists_match_fd_oracle(cache):
    # the per-order eigenvalue ladders agree with the independent FD route
    a = 1.3
    for m in (-2, -1, 0, 1, 2):
        analytic = [(cache.zero(abs(m), j) / a) ** 2 for j in (1, 2, 3)]
        fd = fd_radial_eigs(FdConfig(2000, a, m, BoundaryCondition.DIRICHLET), 3)
        for got, want in zip(fd, analytic):
            assert got == pytest.approx(want, rel=5e-3)
        nu = abs(m + 1)
        analytic = [(cache.zero(nu, j) / a) ** 2 for j in (1, 2, 3)]
        fd = fd_radial_eigs(FdConfig(2000, a, m, BoundaryCondition.DBAR_NEUMANN), 4)
        positive = fd[1:] if m >= 0 else fd[:3]
        for got, want in zip(positive, analytic):
            assert got == pytest.approx(want, rel=5e-3)


@pytest.mark.parametrize(
    "a,lam", [(1.0, math.nan), (1.0, math.inf), (1.0, -math.inf), (math.inf, 5.0), (math.nan, 5.0)]
)
def test_non_finite_cutoffs_and_radii_are_refused(cache, a, lam):
    # a NaN cutoff used to give an empty table, an infinite radius a range error
    for table in (zero_table, disc_table, dirichlet_factors, neumann_factors):
        with pytest.raises(InvalidArgumentError, match="finite"):
            table(a, lam, cache)


@pytest.mark.parametrize("a", [1e-200, 1e200])
def test_radii_whose_eigenvalues_leave_the_normal_doubles_are_refused(cache, a):
    # 1e-200 overflowed (lambda/a)**2; at 1e200 it underflowed to 0.0 and was
    # refused as an oscillatory factor with lambda_k = 0
    with pytest.raises(UnsupportedRangeError, match="admissible range"):
        zero_table(a, 5.0, cache)
    for factor in (dirichlet_factor, neumann_factor):
        with pytest.raises(UnsupportedRangeError, match="admissible range"):
            factor(0, 1, a, cache)


def test_the_ends_of_the_admissible_range_give_normal_eigenvalues(cache):
    # the least eigenvalue at the largest radius, and a bound on the greatest
    # (a zero at the window's end) at the least radius
    lam = dirichlet_factor(0, 1, 2.0**500, cache).lambda_k
    assert sys.float_info.min <= lam < (MAX_ARGUMENT / 2.0**-500) ** 2 <= sys.float_info.max
    assert dirichlet_factor(0, 1, 2.0**-500, cache).lambda_k < sys.float_info.max


def test_factor_labels_carry_the_checked_radius(cache):
    # the labels carried the caller's np.float32, which the CLI's JSON
    # writer refuses, while their eigenvalues came from the checked float
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for factors in (dirichlet_factors, neumann_factors):
            got = factors(np.float32(1.0), 20.0, cache)
            assert got == factors(1.0, 20.0, cache)
            assert all(type(f.radius) is float for f in got)
        labels = disc_table(np.float32(1.0), 20.0, cache).labels()
        assert all(type(f.radius) is float for fs in labels for f in fs)


def test_zero_table_refuses_coinciding_zeros(cache):
    # on one disc no two zeros coincide (Bourget-Siegel); a cache that hands
    # the rows (1, 1) and (2, 1) the same zero is faulty
    class Coinciding:
        def zero(self, nu, j):
            return cache.zero(2, 1) if (nu, j) == (1, 1) else cache.zero(nu, j)

    lam, _, _ = zero_table(1.0, 30.0, cache)
    assert (lam[1:] > lam[:-1]).all()
    with pytest.raises(InternalConsistencyError, match="coincide"):
        zero_table(1.0, 30.0, Coinciding())
    with pytest.raises(InternalConsistencyError):
        dirichlet_factors(1.0, 30.0, Coinciding())


@pytest.mark.parametrize("a", [1.0, 1.7])
def test_row_factors_from_the_table_lam_equal_the_cached_factors(cache, a):
    lams, nus, js = zero_table(a, 200.0, cache)
    assert len(lams) > 20
    for lam, nu, j in zip(lams.tolist(), nus.tolist(), js.tolist()):
        orders = (-nu, nu) if nu else (0,)
        assert row_factors(FactorKind.DIRICHLET, nu, j, a, lam) == tuple(
            dirichlet_factor(m, j, a, cache) for m in orders
        )
        orders = (-nu - 1, nu - 1) if nu else (-1,)
        assert row_factors(FactorKind.NEUMANN_POSITIVE, nu, j, a, lam) == tuple(
            neumann_factor(m, j, a, cache) for m in orders
        )
    with pytest.raises(InvalidArgumentError):
        row_factors(FactorKind.HOLOMORPHIC, 0, 1, a, 0.0)


def test_disc_table_pairs_the_rows_with_two_labels_of_each_kind(cache):
    # the class walk's whole view of a disc: its column, pairing and labels
    a = 1.3
    lam, nu, j = zero_table(a, 60.0, cache)
    table = disc_table(a, 60.0, cache)
    assert table.lam.tobytes() == lam.tobytes()
    assert table.paired.tolist() == [v >= 1 for v in nu.tolist()]
    assert table.paired.any() and not table.paired.all()
    rows = list(zip(nu.tolist(), j.tolist()))
    in_J = [tuple(dirichlet_factor(m, k, a, cache) for m in ((-v, v) if v else (0,))) for v, k in rows]
    off_J = [tuple(neumann_factor(m, k, a, cache) for m in ((-v - 1, v - 1) if v else (-1,))) for v, k in rows]
    assert table.labels() == [(holomorphic_factor(0, a),)] + in_J + off_J
    assert dirichlet_factors(a, 60.0, cache) == [f for fs in in_J for f in fs]
    assert neumann_factors(a, 60.0, cache) == [f for fs in off_J for f in fs]
