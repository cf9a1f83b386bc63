"""Independent oracles: FD eigenvalues, quadrature orthogonality, brute force."""

import math

import numpy as np
import pytest

from polyspec import (
    BoundaryCondition,
    FdConfig,
    InvalidArgumentError,
    OracleInsufficientError,
    Polydisc,
    UnsupportedRangeError,
    bessel_j,
    bessel_j_many,
    brute_force_spectrum,
    enumerate_modes,
    fd_convergence_report,
    fd_radial_eigs,
    mode_descriptor,
    quad_inner_product,
    radial_basis_gram,
    selfcheck,
    sufficient_bounds,
)
from polyspec import spectrum, verify
from polyspec.verify import MAX_ANGULAR_ORDER, MAX_GRID_POINTS

LAM01_SQ = 5.783185962946785
LAM11_SQ = 14.681970642123893
DIAG_01 = 0.134757061970958  # oracle: J_1(lambda_{0,1})^2 / 2


def test_fd_dirichlet_ground_state():
    vals = fd_radial_eigs(FdConfig(4000, 1.0, 0, BoundaryCondition.DIRICHLET), 1)
    assert vals[0] == pytest.approx(LAM01_SQ, rel=5e-3)
    assert vals[0] == pytest.approx(LAM01_SQ, rel=1e-6)  # h^2 error is far smaller


def test_fd_robin_zero_mode_present_for_nonnegative_order():
    vals = fd_radial_eigs(FdConfig(2000, 1.0, 0, BoundaryCondition.DBAR_NEUMANN), 2)
    assert abs(vals[0]) < 1e-6
    assert vals[1] == pytest.approx(LAM11_SQ, rel=1e-4)


def test_fd_robin_no_zero_mode_for_negative_order():
    vals = fd_radial_eigs(FdConfig(2000, 1.0, -1, BoundaryCondition.DBAR_NEUMANN), 1)
    assert vals[0] == pytest.approx(LAM01_SQ, rel=1e-4)
    assert vals[0] > 1.0


def test_fd_validation():
    with pytest.raises(InvalidArgumentError):
        FdConfig(32, 1.0, 0, BoundaryCondition.DIRICHLET)
    with pytest.raises(InvalidArgumentError):
        fd_radial_eigs(FdConfig(100, 1.0, 0, BoundaryCondition.DIRICHLET), 11)
    for radius in (math.inf, -math.inf, math.nan, 0.0):
        with pytest.raises(InvalidArgumentError, match="radius"):
            FdConfig(2000, radius, 0, BoundaryCondition.DIRICHLET)
    # refused by the config, before fd_radial_eigs allocates the grid
    with pytest.raises(InvalidArgumentError, match="grid points"):
        FdConfig(MAX_GRID_POINTS + 1, 1.0, 0, BoundaryCondition.DIRICHLET)
    assert FdConfig(MAX_GRID_POINTS, 1.0, 0, BoundaryCondition.DIRICHLET).radius == 1.0
    # entries overflow (radius 1e-300) or underflow to a zero off-diagonal (1e300)
    for radius in (1e-300, 1e300):
        for bc in BoundaryCondition:
            with pytest.raises(UnsupportedRangeError, match="not representable"):
                fd_radial_eigs(FdConfig(64, radius, 1, bc), 1)


def test_fd_refuses_non_integral_sizes_and_orders():
    # 100.5 points used to build 101 points at h = a / 100.5 and return 5.7259
    # for the lowest Dirichlet eigenvalue at m = 0, where the exact one is 5.7832
    with pytest.raises(InvalidArgumentError, match="grid points"):
        FdConfig(100.5, 1.0, 0, BoundaryCondition.DIRICHLET)
    with pytest.raises(InvalidArgumentError, match="angular order"):
        FdConfig(100, 1.0, 1.5, BoundaryCondition.DIRICHLET)
    cfg = FdConfig(100, 1.0, 0, BoundaryCondition.DIRICHLET)
    for count in (1.5, 2.0, "2"):
        with pytest.raises(InvalidArgumentError, match="count"):
            fd_radial_eigs(cfg, count)
    numpy_cfg = FdConfig(np.int64(100), 1.0, np.int64(0), BoundaryCondition.DIRICHLET)
    assert fd_radial_eigs(numpy_cfg, np.int64(2)) == fd_radial_eigs(cfg, 2)


def test_fd_config_refuses_what_it_cannot_mean():
    dirichlet = BoundaryCondition.DIRICHLET
    # the string used to fail the `is DIRICHLET` test and solve the Robin
    # problem, with a zero mode of -5.7e-11
    with pytest.raises(InvalidArgumentError, match="BoundaryCondition"):
        FdConfig(500, 1.0, 0, "dirichlet")
    for radius in ("1", None, 1 + 0j):  # each used to raise a bare TypeError
        with pytest.raises(InvalidArgumentError, match="radius"):
            FdConfig(500, radius, 0, dirichlet)
    with pytest.raises(UnsupportedRangeError, match="radius"):  # was OverflowError
        FdConfig(500, 10**400, 0, dirichlet)
    with pytest.raises(InvalidArgumentError, match="angular order"):  # was taken as 1
        FdConfig(500, 1.0, True, dirichlet)
    with pytest.raises(InvalidArgumentError, match="count"):  # was taken as 1
        fd_radial_eigs(FdConfig(500, 1.0, 0, dirichlet), True)
    cfg = FdConfig(np.int64(64), np.float32(1.5), np.int64(-2), dirichlet)
    assert [type(v) for v in (cfg.grid_points, cfg.radius, cfg.angular_order)] == [int, float, int]
    assert cfg == FdConfig(64, 1.5, -2, dirichlet)


def _solver_error(cfg, count=10):
    """Largest gap between `fd_radial_eigs` and numpy's dense `eigvalsh` of
    the same matrix over the smallest `count` eigenvalues, in eps ||T||_1."""
    d, e = verify._fd_matrix(cfg)
    dense = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    reference = np.linalg.eigvalsh(dense)[:count]
    norm = np.abs(dense).sum(axis=0).max()
    gap = np.abs(np.array(fd_radial_eigs(cfg, count)) - reference).max()
    return gap / (np.finfo(float).eps * norm)


@pytest.mark.parametrize("n", [64, 500])
@pytest.mark.parametrize("bc", list(BoundaryCondition))
def test_fd_bisection_matches_a_dense_eigensolver(n, bc):
    # LAPACK's own bisection stops at eps ||T||_1 as well; 1.4 was the worst seen
    for m in range(-3, 4):
        assert _solver_error(FdConfig(n, 1.0, m, bc)) < 4.0


def test_the_dense_check_catches_planted_solver_faults(monkeypatch):
    # A flipped off-diagonal sign is no fault an eigenvalue check can see: it
    # is the similarity D T D with D = diag(+-1).  These two change the values.
    cfg = FdConfig(64, 1.0, 1, BoundaryCondition.DBAR_NEUMANN)
    count = verify._sturm_count
    monkeypatch.setattr(verify, "_sturm_count", lambda d, e2, x, p: count(d, e2, x, p) - 1)
    assert _solver_error(cfg) > 1e6  # each value is the next eigenvalue up
    # one squared off-diagonal entry read wrong in its sixth digit
    monkeypatch.setattr(
        verify,
        "_sturm_count",
        lambda d, e2, x, p: count(d, [*e2[:32], e2[32] * (1 + 1e-6), *e2[33:]], x, p),
    )
    assert _solver_error(cfg) > 1e3
    monkeypatch.undo()
    assert _solver_error(cfg) < 4.0


def test_fd_refuses_orders_and_radii_it_cannot_solve():
    # a 161-digit order used to overflow while the matrix was assembled
    for m in (10**160, -(10**160), MAX_ANGULAR_ORDER + 1):
        with pytest.raises(InvalidArgumentError, match="angular order"):
            FdConfig(64, 1.0, m, BoundaryCondition.DIRICHLET)
    assert FdConfig(64, 1.0, -MAX_ANGULAR_ORDER, BoundaryCondition.DIRICHLET).angular_order
    # radius 1e120 used to return 8e-236 three times; 1e-120 failed in LAPACK
    for radius in (1e120, 1e-120, 1e80, 1e-75):
        for bc in BoundaryCondition:
            with pytest.raises(UnsupportedRangeError, match="not representable"):
                fd_radial_eigs(FdConfig(2000, radius, 3, bc), 3)
    # inside the window the eigenvalues scale as 1/a^2 (m < 0: no zero mode)
    for radius in (1e-70, 1e78):
        for bc in BoundaryCondition:
            unit = fd_radial_eigs(FdConfig(2000, 1.0, -3, bc), 3)
            scaled = fd_radial_eigs(FdConfig(2000, radius, -3, bc), 3)
            assert [v * radius**2 for v in scaled] == pytest.approx(unit, rel=1e-9)


def test_fd_convergence_report(cache):
    rep = fd_convergence_report(
        1, BoundaryCondition.DBAR_NEUMANN, 1.0, 2, cache, grid_sizes=(500, 1000, 2000)
    )
    assert rep["zero_mode_expected"]
    assert all(abs(v) < 1e-3 * rep["eigenvalues"][0]["exact"] for v in rep["zero_mode"].values())
    for e in rep["eigenvalues"]:
        assert all(abs(s - 2.0) < 0.3 for s in e["slopes"])
        assert e["richardson_rel_error"] < 1e-6
    # a string radius used to reach the closed forms and raise a bare TypeError
    with pytest.raises(InvalidArgumentError, match="radius"):
        fd_convergence_report(0, BoundaryCondition.DIRICHLET, "1", 2, cache)


def test_quad_orthogonality(cache):
    assert abs(quad_inner_product(0, 1, 2, cache)) < 1e-10
    assert abs(quad_inner_product(2, 1, 3, cache)) < 1e-10
    diag = quad_inner_product(0, 1, 1, cache)
    lam = cache.zero(0, 1)
    closed = 0.5 * bessel_j(1, lam) ** 2
    assert abs(diag - closed) < 1e-10
    assert closed == pytest.approx(DIAG_01, abs=1e-12)
    with pytest.raises(InvalidArgumentError):
        quad_inner_product(-1, 1, 1, cache)
    with pytest.raises(InvalidArgumentError):
        quad_inner_product(0, 1, 1, cache, nodes=64)
    with pytest.raises(InvalidArgumentError, match="integer"):
        quad_inner_product(0, 1, 1, cache, nodes=300.5)


def test_radial_basis_gram_block_orthogonal(cache):
    for m in (0, 1, 2):
        g = radial_basis_gram(m, 12, cache)
        d = np.sqrt(np.diag(g))
        off = g - np.diag(np.diag(g))
        assert np.max(np.abs(off)) < 1e-9
        assert np.min(d) > 0.0
        # nonsingular with comfortable margin once normalized
        normalized = g / np.outer(d, d)
        assert np.min(np.linalg.eigvalsh(normalized)) > 0.99
    with pytest.raises(InvalidArgumentError, match="integer"):
        radial_basis_gram(0, 2.5, cache)
    with pytest.raises(InvalidArgumentError, match="integer"):
        radial_basis_gram(0, 12, cache, nodes=400.5)


def test_quadrature_rows_come_from_one_call(cache, monkeypatch):
    calls = []

    def spy(m, z):
        calls.append(bessel_j_many(m, z))
        return calls[-1]

    monkeypatch.setattr(verify, "bessel_j_many", spy)
    assert abs(quad_inner_product(2, 1, 3, cache)) < 1e-10
    assert len(calls) == 1
    calls.clear()
    # zeros up to lambda_{4,11} > 18, so both regimes of the kernel
    radial_basis_gram(3, 12, cache)
    assert len(calls) == 1
    x, _ = np.polynomial.legendre.leggauss(384)
    r = 0.5 * (x + 1.0)
    for j, row in enumerate(calls[0], start=1):
        want = [bessel_j(3, cache.zero(4, j) * float(node)) for node in r]
        assert np.array_equal(row.view(np.int64), np.array(want).view(np.int64)), j


def _as_pairs(modes):
    return sorted((m.value, mode_descriptor(m)) for m in modes)


@pytest.mark.parametrize("radii", [(1.0, 1.0), (1.0, math.sqrt(2.0))])
def test_brute_force_matches_enumeration(cache, radii):
    P = Polydisc(radii)
    lam_max = 10.0
    ours = _as_pairs(enumerate_modes(P, 1, lam_max, cache))
    oracle = sorted(brute_force_spectrum(P, 1, lam_max, cache))
    assert len(ours) == len(oracle)
    for (v1, d1), (v2, d2) in zip(ours, oracle):
        assert abs(v1 - v2) < 1e-10
        assert d1 == d2


def test_brute_force_below_bottom_empty(cache):
    P = Polydisc((1.0, 1.0))
    assert brute_force_spectrum(P, 1, 1.0, cache) == []
    with pytest.raises(InvalidArgumentError, match="integer"):
        brute_force_spectrum(Polydisc((1.0, 1.0, 1.0)), 1.5, 1.0, cache)
    assert enumerate_modes(P, 1, 1.0, cache) == []


def test_brute_force_three_variables(cache):
    P = Polydisc((1.0, 2.0, 3.0))
    lam_max = 4.0
    for q in (1, 2):
        ours = _as_pairs(enumerate_modes(P, q, lam_max, cache))
        oracle = sorted(brute_force_spectrum(P, q, lam_max, cache))
        assert ours == oracle


@pytest.mark.parametrize("q", [1, 2, 3])
def test_brute_force_four_variables(cache, q):
    # one summation loop for every n: exact agreement, pair for pair
    P = Polydisc((1.0, 1.2, 1.5, 2.0))
    ours = _as_pairs(enumerate_modes(P, q, 3.0, cache))
    assert ours and ours == sorted(brute_force_spectrum(P, q, 3.0, cache))


def test_brute_force_rejects_insufficient_bounds(cache, monkeypatch):
    # planted fault: bounds that exclude a contribution below 4 * lambda_max
    for bounds in ((1, 4), (8, 1)):
        monkeypatch.setattr(verify, "sufficient_bounds", lambda P, lam, cache: bounds)
        with pytest.raises(OracleInsufficientError):
            brute_force_spectrum(Polydisc((1.0, 1.0)), 1, 10.0, cache)


@pytest.mark.parametrize("lam", [math.nan, math.inf, -math.inf])
def test_oracle_refuses_non_finite_cutoffs_and_radii(cache, lam):
    P = Polydisc((1.0, 1.5))
    with pytest.raises(InvalidArgumentError, match="finite"):
        sufficient_bounds(P, lam, cache)
    with pytest.raises(InvalidArgumentError, match="finite"):
        brute_force_spectrum(P, 1, lam, cache)
    with pytest.raises(InvalidArgumentError, match="finite"):
        Polydisc((1.0, lam))  # so no oracle sees a non-finite radius


def test_sufficient_bounds_are_sufficient(cache):
    P = Polydisc((1.0, 2.0))
    m_bound, j_bound = sufficient_bounds(P, 8.0, cache)
    budget = 32.0
    a_max = max(P.radii)
    assert (cache.zero(m_bound + 1, 1) / a_max) ** 2 > budget
    assert (cache.zero(0, j_bound + 1) / a_max) ** 2 > budget


@pytest.mark.parametrize(
    "fault", [lambda modes: modes[:-1], lambda modes: modes + modes[:1]], ids=["drop", "repeat"]
)
def test_enumeration_oracle_check_catches_planted_faults(cache, monkeypatch, fault):
    workload = dict(radii_sets=((1.0, 1.0),), lam_max=10.0)
    assert all(r.passed for r in selfcheck.check_enumeration_oracle(None, cache, **workload))
    # the check imports `enumerate_modes` when it runs, so the fault is planted in `spectrum`
    enumerate_ok = spectrum.enumerate_modes
    monkeypatch.setattr(spectrum, "enumerate_modes", lambda *args: fault(enumerate_ok(*args)))
    results = selfcheck.check_enumeration_oracle(None, cache, **workload)
    assert [r.passed for r in results] == [False]
