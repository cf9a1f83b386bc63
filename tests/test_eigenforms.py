"""Pointwise eigenform checks: PDE residual, boundary conditions, orthogonality."""

import math

import numpy as np
import pytest

from polyspec import (
    EigenMode,
    FormPoint,
    InvalidArgumentError,
    Polydisc,
    box_coefficient_value,
    dbar_boundary_residual,
    dirichlet_factor,
    enumerate_modes,
    eval_coefficient,
    factor_dbar_boundary,
    holomorphic_factor,
    laplacian_residual,
    neumann_factor,
)

J0_AT_HALF_ZERO = 0.6699297389845395  # oracle: J_0(lambda_{0,1} * 0.5)


def _bottom_mode(cache, J=(1,)):
    d = dirichlet_factor(0, 1, 1.0, cache)
    h = holomorphic_factor(0, 1.0)
    factors = (d, h) if J == (1,) else (h, d)
    return EigenMode(J, factors, d.lambda_k / 4.0)


def test_form_point_representations():
    p = FormPoint.from_complex((0.5, 0.3j))
    assert p.r == pytest.approx((0.5, 0.3))
    assert p.theta[1] == pytest.approx(math.pi / 2)
    q = FormPoint.from_polar((0.5, 0.3), (0.0, math.pi / 2))
    assert abs(q.z[1] - 0.3j) < 1e-16
    with pytest.raises(InvalidArgumentError):
        FormPoint.from_polar((-0.1,), (0.0,))
    with pytest.raises(InvalidArgumentError):  # one angle for two radii
        FormPoint.from_polar((0.5, 0.5), (0.1,))
    with pytest.raises(InvalidArgumentError):
        FormPoint((0.5,), (0.1, 0.2))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_form_point_refuses_non_finite_radius(bad):
    with pytest.raises(InvalidArgumentError, match="radii"):
        FormPoint.from_polar((0.5, bad), (0.1, 0.2))
    with pytest.raises(InvalidArgumentError, match="radii"):
        FormPoint((bad, 0.5), (0.1, 0.2))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_form_point_refuses_non_finite_angle(bad):
    # a NaN angle used to reach eval_coefficient and come back as nan+nanj
    with pytest.raises(InvalidArgumentError, match="angles"):
        FormPoint.from_polar((0.5, 0.5), (bad, 0.0))
    with pytest.raises(InvalidArgumentError, match="angles"):
        FormPoint((0.5, 0.5), (0.0, bad))


def test_eval_bottom_mode_value(cache):
    mode = _bottom_mode(cache)
    p = FormPoint.from_complex((0.5, 0.3j))
    assert eval_coefficient(mode, p) == pytest.approx(J0_AT_HALF_ZERO, abs=1e-10)


def test_dirichlet_boundary_vanishes(cache):
    rng = np.random.default_rng(2)
    modes = enumerate_modes(Polydisc((1.0, 1.0)), 1, 12.0, cache)
    for mode in modes:
        for k in mode.J:
            for _ in range(20):
                r = list(rng.uniform(0.2, 0.9, 2))
                r[k - 1] = 1.0
                p = FormPoint.from_polar(r, rng.uniform(0.0, 2 * math.pi, 2))
                assert abs(eval_coefficient(mode, p)) < 1e-11


def test_origin_value_reflects_angular_order(cache):
    origin = FormPoint.from_polar((0.0, 0.0), (0.0, 0.0))
    flat = _bottom_mode(cache)  # Dirichlet order 0, monomial p = 0
    assert abs(eval_coefficient(flat, origin)) > 0.5
    spun = EigenMode(
        (1,),
        (dirichlet_factor(1, 1, 1.0, cache), holomorphic_factor(0, 1.0)),
        dirichlet_factor(1, 1, 1.0, cache).lambda_k / 4.0,
    )
    assert eval_coefficient(spun, origin) == 0.0  # J_1 has a zero at the origin


def test_point_outside_rejected(cache):
    mode = _bottom_mode(cache)
    with pytest.raises(InvalidArgumentError):
        eval_coefficient(mode, FormPoint.from_polar((1.2, 0.1), (0.0, 0.0)))


def test_laplacian_residual_small_everywhere(cache):
    rng = np.random.default_rng(4)
    modes = enumerate_modes(Polydisc((1.0, 1.0)), 1, 12.0, cache)
    for mode in modes:
        for _ in range(10):
            p = FormPoint.from_polar(
                rng.uniform(0.05, 0.95, 2), rng.uniform(0.0, 2 * math.pi, 2)
            )
            assert laplacian_residual(mode, p) < 1e-8


def test_laplacian_residual_detects_wrong_eigenvalue(cache):
    mode = _bottom_mode(cache)
    wrong = EigenMode(mode.J, mode.factors, mode.value * 1.01)
    p = FormPoint.from_polar((0.4, 0.6), (0.3, 1.0))
    res = laplacian_residual(wrong, p)
    assert 5e-3 < res < 2e-2  # ~1% mismatch shows up linearly


def test_monomials_are_harmonic(cache):
    # pure holomorphic complement: the monomial contributes nothing to Lap
    mode = _bottom_mode(cache)
    hi_p = EigenMode(
        (1,),
        (mode.factors[0], holomorphic_factor(5, 1.0)),
        mode.value,
    )
    p = FormPoint.from_polar((0.5, 0.8), (1.2, 0.4))
    assert laplacian_residual(hi_p, p) < 1e-10


def test_laplacian_point_validation(cache):
    mode = _bottom_mode(cache)
    with pytest.raises(InvalidArgumentError):
        laplacian_residual(mode, FormPoint.from_polar((1.0, 0.5), (0.0, 0.0)))
    with pytest.raises(InvalidArgumentError):
        laplacian_residual(mode, FormPoint.from_polar((0.0, 0.5), (0.0, 0.0)))


def test_box_value_matches_eigenvalue_action(cache):
    modes = enumerate_modes(Polydisc((1.0, 1.0)), 1, 8.0, cache)
    p = FormPoint.from_polar((0.45, 0.7), (0.9, 2.2))
    for mode in modes:
        lhs = box_coefficient_value(mode, p)
        rhs = mode.value * eval_coefficient(mode, p)
        assert abs(lhs - rhs) <= 1e-8 * max(abs(rhs), 1e-12)


def test_dbar_boundary_residuals(cache):
    rng = np.random.default_rng(6)
    modes = enumerate_modes(Polydisc((1.0, 1.0)), 1, 12.0, cache)
    for mode in modes:
        for k in (1, 2):
            if k in mode.J:
                with pytest.raises(InvalidArgumentError):
                    dbar_boundary_residual(mode, k, 0.0)
            else:
                for _ in range(20):
                    theta = float(rng.uniform(0.0, 2 * math.pi))
                    assert dbar_boundary_residual(mode, k, theta) < 1e-10


def test_dbar_refuses_non_finite_angles_and_non_integer_variables(cache):
    mode = enumerate_modes(Polydisc((1.0, 1.0)), 1, 3.0, cache)[-1]
    off = 2 if mode.J == (1,) else 1
    for theta in (math.nan, math.inf, -math.inf):
        with pytest.raises(InvalidArgumentError, match="angle"):
            dbar_boundary_residual(mode, off, theta)
        with pytest.raises(InvalidArgumentError, match="angle"):
            factor_dbar_boundary(mode.factors[off - 1], theta)
    for k in (1.5, float(off), "2", 0, 3):
        with pytest.raises(InvalidArgumentError, match="variable index"):
            dbar_boundary_residual(mode, k, 0.3)
    assert dbar_boundary_residual(mode, np.int64(off), 0.3) < 1e-10


def test_dbar_of_monomial_is_zero():
    for p_exp in (0, 1, 4):
        f = holomorphic_factor(p_exp, 1.3)
        for theta in (0.0, 1.1, 4.0):
            assert abs(factor_dbar_boundary(f, theta)) < 1e-13


def test_dbar_neumann_factor_reduces_to_next_order_zero(cache):
    f = neumann_factor(0, 1, 1.0, cache)
    assert abs(factor_dbar_boundary(f, 0.7)) < 1e-11  # ~ |J_1(lambda_{1,1})| / 2


def test_dbar_of_dirichlet_profile_is_large(cache):
    # J'_m is bounded away from zero at a simple zero of J_m
    f = dirichlet_factor(0, 1, 1.0, cache)
    assert abs(factor_dbar_boundary(f, 0.3)) > 1e-2


def test_angular_orthogonality(cache):
    # different angular tuples integrate to ~0 over the torus directions;
    # eval_coefficient is spot-checked against the tensor factorization used
    # to do the integral quickly
    rng = np.random.default_rng(8)
    modes = enumerate_modes(Polydisc((1.0, 1.0)), 1, 6.0, cache)
    T = 512
    theta = 2.0 * math.pi * np.arange(T) / T
    radii = (0.55, 0.7)

    def angular_tuple(mode):
        return tuple(f.angular_order for f in mode.factors)

    def coeff_grid(mode):
        # angular phases are 1 at theta = 0, so the value there is the
        # radial part; the full grid is base * prod_k e^{i m_k theta_k}
        base = eval_coefficient(mode, FormPoint.from_polar(radii, (0.0, 0.0)))
        vecs = [np.exp(1j * f.angular_order * theta) for f in mode.factors]
        return base, vecs

    for i, m1 in enumerate(modes):
        for m2 in modes[i + 1 :]:
            if angular_tuple(m1) == angular_tuple(m2):
                continue
            b1, v1 = coeff_grid(m1)
            b2, v2 = coeff_grid(m2)
            inner = (
                b1
                * np.conj(b2)
                * np.mean(v1[0] * np.conj(v2[0]))
                * np.mean(v1[1] * np.conj(v2[1]))
            )
            assert abs(inner) < 1e-10
    # spot check: the tensor factorization reproduces eval_coefficient
    for mode in modes[:4]:
        b, v = coeff_grid(mode)
        for t_idx in rng.integers(0, T, 5):
            p = FormPoint.from_polar(radii, (theta[t_idx], theta[(t_idx * 7) % T]))
            direct = eval_coefficient(mode, p)
            tensor = b * v[0][t_idx] * v[1][(t_idx * 7) % T]
            assert abs(direct - tensor) < 1e-12
