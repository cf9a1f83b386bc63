"""Spectral calculus: expansion, operator application, Parseval, grid files."""

import math
import struct
import tracemalloc

import numpy as np
import pytest

from polyspec import (
    FormPoint,
    InvalidArgumentError,
    InvariantViolationError,
    Polydisc,
    apply_box,
    apply_inverse,
    bessel_j_many,
    bottom,
    box_coefficient_value,
    enumerate_modes,
    eval_coefficient,
    expand,
    expand_from_samples,
    expansion_norm,
    mode_descriptor,
    mode_norm_sq,
    sample_on_grid,
    synthesize,
)
from polyspec import spectral_ops
from polyspec.gridfile import read_grid, write_grid
from polyspec.disc_modes import FactorKind, radial_profile
from polyspec.spectral_ops import (
    Expansion,
    angular_quadrature,
    radial_quadrature,
    sampled_norm_sq,
)

P11 = Polydisc((1.0, 1.0))
BOTTOM_11 = 1.445796490736696


def _coefficient_function(modes_with_weights):
    """Vectorized callable summing weighted eigenform coefficients."""

    def f(z1, z2):
        r1, t1 = np.abs(z1), np.angle(z1)
        r2, t2 = np.abs(z2), np.angle(z2)
        total = np.zeros(np.broadcast(z1, z2).shape, dtype=complex)
        for mode, w in modes_with_weights:
            part = np.ones_like(total)
            for f_k, r, t in ((mode.factors[0], r1, t1), (mode.factors[1], r2, t2)):
                from polyspec.disc_modes import FactorKind
                from polyspec import bessel_j

                m = f_k.angular_order
                if f_k.kind is FactorKind.HOLOMORPHIC:
                    radial = r**m if m else np.ones_like(r)
                else:
                    s = math.sqrt(f_k.lambda_k)
                    order = abs(m) if f_k.kind is FactorKind.DIRICHLET else m
                    radial = np.vectorize(lambda rr: bessel_j(order, rr))(s * r)
                part = part * radial * np.exp(1j * m * t)
            total = total + w * part
        return total

    return f


@pytest.fixture(scope="module")
def basis(cache):
    modes = [m for m in enumerate_modes(P11, 1, 8.0, cache) if m.J == (1,)]
    return modes


def test_expand_recovers_single_eigenform(cache, basis):
    target = basis[0]
    f = _coefficient_function([(target, 1.0)])
    x = expand(f, P11, 1, (1,), 8.0, cache, p_max=6)
    for mode, c in x.terms:
        if mode_descriptor(mode) == mode_descriptor(target):
            assert abs(c - 1.0) < 1e-8
        else:
            assert abs(c) < 1e-8


def test_expand_is_linear(cache, basis):
    osc = [m for m in basis if not m.has_holomorphic]
    m1, m2 = osc[0], osc[1]
    f = _coefficient_function([(m1, 2.0), (m2, 3.0j)])
    x = expand(f, P11, 1, (1,), 8.0, cache, p_max=6)
    got = {mode_descriptor(m): c for m, c in x.terms}
    assert abs(got[mode_descriptor(m1)] - 2.0) < 1e-7
    assert abs(got[mode_descriptor(m2)] - 3.0j) < 1e-7
    others = [abs(c) for m, c in x.terms if mode_descriptor(m) not in
              (mode_descriptor(m1), mode_descriptor(m2))]
    assert max(others) < 1e-7


def test_expand_constant_against_closed_form_norm(cache, basis):
    # <1, e>/<e,e> on the bottom mode, with <e,e> from the closed-form norms
    f = lambda z1, z2: np.ones(np.broadcast(z1, z2).shape, dtype=complex)
    x = expand(f, P11, 1, (1,), 2.0, cache, p_max=4)
    target = basis[0]
    norm_closed = mode_norm_sq(target)
    # independent quadrature value of <e, e>
    e_fun = _coefficient_function([(target, 1.0)])
    E = sample_on_grid(e_fun, P11, 64, 32)
    assert sampled_norm_sq(E, P11, 64, 32) == pytest.approx(norm_closed, rel=1e-10)
    # and of <1, e>
    F = sample_on_grid(f, P11, 64, 32)
    inner = None
    for mode, c in x.terms:
        if mode_descriptor(mode) == mode_descriptor(target):
            inner = c * norm_closed
    quad_inner = complex(np.sum(np.conj(E) * F * _weights(P11, 64, 32)))
    assert inner == pytest.approx(quad_inner, rel=1e-10)


def _weights(P, radial, angular):
    from polyspec.spectral_ops import angular_quadrature, radial_quadrature

    W = np.ones(())
    for k in range(P.n):
        r, wr = radial_quadrature(P.radii[k], radial)
        _, wt = angular_quadrature(angular)
        W = np.multiply.outer(W, np.multiply.outer(wr * r, wt))
    return W


def test_roundtrip_box_inverse(cache, basis):
    f = _coefficient_function([(basis[0], 1.5), (basis[2], -0.5j)])
    x = expand(f, P11, 1, (1,), 8.0, cache, p_max=6)
    back = apply_box(apply_inverse(x))
    for (m1, c1), (m2, c2) in zip(x.terms, back.terms):
        assert mode_descriptor(m1) == mode_descriptor(m2)
        assert abs(c1 - c2) < 1e-10 * max(1.0, abs(c1))


def test_inverse_scales_bottom_mode(cache, basis):
    x = Expansion((1,), ((basis[0], 1.0 + 0.0j),), 8.0)
    y = apply_inverse(x)
    assert y.terms[0][1] == pytest.approx(1.0 / BOTTOM_11, rel=1e-12)


def test_apply_box_is_linear(cache, basis):
    m1, m2 = basis[0], basis[1]
    x = Expansion((1,), ((m1, 2.0 + 1.0j), (m2, -3.0j)), 8.0)
    y = apply_box(x)
    assert y.terms[0][1] == (2.0 + 1.0j) * m1.value
    assert y.terms[1][1] == -3.0j * m2.value
    # scaling the input scales the output
    x2 = Expansion((1,), ((m1, 2.0 * (2.0 + 1.0j)), (m2, 2.0 * -3.0j)), 8.0)
    y2 = apply_box(x2)
    for (_, c1), (_, c2) in zip(y.terms, y2.terms):
        assert c2 == 2.0 * c1


def test_expansion_validation(cache, basis):
    other_J = [m for m in enumerate_modes(P11, 1, 3.0, cache) if m.J == (2,)][0]
    with pytest.raises(InvalidArgumentError):
        Expansion((1,), ((other_J, 1.0),), 8.0)
    big = [m for m in enumerate_modes(P11, 1, 8.0, cache) if m.J == (1,)][-1]
    with pytest.raises(InvalidArgumentError):
        Expansion((1,), ((big, 1.0),), big.value / 2.0)


def test_zero_expansion_passthrough(cache):
    x = Expansion((1,), (), 5.0)
    assert apply_inverse(x).terms == ()
    assert apply_box(x).terms == ()
    assert expansion_norm(x) == 0.0


def test_inverse_rejects_zero_eigenvalue(cache, basis):
    from polyspec import EigenMode

    broken = EigenMode(basis[0].J, basis[0].factors, 0.0)
    x = Expansion((1,), ((broken, 1.0),), 8.0)
    with pytest.raises(InvariantViolationError):
        apply_inverse(x)


def test_parseval_at_truncation(cache, basis):
    weights = [(basis[0], 0.7), (basis[1], -1.2j), (basis[3], 0.4 + 0.1j)]
    f = _coefficient_function(weights)
    F = sample_on_grid(f, P11, 64, 32)
    x = expand_from_samples(F, P11, 1, (1,), 8.0, cache, p_max=6)
    f_norm_sq = sampled_norm_sq(F, P11, 64, 32)
    coeff_norm_sq = expansion_norm(x) ** 2
    assert coeff_norm_sq <= f_norm_sq * (1.0 + 1e-9)
    assert coeff_norm_sq == pytest.approx(f_norm_sq, rel=1e-6)  # f lies in the span


def test_inverse_norm_bound(cache, basis):
    lam_bottom, _ = bottom(P11, 1, cache)
    weights = [(basis[0], 0.3), (basis[2], 2.0), (basis[4], 1.0j)]
    x = Expansion((1,), tuple((m, w) for m, w in weights), 8.0)
    assert expansion_norm(apply_inverse(x)) <= expansion_norm(x) / lam_bottom * (1 + 1e-12)


def test_apply_box_matches_pointwise_operator(cache, basis):
    weights = [(basis[0], 1.0), (basis[1], 0.5j)]
    f = _coefficient_function(weights)
    x = expand(f, P11, 1, (1,), 8.0, cache, p_max=6)
    boxed = apply_box(x)
    rng = np.random.default_rng(12)
    for _ in range(5):
        p = FormPoint.from_polar(rng.uniform(0.1, 0.9, 2), rng.uniform(0, 2 * math.pi, 2))
        via_expansion = synthesize(boxed, p)
        pointwise = sum(c * box_coefficient_value(m, p) for m, c in x.terms)
        assert abs(via_expansion - pointwise) <= 1e-6 * max(1e-9, abs(pointwise))


def test_synthesize_matches_samples(cache, basis):
    f = _coefficient_function([(basis[0], 1.0), (basis[2], 2.0)])
    x = expand(f, P11, 1, (1,), 8.0, cache, p_max=6)
    p = FormPoint.from_polar((0.3, 0.66), (0.2, 5.0))
    z = p.z
    direct = complex(f(np.array(z[0]), np.array(z[1])))
    assert abs(synthesize(x, p) - direct) < 1e-7


def test_expand_below_bottom_warns(cache):
    f = lambda z1, z2: np.ones(np.broadcast(z1, z2).shape, dtype=complex)
    with pytest.warns(UserWarning):
        x = expand(f, P11, 1, (1,), 0.5, cache)
    assert x.terms == ()


def test_expand_validation(cache):
    f = lambda z1, z2: np.ones(np.broadcast(z1, z2).shape, dtype=complex)
    with pytest.raises(InvalidArgumentError):
        expand(f, P11, 1, (1, 2), 5.0, cache)  # wrong tuple length
    with pytest.raises(InvalidArgumentError):
        expand(f, P11, 1, (3,), 5.0, cache)  # index out of range
    with pytest.raises(InvalidArgumentError):
        expand(f, P11, 1, (1,), 5.0, cache, quad_nodes=32)  # too few nodes
    with pytest.raises(InvalidArgumentError):
        expand(f, P11, 1, (1,), 5.0, cache, angular_nodes=8, p_max=16)  # aliasing
    inf = lambda z1, z2: np.full(np.broadcast(z1, z2).shape, np.inf, dtype=complex)
    with pytest.raises(InvalidArgumentError, match="non-finite"):
        expand(inf, P11, 1, (1,), 8.0, cache, p_max=4)


def test_bad_node_counts_are_refused_before_sampling(cache):
    called = []

    def f(z1, z2):
        called.append(True)
        return np.ones(np.broadcast(z1, z2).shape, dtype=complex)

    for nodes in (
        {"quad_nodes": 0},
        {"quad_nodes": 63},
        {"quad_nodes": 64.5},
        {"angular_nodes": 0},
        {"angular_nodes": -4},
        {"angular_nodes": 32.5},
    ):
        with pytest.raises(InvalidArgumentError, match="quadrature node"):
            expand(f, P11, 1, (1,), 8.0, cache, **nodes)
    assert not called
    for bad in (0, -4):
        with pytest.raises(InvalidArgumentError, match="radial quadrature node"):
            radial_quadrature(1.0, bad)
        with pytest.raises(InvalidArgumentError, match="angular quadrature node"):
            angular_quadrature(bad)


@pytest.mark.parametrize("J", [(1.5,), ("1",), (np.float64(2.0),)], ids=["float", "str", "float64"])
def test_J_entries_that_are_not_integers_are_refused(cache, J):
    # int() would have run these as J = (1,) and (2,)
    F = np.ones((64, 32, 64, 32), dtype=complex)
    with pytest.raises(InvalidArgumentError, match="not an integer"):
        expand_from_samples(F, P11, 1, J, 8.0, cache, p_max=4)


@pytest.mark.parametrize(
    "J,p_max", [(1, 4), (None, 4), ((1,), 1.5)], ids=["J-int", "J-none", "p_max-float"]
)
def test_J_or_p_max_of_the_wrong_type_is_refused(cache, J, p_max):
    # these escaped as a bare TypeError from iterating J or from range(p_max + 1)
    F = np.ones((64, 32, 64, 32), dtype=complex)
    with pytest.raises(InvalidArgumentError):
        expand_from_samples(F, P11, 1, J, 8.0, cache, p_max=p_max)
    called = []

    def f(z1, z2):
        called.append(True)
        return np.ones(np.broadcast(z1, z2).shape)

    with pytest.raises(InvalidArgumentError):
        expand(f, P11, 1, J, 8.0, cache, p_max=p_max)
    assert not called


def test_numpy_integer_J_entries_still_work(cache):
    F = np.ones((64, 32, 64, 32), dtype=complex)
    x = expand_from_samples(F, P11, 1, (np.int64(2),), 8.0, cache, p_max=4)
    assert x == expand_from_samples(F, P11, 1, (2,), 8.0, cache, p_max=4)
    assert x.J == (2,) and type(x.J[0]) is int and x.terms


def test_non_finite_sample_is_refused(cache):
    F = np.ones((64, 32, 64, 32), dtype=complex)
    assert len(expand_from_samples(F, P11, 1, (1,), 8.0, cache, p_max=4).terms) == 39
    F[5, 7, 11, 13] = np.nan
    with pytest.raises(InvalidArgumentError, match="non-finite"):
        expand_from_samples(F, P11, 1, (1,), 8.0, cache, p_max=4)


def test_aliasing_and_an_empty_truncation_are_found_before_sampling(cache):
    calls = []

    def f(z1, z2):
        calls.append(True)
        return np.ones(np.broadcast(z1, z2).shape, dtype=complex)

    with pytest.raises(InvalidArgumentError, match="alias"):
        expand(f, P11, 1, (1,), 5.0, cache, angular_nodes=8, p_max=16)
    with pytest.warns(UserWarning, match="empty expansion"):
        x = expand(f, P11, 1, (1,), 0.1, cache)
    assert x.terms == () and not calls


def test_f_is_called_once_per_slab_in_radial_order(cache, monkeypatch):
    # 16 radial rows of z2 against the whole 64 x 32 grid of z1 per slab
    calls = []
    seen = []

    def f(z1, z2):
        calls.append((z1.shape, z2.shape))
        seen.append(np.abs(z2[0, 0, :, 0]))
        return np.ones(np.broadcast(z1, z2).shape, dtype=complex)

    expand(f, P11, 1, (1,), 8.0, cache, p_max=6)
    assert calls == [((64, 32, 1, 1), (1, 1, 16, 32))] * 4
    assert np.array_equal(np.concatenate(seen), radial_quadrature(1.0, 64)[0])
    calls.clear()
    monkeypatch.setattr(spectral_ops, "_SLAB", 1)  # a row is the least slab
    assert sample_on_grid(f, P11, 64, 32).shape == (64, 32, 64, 32)
    assert calls == [((64, 32, 1, 1), (1, 1, 1, 32))] * 64


def test_expand_from_samples_takes_what_asarray_takes(cache):
    F = np.random.default_rng(3).normal(size=(64, 8, 64, 8))
    x = expand_from_samples(F, P11, 1, (1,), 8.0, cache, 64, 8, p_max=3)
    assert x.terms
    assert expand_from_samples(F.tolist(), P11, 1, (1,), 8.0, cache, 64, 8, p_max=3) == x
    for bad, match in (
        (None, r"has shape \(\)"),
        ([[1.0, 2.0], [3.0]], "not an array"),
        (np.full(F.shape, None), "not numbers"),
    ):
        with pytest.raises(InvalidArgumentError, match=match):
            expand_from_samples(bad, P11, 1, (1,), 8.0, cache, 64, 8, p_max=3)


def test_expand_holds_less_than_the_grid(cache):
    # criterion 8's grid: 64 x 32 nodes per variable, 64 MiB of samples
    f = lambda z1, z2: np.exp(-(np.abs(z1) ** 2)) * (1.0 + z1 + 0.5 * np.conj(z2) ** 2) * (0.3 + z2)
    expand(f, P11, 1, (1,), 8.0, cache, p_max=6)  # every lazy table is built
    tracemalloc.start()
    try:
        expand(f, P11, 1, (1,), 8.0, cache, p_max=6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 32 * 64 * 32 * 16


def test_gridfile_roundtrip(tmp_path, cache, basis):
    f = _coefficient_function([(basis[0], 1.0 - 0.5j)])
    F = sample_on_grid(f, P11, 64, 32)
    path = tmp_path / "samples.pspc"
    write_grid(str(path), 2, 1, [(64, 32), (64, 32)], F)
    n, q, counts, back = read_grid(str(path))
    assert (n, q) == (2, 1)
    assert counts == [(64, 32), (64, 32)]
    assert np.array_equal(back, F)
    raw = path.read_bytes()
    assert raw[:4] == b"PSPC"
    x1 = expand_from_samples(F, P11, 1, (1,), 8.0, cache, p_max=4)
    x2 = expand_from_samples(back, P11, 1, (1,), 8.0, cache, p_max=4)
    assert all(abs(c1 - c2) == 0.0 for (_, c1), (_, c2) in zip(x1.terms, x2.terms))


def test_gridfile_rejects_corruption(tmp_path):
    path = tmp_path / "bad.pspc"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(InvalidArgumentError):
        read_grid(str(path))
    F = np.zeros((4, 4, 4, 4), dtype=complex)
    with pytest.raises(InvalidArgumentError):
        write_grid(str(path), 2, 1, [(4, 4)], F)
    write_grid(str(path), 2, 1, [(4, 4), (4, 4)], F)
    data = path.read_bytes()
    path.write_bytes(data[:-8])  # truncate payload
    with pytest.raises(InvalidArgumentError):
        read_grid(str(path))


def test_gridfile_rejects_wrapped_size(tmp_path):
    # node-count products past int64 must not wrap to a size an empty or
    # short payload can match
    path = tmp_path / "wrap.pspc"
    for counts in ((65536,) * 4, (2**32 - 1,) * 4):
        path.write_bytes(struct.pack("<4sIII4I", b"PSPC", 1, 2, 1, *counts))
        with pytest.raises(InvalidArgumentError, match=r"expected \d+$"):
            read_grid(str(path))


def test_gridfile_refuses_a_grid_with_no_variables(tmp_path):
    path = tmp_path / "empty.pspc"
    path.write_bytes(struct.pack("<4sIII", b"PSPC", 1, 0, 0) + struct.pack("<2d", 1.5, 2.0))
    with pytest.raises(InvalidArgumentError, match="at least one variable"):
        read_grid(str(path))
    path.unlink()
    with pytest.raises(InvalidArgumentError, match="at least one variable"):
        write_grid(str(path), 0, 0, [], np.array(1.5 + 2j))
    assert not path.exists()


@pytest.mark.parametrize(
    "n,q,counts",
    [
        (2.0, 1, [(4, 4), (4, 4)]),
        (-1, 1, []),
        (2, -1, [(4, 4), (4, 4)]),
        (2, 2**32, [(4, 4), (4, 4)]),
        (2, 1, [(4, 4), (-4, 4)]),
        (2, 1, [(4, 4), (2**32, 4)]),
        (2, 1, [(4, 4), (4.0, 4)]),
    ],
)
def test_write_grid_refuses_what_a_u32_cannot_hold(tmp_path, n, q, counts):
    path = tmp_path / "bad.pspc"
    with pytest.raises(InvalidArgumentError, match=r"integer in \[0, 2\*\*32\)"):
        write_grid(str(path), n, q, counts, np.zeros((4, 4, 4, 4), dtype=complex))
    assert not path.exists()


@pytest.mark.parametrize(
    "counts,samples",
    [
        ([(4, 4, 4)], np.zeros((4, 4, 4))),  # an entry that is not a pair
        ([4], np.zeros(4)),  # an entry that is not a sequence
        ([(4, 4)], "ab"),  # samples that are not numbers
    ],
)
def test_write_grid_refuses_malformed_counts_and_samples(tmp_path, counts, samples):
    path = tmp_path / "bad.pspc"
    with pytest.raises(InvalidArgumentError):
        write_grid(str(path), 1, 1, counts, samples)
    assert not path.exists()


def test_gridfile_bytes_do_not_depend_on_the_input_layout(tmp_path):
    F = np.random.default_rng(4).normal(size=(8, 4, 8, 6)) + 1j
    header = struct.pack("<4sIIIIIII", b"PSPC", 1, 2, 1, 8, 4, 8, 6)
    want = header + F.astype("<c16").tobytes()
    path = tmp_path / "layout.pspc"
    for samples in (F, np.asfortranarray(F), F.real.copy() + 1j, F.tolist()):
        write_grid(str(path), 2, 1, [(8, 4), (8, 6)], samples)
        assert path.read_bytes() == want


def test_gridfile_io_holds_one_payload(tmp_path):
    F = np.random.default_rng(6).normal(size=(64, 32, 16, 16)) + 0.5j
    path = tmp_path / "big.pspc"
    tracemalloc.start()
    try:
        write_grid(str(path), 2, 1, [(64, 32), (16, 16)], F)
        written = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        *_, back = read_grid(str(path))
        read = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert written < 0.05 * F.nbytes
    assert F.nbytes <= read < 1.05 * F.nbytes
    assert back.dtype == np.complex128 and back.flags.writeable
    assert np.array_equal(back, F)


P_MIXED = Polydisc((1.0, 1.3))


@pytest.fixture(scope="module")
def mixed_expansion(cache):
    """An expansion whose variables carry Dirichlet +-m pairs, Neumann and
    holomorphic factors."""

    def f(z1, z2):
        return np.exp(-(np.abs(z1) ** 2)) * (1.0 + z1 + 0.5 * np.conj(z2) ** 2) * (0.3 + z2)

    F = sample_on_grid(f, P_MIXED, 64, 32)
    return F, expand_from_samples(F, P_MIXED, 1, (1,), 30.0, cache, 64, 32, p_max=3)


def _profile_order(f):
    return abs(f.angular_order) if f.kind is FactorKind.DIRICHLET else f.angular_order


def test_factor_stack_rows_match_per_factor_calls(mixed_expansion):
    _, x = mixed_expansion
    for k, a in enumerate(P_MIXED.radii):
        r, _ = radial_quadrature(a, 64)
        factors = list(dict.fromkeys(m.factors[k] for m, _ in x.terms))
        osc = [f for f in factors if f.kind is not FactorKind.HOLOMORPHIC]
        assert any(f.angular_order < 0 for f in osc)
        s = np.array([math.sqrt(f.lambda_k) for f in osc])
        rows = bessel_j_many([_profile_order(f) for f in osc], s[:, None] * r[None, :])
        for f, si, row in zip(osc, s, rows):
            ref = bessel_j_many(_profile_order(f), si * r)
            assert np.array_equal(row.view(np.int64), ref.view(np.int64))


def test_expansion_profiles_come_from_one_call(cache, mixed_expansion, monkeypatch):
    F, x = mixed_expansion
    calls = []

    def spy(m, z):
        calls.append((m, z, bessel_j_many(m, z)))
        return calls[-1][2]

    monkeypatch.setattr(spectral_ops, "bessel_j_many", spy)
    assert expand_from_samples(F, P_MIXED, 1, (1,), 30.0, cache, 64, 32, p_max=3) == x
    assert len(calls) == 1
    orders, z, rows = calls[0]
    profile = {(o, zi.tobytes()): row for o, zi, row in zip(orders, z, rows)}
    for k, a in enumerate(P_MIXED.radii):
        r, _ = radial_quadrature(a, 64)
        for f in dict.fromkeys(m.factors[k] for m, _ in x.terms):
            if f.kind is FactorKind.HOLOMORPHIC:
                continue
            row = profile[(_profile_order(f), (math.sqrt(f.lambda_k) * r).tobytes())]
            want = np.array([radial_profile(f, float(node)) for node in r])
            assert np.array_equal(row.view(np.int64), want.view(np.int64)), f


def test_expand_matches_per_factor_loop(cache, mixed_expansion):
    # reference: one grid per distinct factor, one mode_norm_sq per mode
    F, x = mixed_expansion
    modes = [m for m, _ in x.terms]
    kinds = {f.kind for m in modes for f in m.factors}
    assert kinds == set(FactorKind)
    G = np.asarray(F, dtype=complex)
    index = []
    for k, a in enumerate(P_MIXED.radii):
        r, wr = radial_quadrature(a, 64)
        theta, wt = angular_quadrature(32)
        weight = np.multiply.outer(wr * r, wt)
        seen = dict.fromkeys(m.factors[k] for m in modes)
        grids = []
        for f in seen:
            m = f.angular_order
            if f.kind is FactorKind.HOLOMORPHIC:
                radial = r**m if m else np.ones_like(r)
            else:
                radial = bessel_j_many(_profile_order(f), math.sqrt(f.lambda_k) * r)
            grids.append(np.conj(radial[:, None] * np.exp(1j * m * theta)[None, :]) * weight)
        G = np.tensordot(G, np.stack(grids), axes=([0, 1], [1, 2]))
        index.append({f: i for i, f in enumerate(seen)})
    for mode, c in x.terms:
        idx = tuple(index[k][f] for k, f in enumerate(mode.factors))
        assert c == complex(G[idx]) / mode_norm_sq(mode)


def test_synthesize_equals_termwise_sum(mixed_expansion):
    _, x = mixed_expansion
    rng = np.random.default_rng(5)
    points = [
        FormPoint.from_polar(
            rng.uniform(0, 1, 2) * np.array(P_MIXED.radii), rng.uniform(0, 2 * math.pi, 2)
        )
        for _ in range(4)
    ]
    points.append(FormPoint.from_polar(P_MIXED.radii, (0.3, 2.0)))  # on the torus
    for p in points:
        ref = sum((c * eval_coefficient(m, p) for m, c in x.terms), complex(0.0))
        assert synthesize(x, p) == ref


def test_expansion_norm_equals_termwise_sum(mixed_expansion):
    _, x = mixed_expansion
    for y in (x, apply_box(x)):
        ref = math.sqrt(sum(abs(c) ** 2 * mode_norm_sq(m) for m, c in y.terms))
        assert expansion_norm(y) == ref


def test_quadrature_arrays_are_fresh(cache):
    r1, w1 = radial_quadrature(1.0, 64)
    r1[:] = 0.0
    w1[:] = 0.0
    r2, w2 = radial_quadrature(1.0, 64)
    assert r2.min() > 0.0 and w2.min() > 0.0
    assert abs(w2.sum() - 1.0) < 1e-14


def _bits(x):
    return [(c.real.hex(), c.imag.hex()) for _, c in x.terms]


# P(1, 1.2, 0.8) on 64 x 2 nodes: q = 2 on J = (1, 3) below 4 has one mode,
# and J = (1,) below 6 has 12 for a projection that ignores their aliasing
P3 = Polydisc((1.0, 1.2, 0.8))


@pytest.mark.parametrize("rows", [1, 3, 64], ids=["row", "rows", "grid"])
def test_results_do_not_depend_on_the_slab_size(cache, monkeypatch, mixed_expansion, rows):
    F2, x2 = mixed_expansion
    f2 = lambda z1, z2: np.exp(-(np.abs(z1) ** 2)) * (1.0 + z1 + 0.5 * np.conj(z2) ** 2) * (0.3 + z2)
    f3 = lambda z1, z2, z3: np.exp(-np.abs(z1 + z3) ** 2) * (1.0 + z2 * np.conj(z3))
    G3 = np.random.default_rng(8).normal(size=(64, 2) * 3)
    modes3 = [m for m in enumerate_modes(P3, 1, 6.0, cache) if m.J == (1,)]
    modes3 = spectral_ops._materialize_holomorphic(modes3, 0)

    def run2():
        return (
            sample_on_grid(f2, P_MIXED, 64, 32).tobytes(),
            _bits(expand(f2, P_MIXED, 1, (1,), 30.0, cache, 64, 32, p_max=3)),
            _bits(expand_from_samples(F2, P_MIXED, 1, (1,), 30.0, cache, 64, 32, p_max=3)),
            # one factor on z1: the contraction that BLAS would take as a vector
            _bits(expand(f2, P11, 1, (1,), 2.0, cache, p_max=4)),
        )

    def run3():
        slabs = (G3[..., s, :] for s in spectral_ops._row_slices(3, 64, 2))
        return (
            sample_on_grid(f3, P3, 64, 2).tobytes(),
            _bits(expand(f3, P3, 2, (1, 3), 4.0, cache, 64, 2, p_max=0)),
            _bits(Expansion((1,), spectral_ops._project(slabs, P3, modes3, 64, 2), 6.0)),
        )

    want2, want3 = run2(), run3()  # the module's slab: 16 rows for n = 2, 32 for n = 3
    assert want2[0] == F2.tobytes() and want2[1] == want2[2] == _bits(x2)
    assert len(want2[3]) == 5 and len(want3[1]) == 1 and len(want3[2]) == 12
    monkeypatch.setattr(spectral_ops, "_SLAB", rows * 64 * 32 * 32)
    assert run2() == want2
    monkeypatch.setattr(spectral_ops, "_SLAB", rows * 128 * 128 * 2)
    assert run3() == want3
