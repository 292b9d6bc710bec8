"""Cayley chart, Heisenberg group laws, automorphisms, Jacobians."""

import numpy as np
import pytest

import crflow
from crflow.errors import NonPositiveScale, PoleSingularity
from crflow.geometry import (CRAutomorphism, cayley_forward_xy,
                             cayley_inverse_xy, concentrating_automorphism,
                             delta_xy, dilate_xy, translate_xy,
                             volume_density_xy)


def random_heisenberg(rng, n, size):
    z = rng.normal(size=(size, n)) + 1j * rng.normal(size=(size, n))
    return z, rng.normal(size=size)


def random_sphere(rng, nc, size):
    x = rng.normal(size=(size, nc)) + 1j * rng.normal(size=(size, nc))
    return x / np.linalg.norm(x, axis=1)[:, None]


def random_unitary(rng, nc):
    a = rng.normal(size=(nc, nc)) + 1j * rng.normal(size=(nc, nc))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_automorphism(rng, n, rmax=3.0, q_scale=1.0):
    qz = q_scale * (rng.normal(size=n) + 1j * rng.normal(size=n))
    return CRAutomorphism.chart(random_unitary(rng, n + 1), qz,
                                q_scale * float(rng.normal()),
                                float(rng.uniform(1.0 / rmax, rmax)))


# ---------------------------------------------------------------------------
# Cayley transform
# ---------------------------------------------------------------------------

def test_cayley_forward_north_pole():
    z, tau = cayley_forward_xy(np.array([[0, 0, 1.0]]))
    assert np.abs(z).max() == 0
    assert tau[0] == 0


def test_cayley_forward_equator_point():
    # x_{n+1} = 0 makes both factors one
    z, tau = cayley_forward_xy(np.array([[1.0, 0]]))
    assert abs(z[0, 0] - 1.0) < 1e-15
    assert abs(tau[0]) < 1e-15


def test_cayley_inverse_origin_and_unit_tau():
    # rows: the origin, (0, 1) with (1 + i) / (1 - i) = i, and (1, 0)
    x = cayley_inverse_xy(np.array([[0], [0], [1.0]]), np.array([0.0, 1.0, 0.0]))
    assert np.allclose(x, [[0, 1.0], [0, 1j], [1.0, 0]])


@pytest.mark.parametrize("n", [1, 2])
def test_cayley_roundtrip_1000(n):
    rng = np.random.default_rng(5 + n)
    z, tau = random_heisenberg(rng, n, 1000)
    x = cayley_inverse_xy(z, tau)
    assert np.abs(np.sum(np.abs(x) ** 2, axis=1) - 1).max() < 1e-12
    z2, tau2 = cayley_forward_xy(x)
    assert np.abs(z2 - z).max() < 1e-10
    assert np.abs(tau2 - tau).max() < 1e-10
    # and the sphere-side round trip
    y = random_sphere(rng, n + 1, 1000)
    zz, tt = cayley_forward_xy(y)
    y2 = cayley_inverse_xy(zz, tt)
    assert np.abs(y2 - y).max() < 1e-10


def test_pole_singularity_raises():
    south = np.zeros((1, 3), dtype=complex)
    south[0, -1] = -1.0
    with pytest.raises(PoleSingularity):
        cayley_forward_xy(south)


# ---------------------------------------------------------------------------
# group operations
# ---------------------------------------------------------------------------

def test_dilate_identity_and_example():
    z, tau = np.array([[1.0 + 0j]]), np.array([1.0])
    z1, t1 = dilate_xy(z, tau, 1.0)
    assert np.array_equal(z1, z) and np.array_equal(t1, tau)
    z2, t2 = dilate_xy(z, tau, 2.0)
    assert np.allclose(z2, [[2.0]]) and t2[0] == 4.0


def test_dilate_rejects_nonpositive():
    z, tau = np.zeros((1, 1)), np.zeros(1)
    with pytest.raises(NonPositiveScale):
        dilate_xy(z, tau, 0.0)
    with pytest.raises(NonPositiveScale):
        dilate_xy(z, tau, -1.5)


def test_dilation_group_law_random():
    rng = np.random.default_rng(6)
    z, tau = random_heisenberg(rng, 2, 500)
    for a, b in rng.uniform(0.2, 4.0, size=(5, 2)):
        z1, t1 = dilate_xy(*dilate_xy(z, tau, a), b)
        z2, t2 = dilate_xy(z, tau, a * b)
        assert np.abs(z1 - z2).max() < 1e-10
        assert np.abs(t1 - t2).max() < 1e-10


def test_translate_identity_and_twist():
    z, tau = np.array([[1.0 + 0j]]), np.array([0.0])
    z0, t0 = translate_xy(z, tau, np.zeros(1), 0.0)
    assert np.array_equal(z0, z) and np.array_equal(t0, tau)
    # q = (i, 0) on (1, 0): twist 2 Im(i * conj(1)) = 2
    z1, t1 = translate_xy(z, tau, np.array([1j]), 0.0)
    assert np.allclose(z1, [[1.0 + 1j]]) and abs(t1[0] - 2.0) < 1e-15


def test_translation_composition_is_heisenberg_product():
    rng = np.random.default_rng(7)
    z, tau = random_heisenberg(rng, 1, 400)
    for _ in range(5):
        q1z, q1t = random_heisenberg(rng, 1, 1)
        q2z, q2t = random_heisenberg(rng, 1, 1)
        za, ta = translate_xy(*translate_xy(z, tau, q1z[0], q1t[0]), q2z[0], q2t[0])
        # q2 * q1 = T_{q2}(q1): left translations compose
        pz, pt = translate_xy(q1z, q1t, q2z[0], q2t[0])
        zb, tb = translate_xy(z, tau, pz[0], pt[0])
        assert np.abs(za - zb).max() < 1e-10
        assert np.abs(ta - tb).max() < 1e-10


def test_delta_qr_formula_pointwise():
    rng = np.random.default_rng(8)
    z, tau = random_heisenberg(rng, 2, 1000)
    qz = rng.normal(size=2) + 1j * rng.normal(size=2)
    qt, r = 0.7, 1.9
    zd, td = delta_xy(z, tau, qz, qt, r)
    assert np.abs(zd - (r * z + qz)).max() < 1e-12
    expect = r * r * tau + qt + 2 * r * np.imag(np.sum(qz * np.conj(z), axis=1))
    assert np.abs(td - expect).max() < 1e-12


# ---------------------------------------------------------------------------
# volume density and automorphisms
# ---------------------------------------------------------------------------

def test_volume_density_origin_values():
    assert volume_density_xy(np.zeros((1, 1)), np.zeros(1), 1)[0] == 16.0
    assert volume_density_xy(np.zeros((1, 2)), np.zeros(1), 2)[0] == 64.0


def test_volume_density_decays_along_rays():
    scales = np.array([1.0, 2.0, 5.0, 20.0])
    vals = volume_density_xy(scales[:, None] + 0j, scales * scales, 1)
    assert all(a > b > 0 for a, b in zip(vals, vals[1:]))


def test_apply_identity_automorphism():
    rng = np.random.default_rng(9)
    x = random_sphere(rng, 2, 200)
    ident = CRAutomorphism(np.eye(3))
    assert np.abs(ident.apply_xy(x) - x).max() < 1e-14


def test_apply_at_pole_matches_direct_formula():
    # phi(north) = Psi(q) when U = I: the chart sends north to the origin
    rng = np.random.default_rng(10)
    qz = rng.normal(size=1) + 1j * rng.normal(size=1)
    phi = CRAutomorphism.chart(np.eye(2), qz, 0.4, 2.5)
    got = phi.apply_xy(np.array([[0, 1.0]]))
    want = cayley_inverse_xy(qz[None, :], np.array([0.4]))
    assert np.abs(got - want).max() < 1e-12


def test_apply_preserves_unit_norm_1000():
    rng = np.random.default_rng(11)
    for _ in range(4):
        phi = random_automorphism(rng, 1)
        x = random_sphere(rng, 2, 250)
        y = phi.apply_xy(x)
        assert np.abs(np.sum(np.abs(y) ** 2, axis=1) - 1).max() < 1e-12


def test_apply_inverse_roundtrip():
    rng = np.random.default_rng(12)
    phi = random_automorphism(rng, 2)
    x = random_sphere(rng, 3, 300)
    y = phi.inverse().apply_xy(phi.apply_xy(x))
    assert np.abs(y - x).max() < 1e-10


def test_jacobian_identity_is_one():
    rng = np.random.default_rng(13)
    x = random_sphere(rng, 2, 100)
    assert np.abs(CRAutomorphism(np.eye(3)).jacobian_xy(x) - 1).max() < 1e-13


def test_jacobian_positive_and_multiplicative():
    # chain rule through the inverse: jac(phi^{-1})(phi(x)) jac(phi)(x) = 1
    rng = np.random.default_rng(14)
    for phi in (CRAutomorphism.chart(random_unitary(rng, 2), rng.normal(size=1)
                                     + 1j * rng.normal(size=1), 0.3, 1.7),
                random_automorphism(rng, 2)):
        x = random_sphere(rng, phi.n + 1, 200)
        j1 = phi.jacobian_xy(x)
        j2 = phi.inverse().jacobian_xy(phi.apply_xy(x))
        assert j1.min() > 0 and j2.min() > 0
        assert np.abs(j1 * j2 - 1).max() < 1e-10


def test_jacobian_r_dependence_at_centered_pole():
    # at x = U . north the factor is r^{2n+2} K(q) / K(0)
    rng = np.random.default_rng(15)
    n = 1
    U = random_unitary(rng, n + 1)
    qz = rng.normal(size=n) + 1j * rng.normal(size=n)
    for r in (0.5, 2.0, 7.0):
        phi = CRAutomorphism.chart(U, qz, 0.8, r)
        north = np.zeros(n + 1, dtype=complex)
        north[-1] = 1.0
        x = (U @ north)[None, :]
        want = (r ** (2 * n + 2)
                * volume_density_xy(qz[None, :], np.array([0.8]), n)[0]
                / volume_density_xy(np.zeros((1, n)), np.zeros(1), n)[0])
        assert abs(phi.jacobian_xy(x)[0] - want) / want < 1e-12


def test_jacobian_change_of_variables_total_mass():
    # int |det dphi| dV = vol by change of variables; gentle phi keeps the
    # Jacobian resolvable on the degree-8 grid (stronger maps concentrate
    # like small bubbles and leave the band limit)
    basis = crflow.build_basis(1, 8)
    rng = np.random.default_rng(16)
    for _ in range(5):
        phi = random_automorphism(rng, 1, rmax=1.6, q_scale=0.3)
        total = basis.weights @ phi.jacobian_xy(basis.nodes)
        assert abs(total - basis.vol) / basis.vol < 2e-3


@pytest.mark.parametrize("n", [1, 2])
def test_boost_identities(n):
    # exp [[0, w], [w^*, 0]] is Hermitian, boost(-w) is its inverse, its
    # singular values are e^{-|w|}, 1, ..., e^{|w|}, and it sends 0 to
    # tanh|w| e for w = |w| e
    rng = np.random.default_rng(18 + n)
    for scale in (0.0, 1e-9, 0.7, 4.0):
        e = random_sphere(rng, n + 1, 1)[0]
        w = scale * e
        boost = CRAutomorphism.boost(w)
        G = boost.G
        tol = 1e-14 * np.cosh(scale) ** 2
        assert np.abs(G - G.conj().T).max() < tol
        assert np.abs(G @ CRAutomorphism.boost(-w).G - np.eye(n + 2)).max() < tol
        sv = np.linalg.svd(G, compute_uv=False)
        assert abs(1.0 / sv[0] - np.exp(-scale)) < 1e-14
        want = np.r_[np.exp(scale), np.ones(n), np.exp(-scale)]
        assert np.abs(sv - want).max() < tol
        origin = boost.apply_xy(np.zeros((1, n + 1)))[0]
        assert np.abs(origin - np.tanh(scale) * e).max() < 1e-15


def test_concentrating_automorphism_scale():
    # p and -p are fixed, with Jacobians eps^{-(2n+2)} and eps^{2n+2}
    poles = np.array([[0, 1.0], [0, -1.0]])
    phi = concentrating_automorphism(poles[0], 0.25)
    assert np.abs(phi.apply_xy(poles) - poles).max() < 1e-15
    assert np.abs(phi.jacobian_xy(poles) / [4.0 ** 4, 0.25 ** 4] - 1).max() < 1e-14
    with pytest.raises(ValueError):
        concentrating_automorphism(poles[0], 0.0)


@pytest.mark.parametrize("n", [1, 2])
def test_concentrating_automorphism_matches_the_chart_dilation(n):
    # the boost by log(eps) p is the chart's dilation by 1/eps with the chart
    # centered at p = U . north
    rng = np.random.default_rng(26 + n)
    x = random_sphere(rng, n + 1, 500)
    for eps in (0.5, 0.1, 0.01):
        U = random_unitary(rng, n + 1)
        boost = concentrating_automorphism(U[:, -1], eps)
        chart = CRAutomorphism.chart(U, np.zeros(n), 0.0, 1.0 / eps)
        gap = np.log(boost.jacobian_xy(x)) - np.log(chart.jacobian_xy(x))
        assert np.abs(gap).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_automorphism_is_smooth_at_the_chart_pole(n):
    # U . south is the chart's pole; the matrix form is finite there and the
    # bubble automorphism sends it to -p with Jacobian eps^{2n+2}
    rng = np.random.default_rng(30 + n)
    p = random_sphere(rng, n + 1, 1)[0]
    eps = 0.2
    phi = concentrating_automorphism(p, eps)
    assert np.abs(phi.apply_xy(-p[None]) + p).max() < 1e-13
    assert abs(phi.jacobian_xy(-p[None])[0] / eps ** (2 * n + 2) - 1) < 1e-12
    assert abs(phi.conformal_exponent_xy(-p[None])[0] / eps ** n - 1) < 1e-12


@pytest.mark.parametrize("n", [1, 2])
def test_matrix_form_matches_the_chart_composition(n):
    # apply_xy = U Psi delta_{q,r} pi U^{-1} and jacobian_xy = r^{2n+2} K(delta) / K
    rng = np.random.default_rng(20 + n)
    x = random_sphere(rng, n + 1, 500)
    for _ in range(5):
        U = random_unitary(rng, n + 1)
        qz = rng.normal(size=n) + 1j * rng.normal(size=n)
        qtau, r = float(rng.normal()), float(rng.uniform(0.3, 3.0))
        phi = CRAutomorphism.chart(U, qz, qtau, r)
        z, tau = cayley_forward_xy(x @ np.conj(U))
        z2, t2 = delta_xy(z, tau, qz, qtau, r)
        want = cayley_inverse_xy(z2, t2) @ U.T
        assert np.abs(phi.apply_xy(x) - want).max() < 1e-12
        jac = (r ** (2 * n + 2) * volume_density_xy(z2, t2, n)
               / volume_density_xy(z, tau, n))
        assert np.abs(phi.jacobian_xy(x) / jac - 1).max() < 1e-12


def test_automorphism_rejects_bad_input():
    G = np.eye(3, dtype=complex)
    G[0, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        CRAutomorphism(G)
    with pytest.raises(ValueError, match="G\\^\\* J G = J"):
        CRAutomorphism.chart(np.diag([1.0, 1.1]), np.zeros(1), 0.0, 2.0)
    for r in (0.0, -1.5):
        with pytest.raises(NonPositiveScale):
            CRAutomorphism.chart(np.eye(2), np.zeros(1), 0.0, r)


def test_measure_transport_chart_vs_sphere():
    # integrals of Hopf-invariant polynomials agree between the spectral grid
    # and the chart-side quadrature, within 1e-6 relative
    basis = crflow.build_basis(1, 4)
    n = 1

    # |x_{n+1}|^2 = ((1-r^2)^2 + t^2)/|d|^2 and Re x_{n+1} = (1-r^4-t^2)/|d|^2
    # with |d|^2 = (1+r^2)^2 + t^2 in the chart
    cases = [
        (lambda x: np.abs(x[:, -1]) ** 2,
         lambda r, t: ((1 - r * r) ** 2 + t * t) / ((1 + r * r) ** 2 + t * t)),
        (lambda x: np.abs(x[:, -1]) ** 4,
         lambda r, t: (((1 - r * r) ** 2 + t * t) / ((1 + r * r) ** 2 + t * t)) ** 2),
        (lambda x: np.real(x[:, -1]) ** 2,
         lambda r, t: ((1 - r ** 4 - t * t) / ((1 + r * r) ** 2 + t * t)) ** 2),
    ]
    for sphere_fn, chart_ratio in cases:
        lhs = float(np.real(basis.weights @ sphere_fn(basis.nodes)))

        def g(r, t, chart_ratio=chart_ratio):
            s = 1.0 + r * r
            dens = (4.0 / (t * t + s * s)) ** (n + 1)
            return chart_ratio(r, t) * dens

        rhs, _ = crflow.heisenberg_integral(g, n, tol=1e-10)
        assert abs(lhs - rhs) / abs(rhs) < 1e-6

    # odd coordinate content vanishes on both sides
    lhs = basis.weights @ np.real(basis.nodes[:, -1])

    def g_odd(r, t):
        s = 1.0 + r * r
        return ((1 - r ** 4 - t * t) / (t * t + s * s)
                * (4.0 / (t * t + s * s)) ** (n + 1))

    rhs, _ = crflow.heisenberg_integral(g_odd, n, tol=1e-10)
    assert abs(lhs) < 1e-10 and abs(rhs) < 1e-10
