"""Centering automorphisms, the shadow of a state, deficit asymptotics."""

import numpy as np
import pytest

import crflow
from crflow.errors import NoConvergence
from crflow.flow import critical_exponent, volume_renormalize
from crflow.normalization import (find_centering, ideal_bubble_shadow,
                                  ideal_bubble_shadow_gap, shadow,
                                  shadow_deficit_ratio)
from crflow.spectral import Field, sphere_volume_cached

NORTH = np.array([0, 1.0 + 0j])


@pytest.fixture(scope="module")
def basis():
    return crflow.build_basis(1, 8)


@pytest.fixture(scope="module")
def basis10():
    return crflow.build_basis(1, 10)


def test_centering_of_round_state(basis):
    res = find_centering(Field.constant(basis, 1.0))
    assert res.converged and res.iterations <= 1
    assert res.residual < 1e-10
    assert abs(res.eps - 1.0) < 1e-8
    assert np.abs(res.phi.apply_xy(basis.nodes) - basis.nodes).max() < 1e-8
    assert np.abs(res.v.values - 1.0).max() < 1e-8


def test_centering_requires_normalized_volume(basis):
    # the message names the bound: 2^{2+2/n} - 1 = 15 is far past VOL_TOL
    with pytest.raises(ValueError, match=r"gap 1\.500e\+01 exceeds VOL_TOL = 1e-06"):
        find_centering(Field.constant(basis, 2.0))


@pytest.mark.parametrize("n", [1, 2])
def test_centering_jacobian_exact(n):
    # the analytic Jacobian of the zero-mass residual against central
    # differences of delta -> F(boost(delta) @ H), at random points,
    # densities and automorphisms H
    from crflow.geometry import CRAutomorphism
    from crflow.normalization import _zero_mass_system

    rng = np.random.default_rng(40 + n)
    x = rng.normal(size=(60, n + 1)) + 1j * rng.normal(size=(60, n + 1))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    dens = rng.uniform(0.5, 1.5, size=60)

    def F(H, step):
        boost = CRAutomorphism.boost(step[:n + 1] + 1j * step[n + 1:])
        return _zero_mass_system(CRAutomorphism(boost.G @ H), x, dens)[0]

    h = 1e-6
    for rho in rng.uniform(0.0, 3.0, size=4):
        w = rng.normal(size=n + 1) + 1j * rng.normal(size=n + 1)
        V = np.eye(n + 2, dtype=complex)
        V[:-1, :-1] = np.linalg.qr(rng.normal(size=(n + 1, n + 1))
                                   + 1j * rng.normal(size=(n + 1, n + 1)))[0]
        H = CRAutomorphism.boost(rho * w / np.linalg.norm(w)).G @ V
        J = _zero_mass_system(CRAutomorphism(H), x, dens)[1]
        fd = np.empty_like(J)
        for j, e in enumerate(h * np.eye(2 * n + 2)):
            fd[:, j] = (F(H, e) - F(H, -e)) / (2 * h)
        assert np.abs(J - fd).max() <= 1e-6 * np.abs(J).max()


def test_centering_recovers_bubble_parameters(basis10):
    # J = 10 keeps the eps = 0.3 bubble's projection residual small enough
    # for the 5% recovery bound
    eps = 0.3
    u = volume_renormalize(crflow.bubble(NORTH, eps, basis10))
    res = find_centering(u)
    assert res.converged and res.iterations <= 4
    # phi fixes the mass point and its antipode
    poles = np.array([NORTH, -NORTH])
    assert np.abs(res.phi.apply_xy(poles) - poles).max() < 0.05
    assert abs(res.eps - eps) / eps < 0.05


def test_centering_bubbles_at_grid_nodes(basis):
    # a bubble centered at a grid node puts a node at the mass direction; the
    # boost iteration has no pole there
    for k in range(0, len(basis.nodes), 50):
        p = basis.nodes[k]
        u = volume_renormalize(crflow.bubble(p, 0.5, basis, residual_tol=0.5))
        res = find_centering(u)
        assert res.converged, k
        _, theta_hat, _ = shadow(u, result=res)
        assert np.linalg.norm(theta_hat - p) < 0.05, k


def test_centering_residual_history_decreases(basis):
    u = volume_renormalize(crflow.bubble(NORTH, 0.4, basis, residual_tol=0.5))
    res = find_centering(u)
    assert res.converged and res.iterations <= 4
    hist = res.residual_history
    assert all(a > b for a, b in zip(hist, hist[1:]))


def test_centering_idempotent_on_normalized_factor(basis):
    u = volume_renormalize(crflow.bubble(NORTH, 0.5, basis))
    first = find_centering(u)
    assert first.converged and first.iterations <= 3
    v = volume_renormalize(first.v)
    second = find_centering(v)
    mapped = second.phi.apply_xy(basis.nodes)
    assert np.abs(mapped - basis.nodes).max() < 1e-3


def test_normalized_factor_volume(basis):
    p = critical_exponent(1)
    u = volume_renormalize(crflow.bubble(NORTH, 0.5, basis))
    res = find_centering(u)
    total = float(basis.weights @ res.v.values ** p)
    # truncation-limited at eps = 0.5 (the continuum identity is exact)
    assert abs(total - basis.vol) / basis.vol < 1e-3
    res1 = find_centering(Field.constant(basis, 1.0))
    total1 = float(basis.weights @ res1.v.values ** p)
    assert abs(total1 - basis.vol) / basis.vol < 1e-8


def test_shadow_of_round_state(basis):
    theta, theta_hat, eps = shadow(Field.constant(basis, 1.0))
    assert np.linalg.norm(theta) < 1e-10
    assert eps == pytest.approx(1.0, abs=1e-8)


def test_shadow_points_at_bubble_center(basis):
    rng = np.random.default_rng(8)
    p = rng.normal(size=2) + 1j * rng.normal(size=2)
    p /= np.linalg.norm(p)
    u = volume_renormalize(crflow.bubble(p, 0.4, basis, residual_tol=0.5))
    theta, theta_hat, eps = shadow(u)
    assert np.linalg.norm(theta_hat - p) < 0.05
    assert 0 < eps < 1


def test_shadow_raises_without_convergence(basis):
    u = volume_renormalize(crflow.bubble(NORTH, 0.4, basis, residual_tol=0.5))
    with pytest.raises(NoConvergence):
        shadow(u, result=find_centering(u, max_iter=0))


def test_shadow_matches_chart_integral(basis):
    # full-density chart quadrature of the shadow expansion reproduces the
    # measured shadow of a bubble state
    for eps in (0.5, 0.4):
        u = volume_renormalize(crflow.bubble(NORTH, eps, basis, residual_tol=0.5))
        res = find_centering(u)
        theta, _, eps_rec = shadow(u, result=res)
        ideal = ideal_bubble_shadow(eps_rec, 1)
        assert abs(theta[-1].real - ideal) / basis.vol < 2e-3
        assert np.abs(theta[:-1]).max() < 1e-3 * basis.vol


def test_deficit_ratio_converges_to_constant_pairing():
    # (vol^2 - Theta^2)/eps^2 -> 4 vol A3 monotonically (n = 2)
    from crflow.constants import constant
    n = 2
    target = 4.0 * sphere_volume_cached(n) * constant("A3", n).value
    ratios = [shadow_deficit_ratio(eps, n) for eps in (0.2, 0.1, 0.05)]
    errs = [abs(r - target) / target for r in ratios]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.05
    diffs = [target - r for r in ratios]
    assert all(d > 0 for d in diffs)       # one-sided (monotone) approach


@pytest.mark.parametrize("eps", [0.0, -0.1, np.nan, np.inf, -np.inf])
def test_bubble_shadow_rejects_bad_eps(eps):
    for f in (ideal_bubble_shadow_gap, ideal_bubble_shadow, shadow_deficit_ratio):
        with pytest.raises(ValueError, match="eps must be finite and > 0"):
            f(eps, 2)


@pytest.mark.parametrize("n", [True, 0, -1, 1.5, "2"])
def test_bubble_shadow_rejects_bad_n(n):
    # a bool is not read as 1, and factorial() or the integrand never sees
    # the others
    for f in (ideal_bubble_shadow_gap, ideal_bubble_shadow, shadow_deficit_ratio):
        with pytest.raises(ValueError, match="^n must be"):
            f(0.1, n)


# ---------------------------------------------------------------------------
# drift of the normalized factor along concentrating flows
# ---------------------------------------------------------------------------

def _two_peak_drift_samples(step_blocks=5, block=80):
    from crflow.flow import (FlowState, alpha, mass_concentration, step,
                             volume_renormalize)
    from crflow.presets import f_two_peak
    basis = crflow.build_basis(1, 8)
    f = f_two_peak(basis)
    vals = crflow.bubble(np.array([0, 1.0 + 0j]), 0.55, basis).values \
        * (1 + 0.25 * np.real(basis.nodes[:, 0])
           + 0.15 * np.imag(basis.nodes[:, 1] * np.conj(basis.nodes[:, 0])))
    u = volume_renormalize(Field.from_values(basis, vals))
    state = FlowState(0.0, u, alpha(u, f), None)
    dt, samples = 0.05, []
    for i in range(step_blocks * block + 1):
        if i % block == 0:
            res = find_centering(state.u)
            samples.append((mass_concentration(state.u, rho=1.1),
                            float(np.abs(res.v.values - 1.0).max())))
        state, dt = step(state, f, dt)
    return samples


def test_normalized_factor_transient_decay():
    # while the state stays resolved, the non-bubble transient dies and the
    # normalized factor moves toward 1
    samples = _two_peak_drift_samples(step_blocks=1)
    assert samples[0][0] > 0.5
    assert samples[1][1] < 0.6 * samples[0][1]


@pytest.mark.xfail(strict=False, reason=(
    "continuum-asymptotic drift: at fixed band limit the truncation share of "
    "v grows as the state sharpens to the representability stall, reversing "
    "the decay (measured 0.098 -> 0.120 over the stall approach at J = 8)"))
def test_normalized_factor_monotone_drift_full_tail():
    samples = _two_peak_drift_samples(step_blocks=5)
    drifts = [vd for mass, vd in samples if mass > 0.5]
    assert all(a >= b - 1e-12 for a, b in zip(drifts, drifts[1:]))
