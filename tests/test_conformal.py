"""Bubble fields and pullback factors."""

import numpy as np
import pytest

import crflow
from crflow.conformal import bubble, compose_values, projection_residual, pullback_factor
from crflow.errors import ConfigError, TruncationLoss
from crflow.flow import critical_exponent, volume_renormalize
from crflow.geometry import CRAutomorphism
from crflow.presets import u0_from_spec
from crflow.spectral import Field

NORTH = np.array([0, 1.0 + 0j])


@pytest.fixture(scope="module")
def basis():
    return crflow.build_basis(1, 8)


def test_bubble_eps_one_is_constant(basis):
    u = bubble(NORTH, 1.0, basis)
    assert np.abs(u.values - 1.0).max() < 1e-12


def test_bubble_volume_identity(basis):
    # change of variables makes int u^{2+2/n} dV = vol exactly in the
    # continuum; the discrete error is the quadrature/truncation residual,
    # which grows geometrically as eps shrinks at fixed J (measured at J=8)
    p = critical_exponent(1)
    u5 = bubble(NORTH, 0.5, basis)
    vol5 = float(basis.weights @ u5.values ** p)
    assert abs(vol5 - basis.vol) / basis.vol < 5e-4
    u2 = bubble(NORTH, 0.2, basis, residual_tol=0.5)
    vol2 = float(basis.weights @ u2.values ** p)
    assert abs(vol2 - basis.vol) / basis.vol < 0.25


def test_bubble_peak_location(basis):
    rng = np.random.default_rng(3)
    p = rng.normal(size=2) + 1j * rng.normal(size=2)
    p /= np.linalg.norm(p)
    u = bubble(p, 0.2, basis, residual_tol=0.5)
    peak = basis.nodes[np.argmax(u.values)]
    # within one grid cell of p (chordal metric; the azimuthal spacing at
    # J = 8 is 2 pi / 21 ~ 0.3)
    assert np.linalg.norm(peak - p) < 0.3


def test_bubble_truncation_loss_raised(basis):
    with pytest.raises(TruncationLoss):
        bubble(NORTH, 0.05, basis)


def test_bubble_center_needs_n_plus_1_coordinates(basis):
    p = np.array([0, 0, 1.0 + 0j])
    with pytest.raises(ValueError, match=r"n\+1 = 2 coordinates, got 3"):
        bubble(p, 0.5, basis)
    spec = {"type": "bubble", "p": [[0, 0], [0, 0], [1, 0]], "eps": 0.5}
    with pytest.raises(ConfigError, match=r"n\+1 = 2 coordinates, got 3"):
        u0_from_spec(basis, spec)


def test_bubble_positive_on_grid(basis):
    for eps in (1.0, 0.6, 0.3):
        u = bubble(NORTH, eps, basis, residual_tol=0.5)
        assert u.values.min() > 0


def test_projection_residual_scaling(basis):
    # geometric growth of the truncation residual as eps shrinks
    res = []
    for eps in (0.5, 0.3, 0.2):
        phi = crflow.geometry.concentrating_automorphism(NORTH, eps)
        vals = phi.conformal_exponent_xy(basis.nodes)
        res.append(projection_residual(basis, vals))
    assert res[0] < 5e-3 < res[1] < 0.1 < res[2]


def test_pullback_by_identity(basis):
    u = volume_renormalize(bubble(NORTH, 0.5, basis))
    v, exact = pullback_factor(u, CRAutomorphism(np.eye(3)))
    assert np.abs(v.values - u.values).max() < 1e-10


def test_pullback_inverts_bubble(basis):
    # pulling the bubble back by its own concentrating map gives 1
    eps = 0.5
    phi = crflow.geometry.concentrating_automorphism(NORTH, eps)
    u = bubble(NORTH, eps, basis)
    v, exact = pullback_factor(u, phi.inverse())
    assert np.abs(exact - 1.0).max() < 5e-3       # projected-bubble residual
    exact_phi = phi.inverse().conformal_exponent_xy(basis.nodes) \
        * compose_values(u, phi.inverse())
    assert np.abs(exact_phi - exact).max() < 1e-12


def test_compose_values_matches_direct_evaluation(basis):
    rng = np.random.default_rng(5)
    u = Field.from_values(basis, 1.0 + 0.2 * np.real(basis.nodes[:, 0]))
    qz = 0.3 * (rng.normal(size=1) + 1j * rng.normal(size=1))
    phi = CRAutomorphism.chart(np.eye(2), qz, 0.1, 1.4)
    got = compose_values(u, phi)
    mapped = phi.apply_xy(basis.nodes)
    want = 1.0 + 0.2 * np.real(mapped[:, 0])
    assert np.abs(got - want).max() < 1e-11
