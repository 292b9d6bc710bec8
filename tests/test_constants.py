"""Chart-side quadrature engine and the six bubble-expansion constants: the
closed forms, and the quadrature and Monte Carlo cross-checks against them."""

from math import factorial, gamma, pi

import numpy as np
import pytest

import crflow
from crflow.constants import (NAMES, all_constants, constant, monte_carlo_constant,
                              quadrature_constant)
from crflow.errors import NonConvergentQuadrature
from crflow.hquad import heisenberg_integral, sphere_volume, surface_area_odd_sphere

# closed forms derived by elementary Beta-integral reduction of the defining
# 2D integrals, written out here independently of crflow.constants
EXACT = {
    "A1": lambda n: 2 * pi ** (n + 1) / (factorial(n) * (n + 1)),
    "A2": lambda n: pi ** (n + 1) / (2 * n * factorial(n) * (n + 1)),
    "A3": lambda n: pi ** (n + 1) / (factorial(n) * 4 ** n),
    "A6": lambda n: 2 * pi ** (n + 1) / (n * factorial(n)),
}

# frozen high-precision references for the two origin-regularized constants
# (30-digit adaptive tanh-sinh evaluation of the sigma-substituted integrals)
REFERENCE_45 = {
    (1, "A4"): 78.956835208714869, (1, "A5"): 35.9113495654337548,
    (2, "A4"): 124.025106721199281, (2, "A5"): 90.4062824833865329,
    (3, "A4"): 129.878788045336583, (3, "A5"): 118.935374426887821,
    (4, "A4"): 102.006561595093818, (4, "A5"): 107.358958936030818,
}


# ---------------------------------------------------------------------------
# heisenberg_integral
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_volume_matches_closed_form(n):
    vol = sphere_volume(n)
    assert abs(vol - 4 * pi ** (n + 1) / factorial(n)) / vol < 1e-12


def test_volume_matches_spectral_grid():
    basis = crflow.build_basis(1, 3)
    chart = sphere_volume(1)
    assert abs(basis.weights.sum() - chart) / chart < 1e-6


def test_odd_tau_integrand_vanishes():
    val, err = heisenberg_integral(
        lambda r, t: t * np.exp(-r * r - t * t), 1, tol=1e-10)
    assert abs(val) < 1e-9


def test_lorentzian_closed_form():
    # g = (1+r^2)^{-q} (tau^2 + c^2)^{-1}:
    # integral = omega * (pi/c) * B(n, q - n) / 2
    n, q, c = 1, 4, 2.0
    val, err = heisenberg_integral(
        lambda r, t: (1 + r * r) ** -q / (t * t + c * c), n, tol=1e-10)
    exact = (surface_area_odd_sphere(n) * pi / c
             * 0.5 * gamma(n) * gamma(q - n) / gamma(q))
    assert abs(val - exact) < 1e-9
    assert err < 1e-8


def test_divergent_integrand_raises():
    with pytest.raises(NonConvergentQuadrature):
        heisenberg_integral(lambda r, t: 1.0 / (1.0 + 0 * r + 0 * t), 1)


# ---------------------------------------------------------------------------
# the constants
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_all_constants_positive(n):
    for est in all_constants(n):
        assert est.value > 0, f"{est.name} at n={n}"


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("name", sorted(EXACT))
def test_constants_closed_forms(name, n):
    est = quadrature_constant(name, n, refinement=1)
    exact = EXACT[name](n)
    assert abs(est.value - exact) / exact < 1e-9


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("name", ["A4", "A5"])
def test_constants_reference_values(name, n):
    est = quadrature_constant(name, n, refinement=1)
    ref = REFERENCE_45[(n, name)]
    assert abs(est.value - ref) / ref < 1e-9


def test_sign_structure_of_a2_integrand():
    # the A2 integrand changes sign yet integrates positive
    from crflow.constants import _integrand
    g, _ = _integrand("A2", 2)
    assert g(np.array([0.1]), np.array([0.0]))[0] < 0
    assert g(np.array([3.0]), np.array([0.0]))[0] > 0
    assert quadrature_constant("A2", 2).value > 0


def test_sign_structure_of_a5_integrand():
    from crflow.constants import _integrand
    g, sigma_form = _integrand("A5", 2)
    assert sigma_form
    assert g(np.array([1.0]), np.array([0.2]))[0] > 0
    assert g(np.array([1.0]), np.array([2.0]))[0] < 0
    assert quadrature_constant("A5", 2).value > 0


@pytest.mark.parametrize("n", [1, 2])
def test_refinement_stability(n):
    for name in NAMES:
        lo = quadrature_constant(name, n, refinement=0)
        hi = quadrature_constant(name, n, refinement=1)
        assert abs(hi.value - lo.value) <= max(lo.abs_error_estimate,
                                               1e-6 * abs(hi.value))
        assert abs(hi.value - lo.value) / abs(hi.value) < 1e-6


@pytest.mark.parametrize("n", [1, 2])
def test_monte_carlo_within_three_sigma(n):
    for name in NAMES:
        mc, se = monte_carlo_constant(name, n, n_samples=200_000)
        for q in (constant(name, n).value,
                  quadrature_constant(name, n, refinement=0).value):
            assert abs(mc - q) <= 3.0 * se, f"{name} n={n}: {mc} vs {q} (se {se})"


@pytest.mark.parametrize("name, n", [(name, n) for n in (1, 2, 3, 4) for name in NAMES]
                         + [(name, n) for n in (5, 6) for name in ("A4", "A5")])
def test_closed_form_matches_quadrature(name, n):
    exact = constant(name, n).value
    quad = quadrature_constant(name, n, refinement=1).value
    assert abs(exact - quad) / abs(quad) < 1e-9


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_closed_form_matches_references(n):
    for name in NAMES:
        est = constant(name, n)
        ref = REFERENCE_45[(n, name)] if name in ("A4", "A5") else EXACT[name](n)
        assert abs(est.value - ref) / ref < 1e-13, f"{name} n={n}"
        assert est.method == "closed form"


def test_unknown_constant_rejected():
    with pytest.raises(ValueError):
        constant("A7", 1)
    with pytest.raises(ValueError):
        quadrature_constant("A7", 1)
