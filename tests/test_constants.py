"""Chart-side quadrature engine and the six bubble-expansion constants: the
closed forms, and the quadrature and Monte Carlo cross-checks against them."""

from math import factorial, gamma, pi, sqrt

import numpy as np
import pytest

import crflow
from crflow import hquad
from crflow.constants import (MC_BLOCK, NAMES, _integrand, all_constants, constant,
                              monte_carlo_constant, quadrature_constant)
from crflow.errors import NonConvergentQuadrature
from crflow.hquad import (heisenberg_integral, ipow, sphere_volume,
                          surface_area_odd_sphere)

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


def test_panel_budget_exhaustion_raises(monkeypatch):
    monkeypatch.setattr(hquad, "MAX_PANELS", 25)
    g, _ = _integrand("A5", 1)
    with pytest.raises(NonConvergentQuadrature):
        heisenberg_integral(g, 1, tol=1e-12)


def test_integrand_calls_stay_within_the_block_cap():
    g, _ = _integrand("A5", 1)
    sizes = []

    def recorded(r, t):
        sizes.append(np.size(r))
        return g(r, t)

    value, _ = heisenberg_integral(recorded, 1, tol=1e-10)
    assert abs(value - constant("A5", 1).value) < 1e-9
    assert max(sizes) <= hquad.BLOCK_PANELS * hquad.M_HI ** 2
    assert max(sizes) > hquad.M_HI ** 2     # the panels of a round share calls


def test_ipow_matches_power():
    x = np.random.default_rng(3).uniform(0.1, 50.0, size=1000)
    for k in range(1, 12):
        assert np.allclose(ipow(x, k), x ** k, rtol=8 * k * 2.0 ** -52, atol=0)
    out = np.empty_like(x)
    assert ipow(x, 3, out=out) is out
    assert ipow(x, 1) is not x


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
    g, _ = _integrand("A2", 2)
    assert g(np.array([0.1]), np.array([0.0]))[0] < 0
    assert g(np.array([3.0]), np.array([0.0]))[0] > 0
    assert quadrature_constant("A2", 2).value > 0


def test_sign_structure_of_a5_integrand():
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


# values of the unblocked evaluation: blocking must not move the samples
@pytest.mark.parametrize("name, n, mean, se", [
    ("A4", 1, 79.2202686475114, 0.19811508089638435),
    ("A5", 2, 90.2993974313854, 0.6247559339248674)])
def test_monte_carlo_keeps_its_seeded_samples(name, n, mean, se):
    got_mean, got_se = monte_carlo_constant(name, n)
    assert got_mean == pytest.approx(mean, rel=1e-13, abs=0)
    assert got_se == pytest.approx(se, rel=1e-13, abs=0)


# every (mean, se) of the n = 1, 2 cross-check, from the unblocked draws
MC_PINS = [
    ("A1", 1, 9.916920353843478, 0.03405903270788862),
    ("A2", 1, 2.4665404083826084, 0.008509703199679046),
    ("A3", 1, 2.475708680533553, 0.006332236962610601),
    ("A4", 1, 79.2202686475114, 0.19811508089638435),
    ("A5", 1, 35.792782546062995, 0.34711339130790403),
    ("A6", 1, 19.86044245926615, 0.050749641841504156),
    ("A1", 2, 10.329465197387313, 0.0458144869215168),
    ("A2", 2, 1.2842734292123905, 0.006471791382668545),
    ("A3", 2, 0.9666485863622274, 0.0036119315490423017),
    ("A4", 2, 124.10616128734875, 0.3846157145801752),
    ("A5", 2, 90.2993974313854, 0.6247559339248674),
    ("A6", 2, 15.559773208047757, 0.058161701487387196),
]


@pytest.mark.parametrize("name, n, mean, se", MC_PINS)
def test_monte_carlo_pins_every_estimate(name, n, mean, se):
    got_mean, got_se = monte_carlo_constant(name, n)
    assert got_mean == pytest.approx(mean, rel=1e-13, abs=0)
    assert got_se == pytest.approx(se, rel=1e-13, abs=0)


@pytest.mark.parametrize("name, n", [("A1", 2), ("A5", 1)])
def test_monte_carlo_blocks_match_unblocked_draws(name, n):
    # one full block and a 3-sample tail: phi takes the stream's first
    # n_samples doubles and theta the next n_samples, as two uniform() calls
    n_samples, seed = MC_BLOCK + 3, 11
    rng = np.random.default_rng(seed + 7 * n + NAMES.index(name))
    phi = rng.uniform(0.0, pi / 2.0, size=n_samples)
    theta = rng.uniform(-pi / 2.0, pi / 2.0, size=n_samples)
    g, sigma_form = _integrand(name, n)
    r, t = np.tan(phi), np.tan(theta)
    sec2_phi = 1.0 + r * r
    t_scale = 1.0 if sigma_form else sec2_phi
    vals = (g(r, t_scale * t) * r ** (2 * n - 1) * t_scale * (1.0 + t * t)
            * sec2_phi * surface_area_odd_sphere(n) * (pi / 2.0) * pi)
    mean, se = monte_carlo_constant(name, n, n_samples=n_samples, seed=seed)
    assert mean == pytest.approx(vals.mean(), rel=1e-13, abs=0)
    assert se == pytest.approx(vals.std(ddof=1) / sqrt(n_samples), rel=1e-13, abs=0)


def test_unknown_constant_rejected():
    with pytest.raises(ValueError):
        constant("A7", 1)
    with pytest.raises(ValueError):
        quadrature_constant("A7", 1)
    with pytest.raises(ValueError):
        monte_carlo_constant("A7", 1)


def test_monte_carlo_rejects_bad_input():
    with pytest.raises(ValueError, match="n must be"):
        monte_carlo_constant("A1", 0)
    for n_samples in (0, 1, 2.0, 1e3, True, "100"):
        with pytest.raises(ValueError, match="n_samples"):
            monte_carlo_constant("A1", 1, n_samples=n_samples)


@pytest.mark.parametrize("n", [1.5, 2.0, "2", True, None])
def test_non_integer_dimension_rejected(n):
    for call in (lambda: constant("A1", n), lambda: quadrature_constant("A1", n),
                 lambda: monte_carlo_constant("A1", n)):
        with pytest.raises(ValueError, match="n must be an integer"):
            call()


def test_integer_like_dimension_accepted():
    est = constant("A3", np.int64(2))
    assert est.n == 2 and type(est.n) is int
    assert est.value == constant("A3", 2).value
