"""Basis construction, transforms, sub-Laplacian, quadrature integration."""

import numpy as np
import pytest

import crflow
from crflow.errors import BudgetExceeded
from crflow.spectral import Field, sphere_volume_cached


@pytest.fixture(scope="module")
def basis8():
    return crflow.build_basis(1, 8)


@pytest.fixture(scope="module")
def basis2_n2():
    return crflow.build_basis(2, 2)


def random_field(basis, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    c = scale * (rng.normal(size=basis.nb) + 1j * rng.normal(size=basis.nb))
    return Field.from_coeffs(basis, c)


def random_real_field(basis, seed, scale=1.0):
    # real values; over the real basis they have real coefficients
    u = random_field(basis, seed, scale)
    return Field.from_values(basis, np.real(u.values))


# ---------------------------------------------------------------------------
# build_basis
# ---------------------------------------------------------------------------

def test_gram_orthonormality(basis8, basis2_n2):
    assert basis8.gram_error() < 1e-10
    assert basis2_n2.gram_error() < 1e-10


def test_weights_positive_and_sum_to_volume(basis8):
    assert basis8.weights.min() > 0
    assert abs(basis8.weights.sum() - sphere_volume_cached(1)) < 1e-9


def test_basis_j1_content():
    basis = crflow.build_basis(1, 1)
    # {1, x_1, x_2, conj x_1, conj x_2} with eigenvalues {0, 1/2 x4}: the
    # constant and the four real functions of the {0,1} pair, which span
    # H_{0,1} + H_{1,0}
    assert basis.nb == 5
    assert sorted(basis.bidegrees) == [(0, 0)] + [(0, 1)] * 4
    lam = sorted(basis.eigenvalues)
    assert lam[0] == 0.0
    assert np.allclose(lam[1:], 0.5, atol=1e-12)
    # T = i (j - k) splits the pair span into H_{1,0} (T = i) and H_{0,1}
    # (T = -i), two dimensions each, and kills the constant
    T = basis.hopf(np.eye(basis.nb))
    assert np.allclose(np.sort(np.linalg.eigvals(T).imag), [-1, -1, 0, 1, 1],
                       atol=1e-12)


@pytest.mark.parametrize("n,expected_gap", [(1, 0.5), (2, 1.0)])
def test_next_eigenvalue_and_gap(n, expected_gap):
    # the first eigenvalue above n/2 sits at n (the (2,0)/(0,2) block),
    # a gap of n/2 >= 0.4
    basis = crflow.build_basis(n, 2)
    lams = sorted(set(np.round(basis.eigenvalues, 9)))
    above = [l for l in lams if l > n / 2.0 + 1e-9]
    assert abs(above[0] - (n / 2.0 + expected_gap)) < 1e-9
    assert above[0] - n / 2.0 >= 0.4


def test_eigenvalues_nondecreasing_within_degree(basis8):
    for m in range(basis8.J + 1):
        block = [l for (j, k), l in zip(basis8.bidegrees, basis8.eigenvalues)
                 if j + k == m]
        assert min(block, default=0.0) >= 0.0


def test_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        crflow.build_basis(2, 8)


def test_monomial_eigenvalue_oracle(basis8):
    # brute force (round Laplacian - T^2)/4 on the monomial x_1 x_2 gives
    # eigenvalue 1 for n = 1 (bidegree (2,0))
    space = basis8.space
    e = np.zeros(space.dim, dtype=complex)
    e[space.index[((1, 1), (0, 0))]] = 1.0
    image = space.sub_laplacian(e)
    ratio = image[space.index[((1, 1), (0, 0))]]
    assert abs(ratio + 1.0) < 1e-12
    assert np.abs(image + e).max() < 1e-12


# ---------------------------------------------------------------------------
# analyze / synthesize
# ---------------------------------------------------------------------------

def test_analyze_constant(basis8):
    u = crflow.analyze(np.ones(len(basis8.nodes)), basis8)
    i0 = basis8.bidegrees.index((0, 0))
    c = u.coeffs.copy()
    const_coeff = c[i0]
    c[i0] = 0
    assert np.abs(c).max() < 1e-12
    # the unit-norm constant function is 1/sqrt(vol)
    assert abs(const_coeff - np.sqrt(basis8.vol)) < 1e-10


def test_analyze_coordinate_unit_coefficient(basis8):
    # the L2-normalized multiple of x_1 has unit coefficient norm; the natural
    # normalization here is sqrt((n+1)/vol) x_1.  Its coefficients lie on the
    # {0,1} pair, and T acts on them as i: x_1 is in H_{1,0}, not H_{0,1}
    n = basis8.n
    scale = np.sqrt((n + 1) / basis8.vol)
    u = crflow.analyze(scale * basis8.nodes[:, 0], basis8)
    assert abs(np.linalg.norm(u.coeffs) - 1.0) < 1e-10
    nz = np.abs(u.coeffs) > 1e-10
    assert all(basis8.bidegrees[i] == (0, 1) for i in np.nonzero(nz)[0])
    assert np.abs(basis8.hopf(u.coeffs) - 1j * u.coeffs).max() < 1e-10


def test_roundtrip_band_limited(basis8):
    u = random_field(basis8, 1)
    v = crflow.analyze(u.values, basis8)
    assert np.abs(v.coeffs - u.coeffs).max() < 1e-10


def test_synthesize_matches_cached_values(basis8):
    u = random_field(basis8, 2)
    assert np.abs(crflow.synthesize(u) - u.values).max() < 1e-12


# ---------------------------------------------------------------------------
# real basis
# ---------------------------------------------------------------------------

def test_real_basis_funcs(basis8, basis2_n2):
    # orthonormality at both sizes is test_gram_orthonormality
    for basis in (basis8, basis2_n2):
        assert basis.funcs.dtype == np.float64
        assert all(j <= k for j, k in basis.bidegrees)


def test_real_field_has_real_coefficients(basis8):
    u = random_real_field(basis8, 21)
    assert u.coeffs.dtype == np.float64 and u.values.dtype == np.float64
    v = Field.from_values(basis8, u.values)
    assert np.abs(v.coeffs - u.coeffs).max() < 1e-10
    assert np.abs(Field.from_coeffs(basis8, u.coeffs).values - u.values).max() < 1e-10


def test_complex_transforms_split_real_and_imaginary(basis8):
    rng = np.random.default_rng(22)
    a, b = rng.normal(size=(2, 3, basis8.nb))
    both = basis8.synthesize(a + 1j * b)
    assert both.shape == (3, len(basis8.nodes))
    ref = basis8.synthesize(a) + 1j * basis8.synthesize(b)
    tol = 1e-12 * np.abs(ref).max()
    assert np.abs(both - ref).max() < tol
    assert np.abs(basis8.synthesize(a[0] + 1j * b[0]) - ref[0]).max() < tol
    v, w = np.real(ref[0]), np.imag(ref[0])
    proj = basis8.project(v + 1j * w)
    assert np.abs(proj - (basis8.project(v) + 1j * basis8.project(w))).max() < 1e-12
    assert np.abs(proj - (a[0] + 1j * b[0])).max() < 1e-10


def test_hopf_is_pair_rotation(basis8):
    jk = np.array(basis8.bidegrees)
    c = np.random.default_rng(23).normal(size=basis8.nb)
    # T o T = -(j - k)^2 on each pair
    TT = basis8.hopf(basis8.hopf(c))
    assert np.abs(TT + (jk[:, 0] - jk[:, 1]) ** 2 * c).max() < 1e-12
    # and T is i (|a| - |b|) on the monomial x^a conj(x)^b
    space = basis8.space
    lhs = basis8.monomial_coeffs(basis8.hopf(c))
    rhs = 1j * space.charge * basis8.monomial_coeffs(c)
    assert np.abs(lhs - rhs).max() < 1e-10 * np.abs(rhs).max()


# ---------------------------------------------------------------------------
# sub-Laplacian
# ---------------------------------------------------------------------------

def test_sub_laplacian_constant_and_anchor(basis8, basis2_n2):
    for basis in (basis8, basis2_n2):
        n = basis.n
        one = Field.constant(basis, 1.0)
        assert np.abs(crflow.sub_laplacian(one).values).max() < 1e-12
        for i in range(n + 1):
            xi = Field.coordinate(basis, i)
            lap = crflow.sub_laplacian(xi)
            assert np.abs(lap.values + (n / 2.0) * xi.values).max() < 1e-10
            xb = Field.coordinate(basis, i, conjugate=True)
            lap = crflow.sub_laplacian(xb)
            assert np.abs(lap.values + (n / 2.0) * xb.values).max() < 1e-10


def test_sub_laplacian_product_monomial(basis8):
    # x_1 x_2 is a (2,0) harmonic: eigenvalue n = 1
    vals = basis8.nodes[:, 0] * basis8.nodes[:, 1]
    u = crflow.analyze(vals, basis8)
    lap = crflow.sub_laplacian(u)
    assert np.abs(lap.values + vals).max() < 1e-10


# ---------------------------------------------------------------------------
# horizontal gradient
# ---------------------------------------------------------------------------

def test_grad_sq_constant_is_zero(basis8):
    g = crflow.horizontal_grad_sq(Field.constant(basis8, 1.0))
    assert np.abs(g.values).max() < 1e-12


def test_grad_sq_integrates_by_parts(basis8):
    for seed in (3, 4, 5):
        u = random_real_field(basis8, seed)
        g = crflow.horizontal_grad_sq(u)
        lhs = crflow.integrate(g)
        lap = crflow.sub_laplacian(u)
        rhs = -basis8.quad(u.values * lap.values).real
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_grad_sq_eigenfunction_rayleigh(basis8):
    n = basis8.n
    u = crflow.analyze(np.real(basis8.nodes[:, 0]), basis8)
    num = crflow.integrate(crflow.horizontal_grad_sq(u))
    den = basis8.quad(np.abs(u.values) ** 2).real
    assert abs(num / den - n / 2.0) < 1e-10


def test_grad_sq_nonnegative_up_to_truncation(basis8):
    from crflow.spectral import horizontal_grad_sq_values

    # the point values are an exact polynomial identity: nonnegative outright
    u = random_real_field(basis8, 6)
    gv = horizontal_grad_sq_values(u)
    assert gv.min() > -1e-10 * np.abs(gv).max()
    # the degree-J projection of the degree-2J square can undershoot, but for
    # a smooth (low-degree) field the dip stays at projection-residual size
    rng = np.random.default_rng(60)
    low = np.zeros(basis8.nb, dtype=complex)
    low_idx = [i for i, (j, k) in enumerate(basis8.bidegrees) if j + k <= 3]
    low[low_idx] = rng.normal(size=len(low_idx)) + 1j * rng.normal(size=len(low_idx))
    u_smooth = Field.from_values(basis8, np.real(basis8.synthesize(low)))
    g = crflow.horizontal_grad_sq(u_smooth)
    assert g.values.real.min() > -1e-8 * np.abs(g.values).max()


def low_degree_field(basis, seed, real):
    # coefficients only in bidegrees j + k <= 4, so products stay in degree J = 8
    rng = np.random.default_rng(seed)
    c = np.zeros(basis.nb, dtype=complex)
    low = [i for i, (j, k) in enumerate(basis.bidegrees) if j + k <= 4]
    c[low] = rng.normal(size=len(low)) + 1j * rng.normal(size=len(low))
    u = Field.from_coeffs(basis, c)
    return Field.from_values(basis, np.real(u.values)) if real else u


def test_grad_inner_matches_carre_du_champ(basis8):
    from crflow.spectral import grad_inner_values

    # independent reference: (Lap_b(uw) - u Lap_b w - w Lap_b u) / 2, exact
    # here because uw is band-limited to degree 8
    pairs = [
        (low_degree_field(basis8, 11, True), low_degree_field(basis8, 12, True)),
        (Field.coordinate(basis8, 0), low_degree_field(basis8, 13, True)),
        (low_degree_field(basis8, 14, False), low_degree_field(basis8, 15, False)),
    ]
    for u, w in pairs:
        uw = crflow.analyze(u.values * w.values, basis8)
        ref = 0.5 * (crflow.sub_laplacian(uw).values
                     - u.values * crflow.sub_laplacian(w).values
                     - w.values * crflow.sub_laplacian(u).values)
        g = grad_inner_values(u, w)
        assert np.abs(g - ref).max() < 1e-10 * np.abs(g).max()


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def test_integrate_odd_coordinate(basis8):
    xi = Field.coordinate(basis8, 0)
    assert abs(crflow.integrate(xi)) < 1e-12


def test_integrate_constant_is_volume(basis8):
    one = Field.constant(basis8, 1.0)
    assert abs(crflow.integrate(one) - sphere_volume_cached(1)) < 1e-9


def test_integrate_linearity(basis8):
    u = random_field(basis8, 7)
    w = random_field(basis8, 8)
    a, b = 0.7, -2.3
    lhs = crflow.integrate(Field.from_coeffs(basis8, a * u.coeffs + b * w.coeffs))
    rhs = a * crflow.integrate(u) + b * crflow.integrate(w)
    assert abs(lhs - rhs) < 1e-10


def test_parseval(basis8):
    for seed in (9, 10):
        u = random_field(basis8, seed)
        w = random_field(basis8, seed + 100)
        quad_ip = basis8.quad(u.values * np.conj(w.values))
        assert abs(quad_ip - crflow.inner(u, w)) < 1e-10
