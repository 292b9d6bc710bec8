"""Basis construction, transforms, sub-Laplacian, quadrature integration."""

import numpy as np
import pytest

import crflow
from crflow.errors import BudgetExceeded
from crflow.polynomials import real_coords
from crflow.spectral import Field, sphere_volume_cached


@pytest.fixture(scope="module")
def basis8():
    return crflow.build_basis(1, 8)


@pytest.fixture(scope="module")
def basis2_n2():
    return crflow.build_basis(2, 2)


def random_field(basis, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return Field.from_coeffs(basis, scale * rng.normal(size=basis.nb))


def dense_poly(basis):
    # the (nb, dim) monomial coefficients of every basis row, from the
    # per-degree blocks
    return basis.monomial_coeffs(np.eye(basis.nb))


def jx_derivative(basis, coeffs):
    # T u at the nodes: the ambient gradient's component along the Hopf
    # field JX = real_coords(i x), for coefficient rows (..., nb)
    grad = basis.synthesize(basis.derivatives(coeffs))
    return np.einsum("...rk,kr->...k", grad, real_coords(1j * basis.nodes))


# ---------------------------------------------------------------------------
# build_basis
# ---------------------------------------------------------------------------

def test_gram_orthonormality(basis8, basis2_n2):
    assert basis8.gram_error() < 1e-10
    assert basis2_n2.gram_error() < 1e-10


@pytest.mark.parametrize("n, J", [(1, 8), (2, 4)])
def test_basis_continuous_in_the_weights(n, J, monkeypatch):
    # the harmonic blocks have degenerate Gram spectra; a rounding-size change
    # of the weights (the size of the closed-form volume scaling) must not
    # rotate the basis inside them
    from crflow import spectral

    ref = crflow.build_basis(n, J).funcs
    exact = spectral.sphere_quadrature

    def scaled(n, deg):
        nodes, weights = exact(n, deg)
        return nodes, weights * (1.0 + 1.8e-15)

    monkeypatch.setattr(spectral, "sphere_quadrature", scaled)
    assert np.abs(crflow.build_basis(n, J).funcs - ref).max() < 1e-13


def test_weights_positive_and_sum_to_volume(basis8):
    assert basis8.weights.min() > 0
    assert abs(basis8.weights.sum() - sphere_volume_cached(1)) < 1e-9


@pytest.mark.parametrize("n, deg", [(1, 20), (2, 8)])
def test_grid_runs_simplex_point_outer_and_phase_tuple_inner(n, deg):
    # Basis._fiber_to_grid and perfbench's phase_rotation index the grid so
    from itertools import product

    from crflow.spectral import _grid_simplex, sphere_quadrature

    nodes, weights = sphere_quadrature(n, deg)
    T, W = _grid_simplex(n, deg)
    phases = np.exp(2j * np.pi * np.arange(deg + 1) / (deg + 1))
    tuples = list(product(phases, repeat=n + 1))
    assert np.array_equal(nodes, [np.sqrt(t) * p for t in T for p in tuples])
    vol = sphere_volume_cached(n)
    assert np.allclose(weights, vol * np.repeat(W, len(tuples)) / len(tuples),
                       rtol=1e-14, atol=0.0)


def grid_moments(nodes, weights, exps, degree):
    """Quadrature integrals of x^a conj(x)^b for the exponent rows a, b of
    exps (sorted by degree) with |a| + |b| <= degree, as a matrix [a, b]
    (zero where |a| + |b| > degree); the nodes go in blocks of 4096."""
    deg = exps.sum(axis=1)
    cut = np.searchsorted(deg, np.arange(degree + 2))     # |a| = p on cut[p]:cut[p+1]
    moments = np.zeros((len(exps), len(exps)), dtype=complex)
    for lo in range(0, len(nodes), 4096):
        x = nodes[lo:lo + 4096]
        powers = np.cumprod(np.repeat(x[..., None], degree, axis=-1), axis=-1)
        powers = np.concatenate([np.ones(x.shape + (1,)), powers], axis=-1)
        X = np.prod(powers[:, np.arange(x.shape[1]), exps], axis=-1)    # (c, K)
        Xw = X * weights[lo:lo + 4096, None]
        for p in range(degree + 1):
            rows, stop = slice(cut[p], cut[p + 1]), cut[degree - p + 1]
            moments[rows, :stop] += Xw[:, rows].T @ X[:, :stop].conj()
    return moments


@pytest.mark.parametrize("n, J", [(1, 8), (1, 12), (2, 4)])
def test_grid_integrates_every_monomial_through_degree_2J_plus_4(n, J):
    # over S^{2n+1} the mean of |x_1|^{2a_1} .. |x_{n+1}|^{2a_{n+1}} is
    # n! a_1! .. a_{n+1}! / (n + |a|)!, and x^a conj(x)^b, a != b, integrates
    # to 0
    from itertools import product
    from math import comb, factorial, prod

    degree = 2 * J + 4
    nodes, weights = crflow.spectral.sphere_quadrature(n, degree)
    exps = np.array(sorted((a for a in product(range(degree + 1), repeat=n + 1)
                            if sum(a) <= degree), key=sum))
    mean = grid_moments(nodes, weights, exps, degree) / sphere_volume_cached(n)
    deg = exps.sum(axis=1)
    inside = deg[:, None] + deg[None, :] <= degree
    exact = np.zeros(mean.shape)
    diagonal = np.flatnonzero(2 * deg <= degree)
    exact[diagonal, diagonal] = [factorial(n) * prod(map(factorial, exps[i]))
                                 / factorial(n + deg[i]) for i in diagonal]
    assert inside.sum() == comb(degree + 2 * n + 2, 2 * n + 2)   # every monomial
    off = inside & (exact == 0.0)
    assert np.abs(mean[off]).max() < 1e-13
    assert np.all(np.abs(mean[diagonal, diagonal] - exact[diagonal, diagonal])
                  < 1e-13 * exact[diagonal, diagonal])


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
    # (T = -i), two dimensions each, and kills the constant; T keeps each
    # block, so projecting its values gives its matrix exactly
    T = basis.project(jx_derivative(basis, np.eye(basis.nb)))
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


@pytest.mark.parametrize("n,J", [(1, 8), (2, 3)])
def test_funcs_are_the_poly_rows_on_the_grid(n, J):
    # the grid and monomial representations of every basis function agree
    basis = crflow.build_basis(n, J)
    values = basis.space.evaluate(dense_poly(basis), basis.nodes)
    assert np.abs(values - basis.funcs).max() <= 1e-12


def test_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        crflow.build_basis(2, 8)


@pytest.mark.parametrize("n, J", [(1, 8), (1, 12), (2, 4)])
def test_budget_counts_the_fiber_table(n, J, monkeypatch):
    import crflow.spectral as spectral

    entries = crflow.build_basis(n, J)._table.size
    monkeypatch.setattr(spectral, "BUDGET", entries)
    assert crflow.build_basis(n, J)._table.size == entries
    monkeypatch.setattr(spectral, "BUDGET", entries - 1)
    with pytest.raises(BudgetExceeded, match=f"= {entries} entries"):
        crflow.build_basis(n, J)


@pytest.mark.parametrize("n, J, message", [
    (2, 8, "fiber table needs 9 x 210 x 31752 = 60011280 entries, over budget 35000000"),
    (3, 4, "fiber table needs 5 x 80 x 351520 = 140608000 entries, over budget 35000000"),
])
def test_budget_refuses_before_building(n, J, message, monkeypatch):
    # the table size comes from the closed-form dimensions of the H_{j,k},
    # so a refused size builds no monomial space and runs no nullspace SVD
    import crflow.spectral as spectral

    def built(*args):
        raise AssertionError("built before the budget check")

    monkeypatch.setattr(spectral, "MonomialSpace", built)
    monkeypatch.setattr(spectral, "_harmonic_nullspace", built)
    with pytest.raises(BudgetExceeded) as refused:
        crflow.build_basis(n, J)
    assert str(refused.value) == message


def held_arrays(basis, skip=("funcs", "analysis")):
    # the distinct numpy buffers held by the basis and its monomial space,
    # through lists, tuples and dicts; a view counts as its base
    from crflow.polynomials import MonomialSpace
    found, stack = {}, [v for k, v in vars(basis).items() if k not in skip]
    while stack:
        x = stack.pop()
        if isinstance(x, np.ndarray):
            while isinstance(x.base, np.ndarray):
                x = x.base
            found[id(x)] = x
        elif isinstance(x, (list, tuple)):
            stack.extend(x)
        elif isinstance(x, dict):
            stack.extend(x.values())
        elif isinstance(x, MonomialSpace):
            stack.extend(vars(x).values())
    return list(found.values())


def test_basis_footprint_after_a_record():
    # the polynomials and the derivatives are held per degree: after one
    # record at (1,12) the basis holds under 12 MB (about 48 MB with the
    # dense (nb, dim) polynomials and (2(n+1), nb, nb) derivatives), and no
    # array of either shape; funcs and analysis, which only tests and the
    # benchmark's tracer read, are not counted
    from crflow.flow import diagnostics
    from crflow.presets import f_dipole
    basis = crflow.build_basis(1, 12)
    diagnostics(Field.constant(basis), f_dipole(basis, amplitude=0.2))
    assert "_derivative_maps" in vars(basis)
    arrays = held_arrays(basis)
    assert sum(a.nbytes for a in arrays) < 12e6
    D = 2 * (basis.n + 1)
    dense = {(basis.nb, basis.space.dim), (D, basis.nb, basis.nb)}
    assert not [a.shape for a in arrays if a.shape in dense]


def test_derivative_build_refuses_a_non_harmonic_row():
    # d/dX_r of x_1^2 conj(x_1) holds |x_1|^2, which leaves the degree-2
    # harmonics: written into a degree-3 row, the build's Parseval check
    # raises
    basis = crflow.build_basis(1, 4)
    space, row = basis.space, np.zeros(basis.poly_blocks[3].shape[1], dtype=complex)
    row[space.index[((2, 0), (1, 0))] - space.degree_range(3).start] = 1.0
    basis.poly_blocks[3][0] = row
    with pytest.raises(RuntimeError, match="degree-3 functions leaves degree 2"):
        basis.derivatives(np.zeros(basis.nb))


@pytest.mark.parametrize("n, J", [(1, 8), (1, 12), (2, 4)])
def test_table_stores_each_pair_once(n, J):
    # a table row holds two basis rows of one charge group: the pair
    # sqrt2 Re h, sqrt2 Im h for q != 0, two consecutive rows at q = 0
    basis = crflow.build_basis(n, J)
    largest = max(np.bincount([k - j for j, k in basis.bidegrees]))
    assert basis._table.shape[1] == -(-largest // 2)
    if (n, J) == (1, 8):
        assert basis._table.nbytes == 435456


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
# projection / synthesis
# ---------------------------------------------------------------------------

def test_analyze_constant(basis8):
    u = Field.from_values(basis8, np.ones(len(basis8.nodes)))
    i0 = basis8.bidegrees.index((0, 0))
    c = u.coeffs.copy()
    const_coeff = c[i0]
    c[i0] = 0
    assert np.abs(c).max() < 1e-12
    # the unit-norm constant function is 1/sqrt(vol)
    assert abs(const_coeff - np.sqrt(basis8.vol)) < 1e-10


def test_analyze_coordinate_unit_coefficient(basis8):
    # the L2-normalized multiple of Re x_1 has unit coefficient norm; the
    # natural normalization here is sqrt(2(n+1)/vol) Re x_1.  Its coefficients
    # lie on the {0,1} pair, and the Hopf field acts on x_1 = Re x_1 + i Im x_1
    # as i: T Re x_1 = -Im x_1 and T Im x_1 = Re x_1, so x_1 is in H_{1,0}
    n = basis8.n
    scale = np.sqrt(2 * (n + 1) / basis8.vol)
    re, im = (Field.from_values(basis8, scale * part(basis8.nodes[:, 0]))
              for part in (np.real, np.imag))
    assert abs(np.linalg.norm(re.coeffs) - 1.0) < 1e-10
    nz = np.abs(re.coeffs) > 1e-10
    assert all(basis8.bidegrees[i] == (0, 1) for i in np.nonzero(nz)[0])
    assert np.abs(jx_derivative(basis8, re.coeffs) + im.values).max() < 1e-10
    assert np.abs(jx_derivative(basis8, im.coeffs) - re.values).max() < 1e-10


def test_roundtrip_band_limited(basis8):
    u = random_field(basis8, 1)
    v = Field.from_values(basis8, u.values)
    assert np.abs(v.coeffs - u.coeffs).max() < 1e-10


def test_synthesize_matches_cached_values(basis8):
    u = random_field(basis8, 2)
    assert np.abs(basis8.synthesize(u.coeffs) - u.values).max() < 1e-12


def test_field_arithmetic_takes_fields_only(basis8):
    one = Field.constant(basis8, 1.0)
    assert np.abs((one - one).values).max() == 0.0
    with pytest.raises(TypeError):
        one + 1.0
    with pytest.raises(TypeError):
        one - 1.0
    with pytest.raises(TypeError):
        one * one


# ---------------------------------------------------------------------------
# the Hopf-fiber transform against the dense reference
# ---------------------------------------------------------------------------

def dense_synthesis(basis, coeffs):
    # the basis functions' polynomials evaluated on the whole grid
    return basis.space.evaluate(np.asarray(coeffs) @ dense_poly(basis), basis.nodes)


def dense_projection(basis, values):
    # sum_g h_k(g) w_g v_g, through the monomial moments of w v, in blocks
    wv = basis.weights * np.asarray(values)
    moments = 0.0
    for start in range(0, wv.shape[-1], 2048):
        table = basis.space.monomial_table(basis.nodes[start:start + 2048])
        moments = moments + wv[..., start:start + 2048] @ table.T
    return moments @ dense_poly(basis).T


@pytest.fixture(scope="module", params=[(1, 8), (1, 12), (2, 4)],
                ids=["n1J8", "n1J12", "n2J4"])
def transform_basis(request):
    return crflow.build_basis(*request.param)


@pytest.mark.parametrize("shape", [(), (3,)], ids=["real-1d", "real-stacked"])
def test_transforms_match_dense_reference(transform_basis, shape):
    basis = transform_basis
    rng = np.random.default_rng(31)
    c = rng.normal(size=shape + (basis.nb,))
    v = rng.normal(size=shape + (len(basis.nodes),))
    for got, ref in ((basis.synthesize(c), dense_synthesis(basis, c)),
                     (basis.project(v), dense_projection(basis, v))):
        assert got.dtype == np.float64
        ref = ref.real
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_native_core_with_its_boundaries_is_the_transforms(transform_basis):
    # the flow's stages run the core between padded slot vectors and
    # fiber-ordered values; converted at both ends it is synthesize/project
    basis = transform_basis
    rng = np.random.default_rng(35)
    for shape in ((1,), (3,)):
        c = rng.normal(size=shape + (basis.nb,))
        v = rng.normal(size=shape + (len(basis.nodes),))
        # plans on caller buffers read their input at each call
        x, out = np.zeros(basis.to_slots(c).shape), np.full(v.shape, np.nan)
        synthesize = basis.synthesis_plan(x, out)
        x[...] = basis.to_slots(c)
        assert synthesize() is out
        assert np.array_equal(basis.from_fibers(out), basis.synthesize(c))
        w, out = np.zeros(v.shape), np.full(x.shape, np.nan)
        project = basis.projection_plan(w, out)
        w[...] = basis.to_fibers(basis.weights * v)
        assert project() is out
        assert np.array_equal(basis.from_slots(out), basis.project(v))
        strided = np.empty(v.shape[:-1] + (2 * v.shape[-1],))[..., ::2]
        with pytest.raises(ValueError, match="contiguous"):
            basis.synthesis_plan(x, strided)
    n = basis.n
    assert np.array_equal(basis.fiber_weights, basis.to_fibers(basis.weights))
    assert np.array_equal(basis.from_slots(basis.yamabe_slots),
                          (2.0 + 2.0 / n) * basis.eigenvalues + n * (n + 1) / 2.0)


def test_projected_slot_vectors_are_zero_on_the_pads(transform_basis):
    # the stage recurrence adds slot vectors and never clears the pads
    basis = transform_basis
    pads = np.ones(basis.to_slots(np.zeros(basis.nb)).shape, dtype=bool)
    pads[basis._slot] = False
    assert pads.any()
    v = np.random.default_rng(37).normal(size=(2, len(basis.nodes)))
    x = np.full(v.shape[:-1] + basis.yamabe_slots.shape, np.nan)
    basis.projection_plan(basis.to_fibers(basis.weights * v), x)()
    assert np.all(x[:, pads] == 0.0) and np.all(basis.yamabe_slots[pads] == 0.0)


def test_fiber_shift_multiplies_charge_q_by_its_phase(transform_basis):
    # x -> w x, w = e^{2 pi i/M}, multiplies H_{j,k} by w^q, q = j - k: on a
    # pair (sqrt2 Re h, sqrt2 Im h) with coefficients (a, b) the charge-q
    # component a - i b turns by w^q, and H_{j,j} (q = 0) stays
    basis = transform_basis
    M = 2 * basis.J + 5
    shift = np.arange(len(basis.nodes)).reshape((-1,) + (M,) * (basis.n + 1))
    shift = np.roll(shift, -1, axis=tuple(range(1, basis.n + 2))).ravel()
    omega = np.exp(2j * np.pi / M)
    assert np.abs(basis.nodes[shift] - omega * basis.nodes).max() < 1e-14
    c = np.random.default_rng(33).normal(size=basis.nb)
    moved = basis.project(basis.synthesize(c)[shift])
    jk = np.array(basis.bidegrees)
    # the Re rows: the even offsets of each j < k block
    re = np.array([i for i, (j, k) in enumerate(basis.bidegrees)
                   if j < k and (i - basis.bidegrees.index((j, k))) % 2 == 0])
    q = jk[re, 0] - jk[re, 1]
    z, z_moved = c[re] - 1j * c[re + 1], moved[re] - 1j * moved[re + 1]
    assert np.abs(z_moved - omega ** q * z).max() < 1e-12
    diag = jk[:, 0] == jk[:, 1]
    assert np.abs(moved[diag] - c[diag]).max() < 1e-12


def test_flow_never_builds_the_dense_matrix():
    from crflow.flow import FlowConfig, run, volume_renormalize
    from crflow.presets import f_two_peak

    basis = crflow.build_basis(1, 8)
    f = f_two_peak(basis)
    vals = 1.0 + 0.05 * np.real(basis.nodes[:, 0] * np.conj(basis.nodes[:, 1]))
    u0 = volume_renormalize(Field.from_values(basis, vals))
    res = run(u0, f, FlowConfig(dt_init=0.05, t_max=10.0, max_steps=5, record_every=1))
    assert len(res.records) == 6 and res.records[-1].theta is not None
    assert "funcs" not in vars(basis) and "analysis" not in vars(basis)


# ---------------------------------------------------------------------------
# real basis
# ---------------------------------------------------------------------------

def test_real_basis_funcs(basis8, basis2_n2):
    # orthonormality at both sizes is test_gram_orthonormality
    for basis in (basis8, basis2_n2):
        assert basis.funcs.dtype == np.float64
        assert all(j <= k for j, k in basis.bidegrees)


def test_real_field_has_real_coefficients(basis8):
    u = random_field(basis8, 21)
    assert u.coeffs.dtype == np.float64 and u.values.dtype == np.float64
    v = Field.from_values(basis8, u.values)
    assert np.abs(v.coeffs - u.coeffs).max() < 1e-10
    assert np.abs(Field.from_coeffs(basis8, u.coeffs).values - u.values).max() < 1e-10


def test_complex_input_raises_type_error(basis8):
    # fields are real; numpy alone would drop the imaginary part with a warning
    c = np.zeros((3, basis8.nb), dtype=complex)
    v = np.ones(len(basis8.nodes), dtype=complex)
    for call in (lambda: basis8.synthesize(c), lambda: basis8.synthesize(c[0]),
                 lambda: basis8.project(v), lambda: basis8.quad(v),
                 lambda: Field.from_values(basis8, v),
                 lambda: Field.from_values(basis8, basis8.nodes[:, 0]),
                 lambda: Field.from_coeffs(basis8, c[0]),
                 lambda: 1j * Field.constant(basis8),
                 lambda: np.complex128(2) * Field.constant(basis8),
                 # numpy arrays defer to Field instead of broadcasting over it
                 lambda: np.array([2.0, 3.0]) * Field.constant(basis8),
                 lambda: np.array(2.0) * Field.constant(basis8)):
        with pytest.raises(TypeError, match="real"):
            call()
    u = Field.constant(basis8)
    assert np.array_equal((np.float64(2.0) * u).values, 2.0 * u.values)


@pytest.mark.parametrize("n, J", [(1, 8), (2, 4)], ids=["n1J8", "n2J4"])
def test_euler_and_hopf_fields_match_the_monomial_oracle(n, J):
    # on the monomial x^a conj(x)^b the Euler field X is |a| + |b| and the
    # Hopf field JX is i (|a| - |b|); the horizontal gradient is orthogonal
    # to both
    from crflow.spectral import horizontal_gradient_values

    basis = crflow.build_basis(n, J)
    space = basis.space
    jk = np.array(basis.bidegrees)
    c = np.random.default_rng(23).normal(size=basis.nb)
    mono = basis.monomial_coeffs(c)
    grad = basis.synthesize(basis.derivatives(c))
    X, JX = real_coords(basis.nodes), real_coords(1j * basis.nodes)
    for field, factor in ((X, space.degree), (JX, 1j * space.charge)):
        got = np.einsum("rk,kr->k", grad, field)
        want = np.real(space.evaluate(factor * mono, basis.nodes))
        assert np.abs(got - want).max() < 1e-10 * np.abs(want).max()
    # T o T = -(j - k)^2 on each pair, through two transform round trips
    TT = basis.project(jx_derivative(basis, basis.project(jx_derivative(basis, c))))
    want = -(jk[:, 0] - jk[:, 1]) ** 2 * c
    assert np.abs(TT - want).max() < 1e-13 * np.abs(want).max()
    H = horizontal_gradient_values(basis, c)
    for field in (X, JX):
        assert np.abs(np.einsum("rk,kr->k", H, field)).max() < 1e-12 * np.abs(H).max()


# ---------------------------------------------------------------------------
# sub-Laplacian
# ---------------------------------------------------------------------------

def test_sub_laplacian_constant_and_anchor(basis8, basis2_n2):
    for basis in (basis8, basis2_n2):
        n = basis.n
        one = Field.constant(basis, 1.0)
        assert np.abs(crflow.sub_laplacian(one).values).max() < 1e-12
        for j in range(2 * n + 2):
            xj = Field.coordinate(basis, j)
            lap = crflow.sub_laplacian(xj)
            assert np.abs(lap.values + (n / 2.0) * xj.values).max() < 1e-10


def test_sub_laplacian_product_monomial(basis8):
    # x_1 x_2 is a (2,0) harmonic: its real and imaginary parts have
    # eigenvalue n = 1
    prod = basis8.nodes[:, 0] * basis8.nodes[:, 1]
    for vals in (prod.real, prod.imag):
        u = Field.from_values(basis8, vals)
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
        u = random_field(basis8, seed)
        g = crflow.horizontal_grad_sq(u)
        lhs = crflow.integrate(g)
        lap = crflow.sub_laplacian(u)
        rhs = -basis8.quad(u.values * lap.values)
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_grad_sq_eigenfunction_rayleigh(basis8):
    n = basis8.n
    u = Field.from_values(basis8, np.real(basis8.nodes[:, 0]))
    num = crflow.integrate(crflow.horizontal_grad_sq(u))
    den = basis8.quad(u.values ** 2)
    assert abs(num / den - n / 2.0) < 1e-10


def test_grad_sq_nonnegative_up_to_truncation(basis8):
    from crflow.spectral import grad_inner_values

    # the point values are an exact polynomial identity: nonnegative outright
    u = random_field(basis8, 6)
    gv = grad_inner_values(u, u)
    assert gv.min() > -1e-10 * np.abs(gv).max()
    # the degree-J projection of the degree-2J square can undershoot, but for
    # a smooth (low-degree) field the dip stays at projection-residual size
    u_smooth = low_degree_field(basis8, 60, max_degree=3)
    g = crflow.horizontal_grad_sq(u_smooth)
    assert g.values.min() > -1e-8 * np.abs(g.values).max()


def low_degree_field(basis, seed, max_degree=4):
    # coefficients only in bidegrees j + k <= max_degree; at 4, products stay
    # in degree J = 8
    rng = np.random.default_rng(seed)
    c = np.zeros(basis.nb)
    low = [i for i, (j, k) in enumerate(basis.bidegrees) if j + k <= max_degree]
    c[low] = rng.normal(size=len(low))
    return Field.from_coeffs(basis, c)


def test_grad_inner_matches_carre_du_champ(basis8):
    from crflow.spectral import grad_inner_values

    # independent reference: (Lap_b(uw) - u Lap_b w - w Lap_b u) / 2, exact
    # here because uw is band-limited to degree J, at n = 1 and n = 2
    for basis, degree in ((basis8, 4), (crflow.build_basis(2, 4), 2)):
        pairs = [
            (low_degree_field(basis, 11, degree), low_degree_field(basis, 12, degree)),
            (Field.coordinate(basis, 0), low_degree_field(basis, 13, degree)),
            (low_degree_field(basis, 14, degree), Field.coordinate(basis, 3)),
        ]
        for u, w in pairs:
            uw = Field.from_values(basis, u.values * w.values)
            ref = 0.5 * (crflow.sub_laplacian(uw).values
                         - u.values * crflow.sub_laplacian(w).values
                         - w.values * crflow.sub_laplacian(u).values)
            g = grad_inner_values(u, w)
            assert np.abs(g - ref).max() < 1e-10 * np.abs(g).max()


def test_grad_inner_of_a_field_with_itself_synthesizes_it_once(basis8, monkeypatch):
    import crflow.spectral as spectral

    u = low_degree_field(basis8, 16)
    twin = Field.from_coeffs(basis8, u.coeffs.copy())    # equal, not identical
    want = spectral.grad_inner_values(u, twin)
    calls = []
    gradient = spectral.horizontal_gradient_values
    monkeypatch.setattr(spectral, "horizontal_gradient_values",
                        lambda *args: calls.append(args) or gradient(*args))
    assert np.array_equal(spectral.grad_inner_values(u, u), want)
    assert len(calls) == 1
    assert np.array_equal(spectral.horizontal_grad_sq(u).values,
                          Field.from_values(basis8, want).values)
    assert len(calls) == 2
    spectral.grad_inner_values(u, twin)
    assert len(calls) == 4


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
        quad_ip = basis8.quad(u.values * w.values)
        assert abs(quad_ip - u.coeffs @ w.coeffs) < 1e-10
