"""Point evaluation and point calculus of the monomial algebra."""

import numpy as np
import pytest

import crflow
from crflow.errors import ConfigError
from crflow.polynomials import _BLOCK_ENTRIES, MonomialSpace, PolyCalculus
from crflow.presets import f_from_spec
from crflow.spectral import Field


def sphere_points(nc, count, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(count, nc)) + 1j * rng.normal(size=(count, nc))
    return x / np.linalg.norm(x, axis=1)[:, None]


def random_coeffs(space, seed, rows=None):
    rng = np.random.default_rng(seed)
    shape = (space.dim,) if rows is None else (rows, space.dim)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def naive_evaluate(space, coeff, points):
    """sum_m c_m prod_i x_i^a_i conj(x_i)^b_i, one monomial at a time."""
    out = np.zeros(points.shape[0], dtype=complex)
    for c, (a, b) in zip(coeff, space.mons):
        out += c * np.prod(points ** np.array(a) * np.conj(points) ** np.array(b),
                           axis=1)
    return out


@pytest.fixture(scope="module", params=[(1, 8), (1, 12), (2, 4)],
                ids=["n1-J8", "n1-J12", "n2-J4"])
def space(request):
    n, J = request.param
    return MonomialSpace(n + 1, J)


def test_evaluate_matches_per_monomial_reference(space):
    pts = sphere_points(space.nc, 40, seed=1)
    coeff = random_coeffs(space, seed=2)
    want = naive_evaluate(space, coeff, pts)
    got = space.evaluate(coeff, pts)
    assert got.shape == (40,)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_evaluate_coefficient_matrix_equals_rows(space):
    pts = sphere_points(space.nc, 25, seed=3)
    coeffs = random_coeffs(space, seed=4, rows=3)
    got = space.evaluate(coeffs, pts)
    assert got.shape == (3, 25)
    for row, c in zip(got, coeffs):
        want = space.evaluate(c, pts)
        assert np.abs(row - want).max() <= 1e-13 * np.abs(want).max()


def test_evaluate_blocks_match_unblocked(space):
    A, B = space.exponents
    width = _BLOCK_ENTRIES // space.dim
    pts = sphere_points(space.nc, 2 * width + 7, seed=5)
    coeff = random_coeffs(space, seed=6)
    # the whole (dim, N) monomial table at once
    table = np.prod(pts[None] ** A[:, None] * np.conj(pts)[None] ** B[:, None],
                    axis=2)
    want = coeff @ table
    got = space.evaluate(coeff, pts)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def loop_wirtinger_maps(space):
    """MonomialSpace.wirtinger_maps one monomial at a time: the exponent
    lowered by one, looked up in the space's index."""
    maps = []
    for conj in (False, True):
        for i in range(space.nc):
            src, tgt, fac = [], [], []
            for col, (a, b) in enumerate(space.mons):
                e = b if conj else a
                if e[i]:
                    low = tuple(e[t] - (t == i) for t in range(space.nc))
                    src.append(col)
                    tgt.append(space.index[(a, low) if conj else (low, b)])
                    fac.append(e[i])
            maps.append((np.array(src, dtype=np.int64),
                         np.array(tgt, dtype=np.int64), np.array(fac, dtype=float)))
    return maps


@pytest.mark.parametrize("nc, maxdeg", [(2, 0), (2, 1), (3, 10), (5, 3)])
def test_wirtinger_maps_match_the_monomial_loop(space, nc, maxdeg):
    # bit for bit, dtypes and shapes included, on the fixture's spaces and
    # on the constant space, a linear one, a deep one and a wide one
    for sp in (space, MonomialSpace(nc, maxdeg)):
        got, want = sp.wirtinger_maps, loop_wirtinger_maps(sp)
        assert len(got) == len(want) == 2 * sp.nc
        for g, w in zip(got, want):
            for a, b in zip(g, w):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert np.array_equal(a, b)


def test_jet_makes_one_evaluate_call(monkeypatch):
    space = MonomialSpace(3, 4)
    calc = PolyCalculus(space, random_coeffs(space, seed=11))
    calls = []
    evaluate = MonomialSpace.evaluate
    monkeypatch.setattr(MonomialSpace, "evaluate",
                        lambda self, *args: calls.append(1) or evaluate(self, *args))
    jet = calc.jet(sphere_points(3, 7, seed=12))
    assert len(calls) == 1
    assert jet.value.shape == jet.sub_laplacian.shape == (7,)
    assert jet.gradient.shape == jet.tangent.shape == (7, 6)
    assert jet.frame.shape == (7, 6, 5)
    assert jet.sphere_hessian.shape == (7, 5, 5)


def test_jet_value_and_sub_laplacian_are_the_evaluated_rows():
    space = MonomialSpace(2, 6)
    coeff = random_coeffs(space, seed=13)
    pts = sphere_points(2, 9, seed=14)
    jet = PolyCalculus(space, coeff).jet(pts)
    for got, c in ((jet.value, coeff), (jet.sub_laplacian, space.sub_laplacian(coeff))):
        want = np.real(space.evaluate(c, pts))
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_ambient_gradient_matches_central_differences():
    space = MonomialSpace(2, 8)
    calc = PolyCalculus(space, random_coeffs(space, seed=7))
    pts = sphere_points(2, 6, seed=8)
    X = np.concatenate([pts.real[:, :, None], pts.imag[:, :, None]],
                       axis=2).reshape(len(pts), 4)
    h = 1e-6
    fd = np.empty_like(X)
    for j in range(4):
        e = np.zeros(4)
        e[j] = h
        up, down = X + e, X - e
        fd[:, j] = (calc.jet(up[:, 0::2] + 1j * up[:, 1::2]).value
                    - calc.jet(down[:, 0::2] + 1j * down[:, 1::2]).value) / (2 * h)
    grad = calc.jet(pts).gradient
    assert grad.shape == (6, 4)
    assert np.abs(grad - fd).max() <= 1e-7 * np.abs(grad).max()


def test_sphere_hessian_of_height_function_at_its_maximum():
    # Re x_0 restricted to S^3 peaks at (1, 0) with tangent Hessian -I
    space = MonomialSpace(2, 2)
    coeff = np.zeros(space.dim, dtype=complex)
    coeff[space.index[((1, 0), (0, 0))]] = 0.5
    coeff[space.index[((0, 0), (1, 0))]] = 0.5
    jet = PolyCalculus(space, coeff).jet(np.array([[1.0, 0.0]]))
    eigs = np.linalg.eigvalsh(jet.sphere_hessian[0])
    assert np.abs(eigs + 1.0).max() < 1e-8
    assert np.abs(jet.tangent).max() < 1e-15


def central_difference_hessian(calc, point, h=1e-5):
    """Symmetrized central differences of the jet's gradient at one point."""
    D = 2 * calc.space.nc
    X = np.empty(D)
    X[0::2] = point.real
    X[1::2] = point.imag
    stencil = X + np.concatenate([h * np.eye(D), -h * np.eye(D)])
    G = calc.jet(stencil[:, 0::2] + 1j * stencil[:, 1::2]).gradient
    H = (G[:D] - G[D:]).T / (2 * h)
    return (H + H.T) / 2.0


@pytest.mark.parametrize("nc,maxdeg", [(2, 8), (3, 4)])
def test_exact_hessian_matches_central_differences(nc, maxdeg):
    space = MonomialSpace(nc, maxdeg)
    calc = PolyCalculus(space, random_coeffs(space, seed=9))
    pts = sphere_points(nc, 5, seed=10)
    jet = calc.jet(pts)
    assert jet.hessian.shape == (5, 2 * nc, 2 * nc)
    for x, H, grad, Ht in zip(pts, jet.hessian, jet.gradient, jet.sphere_hessian):
        fd = central_difference_hessian(calc, x)
        scale = np.abs(H).max()
        assert np.abs(H - fd).max() <= 1e-7 * scale
        # sphere Hessian: project H - <grad, X> I on the tangent space
        X = np.empty(2 * nc)
        X[0::2], X[1::2] = x.real, x.imag
        radial = float(grad @ X)
        Q = np.linalg.qr(np.concatenate([X[:, None], np.eye(2 * nc)], axis=1))[0][:, 1:]
        want = np.linalg.eigvalsh(Q.T @ (fd - radial * np.eye(2 * nc)) @ Q)
        assert np.abs(np.linalg.eigvalsh(Ht) - want).max() <= 1e-7 * scale


def test_f_from_spec_evaluates_terms_beyond_the_band_limit():
    # 1 + |x_0|^2 + 0.2 Re(x_0^2 conj(x_1)^2): the degree-4 term is read in
    # its own monomial space whatever J is, and is refused above J
    terms = [
        {"powers_x": [0, 0], "powers_xbar": [0, 0], "coeff": 1.0},
        {"powers_x": [1, 0], "powers_xbar": [1, 0], "coeff": 1.0},
        {"powers_x": [2, 0], "powers_xbar": [0, 2], "coeff": 0.1},
        {"powers_x": [0, 2], "powers_xbar": [2, 0], "coeff": [0.1, 0.0]},
    ]
    for J in (2, 3):
        with pytest.raises(ConfigError, match=f"above J = {J}: projection residual"):
            f_from_spec(crflow.build_basis(1, J), terms)
    basis = crflow.build_basis(1, 4)
    x0, x1 = basis.nodes.T
    direct = 1.0 + np.abs(x0) ** 2 + 0.2 * np.real(x0 ** 2 * np.conj(x1) ** 2)
    got = f_from_spec(basis, terms)
    want = Field.from_values(basis, direct)
    assert np.abs(got.coeffs - want.coeffs).max() <= 1e-12
    assert np.abs(got.values - direct).max() <= 1e-12


def test_two_peak_preset_is_refused_below_its_degree():
    from crflow.presets import f_two_peak

    with pytest.raises(ConfigError, match="above J = 1"):
        f_two_peak(crflow.build_basis(1, 1))
    assert f_two_peak(crflow.build_basis(1, 2)).values.min() > 0
