"""Point evaluation and point calculus of the monomial algebra."""

import numpy as np
import pytest

from crflow.polynomials import _BLOCK_ENTRIES, MonomialSpace, PolyCalculus


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
        fd[:, j] = (calc.value(up[:, 0::2] + 1j * up[:, 1::2])
                    - calc.value(down[:, 0::2] + 1j * down[:, 1::2])) / (2 * h)
    grad = calc.ambient_gradient(pts)
    assert grad.shape == (6, 4)
    assert np.abs(grad - fd).max() <= 1e-7 * np.abs(grad).max()


def test_hessian_eigs_of_height_function_at_its_maximum():
    # Re x_0 restricted to S^3 peaks at (1, 0) with tangent Hessian -I
    space = MonomialSpace(2, 2)
    coeff = np.zeros(space.dim, dtype=complex)
    coeff[space.index[((1, 0), (0, 0))]] = 0.5
    coeff[space.index[((0, 0), (1, 0))]] = 0.5
    eigs = PolyCalculus(space, coeff).hessian_eigs(np.array([1.0, 0.0]))
    assert np.abs(eigs + 1.0).max() < 1e-8
