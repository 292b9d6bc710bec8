"""Monomial algebra for polynomials in (x, conj x) restricted to the sphere.

A polynomial is a coefficient vector over the monomial list of a
MonomialSpace(nc, maxdeg): all x^a conj(x)^b with |a| + |b| <= maxdeg, for
nc = n + 1 complex coordinates.  Restrictions to |x| = 1 are not unique
representatives, but every operator used here (ambient Laplacian slicewise,
the Hopf derivative T, the induced sub-Laplacian) is well defined on
restrictions, so any representative gives the same values on the sphere.

Key facts used throughout:

  * ambient Laplacian on C^{nc}:  Lap(x^a conj x^b) = 4 sum_i a_i b_i x^{a-e_i} conj x^{b-e_i}
  * round sphere Laplacian of a degree-k homogeneous piece p_k:
        Lap_S(p_k|_S) = (Lap p_k)|_S - k (k + 2 nc - 2) p_k|_S
  * Hopf derivative:  T(x^a conj x^b) = i (|a| - |b|) x^a conj x^b
  * sub-Laplacian:    Lap_b = (Lap_S - T^2) / 4
"""

from functools import cached_property

import numpy as np

# monomial-point entries per block of points in MonomialSpace.evaluate
_BLOCK_ENTRIES = 2 ** 16


def _multi_indices(nc, total):
    """All nc-tuples of nonnegative ints summing to total."""
    if nc == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        out.extend((first,) + rest for rest in _multi_indices(nc - 1, total - first))
    return out


def monomials_of_bidegree(nc, j, k):
    return [(a, b) for a in _multi_indices(nc, j) for b in _multi_indices(nc, k)]


class MonomialSpace:
    """Indexed monomial basis of polynomials of total degree <= maxdeg."""

    def __init__(self, nc, maxdeg):
        self.nc = nc
        self.maxdeg = maxdeg
        mons = []
        for total in range(maxdeg + 1):
            for j in range(total + 1):
                mons.extend(monomials_of_bidegree(nc, j, total - j))
        self.mons = mons
        self.index = {m: i for i, m in enumerate(mons)}
        self.dim = len(mons)
        self.degree = np.array([sum(a) + sum(b) for a, b in mons])
        self.charge = np.array([sum(a) - sum(b) for a, b in mons])
        self._build_ambient_lap()

    def _build_ambient_lap(self):
        rows, cols, vals = [], [], []
        for col, (a, b) in enumerate(self.mons):
            for i in range(self.nc):
                if a[i] and b[i]:
                    a2 = tuple(a[j] - (j == i) for j in range(self.nc))
                    b2 = tuple(b[j] - (j == i) for j in range(self.nc))
                    rows.append(self.index[(a2, b2)])
                    cols.append(col)
                    vals.append(4.0 * a[i] * b[i])
        self._lap_rows = np.array(rows, dtype=np.int64)
        self._lap_cols = np.array(cols, dtype=np.int64)
        self._lap_vals = np.array(vals)

    # ------------------------------------------------------------------
    # linear operators on coefficient vectors
    # ------------------------------------------------------------------

    def ambient_laplacian(self, coeff):
        out = np.zeros_like(coeff)
        np.add.at(out, self._lap_rows, self._lap_vals * coeff[self._lap_cols])
        return out

    def round_laplacian(self, coeff):
        """Laplace-Beltrami of the restriction, computed slicewise in degree."""
        k = self.degree
        return self.ambient_laplacian(coeff) - k * (k + 2 * self.nc - 2) * coeff

    def hopf_sq(self, coeff):
        """T^2 = -(charge)^2 multiplier."""
        return -(self.charge.astype(float) ** 2) * coeff

    def sub_laplacian(self, coeff):
        return (self.round_laplacian(coeff) - self.hopf_sq(coeff)) / 4.0

    # ------------------------------------------------------------------
    # products
    # ------------------------------------------------------------------

    def product_table(self, space_a, space_b):
        """Flat target indices for the outer product of two sub-spaces.

        Returns idx of shape (dim_a * dim_b,) mapping pairwise monomial
        products into this space; requires maxdeg >= deg_a + deg_b.  No
        caller in the package; perfbench/tracing.py traces it as a layer.
        """
        idx = np.empty(space_a.dim * space_b.dim, dtype=np.int64)
        pos = 0
        for (a1, b1) in space_a.mons:
            for (a2, b2) in space_b.mons:
                key = (tuple(u + v for u, v in zip(a1, a2)),
                       tuple(u + v for u, v in zip(b1, b2)))
                idx[pos] = self.index[key]
                pos += 1
        return idx

    # ------------------------------------------------------------------
    # evaluation and calculus at points
    # ------------------------------------------------------------------

    @cached_property
    def exponents(self):
        """Exponent arrays (A, B), each (dim, nc): monomial m is
        prod_i x_i^A[m, i] conj(x_i)^B[m, i]."""
        return tuple(np.array(e, dtype=np.int64) for e in zip(*self.mons))

    def evaluate(self, coeff, points):
        """Values at sphere points: shape (N,) for a coefficient vector,
        (k, N) for a (k, dim) coefficient matrix.

        Points are taken in blocks of about _BLOCK_ENTRIES monomial-point
        entries, so the monomial table stays small whatever N is."""
        A, B = self.exponents
        coeff = np.asarray(coeff)
        points = np.asarray(points, dtype=complex)
        N = points.shape[0]
        out = np.empty(coeff.shape[:-1] + (N,), dtype=complex)
        width = max(1, _BLOCK_ENTRIES // self.dim)
        for start in range(0, N, width):
            block = points[start:start + width].T
            pw = np.ones((self.nc, self.maxdeg + 1, block.shape[1]), dtype=complex)
            for d in range(1, self.maxdeg + 1):
                pw[:, d] = pw[:, d - 1] * block
            cpw = np.conj(pw)
            vals = np.prod([pw[i, A[:, i]] * cpw[i, B[:, i]] for i in range(self.nc)], axis=0)
            out[..., start:start + width] = coeff @ vals
        return out

    @cached_property
    def wirtinger_maps(self):
        """For d/dx_i (entry i) and d/d conj(x_i) (entry nc + i): the
        monomials it does not kill, their images and the exponent factors.
        Each map is injective, so images never collide."""
        maps = []
        for conj in (False, True):
            for i in range(self.nc):
                src, tgt, fac = [], [], []
                for col, (a, b) in enumerate(self.mons):
                    e = b if conj else a
                    if e[i]:
                        low = tuple(e[t] - (t == i) for t in range(self.nc))
                        src.append(col)
                        tgt.append(self.index[(a, low) if conj else (low, b)])
                        fac.append(e[i])
                maps.append((np.array(src, dtype=np.int64),
                             np.array(tgt, dtype=np.int64), np.array(fac, dtype=float)))
        return maps

    def wirtinger_gradients(self, coeff):
        """Coefficient rows of d/dx_i (row i) and d/d conj(x_i) (row nc + i),
        each in this space."""
        grads = np.zeros((2 * self.nc, self.dim), dtype=complex)
        for r, (src, tgt, fac) in enumerate(self.wirtinger_maps):
            grads[r, tgt] = fac * coeff[src]
        return grads


class PolyCalculus:
    """Cached point calculus for one polynomial: values, sphere gradients,
    Hessian eigenvalues at critical points, sub-Laplacian values."""

    def __init__(self, space, coeff):
        self.space = space
        self.coeff = np.asarray(coeff, dtype=complex)
        self._grads = space.wirtinger_gradients(self.coeff)
        self._lap = space.sub_laplacian(self.coeff)

    def value(self, points):
        return np.real(self.space.evaluate(self.coeff, points))

    def sub_laplacian_value(self, points):
        return np.real(self.space.evaluate(self._lap, points))

    def ambient_gradient(self, points):
        """Gradient of the (real) polynomial in ambient R^{2nc} coordinates:
        shape (N, 2 nc), derivatives along (Re x_1, Im x_1, ..., Im x_nc)."""
        gz, gzb = np.split(self.space.evaluate(self._grads, points).T, 2, axis=1)
        out = np.empty((gz.shape[0], 2 * self.space.nc))
        out[:, 0::2] = np.real(gz + gzb)          # d/d Re(x_i)
        out[:, 1::2] = np.real(1j * (gz - gzb))   # d/d Im(x_i)
        return out

    def tangent_gradient(self, points):
        points = np.asarray(points, dtype=complex)
        amb = self.ambient_gradient(points)
        X = np.empty((points.shape[0], 2 * self.space.nc))
        X[:, 0::2] = points.real
        X[:, 1::2] = points.imag
        rad = np.sum(amb * X, axis=1)
        tang = amb - rad[:, None] * X
        return tang, np.linalg.norm(tang, axis=1)

    def hessian_eigs(self, point):
        point = np.asarray(point, dtype=complex)
        nc = self.space.nc
        D = 2 * nc
        h = 1e-5
        X = np.empty(D)
        X[0::2] = point.real
        X[1::2] = point.imag
        # gradients at X + h e_j, X - h e_j (j < D) and X, in one evaluation
        stencil = X + np.concatenate([h * np.eye(D), -h * np.eye(D), np.zeros((1, D))])
        G = self.ambient_gradient(stencil[:, 0::2] + 1j * stencil[:, 1::2])
        H = (G[:D] - G[D:2 * D]).T / (2 * h)
        H = (H + H.T) / 2.0
        radial = float(np.dot(G[2 * D], X))
        Q = np.linalg.qr(np.concatenate([X[:, None], np.eye(D)], axis=1))[0][:, 1:D]
        return np.linalg.eigvalsh(Q.T @ (H - radial * np.eye(D)) @ Q)
