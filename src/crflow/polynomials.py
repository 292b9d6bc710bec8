"""Monomial algebra for polynomials in (x, conj x) restricted to the sphere.

This module is the one home of monomial calculus: no other code in the
package enumerates, evaluates or differentiates monomials.

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
from typing import NamedTuple

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


class MonomialSpace:
    """Indexed monomial basis of polynomials of total degree <= maxdeg; the
    x^a conj(x)^b with |a| = j, |b| = k fill the index range blocks[(j, k)]."""

    def __init__(self, nc, maxdeg):
        self.nc = nc
        self.maxdeg = maxdeg
        mons = []
        self.blocks = {}
        for total in range(maxdeg + 1):
            for j in range(total + 1):
                start = len(mons)
                mons.extend((a, b) for a in _multi_indices(nc, j)
                            for b in _multi_indices(nc, total - j))
                self.blocks[(j, total - j)] = slice(start, len(mons))
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

    def monomial_table(self, points, rows=slice(None)):
        """Values of the monomials mons[rows] at the points (N, nc), shape
        (count, N): products of x_i^a_i conj(x_i)^b_i from a power table."""
        A, B = (e[rows] for e in self.exponents)
        x = np.asarray(points, dtype=complex).T
        pw = np.ones((self.nc, self.maxdeg + 1, x.shape[1]), dtype=complex)
        for d in range(1, self.maxdeg + 1):
            pw[:, d] = pw[:, d - 1] * x
        cpw = np.conj(pw)
        table = np.ones((len(A), x.shape[1]), dtype=complex)
        for i in range(self.nc):
            table *= pw[i, A[:, i]]
            table *= cpw[i, B[:, i]]
        return table

    def evaluate(self, coeff, points):
        """Values at sphere points: shape (N,) for a coefficient vector,
        (k, N) for a (k, dim) coefficient matrix.

        Points are taken in blocks of about _BLOCK_ENTRIES monomial-point
        entries, so the monomial table stays small whatever N is."""
        coeff = np.asarray(coeff)
        N = len(points)
        out = np.empty(coeff.shape[:-1] + (N,), dtype=complex)
        width = max(1, _BLOCK_ENTRIES // self.dim)
        for start in range(0, N, width):
            out[..., start:start + width] = \
                coeff @ self.monomial_table(points[start:start + width])
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

    def degree_range(self, m):
        """The index range of the monomials of total degree m."""
        return slice(self.blocks[(0, m)].start, self.blocks[(m, 0)].stop)

    def gradients(self, coeff, degree=None):
        """Coefficients of the real-coordinate derivatives d/d Re x_i = d_i +
        dbar_i (row 2i) and d/d Im x_i = i (d_i - dbar_i) (row 2i + 1), in
        real_coords order, with d_i = d/dx_i and dbar_i = d/d conj(x_i);
        each in this space: shape (2 nc, dim) for a coefficient vector,
        (2 nc, k, dim) for a (k, dim) coefficient matrix.  With degree = m,
        coeff holds the coefficients of the degree-m monomials only, and the
        derivatives those of the degree-(m - 1) monomials only."""
        coeff = np.asarray(coeff)
        maps, width = self.wirtinger_maps, self.dim
        if degree is not None:
            # each map lowers the degree by one, and its sources are sorted
            s, t = self.degree_range(degree), self.degree_range(degree - 1)
            maps, width = [], t.stop - t.start
            for src, tgt, fac in self.wirtinger_maps:
                keep = slice(*np.searchsorted(src, (s.start, s.stop)))
                maps.append((src[keep] - s.start, tgt[keep] - t.start, fac[keep]))
        wirt = np.zeros((2 * self.nc,) + coeff.shape[:-1] + (width,), dtype=complex)
        for r, (src, tgt, fac) in enumerate(maps):
            wirt[r][..., tgt] = fac * coeff[..., src]
        d, dbar = wirt[:self.nc], wirt[self.nc:]
        return np.stack([d + dbar, 1j * (d - dbar)], axis=1).reshape(wirt.shape)


def real_coords(points):
    """Ambient real coordinates (Re x_1, Im x_1, ..., Im x_nc) of points."""
    points = np.asarray(points, dtype=complex)
    shape = points.shape[:-1] + (2 * points.shape[-1],)
    return np.stack([points.real, points.imag], axis=-1).reshape(shape)


class PointJet(NamedTuple):
    """PolyCalculus.jet at N points; D = 2 nc real coordinates."""
    value: np.ndarray           # (N,) Re f
    sub_laplacian: np.ndarray   # (N,) Lap_b Re f
    gradient: np.ndarray        # (N, D) in real_coords
    hessian: np.ndarray         # (N, D, D) in real_coords
    tangent: np.ndarray         # (N, D) gradient minus its radial part
    frame: np.ndarray           # (N, D, D - 1) orthonormal tangent bases Q
    sphere_hessian: np.ndarray  # (N, D - 1, D - 1) Q^T (hessian - <gradient, X> I) Q


class PolyCalculus:
    """Point calculus of one polynomial: its value, sub-Laplacian and exact
    first and second derivatives of its real part, from one monomial table
    per point set."""

    def __init__(self, space, coeff):
        self.space = space
        coeff = np.asarray(coeff, dtype=complex)
        grads = space.gradients(coeff)
        # row 2 nc s + r of the Hessian rows: the s-th derivative of
        # gradient row r
        hess = space.gradients(grads).reshape(-1, space.dim)
        self._rows = np.vstack([coeff, space.sub_laplacian(coeff), grads, hess])

    def jet(self, points):
        """PointJet at the points (N, nc); the sphere parts take X =
        real_coords(points) as the unit normal."""
        D = 2 * self.space.nc
        W = self.space.evaluate(self._rows, points).real
        grad, hess = W[2:2 + D].T, W[2 + D:].T.reshape(-1, D, D)
        X, eye = real_coords(points), np.eye(D)
        radial = np.sum(grad * X, axis=1)
        frame = np.concatenate([X[:, :, None], np.broadcast_to(eye, hess.shape)], axis=2)
        Q = np.linalg.qr(frame)[0][:, :, 1:]
        return PointJet(W[0], W[1], grad, hess, grad - radial[:, None] * X,
                        Q, Q.mT @ (hess - radial[:, None, None] * eye) @ Q)
