"""Spectral discretization of scalar fields on S^{2n+1}.

Fields are held as coefficient vectors over a real orthonormal basis of
bigraded harmonic polynomial restrictions of total degree <= J, together with
cached values on a quadrature grid.  For j < k each orthonormal h of H_{j,k}
gives the pair sqrt2 Re h, sqrt2 Im h, which spans H_{j,k} + H_{k,j}; the
conjugation-closed H_{j,j} gets a real orthonormal basis of its own.  A real
field therefore has real coefficients, and synthesis (coeffs @ funcs) and
analysis (funcs @ (weights * values)) share one real matrix; complex fields
are transformed as their real and imaginary parts.

The grid is a product rule in Hopf coordinates
x_k = sqrt(t_k) e^{i th_k}: uniform phases (exact for charges |a_k - b_k| <=
deg) times a simplex rule in t (exact to the matching algebraic degree), so
all monomials of ambient degree <= 2J + 4 integrate exactly.  Weights are
scaled so the total measure equals the chart-side volume integral.

The sub-Laplacian is diagonal: on the bidegree-(j,k) block its eigenvalue is
(4 j k + 2 n (j + k)) / c, with c calibrated so the linear coordinate
functions carry eigenvalue n/2.  The horizontal-gradient pairing is computed
from first derivatives on the basis, Gamma_b(u, w) = (2 sum_i (d_i u dbar_i w
+ dbar_i u d_i w) - (E u)(E w) - (T u)(T w)) / 4, with d_i = d/dx_i, dbar_i =
d/d conj(x_i), E = j + k and T = i (j - k) on H_{j,k}; on the real basis T is
a rotation inside each (sqrt2 Re h, sqrt2 Im h) pair, so T u is real for
real u.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import product as iter_product
from math import pi

import numpy as np

from .errors import BudgetExceeded
from .hquad import sphere_volume
from .polynomials import MonomialSpace, monomials_of_bidegree

DEFAULT_BUDGET = 3.5e7   # max entries of the synthesis matrix
_VOL_CACHE = {}


def sphere_volume_cached(n):
    if n not in _VOL_CACHE:
        _VOL_CACHE[n] = sphere_volume(n)
    return _VOL_CACHE[n]


# ---------------------------------------------------------------------------
# quadrature grid
# ---------------------------------------------------------------------------

def _gl01(m):
    xg, wg = np.polynomial.legendre.leggauss(m)
    return (xg + 1.0) / 2.0, wg / 2.0


def _simplex_rule(n, tdeg):
    """Nodes (m, n+1) on the simplex sum t = 1 and weights for the uniform
    probability measure, exact for monomials of degree <= tdeg."""
    if n == 1:
        x, w = _gl01((tdeg + 2) // 2 + 1)
        T = np.stack([x, 1.0 - x], axis=1)
        return T, w / w.sum()
    if n == 2:
        mx = (tdeg + 1) // 2 + 1          # xi carries an extra (1 - xi) factor
        me = tdeg // 2 + 1
        x1, w1 = _gl01(mx)
        x2, w2 = _gl01(me)
        T, W = [], []
        for i in range(mx):
            for j in range(me):
                t1 = x1[i]
                t2 = (1.0 - x1[i]) * x2[j]
                T.append((t1, t2, 1.0 - t1 - t2))
                W.append(w1[i] * w2[j] * (1.0 - x1[i]))
        W = np.array(W)
        return np.array(T), W / W.sum()
    # recursive Duffy-type factorization t_1 = xi, rest = (1 - xi) * simplex(n-1)
    mx = (tdeg + n - 1) // 2 + 1
    x1, w1 = _gl01(mx)
    Tsub, Wsub = _simplex_rule(n - 1, tdeg)
    T, W = [], []
    for i in range(mx):
        for Ts, Ws in zip(Tsub, Wsub):
            T.append((x1[i],) + tuple((1.0 - x1[i]) * np.asarray(Ts)))
            W.append(w1[i] * Ws * (1.0 - x1[i]) ** (n - 1))
    W = np.array(W)
    return np.array(T), W / W.sum()


def sphere_quadrature(n, deg):
    """Grid exact for monomials x^a conj(x)^b of total degree <= deg.

    Returns (nodes (N, n+1) complex, weights (N,) summing to the volume)."""
    nc = n + 1
    M = deg + 1
    phases = np.exp(2j * pi * np.arange(M) / M)
    T, WT = _simplex_rule(n, deg // 2 + 1)
    s = np.sqrt(T)                                   # (m, nc)
    m_simplex = len(T)
    N = m_simplex * M ** nc
    nodes = np.empty((N, nc), dtype=complex)
    weights = np.empty(N)
    row = 0
    phase_tuples = np.array(list(iter_product(phases, repeat=nc)))   # (M^nc, nc)
    for it in range(m_simplex):
        nodes[row:row + len(phase_tuples)] = s[it] * phase_tuples
        weights[row:row + len(phase_tuples)] = WT[it]
        row += len(phase_tuples)
    weights *= sphere_volume_cached(n) / weights.sum()
    return nodes, weights


# ---------------------------------------------------------------------------
# basis
# ---------------------------------------------------------------------------

def _harmonic_nullspace(nc, j, k):
    """Monomial list of P_{j,k} and an orthonormal-column matrix spanning the
    kernel of the ambient Laplacian P_{j,k} -> P_{j-1,k-1}."""
    mons = monomials_of_bidegree(nc, j, k)
    if j == 0 or k == 0:
        return mons, np.eye(len(mons))
    lower = monomials_of_bidegree(nc, j - 1, k - 1)
    idx = {m: i for i, m in enumerate(lower)}
    L = np.zeros((len(lower), len(mons)))
    for col, (a, b) in enumerate(mons):
        for i in range(nc):
            if a[i] and b[i]:
                a2 = tuple(a[t] - (t == i) for t in range(nc))
                b2 = tuple(b[t] - (t == i) for t in range(nc))
                L[idx[(a2, b2)], col] += 4.0 * a[i] * b[i]
    _, s, vt = np.linalg.svd(L)
    rank = int(np.sum(s > 1e-10 * s[0])) if s.size else 0
    return mons, vt[rank:].T


def _calibrate_scale(n):
    """Scale c with Lap_b = (Lap_round - T^2)/c, anchored to eigenvalue n/2 on
    the linear coordinate x_1; c comes out 4 for every n."""
    space = MonomialSpace(n + 1, 1)
    e = np.zeros(space.dim)
    a = tuple(1 if i == 0 else 0 for i in range(n + 1))
    b = tuple(0 for _ in range(n + 1))
    e[space.index[(a, b)]] = 1.0
    image = space.round_laplacian(e) - space.hopf_sq(e)
    ratio = image[space.index[(a, b)]]
    off = np.abs(image - ratio * e).max()
    if off > 1e-12:
        raise RuntimeError("coordinate function is not an eigenfunction")
    return float(-ratio) / (n / 2.0)


class Basis:
    """Real orthonormal bigraded-harmonic basis with quadrature grid; the
    pair sqrt2 Re h, sqrt2 Im h of each h in H_{j,k}, j < k, is adjacent.

    Attributes:
      n, J             : sphere index and truncation degree
      nodes, weights   : quadrature grid, weights sum to vol
      funcs            : (nb, N) real synthesis matrix (rows orthonormal);
                         analysis is funcs @ (weights * values)
      bidegrees        : list of (j, k), j <= k, per basis function, which
                         lies in H_{j,k} + H_{k,j}
      eigenvalues      : (nb,) sub-Laplacian eigenvalues, >= 0
      poly             : (nb, dim msJ) complex coefficients in the monomial space
      wirtinger        : (2(n+1), nb, nb) derivative matrices, built lazily
      vol              : total measure of the sphere
    """

    def __init__(self, n, J, budget=DEFAULT_BUDGET):
        if n < 1:
            raise ValueError("n must be >= 1")
        if J < 1:
            raise ValueError("J must be >= 1")
        nc = n + 1
        deg = 2 * J + 4
        # H_{k,j} is the conjugate of H_{j,k}, so only j <= k is built
        blocks = [(j, m - j) + _harmonic_nullspace(nc, j, m - j)
                  for m in range(J + 1) for j in range(m // 2 + 1)]
        # predict sizes before allocating
        M = deg + 1
        T, _ = _simplex_rule(n, deg // 2 + 1)
        n_nodes = len(T) * M ** nc
        nb = sum(null.shape[1] * (1 if j == k else 2) for j, k, _, null in blocks)
        if nb * n_nodes > budget:
            raise BudgetExceeded(
                f"basis needs {nb} x {n_nodes} grid entries, over budget {budget:.0f}")

        self.n, self.J = n, J
        self.nodes, self.weights = sphere_quadrature(n, deg)
        self.vol = float(self.weights.sum())
        c = _calibrate_scale(n)
        self.space = MonomialSpace(nc, J)

        def monomial_values(ab):
            a, b = ab
            v = np.ones(len(self.nodes), dtype=complex)
            for i in range(nc):
                if a[i]:
                    v = v * self.nodes[:, i] ** a[i]
                if b[i]:
                    v = v * np.conj(self.nodes[:, i]) ** b[i]
            return v

        funcs, polys, eigs, tags, pair = [], [], [], [], []
        for j, k, mons, null in blocks:
            d = null.shape[1]
            if d == 0:
                continue
            block = null.T @ np.stack([monomial_values(ab) for ab in mons])   # (d, N)
            coef = null.T                               # coords in mons
            if j == k:
                # conjugation permutes the monomials of P_{j,j}; the Re and
                # Im parts of the null vectors span the real part of H_{j,j}
                pos = {ab: t for t, ab in enumerate(mons)}
                cconj = coef[:, [pos[(b, a)] for a, b in mons]]
                block = np.concatenate([block.real, block.imag])
                coef = np.concatenate([(coef + cconj) / 2.0, (coef - cconj) / 2.0j])
            G = (block * self.weights) @ block.conj().T
            evals, evecs = np.linalg.eigh(G)
            keep = evals > 1e-12 * evals.max()
            if keep.sum() != d:
                raise RuntimeError(f"H_{(j, k)} has rank {keep.sum()}, not {d}")
            R = evecs[:, keep] / np.sqrt(evals[keep])
            onb, onb_poly = R.T @ block, R.T @ coef
            P = np.zeros((d, self.space.dim), dtype=complex)
            P[:, [self.space.index[ab] for ab in mons]] = onb_poly
            if j < k:
                # sqrt2 Re h = (h + conj h) / sqrt2 and sqrt2 Im h =
                # (h - conj h) / (sqrt2 i), orthonormal as int h h' = 0 for j != k
                Pc = np.zeros_like(P)
                Pc[:, [self.space.index[(b, a)] for a, b in mons]] = np.conj(onb_poly)
                onb = np.stack([onb.real, onb.imag], axis=1).reshape(2 * d, -1)
                P = np.stack([P + Pc, (P - Pc) / 1j], axis=1).reshape(2 * d, -1)
                onb, P = np.sqrt(2.0) * onb, P / np.sqrt(2.0)
            funcs.append(onb)
            polys.append(P)
            eigs += [(4.0 * j * k + 2.0 * n * (j + k)) / c] * len(onb)
            tags += [(j, k)] * len(onb)
            pair += [1, -1] * d if j < k else [0] * d   # offset to the pair partner

        self.funcs = np.ascontiguousarray(np.concatenate(funcs))
        self.eigenvalues = np.array(eigs)
        self.bidegrees = tags
        self.poly = np.concatenate(polys)
        self.nb = len(tags)
        # T(sqrt2 Re h) = -(j-k) sqrt2 Im h and T(sqrt2 Im h) = (j-k) sqrt2 Re h
        pair = np.array(pair)
        self._hopf_partner = np.arange(self.nb) + pair
        self._hopf_factor = pair * np.array([j - k for j, k in tags], dtype=float)

    # -- transforms -----------------------------------------------------

    def synthesize(self, coeffs):
        """Grid values of coefficient rows; a complex input is synthesized
        as its real and imaginary parts in one real product."""
        c = np.asarray(coeffs)
        if not np.iscomplexobj(c):
            return c @ self.funcs
        both = np.stack([c.real, c.imag]).reshape(-1, self.nb) @ self.funcs
        both = both.reshape((2,) + c.shape[:-1] + (-1,))
        return both[0] + 1j * both[1]

    def project(self, values):
        """Basis coefficients of grid values: funcs @ (weights * values)."""
        v = self.weights * np.asarray(values)
        if not np.iscomplexobj(v):
            return self.funcs @ v
        both = self.funcs @ np.stack([v.real, v.imag], axis=-1)
        return both[:, 0] + 1j * both[:, 1]

    @cached_property
    def analysis(self):
        """(nb, N) matrix with project(values) = analysis @ values.  Built on
        first access only: no code in the package reads it, but
        perfbench/tracing.py reports its size."""
        return self.funcs * self.weights

    def quad(self, values):
        """Quadrature integral of grid values (complex allowed)."""
        return complex(self.weights @ np.asarray(values))

    # -- first-order calculus -------------------------------------------

    def hopf(self, coeffs):
        """Coefficients of T u, T = i (j - k) on H_{j,k}: a signed swap inside
        each (sqrt2 Re h, sqrt2 Im h) pair, zero on H_{j,j}."""
        return self._hopf_factor * np.asarray(coeffs)[..., self._hopf_partner]

    @cached_property
    def wirtinger(self):
        """(2(n+1), nb, nb) coefficient matrices of d/dx_i (rows 0..n) and
        d/d conj(x_i) (rows n+1..2n+1): coeffs of the derivative of u are
        u.coeffs @ wirtinger[r].

        d/dx_i commutes with the ambient Laplacian and lowers the degree by
        one, so it maps the basis functions of total degree m into the span
        of those of degree m - 1; each degree's derivatives are solved
        against those functions' polynomials.
        """
        degree = np.array([j + k for j, k in self.bidegrees])
        out = np.zeros((2 * (self.n + 1), self.nb, self.nb), dtype=complex)
        for r, (src_m, tgt_m, fac) in enumerate(self.space.wirtinger_maps):
            dpoly = np.zeros_like(self.poly)
            dpoly[:, tgt_m] = fac * self.poly[:, src_m]
            for m in range(1, self.J + 1):
                src, tgt = np.flatnonzero(degree == m), np.flatnonzero(degree == m - 1)
                cols = np.flatnonzero(self.space.degree == m - 1)
                Q = self.poly[np.ix_(tgt, cols)]
                dP = dpoly[np.ix_(src, cols)]
                X = np.linalg.lstsq(Q.T, dP.T, rcond=None)[0].T
                resid = float(np.abs(X @ Q - dP).max())
                if resid > 1e-10 * max(1.0, float(np.abs(dP).max())):
                    raise RuntimeError(
                        f"derivative of the degree-{m} functions leaves degree "
                        f"{m - 1}: residual {resid:.1e}")
                out[r][np.ix_(src, tgt)] = X
        return out

    def monomial_coeffs(self, coeffs):
        """Monomial-space representation of a field given basis coefficients."""
        return np.asarray(coeffs) @ self.poly

    def gram_error(self):
        G = (self.funcs * self.weights) @ self.funcs.T
        return float(np.abs(G - np.eye(self.nb)).max())


def build_basis(n, J, budget=DEFAULT_BUDGET):
    return Basis(n, J, budget=budget)


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Field:
    """A band-limited scalar field: basis coefficients + cached grid values."""
    basis: Basis
    coeffs: np.ndarray
    values: np.ndarray

    @classmethod
    def from_coeffs(cls, basis, coeffs):
        coeffs = np.asarray(coeffs)
        coeffs = coeffs.astype(np.result_type(coeffs, float), copy=False)
        return cls(basis, coeffs, basis.synthesize(coeffs))

    @classmethod
    def from_values(cls, basis, values):
        coeffs = basis.project(values)
        return cls(basis, coeffs, basis.synthesize(coeffs))

    @classmethod
    def constant(cls, basis, value=1.0):
        return cls.from_values(basis, np.full(len(basis.nodes), value))

    @classmethod
    def coordinate(cls, basis, i, conjugate=False):
        vals = np.conj(basis.nodes[:, i]) if conjugate else basis.nodes[:, i]
        return cls.from_values(basis, vals)

    @property
    def real_values(self):
        return np.real(self.values)

    def __add__(self, other):
        if not isinstance(other, Field):
            return NotImplemented
        return Field(self.basis, self.coeffs + other.coeffs,
                     self.values + other.values)

    def __sub__(self, other):
        return Field(self.basis, self.coeffs - other.coeffs,
                     self.values - other.values)

    def __mul__(self, scalar):
        return Field(self.basis, scalar * self.coeffs, scalar * self.values)

    __rmul__ = __mul__


def analyze(values, basis):
    """Quadrature projection of grid samples into the basis."""
    return Field.from_values(basis, values)


def synthesize(field):
    return field.basis.synthesize(field.coeffs)


def sub_laplacian(u):
    """Coefficient-wise multiplication by -lambda_{j,k}."""
    return Field.from_coeffs(u.basis, -u.basis.eigenvalues * u.coeffs)


def integrate(u):
    """Quadrature integral against the spherical volume form."""
    val = u.basis.quad(u.values)
    if abs(val.imag) > 1e-9 * (1.0 + abs(val)):
        return val
    return val.real


def inner(u, w):
    """L^2 inner product; equals sum coeff(u) conj(coeff(w)) by Parseval."""
    return complex(np.sum(u.coeffs * np.conj(w.coeffs)))


def _first_order_values(u):
    """Grid values of d/dx_i u, d/d conj(x_i) u (i = 0..n), E u and T u."""
    basis = u.basis
    euler = np.array(basis.bidegrees).sum(axis=1) * u.coeffs
    return basis.synthesize(np.vstack([u.coeffs @ basis.wirtinger, euler,
                                       basis.hopf(u.coeffs)]))


def grad_inner_values(u, w):
    """Exact grid values of the horizontal-gradient pairing <grad u, grad w>.

    Bilinear (no conjugation), from first derivatives of the basis fields:
    (2 sum_i (d_i u dbar_i w + dbar_i u d_i w) - (E u)(E w) - (T u)(T w)) / 4,
    i.e. the ambient gradient pairing minus its radial (Euler) and Hopf
    components, scaled as Lap_b = (Lap_S - T^2)/4.
    """
    nc = u.basis.n + 1
    U, W = _first_order_values(u), _first_order_values(w)
    ambient = np.sum(U[:nc] * W[nc:2 * nc] + U[nc:2 * nc] * W[:nc], axis=0)
    return (2.0 * ambient - U[-2] * W[-2] - U[-1] * W[-1]) / 4.0


def coordinate_grad_inner_values(w):
    """Grid values of <grad x_i, grad w> for i = 0..n, shape (n+1, N).

    With d_l x_i = delta_il, dbar_l x_i = 0, E x_i = x_i and T x_i = i x_i
    the pairing is (2 dbar_i w - x_i (E w) - i x_i (T w)) / 4.
    """
    nc = w.basis.n + 1
    W = _first_order_values(w)
    return (2.0 * W[nc:2 * nc] - w.basis.nodes.T * (W[-2] + 1j * W[-1])) / 4.0


def horizontal_grad_sq_values(u):
    return np.real(grad_inner_values(u, u))


def horizontal_grad_sq(u):
    """|grad u|^2 as a Field (projection of the exact point values)."""
    return Field.from_values(u.basis, horizontal_grad_sq_values(u))
