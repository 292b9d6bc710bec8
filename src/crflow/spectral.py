"""Spectral discretization of scalar fields on S^{2n+1}.

Fields are held as coefficient vectors over a real orthonormal basis of
bigraded harmonic polynomial restrictions of total degree <= J, together with
cached values on a quadrature grid.  For j < k each orthonormal h of H_{j,k}
gives the pair sqrt2 Re h, sqrt2 Im h, which spans H_{j,k} + H_{k,j}; the
conjugation-closed H_{j,j} gets a real orthonormal basis of its own.  Fields
are real: real coefficients, real grid values, and synthesis and analysis
(funcs @ (weights * values)) are the two real transforms of one real
matrix funcs.  Complex numbers describe points of C^{n+1} only (the nodes
and the monomials evaluated at them); a complex input to a transform
raises TypeError.

The grid is a product rule in Hopf coordinates
x_k = sqrt(t_k) e^{i th_k}: M = deg + 1 uniform phases per coordinate (exact
for charges |a_k - b_k| <= deg) times a simplex rule in t, so all monomials
of ambient degree <= deg = 2J + 4 integrate exactly.  The phases integrate
x^a conj(x)^b, a != b, to zero, and a = b leaves a monomial of degree
|a| <= deg / 2 in t, so the simplex rule is exact for degree tdeg = J + 2 in
t.  It is one collapsed-coordinate (Duffy) recursion from the 0-simplex:
level l = 1..n takes (tdeg + l - 1) // 2 + 1 Gauss-Legendre nodes in its
coordinate.  Weights are scaled so the total measure equals the
closed form 4 pi^{n+1} / n!.

The grid is also S M^n Hopf fibers of M points each: shifting every phase by
one step, x -> w x with w = e^{2 pi i / M}, multiplies H_{j,k} by w^{j-k}
and keeps the weights.  Grid point s M^{n+1} + (p_0..p_n) sits at t = p_0 on
the fiber over the base point (s, p_1 - p_0, .., p_n - p_0 mod M), and each
basis row is Re(g(base) w^{q t}) with charge q = j - k.  The basis is built
on the base points alone, and both transforms run through a table of g and
an M x 4(J+1) Fourier matrix of 2 pi |q| t / M.  The table's rows are
grouped by |q|, and each holds a pair (a, b) of consecutive basis rows of
its group as [Re g_a | Re g_b]: for q != 0 the pair is g, -i g, so the sin
halves are Im g_a = Re g_b and Im g_b = -Re g_a, and at q = 0 they are never
read.  So the Fourier columns, in (part, charge, half) order, are
[cos, sin] for part 0 (row a) and [-sin, cos] for part 1 (row b).  The
transform core is two dense products each way between the native layouts:
coefficients as padded slot vectors in (part, charge, slot) order (zero on
the pads) and grid values in fiber order.  The r rows and 2 parts of a
plan's slot vectors fold into one stride, and the column order lets each
product write straight into the layout the next one reads, so neither
copies its intermediate; a plan (synthesis_plan, projection_plan) binds
both products to fixed buffers.
synthesize and project add a scatter or gather of the slots and a
permutation of the grid at either end; the flow's stages skip them.  The
dense (nb, N) funcs is built lazily, as the reference for tests; no
transform reads it.

The monomials behind the basis are enumerated, evaluated on the grid and
differentiated by polynomials.MonomialSpace.  The sub-Laplacian is
Lap_b = (Lap_S - T^2) / 4, with Lap_S the round Laplacian and T the Hopf
derivative; it is diagonal, with eigenvalue (4 j k + 2 n (j + k)) / 4 on the
bidegree-(j,k) block, so the linear coordinate functions carry eigenvalue
n/2.  The horizontal gradient H u is the horizontal projection of the
ambient gradient grad u, taken in the real coordinates real_coords (Re x_1,
Im x_1, ..) from first derivatives on the basis: grad u less its components
along the normal X = real_coords(x) and the Hopf field JX = real_coords(i x),
which are the Euler derivative E u = (j + k) u and T u = i (j - k) u on
H_{j,k}.  The pairing is Gamma_b(u, w) = H u . H w / 4.
"""

from dataclasses import dataclass
from functools import cached_property
from math import comb, factorial, pi, prod
from numbers import Real

import numpy as np

from .errors import BudgetExceeded
from .polynomials import MonomialSpace, real_coords

BUDGET = 3.5e7   # max entries of the fiber table


def sphere_volume_cached(n):
    """Volume 4 pi^{n+1} / n! of (S^{2n+1}, theta_0), from its closed form;
    hquad.sphere_volume computes it independently by chart quadrature."""
    return 4.0 * pi ** (n + 1) / factorial(n)


def base_curvature(n):
    """Webster curvature n(n+1)/2 of the round contact form theta_0."""
    return n * (n + 1) / 2.0


# ---------------------------------------------------------------------------
# quadrature grid
# ---------------------------------------------------------------------------

def _gl01(m):
    xg, wg = np.polynomial.legendre.leggauss(m)
    return (xg + 1.0) / 2.0, wg / 2.0


def _level_nodes(level, tdeg):
    """Gauss-Legendre nodes of the simplex rule's level: the fewest exact
    for degree tdeg against the weight (1 - xi)^(level - 1)."""
    return (tdeg + level - 1) // 2 + 1


def _simplex_rule(n, tdeg):
    """Nodes (m, n+1) on the simplex sum t = 1 and weights for the uniform
    probability measure, exact for monomials of degree <= tdeg.

    Stroud's conical product rule, one collapsed-coordinate (Duffy) recursion
    from the 0-simplex (one point, weight 1): t_1 = xi and the rest is
    (1 - xi) times the rule on the (n-1)-simplex.  Level n carries the factor
    (1 - xi)^{n-1}, so (tdeg + n - 1) // 2 + 1 Gauss-Legendre nodes in xi, the
    fewest that are exact, suffice.  Nodes run xi outer, sub-simplex inner."""
    if n == 0:
        return np.ones((1, 1)), np.ones(1)
    xi, w = _gl01(_level_nodes(n, tdeg))
    Tsub, Wsub = _simplex_rule(n - 1, tdeg)
    rest = ((1.0 - xi)[:, None, None] * Tsub).reshape(-1, n)
    T = np.column_stack([np.repeat(xi, len(Tsub)), rest])
    W = np.outer(w * (1.0 - xi) ** (n - 1), Wsub).ravel()
    return T, W / W.sum()


def _grid_size(n, deg):
    """The number of points of sphere_quadrature(n, deg), without building
    it: the simplex rule's levels times the phase torus."""
    simplex = prod(_level_nodes(level, deg // 2) for level in range(1, n + 1))
    return simplex * (deg + 1) ** (n + 1)


def _grid_simplex(n, deg):
    """The simplex rule of the degree-deg sphere grid, exact for degree
    deg // 2 in t: the phases integrate x^a conj(x)^b, a != b, to zero and
    a = b leaves t^a."""
    return _simplex_rule(n, deg // 2)


def sphere_quadrature(n, deg):
    """Grid exact for monomials x^a conj(x)^b of total degree <= deg.

    Returns (nodes (N, n+1) complex, weights (N,) summing to the volume),
    simplex point outer and the phase tuples inner, each in
    itertools.product order (last coordinate fastest)."""
    nc = n + 1
    M = deg + 1
    phases = np.exp(2j * pi * np.arange(M) / M)
    T, WT = _grid_simplex(n, deg)
    phase_tuples = np.stack(np.meshgrid(*[phases] * nc, indexing="ij"),
                            axis=-1).reshape(-1, nc)          # (M^nc, nc)
    nodes = (np.sqrt(T)[:, None, :] * phase_tuples).reshape(-1, nc)
    weights = np.repeat(WT, len(phase_tuples))
    weights *= sphere_volume_cached(n) / weights.sum()
    return nodes, weights


# ---------------------------------------------------------------------------
# basis
# ---------------------------------------------------------------------------

def _harmonic_nullspace(space, j, k):
    """Orthonormal columns spanning the kernel of the ambient Laplacian
    P_{j,k} -> P_{j-1,k-1}, in the bidegree-(j,k) monomials of space."""
    cols = space.blocks[(j, k)]
    if j == 0 or k == 0:                    # the Laplacian kills P_{j,k}
        return np.eye(cols.stop - cols.start)
    rows = space.blocks[(j - 1, k - 1)]
    sel = slice(*np.searchsorted(space._lap_cols, (cols.start, cols.stop)))   # sorted
    L = np.zeros((rows.stop - rows.start, cols.stop - cols.start))
    L[space._lap_rows[sel] - rows.start, space._lap_cols[sel] - cols.start] = \
        space._lap_vals[sel]
    _, s, vt = np.linalg.svd(L)
    rank = int(np.sum(s > 1e-10 * s[0])) if s.size else 0
    return vt[rank:].T


def _moment_gram(space, block, n, vol):
    """The exact sphere moments int x^a conj(x)^b conj(x^c conj(x)^d) of the
    monomials of one bidegree block of space.  x^a conj(x)^b pairs with
    x^c conj(x)^d only when a - b = c - d, and then to int |x^{a+d}|^2 =
    vol n! (a + d)! / (n + m)!, m the block's total degree (Rudin, Function
    Theory in the Unit Ball of C^n, 1.4.9); a_i + d_i <= |a| + |d| = m."""
    A, B = (e[space.blocks[block]] for e in space.exponents)
    m = sum(block)
    fact = np.cumprod([1.0, *range(1, m + 1)])
    pair = np.all((A - B)[:, None] == (A - B)[None], axis=-1)
    return np.where(pair, np.prod(fact[A[:, None] + B[None]], axis=-1), 0.0) * \
        (vol * factorial(n) / factorial(n + m))


def _real(x):
    """x as an array; complex input raises TypeError, as fields are real."""
    x = np.asarray(x)
    if np.iscomplexobj(x):
        raise TypeError("fields are real: got complex input")
    return x


def _check_contiguous(*buffers):
    if not all(b.flags.c_contiguous for b in buffers):
        raise ValueError("transform buffers must be C-contiguous")


class Basis:
    """Real orthonormal bigraded-harmonic basis with quadrature grid; the
    pair sqrt2 Re h, sqrt2 Im h of each h in H_{j,k}, j < k, is adjacent,
    and the transforms store it as one row of the fiber table (0.44 MB at
    (1,8), 2.3 MB at (1,12), 6.5 MB at (2,4)).

    The build works per bidegree block on the base points of the fibers:
    one power table of those points serves every block's monomial table,
    the conjugate monomials come from space.conjugate (the keys with a and
    b swapped), and the permutations between grid and fiber order and the
    table's slots are index arithmetic.  The block sizes, and so the fiber
    table's, are closed forms, so BudgetExceeded is raised before any of it
    is built.

    The monomial algebra is held by total degree m: the rows of degree m
    are contiguous and lie on the degree-m monomials, so the coefficients
    are one block per degree, and d/dX_r maps degree m to degree m - 1 (0.46
    MB of blocks and 0.37 MB of maps at (1,8), 3.4 and 2.4 MB at (1,12)).

    Attributes:
      n, J             : sphere index and truncation degree
      nodes, weights   : quadrature grid, weights sum to vol
      M                : phases per coordinate: the grid is its simplex
                         points times the phase torus (Z_M)^{n+1}
      funcs            : (nb, N) real synthesis matrix (rows orthonormal),
                         built lazily as a reference; synthesize and project
                         use the fiber table
      bidegrees        : list of (j, k), j <= k, per basis function, which
                         lies in H_{j,k} + H_{k,j}
      eigenvalues      : (nb,) sub-Laplacian eigenvalues, >= 0
      degree_rows      : slice of the rows of each total degree m = 0..J
      poly_blocks      : per degree m, the (rows, monomials) complex
                         coefficients of the degree-m rows on the degree-m
                         monomials, space.degree_range(m); monomial_coeffs
                         assembles the space.dim-long vectors
      derivatives(c)   : coefficients (..., 2(n+1), nb) of d/dX_r, through
                         per-degree real maps built lazily from the exact
                         sphere moments of the monomials
      vol              : total measure of the sphere
    """

    def __init__(self, n, J):
        if n < 1:
            raise ValueError("n must be >= 1")
        if J < 1:
            raise ValueError("J must be >= 1")
        nc = n + 1
        deg = 2 * J + 4
        # H_{k,j} is the conjugate of H_{j,k}, so only j <= k is built.  The
        # ambient Laplacian maps P_{j,k} onto P_{j-1,k-1}, so dim H_{j,k} =
        # dim P_{j,k} - dim P_{j-1,k-1}, with dim P_{j,k} = C(j+n, n) C(k+n, n);
        # a block gives d rows for j = k and the d pairs' 2 d rows otherwise
        bidegrees = [(j, m - j) for m in range(J + 1) for j in range(m // 2 + 1)]
        dims = [comb(j + n, n) * comb(k + n, n) - comb(j - 1 + n, n) * comb(k - 1 + n, n)
                for j, k in bidegrees]
        counts = [d * (1 if j == k else 2) for (j, k), d in zip(bidegrees, dims)]
        # predict the fiber table's size before building anything: J + 1
        # charge groups of L rows, each row a pair of basis rows, so L is half
        # the largest group rounded up, and each row 2 S M^n long
        M = deg + 1
        n_nodes = _grid_size(n, deg)
        group_rows = np.bincount([k - j for j, k in bidegrees], counts,
                                 minlength=J + 1).astype(np.int64)
        L, width = (int(group_rows.max()) + 1) // 2, 2 * (n_nodes // M)
        if (J + 1) * L * width > BUDGET:
            raise BudgetExceeded(
                f"fiber table needs {J + 1} x {L} x {width} = {(J + 1) * L * width} "
                f"entries, over budget {BUDGET:.0f}")

        space = self.space = MonomialSpace(nc, J)
        self.n, self.J, self.M = n, J, M
        self.nodes, self.weights = sphere_quadrature(n, deg)
        self.vol = float(self.weights.sum())
        # grid point s M^nc + (p_0..p_n) sits at t = p_0 on the fiber over
        # the base point (s, p_1 - p_0, .., p_n - p_0 mod M), so fiber point
        # (t, s, r_1..r_n) is grid point (s, t, r_1 + t, .., r_n + t mod M)
        t = np.arange(M)
        shifted = (np.indices((M,) * n).reshape(n, -1) + t[:, None, None]) % M
        rest = (t * M ** n)[:, None] + M ** np.arange(n - 1, -1, -1) @ shifted
        self._fiber_to_grid = (np.arange(n_nodes // M ** nc)[:, None] * M ** nc
                               + rest[:, None, :]).ravel()
        self._grid_to_fiber = np.empty_like(self._fiber_to_grid)
        self._grid_to_fiber[self._fiber_to_grid] = np.arange(n_nodes)
        base = self._fiber_to_grid[:n_nodes // M]                # t = 0
        base_nodes, base_weights = self.nodes[base], M * self.weights[base]

        # the rows of total degree m are contiguous, degree_rows[m], and lie
        # on the degree-m monomials, so each degree's coefficients are one
        # block, written block by block in place: rows of H_{j,j} hold their
        # coefficients on the block's monomials, and the pair of rows of
        # H_{j,k}, j < k, also the conjugates' on those of H_{k,j}
        self.nb = int(group_rows.sum())
        stop = np.cumsum(np.bincount([j + k for j, k in bidegrees], counts)).astype(int).tolist()
        self.degree_rows = [slice(a, b) for a, b in zip([0, *stop[:-1]], stop)]
        self.poly_blocks = []
        for m, r in enumerate(self.degree_rows):
            cols = space.degree_range(m)
            self.poly_blocks.append(
                np.zeros((r.stop - r.start, cols.stop - cols.start), dtype=complex))
        powers = space.power_table(base_nodes)
        gs, eigs, tags = [], [], []
        nulls = [_harmonic_nullspace(space, j, k) for j, k in bidegrees]
        for (j, k), d, null in zip(bidegrees, dims, nulls):
            if null.shape[1] != d:
                raise RuntimeError(f"H_{(j, k)} has a {null.shape[1]}-dimensional "
                                   f"nullspace, not {d}")
            if d == 0:
                continue
            rows = space.blocks[(j, k)]
            block = null.T @ space.monomial_table(base_nodes, rows, powers)   # (d, P)
            coef = null.T                               # coords in the block
            conj = space.conjugate[rows]
            if j == k:
                # conjugation permutes the monomials of P_{j,j}; the Re and
                # Im parts of the null vectors span the real part of H_{j,j},
                # and d real generators of it are chosen without the weights
                cconj = coef[:, conj - rows.start]
                coef = np.concatenate([(coef + cconj) / 2.0, (coef - cconj) / 2.0j])
                gen = np.linalg.svd(np.concatenate([coef.real, coef.imag], axis=1))[0][:, :d].T
                block, coef = gen @ np.concatenate([block.real, block.imag]), gen @ coef
            # the Gram matrices have degenerate eigenvalues, so the symmetric
            # (Lowdin) G^{-1/2} fixes each block canonically, continuous in
            # the weights; the Grams are fiber-invariant, so the base points
            # suffice
            G = (block * base_weights) @ block.conj().T
            evals, evecs = np.linalg.eigh(G)
            if not evals.min() > 1e-12 * evals.max():
                raise RuntimeError(f"H_{(j, k)} has a singular Gram matrix")
            R = (evecs / np.sqrt(evals)) @ evecs.conj().T
            onb, onb_poly = R.T @ block, R.T @ coef
            # this block's rows, and its own and its conjugates' monomials,
            # within its degree's block
            first, mono = self.degree_rows[j + k].start, space.degree_range(j + k).start
            poly = self.poly_blocks[j + k][len(tags) - first:]
            own, conj = slice(rows.start - mono, rows.stop - mono), conj - mono
            if j == k:
                poly[:d, own] = onb_poly
            else:
                # sqrt2 Re h = (h + conj h) / sqrt2 and sqrt2 Im h =
                # (h - conj h) / (sqrt2 i), orthonormal as int h h' = 0 for
                # j != k; along a fiber they are Re(g w^{(j-k) t}) with
                # g = sqrt2 h and g = -i sqrt2 h.  With P and Pc the
                # monomial coefficients of h and conj h, on disjoint columns,
                # the rows are (P + Pc) / sqrt2 and (P - Pc) / 1j / sqrt2;
                # each adds the other's zero (+ 0, 0 +, 0 -), which fixes
                # the sign of a zero entry as the sum does
                re, im = poly[:2 * d:2], poly[1:2 * d:2]
                hc = np.conj(onb_poly)
                re[:, own], re[:, conj] = (onb_poly + 0) / np.sqrt(2.0), (0 + hc) / np.sqrt(2.0)
                im[:, own], im[:, conj] = onb_poly / 1j / np.sqrt(2.0), (0 - hc) / 1j / np.sqrt(2.0)
                onb = np.sqrt(2.0) * np.stack([onb, -1j * onb], axis=1).reshape(2 * d, -1)
            gs.append(onb)
            eigs += [(4.0 * j * k + 2.0 * n * (j + k)) / 4.0] * len(onb)
            tags += [(j, k)] * len(onb)

        self.eigenvalues = np.array(eigs)
        self.bidegrees = tags

        # the fiber table: row r is Re(g_r w^{q t}), q = j - k <= 0, so it is
        # Re g_r cos(2 pi |q| t / M) + Im g_r sin(2 pi |q| t / M).  Rows are
        # grouped by |q| and paired in order within a group: a pair (a, b)
        # takes one slot in part 0 and part 1 and one table row
        # [Re g_a | Re g_b].  For q != 0 the pair is g, -i g, so Im g_a =
        # Re g_b and Im g_b = -Re g_a; at q = 0 no sin half is read
        g = np.concatenate(gs).real
        group = np.array([k - j for j, k in tags])          # |q|
        rank = np.empty(self.nb, dtype=np.int64)            # position in its group
        rank[np.argsort(group, kind="stable")] = \
            np.arange(self.nb) - np.repeat(np.cumsum(group_rows) - group_rows, group_rows)
        part, slot = rank % 2, rank // 2
        self._slot = (part * (J + 1) + group) * L + slot    # flat (part, |q|, slot)
        self._n_slots = 2 * (J + 1) * L
        table = np.zeros((J + 1, L, 2, width // 2))
        table[group, slot, part] = g
        self._table = table.reshape(J + 1, L, width)
        # the part 0 rows read [cos | sin] of 2 pi |q| t / M, the part 1 rows
        # [-sin | cos]; columns in (part, |q|, half) order
        angle = 2.0 * pi * np.outer(np.arange(M), np.arange(J + 1)) / M
        cos, sin = np.cos(angle), np.sin(angle)
        self._fourier = np.stack([np.stack([cos, sin], axis=2),
                                  np.stack([-sin, cos], axis=2)], axis=1).reshape(M, -1)

    # -- transforms -----------------------------------------------------

    # The native layouts: coefficients as padded slot vectors, (2 Q L) long
    # with row i at _slot[i] and zero on the pads, and grid values in fiber
    # order, point _fiber_to_grid[k] at k.  The core runs between the two;
    # synthesize and project add the conversions at either end.  A plan
    # binds the core to fixed buffers, so that a kernel which transforms the
    # same buffer again and again makes the views and the intermediate once;
    # its buffers must be C-contiguous, so that the views share their memory.

    def synthesis_plan(self, x, out):
        """A function of no arguments that writes the fiber-ordered grid
        values (r, N) of the padded slot-ordered real coefficient rows in x
        (r, 2 Q L) into out, and returns out."""
        _check_contiguous(x, out)
        r = len(x)
        Q, L, P2 = self._table.shape
        M = len(self._fourier)
        # the r rows and 2 parts of x fold into one stride: per group,
        # (Q, 2r, L) @ (Q, L, 2P) into ab (2r, Q, 2P), which is (r, 4Q, P) in
        # the (part, |q|, half) order of the Fourier columns
        ab = np.empty((2 * r, Q, P2))
        groups, ab_groups = x.reshape(2 * r, Q, L).transpose(1, 0, 2), ab.transpose(1, 0, 2)
        ab_parts, fibers = ab.reshape(r, 4 * Q, -1), out.reshape(r, M, -1)

        def run():
            np.matmul(groups, self._table, out=ab_groups)
            np.matmul(self._fourier, ab_parts, out=fibers)
            return out
        return run

    def projection_plan(self, v, out):
        """A function of no arguments that writes the padded slot-ordered
        coefficients (r, 2 Q L), exactly zero on the pads, of the real
        weighted fiber-ordered grid rows in v (r, N) into out, and returns
        out: the adjoint of the synthesis."""
        _check_contiguous(v, out)
        r = len(v)
        Q, L, P2 = self._table.shape
        M = len(self._fourier)
        ab = np.empty((2 * r, Q, P2))
        fibers, ab_parts = v.reshape(r, M, -1), ab.reshape(r, 4 * Q, -1)
        ab_groups, table_t = ab.transpose(1, 0, 2), self._table.transpose(0, 2, 1)
        groups = out.reshape(2 * r, Q, L).transpose(1, 0, 2)

        def run():
            np.matmul(self._fourier.T, fibers, out=ab_parts)
            np.matmul(ab_groups, table_t, out=groups)
            return out
        return run

    def to_slots(self, c):
        """Padded slot vectors (..., 2 Q L) of coefficient rows (..., nb)."""
        x = np.zeros(c.shape[:-1] + (self._n_slots,))
        x[..., self._slot] = c
        return x

    def from_slots(self, x):
        """Coefficient rows (..., nb) of padded slot vectors (..., 2 Q L)."""
        return np.take(x, self._slot, axis=-1)

    def to_fibers(self, values):
        """Grid values (..., N) in fiber order."""
        return np.take(values, self._fiber_to_grid, axis=-1)

    def from_fibers(self, values):
        """Fiber-ordered values (..., N) in grid order."""
        return np.take(values, self._grid_to_fiber, axis=-1)

    @cached_property
    def fiber_weights(self):
        """The quadrature weights in fiber order."""
        return self.to_fibers(self.weights)

    @cached_property
    def yamabe_slots(self):
        """The multipliers (2+2/n) lambda + R_0 of the CR Yamabe operator
        -(2+2/n) Lap_b + R_0 as a slot vector, zero on the pads: for a
        factor u with slot coefficients x, A x holds those of u R u^{2/n},
        R its Webster curvature, and x . A x is its energy."""
        n = self.n
        return self.to_slots((2.0 + 2.0 / n) * self.eigenvalues + base_curvature(n))

    def synthesize(self, coeffs):
        """Grid values of real coefficient rows, shape (..., nb) -> (..., N)."""
        c = _real(coeffs)
        x = self.to_slots(c.reshape(-1, self.nb))
        values = self.synthesis_plan(x, np.empty((len(x), len(self.weights))))()
        return self.from_fibers(values).reshape(c.shape[:-1] + (-1,))

    def project(self, values):
        """Basis coefficients of real grid values, shape (..., N) -> (..., nb):
        funcs @ (weights * values) row by row, without funcs."""
        v = self.weights * _real(values)
        w = self.to_fibers(v.reshape(-1, v.shape[-1]))
        out = np.empty((len(w), self._n_slots))
        x = self.projection_plan(w, out)()
        return self.from_slots(x).reshape(v.shape[:-1] + (-1,))

    @cached_property
    def funcs(self):
        """(nb, N) real synthesis matrix, rows orthonormal: the transforms
        never build it; tests read it as the dense reference and
        perfbench/tracing.py reports its size."""
        return self.synthesize(np.eye(self.nb))

    @cached_property
    def analysis(self):
        """(nb, N) matrix with project(values) = analysis @ values.  Built on
        first access only: no code in the package reads it, but
        perfbench/tracing.py reports its size."""
        return self.funcs * self.weights

    def quad(self, values):
        """Quadrature integral of real grid values."""
        return float(self.weights @ _real(values))

    # -- first-order calculus -------------------------------------------

    @cached_property
    def _derivative_maps(self):
        """Entry m - 1, for m = 1..J: the real (n_m, 2(n+1) n_{m-1}) map of
        d/dX_r, X = real_coords (Re x_1, Im x_1, ..), from the n_m basis rows
        of total degree m to the n_{m-1} of degree m - 1, r outer.

        d/dX_r commutes with the ambient Laplacian and lowers the degree by
        one, so it maps the degree-m functions into the real span of the
        orthonormal degree-(m - 1) ones, and the map is the inner products
        Re dP G P^H: dP the derivatives' monomial coefficients, P those of
        the degree-(m - 1) rows and G the exact moments of the degree-(m - 1)
        monomials.  G keeps each bidegree block, so the products run block by
        block, on the rows that reach or live on it.  Parseval checks the
        map: each derivative's squared norm dP G dP^H equals that of its row
        of the map when it stays in the span."""
        space, D = self.space, 2 * (self.n + 1)
        j_of = np.array([j for j, _ in self.bidegrees])
        maps = []
        for m in range(1, self.J + 1):
            dP = space.gradients(self.poly_blocks[m], degree=m)    # (D, n_m, dim_{m-1})
            P = self.poly_blocks[m - 1]
            src_j, tgt_j = j_of[self.degree_rows[m]], j_of[self.degree_rows[m - 1]]
            first = space.degree_range(m - 1).start
            dmap = np.zeros((D, len(src_j), len(P)))
            norm2 = np.zeros((D, len(src_j)))
            for p in range(m):
                # the derivatives of the rows of bidegree {p+1, q} and {p, q+1}
                # reach the monomial block (p, q), and the rows of {p, q} live
                # on it; rows run by j, the smaller index, within a degree
                q, j = m - 1 - p, min(p, m - 1 - p)
                block = space.blocks[(p, q)]
                cols = slice(block.start - first, block.stop - first)
                src = slice(*np.searchsorted(src_j, (j, j + 1 + (p != q))))
                tgt = slice(*np.searchsorted(tgt_j, (j, j + 1)))
                dPB = dP[:, src, cols]
                Y = dPB @ _moment_gram(space, (p, q), self.n, self.vol)
                dmap[:, src, tgt] += (Y @ P[tgt, cols].conj().T).real
                norm2[:, src] += np.einsum("rsa,rsa->rs", Y, dPB.conj()).real
            resid = float(np.abs(norm2 - np.einsum("rst,rst->rs", dmap, dmap)).max())
            if resid > 1e-10 * max(1.0, float(norm2.max())):
                raise RuntimeError(
                    f"derivative of the degree-{m} functions leaves degree "
                    f"{m - 1}: squared-norm residual {resid:.1e}")
            maps.append(dmap.transpose(1, 0, 2).reshape(len(src_j), -1))
        return maps

    def derivatives(self, coeffs):
        """Coefficient rows (..., 2(n+1), nb) of the derivatives d/dX_r, X =
        real_coords (Re x_1, Im x_1, ..), of the real coefficient rows
        (..., nb): degree by degree, through the maps of _derivative_maps."""
        c = _real(coeffs)
        D, rows = 2 * (self.n + 1), self.degree_rows
        out = np.zeros(c.shape[:-1] + (D, self.nb))
        for m, dmap in enumerate(self._derivative_maps, start=1):
            out[..., rows[m - 1]] = (c[..., rows[m]] @ dmap).reshape(c.shape[:-1] + (D, -1))
        return out

    def monomial_coeffs(self, coeffs):
        """Monomial-space coefficients (..., space.dim) of the fields with
        basis coefficients (..., nb), degree by degree."""
        c = np.asarray(coeffs)
        out = np.zeros(c.shape[:-1] + (self.space.dim,), dtype=complex)
        for m, (rows, P) in enumerate(zip(self.degree_rows, self.poly_blocks)):
            out[..., self.space.degree_range(m)] = c[..., rows] @ P
        return out

    def gram_error(self):
        G = (self.funcs * self.weights) @ self.funcs.T
        return float(np.abs(G - np.eye(self.nb)).max())


def build_basis(n, J):
    return Basis(n, J)


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Field:
    """A band-limited scalar field: basis coefficients + cached grid values."""
    basis: Basis
    coeffs: np.ndarray
    values: np.ndarray

    # numpy operands defer to Field's own operators, which take real scalars
    __array_ufunc__ = None

    @classmethod
    def from_coeffs(cls, basis, coeffs):
        values = basis.synthesize(coeffs)       # TypeError on complex coeffs
        return cls(basis, np.asarray(coeffs, dtype=float), values)

    @classmethod
    def from_values(cls, basis, values):
        coeffs = basis.project(values)
        return cls(basis, coeffs, basis.synthesize(coeffs))

    @classmethod
    def constant(cls, basis, value=1.0):
        return cls.from_values(basis, np.full(len(basis.nodes), value))

    @classmethod
    def coordinate(cls, basis, j):
        """The real coordinate X_j = real_coords(x)[j] (Re x_1, Im x_1, ..)."""
        return cls.from_values(basis, real_coords(basis.nodes)[:, j])

    @property
    def real_values(self):
        """The grid values, which are real: kept as a name because
        perfbench reads it."""
        return self.values

    def __add__(self, other):
        if not isinstance(other, Field):
            return NotImplemented
        return Field(self.basis, self.coeffs + other.coeffs,
                     self.values + other.values)

    def __sub__(self, other):
        if not isinstance(other, Field):
            return NotImplemented
        return Field(self.basis, self.coeffs - other.coeffs,
                     self.values - other.values)

    def __mul__(self, scalar):
        if not isinstance(scalar, Real):
            raise TypeError(f"fields scale by real numbers, not {type(scalar).__name__}")
        return Field(self.basis, scalar * self.coeffs, scalar * self.values)

    __rmul__ = __mul__


def sub_laplacian(u):
    """Coefficient-wise multiplication by -lambda_{j,k}."""
    return Field.from_coeffs(u.basis, -u.basis.eigenvalues * u.coeffs)


def integrate(u):
    """Quadrature integral against the spherical volume form."""
    return u.basis.quad(u.values)


def horizontal_gradient_values(basis, coeffs):
    """Grid values (..., 2(n+1), N) of the horizontal gradients of the real
    coefficient rows (..., nb), in the real coordinates X = real_coords(x),
    from one synthesis: the ambient gradient less its parts along the
    orthonormal X and JX = real_coords(i x), which are E u and T u."""
    grad = basis.synthesize(basis.derivatives(coeffs))
    for V in (real_coords(basis.nodes), real_coords(1j * basis.nodes)):
        V = np.ascontiguousarray(V.T)                       # (2(n+1), N)
        grad -= V * np.einsum("...rk,rk->...k", grad, V)[..., None, :]
    return grad


def grad_inner_values(u, w):
    """Exact grid values of the horizontal-gradient pairing <grad_b u, grad_b w>,
    H u . H w / 4 with H the horizontal gradient, scaled as
    Lap_b = (Lap_S - T^2) / 4."""
    U = horizontal_gradient_values(u.basis, u.coeffs)
    W = U if w is u else horizontal_gradient_values(w.basis, w.coeffs)
    return np.sum(U * W, axis=0) / 4.0


def horizontal_grad_sq(u):
    """|grad u|^2 as a Field (projection of the exact point values)."""
    return Field.from_values(u.basis, grad_inner_values(u, u))
