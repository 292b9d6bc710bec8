"""The prescribed Webster scalar curvature flow and its diagnostics.

The conformal factor u > 0 evolves by du/dt = (n/2)(alpha f - R) u where R is
the Webster curvature of u^{2/n} theta_0,

    R = u^{-(1+2/n)} ( -(2+2/n) Lap_b u + R_0 u ),      R_0 = n(n+1)/2,

and alpha is the unique constant making the total curvature match the
f-average: alpha int f dV_theta = int R dV_theta.  Time stepping is the
explicit damped second-order Runge-Kutta-Chebyshev method (RKC2) on basis
coefficients, followed by a multiplicative volume renormalization.  The stage
count covers dt times the spectral radius of the flow's Jacobian, estimated by
nonlinear power iteration and capped by the bound `_stiff_radius`; steps that
would raise the scale-invariant energy E_f beyond a small slack, or lose
positivity, are retried with half the step.

Fields are real (real coefficients, real grid values); complex numbers are
points of C^{n+1} only, so the moment b and the Kazdan-Warner vector are
taken over the real coordinates Re x_i, Im x_i.

Each formula is written once, in the flow kernel.  The curvature row
A = (2+2/n) lambda + R_0 (`Basis.yamabe_slots`, zero on the pads) makes u R
u^{2/n} linear in the coefficients x: one two-row synthesis of (x, A x)
gives u and u R q with q = u^{2/n}, and the energy is E = x . A x
(`_curvature_rows`, `_energy`).  `_fiber_terms` evaluates a factor in
fiber order, `_f_volume` gives int f dV_theta, `_project_rhs` the
right-hand side and `_curvature_density` R and the density, which
`_grid_terms` permutes to grid order for `diagnostics`, `curvature_values`
and `energy_consistency`; `_density`, `_alpha_energy_f`, `_deviation`
(alpha f - R), `_f2` and `_volume_factor` complete it.  The kernel reads
and writes one workspace (`_Workspace`): f in fiber order, (n/2) w, (n/2)
w f, the buffers, the five rows of the RKC2 step and the transform plans
between them.  A run builds one, in its first step; every RKC2 stage, the
radius estimate, the end-of-step positivity test, the renormalization,
the E_f gate and F2 use it.  A stage allocates no grid-sized array, and
the end of a step only the new state's grid values.  The stages run in
the transforms' native layout: padded slot coefficients and fiber-ordered
values, with no permutation inside a step.  Each projection lands in the
step's F row, and each stage writes its row with one product of its five
coefficients and the rows.  An accepted state carries what the next step
would otherwise recompute: its slot coefficients, min u, E_f and
right-hand side, with the workspace and the radius estimate.

The mass scan `mass_concentration` reads the grid as simplex points times
the phase torus (Z_M)^{n+1}: whether grid point i lies in the ball about
center c depends only on their two simplex points and the difference of
their phase tuples, so the ball masses at all centers are cyclic
convolutions over the torus, taken by FFT.
"""

import functools
import time
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .errors import (ConfigError, DegenerateDenominator, NonPositiveFactor,
                     PositivityLoss, StepRejected)
from .morse import sbc_check
from .polynomials import PolyCalculus, real_coords
from .spectral import (Field, base_curvature, grad_inner_values,
                       horizontal_gradient_values)


MAX_CENTERS = 512    # ball centers scanned by mass_concentration
RKC_DAMPING = 2.0 / 13.0    # epsilon of the damped RKC2 step
RADIUS_SAFETY = 1.1         # c of the stage count's radius min(c r, 1) bound
RADIUS_REFRESH = 25         # accepted steps between two radius estimates
RADIUS_ITERATIONS = 20      # power iterations of one estimate, at most


def critical_exponent(n):
    """Volume exponent: dV_theta = u^{2+2/n} dV_theta0."""
    return 2.0 + 2.0 / n


# ---------------------------------------------------------------------------
# the flow kernel and the pointwise building blocks on it
# ---------------------------------------------------------------------------

def _density(weights, u, q, out=None):
    """Quadrature weights of dV_theta = u^{2+2/n} dV_theta0 at values u with
    q = u^{2/n} and quadrature weights `weights`, as w u u q, into out if
    given."""
    out = np.multiply(weights, u, out=out)
    out *= u
    out *= q
    return out


def density(basis, uv):
    """Quadrature weights of dV_theta = u^{2+2/n} dV_theta0 at grid values uv,
    with the same rounding as the flow kernel."""
    return _density(basis.weights, uv, uv ** (2.0 / basis.n))


class _Workspace:
    """The flow kernel's data for one basis and one f: f in fiber order,
    (n/2) w and (n/2) w f with w the fiber-ordered weights, the buffers one
    kernel evaluation fills (the curvature rows (x, A x), the values
    (u, u R q), q = u^{2/n}, (n/2) w f u and three scratch rows), the five
    rows Y of `_rkc`, whose last, F, receives every projection, and the
    transform plans between them.  Each evaluation overwrites the last
    one's buffers and F; the accepted states of a run carry one workspace
    from step to step, and the data of their own that a step reads."""

    def __init__(self, basis, fvals=None):
        self.basis = basis
        self.w = (0.5 * basis.n) * basis.fiber_weights
        if fvals is not None:
            self.f = basis.to_fibers(fvals)
            self.wf = self.w * self.f
        self.rows = np.empty((2, basis.yamabe_slots.size))
        self.vals = np.empty((2, self.w.size))
        self.u, self.uRq = self.vals
        self.q, self.wfu, self.g, self.h, self.dens = np.empty((5, self.w.size))
        self.Y = np.empty((5, self.rows.shape[1]))
        self.F = self.Y[4]
        self.synthesize = basis.synthesis_plan(self.rows, self.vals)
        self.project = basis.projection_plan(self.g[None], self.Y[4:])


def _curvature_rows(basis, x, out=None):
    """The slot rows (x, A x) of padded slot coefficients x, with A =
    basis.yamabe_slots: their synthesis is (u, u R q), q = u^{2/n}."""
    rows = np.empty((2, x.size)) if out is None else out
    rows[0] = x
    np.multiply(basis.yamabe_slots, x, out=rows[1])
    return rows


def _energy(rows):
    """int ((2+2/n)|grad u|^2 + R_0 u^2) dV = x . A x (Parseval) from the
    curvature rows (x, A x)."""
    return float(rows[0] @ rows[1])


def _fiber_terms(ws, x):
    """Evaluate the factor with padded slot coefficients x into the
    workspace ws: one two-row synthesis of its curvature rows gives (u, u R q)
    in fiber order, then the positivity check, which a NaN fails too, and
    q = u^{2/n}.  Keeps min u in ws.u_min and returns the energy E."""
    basis = ws.basis
    rows = _curvature_rows(basis, x, out=ws.rows)
    ws.synthesize()
    ws.u_min = ws.u.min()
    if not ws.u_min > 0:
        raise NonPositiveFactor("conformal factor must be positive on the grid")
    if basis.n == 1:
        np.square(ws.u, out=ws.q)         # twice as fast as np.power
    else:
        np.power(ws.u, 2.0 / basis.n, out=ws.q)
    return _energy(rows)


def _f_volume(ws):
    """int f dV_theta of the factor in ws, as (2/n) ((n/2) w f u) . (u q);
    leaves (n/2) w f u in ws.wfu for _project_rhs."""
    np.multiply(ws.wf, ws.u, out=ws.wfu)
    np.multiply(ws.u, ws.q, out=ws.g)
    return (2.0 / ws.basis.n) * float(ws.wfu @ ws.g)


def _curvature_density(ws, R=None, dens=None):
    """Fiber-ordered (R, dens) of the factor in ws: its Webster curvature
    (u R q) / (u q) and its density, into R and dens if given."""
    R = np.multiply(ws.u, ws.q, out=R)
    np.divide(ws.uRq, R, out=R)
    return R, _density(ws.basis.fiber_weights, ws.u, ws.q, out=dens)


def _alpha_energy_f(n, E, f_vol):
    """(alpha, E_f) of the factor with energy E and int f dV_theta = f_vol:
    alpha f_vol = E and E_f = E / f_vol^{n/(n+1)}."""
    if abs(f_vol) < 1e-14:
        raise DegenerateDenominator("int f dV_theta vanished")
    return E / f_vol, E / f_vol ** (n / (n + 1.0))


def _deviation(a, R, fvals, out=None):
    """The deviation alpha f - R of the factor with normalizing constant a
    and curvature R, into out if given."""
    dev = np.multiply(fvals, a, out=out)
    dev -= R
    return dev


def _f2(dens, dev, out=None):
    """F2 = int (alpha f - R)^2 dV_theta of the factor with density dens and
    deviation dev; the squares go into out if given."""
    return float(dens @ np.square(dev, out=out))


def _volume_factor(basis, dens):
    """sigma with int (sigma u)^{2+2/n} dV_theta0 = vol, from u's density."""
    total = float(dens.sum())
    if total <= 0:
        raise NonPositiveFactor("cannot renormalize a non-positive factor")
    return (basis.vol / total) ** (basis.n / (2.0 * basis.n + 2.0))


def _project_rhs(ws, a):
    """Padded slot coefficients of (n/2)(a f - R) u for the factor in ws,
    projected into ws.F: the projection of a (n/2) w f u - (n/2) w (u R q)
    / q, with (n/2) w f u from _f_volume.  Returns ws.F."""
    g, h = ws.g, ws.h
    np.divide(ws.uRq, ws.q, out=h)
    h *= ws.w
    np.multiply(ws.wfu, a, out=g)
    g -= h
    ws.project()
    return ws.F


def _rhs_coeffs(ws, x, out=None):
    """The flow's right-hand side (n/2)(alpha f - R) u in the native layout:
    padded slot coefficients, for padded slot coefficients x, through the
    workspace ws of f.  Written into out, or into a new array when out is
    None; out = ws.F, where the projection lands, costs no copy."""
    E = _fiber_terms(ws, x)
    F = _project_rhs(ws, _alpha_energy_f(ws.basis.n, E, _f_volume(ws))[0])
    if out is None:
        return F.copy()
    if out is not F:
        out[...] = F
    return out


def _grid_terms(basis, c):
    """Grid values (u, R, dens) of the factor with real coefficients c: the
    flow kernel's values, permuted from fiber to grid order."""
    ws = _Workspace(basis)
    _fiber_terms(ws, basis.to_slots(c))
    return basis.from_fibers(np.stack((ws.u,) + _curvature_density(ws)))


def curvature_values(u):
    """Exact grid values of the Webster curvature of u^{2/n} theta_0."""
    return _grid_terms(u.basis, u.coeffs)[1]


def energy(u):
    """Total curvature energy int ((2+2/n)|grad u|^2 + R_0 u^2) dV.

    Evaluated spectrally (exact for band-limited u); agrees with the
    curvature-side evaluation int R dV_theta, see energy_consistency."""
    return _energy(_curvature_rows(u.basis, u.basis.to_slots(u.coeffs)))


def energy_consistency(u):
    """(spectral E, curvature-side int R dV_theta, |difference|)."""
    _, R, dens = _grid_terms(u.basis, u.coeffs)
    e1, e2 = energy(u), float(dens @ R)
    return e1, e2, abs(e1 - e2)


def alpha(u, f):
    """Normalizing constant: alpha int f dV_theta = int R dV_theta = E(u)."""
    return _alpha_energy_f(u.basis.n, energy(u),
                           float(density(u.basis, u.values) @ f.values))[0]


def energy_f(u, f):
    """Scale- and conformally-invariant normalized energy."""
    return _alpha_energy_f(u.basis.n, energy(u),
                           float(density(u.basis, u.values) @ f.values))[1]


def volume_renormalize(u):
    """Scale u so that int u^{2+2/n} dV = vol (exactly restorable)."""
    return _volume_factor(u.basis, density(u.basis, u.values)) * u


def cr_yamabe_constant(n, vol):
    """Energy of the round solution per critical volume, E(1)/vol^{n/(n+1)}."""
    return base_curvature(n) * vol ** (1.0 / (n + 1.0))


def beta_threshold(f):
    """Admissible-energy gate (1+eps0) Y (min f)^{-n/(n+1)}; requires the
    bubble-ratio bound max f / min f < 2^{1/n}."""
    basis = f.basis
    n = basis.n
    fv = f.values
    fmin, fmax = float(fv.min()), float(fv.max())
    if fmin <= 0:
        raise ConfigError("f must be positive for the energy gate")
    if not sbc_check(fmax, fmin, n):
        raise ConfigError(
            "energy gate undefined: max f / min f must be below 2^(1/n)")
    ratio = (fmax / fmin) ** (n / (n + 1.0)) / 2.0 ** (1.0 / (n + 1.0))
    eps0 = (1.0 - ratio) / (1.0 + ratio)
    return (1.0 + eps0) * cr_yamabe_constant(n, basis.vol) * fmin ** (-n / (n + 1.0))


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiagnosticsRecord:
    E: float
    E_f: float
    alpha: float
    F2: float
    G2: float
    P: np.ndarray               # int x dV_theta, complex (n+1,)
    b: np.ndarray               # int X (alpha f - R) dV_theta, X = real_coords
    kw_residual: float
    max_u: float
    mass_concentration: float


def center_of_mass(u, dens=None):
    """P = int x u^{2+2/n} dV and its normalization P_hat (P itself when |P|
    is below 1e-12); dens, if given, is u's density."""
    basis = u.basis
    dens = density(basis, u.values) if dens is None else dens
    P = dens @ basis.nodes
    norm = np.linalg.norm(P)
    P_hat = P / norm if norm > 1e-12 else P
    return P, P_hat


def mass_concentration(u, rho=0.5, dens=None):
    """Largest fraction of dV_theta mass inside a round geodesic ball of
    radius rho, maximized over a spread subsample of about MAX_CENTERS grid
    centers X[::stride]; dens, if given, is u's density.

    The grid is S simplex points times the phase torus (Z_M)^{n+1}, and for
    grid points i = (s, p) and c = (s', p') the real inner product X_i . X_c
    is sum_k sqrt(t_k t'_k) cos(2 pi (p_k - p'_k) / M).  So the ball's
    indicator [X_i . X_c >= cos rho] depends on s, s' and p - p' alone, and
    the masses of the balls at all centers on simplex point s' are a sum
    over s of cyclic convolutions over the torus: the density on simplex
    point s with the indicator of (s, s').  They are taken by FFT over the
    torus, as Driscoll & Healy (Adv. Appl. Math. 15 (1994)) take an FFT
    along the longitudes.  Each indicator is even in every phase
    difference, so its DFT is its real cosine transform: one product with
    the M x M cosine matrix per torus axis.  That is about S N M (n+1)
    operations and arrays of S M^{n+1} entries per simplex point s',
    against the direct scan's MAX_CENTERS N dot products in blocks of
    128 x N; the value is the direct scan's up to round-off.
    """
    basis = u.basis
    dens = density(basis, u.values) if dens is None else dens
    nc, M = basis.n + 1, basis.M
    torus, axes = (M,) * nc, tuple(range(1, nc + 1))
    cells = dens.reshape((-1,) + torus)           # (S, M, .., M)
    S = len(cells)
    root_t = basis.nodes[::M ** nc].real          # (S, nc): sqrt t at phase 0
    d = np.arange(M)
    # cos(2 pi d / M), even in d to the bit, so that each indicator is even
    # in every d_k and its DFT is C applied along every torus axis
    cos = np.cos(2.0 * np.pi * np.minimum(d, M - d) / M)
    axis_cos = np.ix_(*[cos] * nc)
    C = np.cos(2.0 * np.pi * (np.outer(d, d) % M) / M)
    dens_hat = np.fft.rfftn(cells, axes=axes)
    cos_rho = np.cos(rho)
    masses_hat = np.empty_like(dens_hat)
    for sc, center in enumerate(root_t):
        # X_i . X_c for i on simplex point s and c = (sc, 0), by s and p
        dots = sum(wk.reshape((-1,) + (1,) * nc) * ck
                   for wk, ck in zip((root_t * center).T, axis_cos))
        ball_hat = (dots >= cos_rho) @ C[:, :M // 2 + 1]
        for k in range(nc - 1):          # torus axis k as a 3-D view's middle axis
            shape = ball_hat.shape
            ball_hat = (C @ ball_hat.reshape(S * M ** k, M, -1)).reshape(shape)
        masses_hat[sc] = np.einsum("s...,s...->...", dens_hat, ball_hat)
    masses = np.fft.irfftn(masses_hat, s=torus, axes=axes)
    stride = max(1, dens.size // MAX_CENTERS)
    return float(masses.reshape(-1)[::stride].max()) / dens.sum()


def kazdan_warner_vector(R_field, dens):
    """The 2(n+1) integrals int <grad_b X_r, grad_b R> dV_theta over the real
    coordinates X = real_coords(x), for a factor u with density dens and
    Webster curvature field R_field; zero in the continuum for every
    conformal factor.  The horizontal gradient of X_r is e_r less its parts
    along X and JX, so the integrand is the r-th component of R's own
    horizontal gradient, over 4."""
    return horizontal_gradient_values(R_field) @ dens / 4.0


def diagnostics(u, f, rho=0.5):
    """All scalar monitors of a flow state, computed by quadrature.  One
    synthesis of u gives the grid values and the density that E_f, alpha,
    F2, P, b, the Kazdan-Warner vector and the mass scan all read."""
    basis = u.basis
    uv, rv, dens = _grid_terms(basis, u.coeffs)
    E = energy(u)
    a, ef = _alpha_energy_f(basis.n, E, float(dens @ f.values))
    dev = _deviation(a, rv, f.values)
    F2 = _f2(dens, dev)
    dev_field = Field.from_values(basis, dev)
    # called through this module's name, which perfbench/tracing.py wraps
    grad_sq = grad_inner_values(dev_field, dev_field)
    G2 = float(basis.weights @ (grad_sq * uv ** 2))
    P, _ = center_of_mass(u, dens=dens)
    b = (dens * dev) @ real_coords(basis.nodes)
    kw = kazdan_warner_vector(Field.from_values(basis, rv), dens)
    return DiagnosticsRecord(
        E=E, E_f=ef, alpha=a, F2=F2, G2=max(G2, 0.0),
        P=P, b=b,
        # the norm over the functions x_i and conj x_i is sqrt2 times this one
        kw_residual=float(np.sqrt(2.0) * np.linalg.norm(kw)),
        max_u=float(uv.max()),
        mass_concentration=mass_concentration(u, rho=rho, dens=dens))


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlowState:
    """One state of a run.  `step` sets F2, the run loop's stop test, and
    the carry of the next step: E_f, rhs, the right-hand side (n/2)(alpha f
    - R) u, and slots, u's coefficients, both as padded slot vectors, u_min,
    the smallest grid value of u, the kernel workspace of f, and radius =
    (r, v, age), the last spectral radius estimate as a ratio r to the
    bound `_stiff_radius`, its power-iteration vector v and the accepted
    steps since (None before the first estimate).  The next step reuses the
    carry only while rhs_key is (u.coeffs, f.values) of its own u and f.
    `run` sets the diagnostics and the shadow (theta, eps, shadow_converged)
    of the states it records, and drops their workspace when it returns."""
    t: float
    u: Field
    alpha: float
    diagnostics: DiagnosticsRecord | None = None
    F2: float | None = None
    theta: np.ndarray | None = None
    eps: float | None = None
    shadow_converged: bool | None = None
    E_f: float | None = None
    rhs: np.ndarray | None = None
    rhs_key: tuple | None = field(default=None, repr=False)
    workspace: _Workspace | None = field(default=None, repr=False)
    radius: tuple | None = field(default=None, repr=False)
    slots: np.ndarray | None = field(default=None, repr=False)
    u_min: float | None = field(default=None, repr=False)


@functools.cache
def _rkc_scheme(s):
    """(beta, mu~_1, const, per_dt) of the s-stage damped RKC2 method
    (Sommeijer, Shampine & Verwer, J. Comput. Appl. Math. 88 (1998)): its
    real stability interval is [-beta, 0], and row j - 2 of const + dt per_dt
    holds stage j's coefficients of the rows [Y_0, F(Y_0), a, b, F(Y_{j-1})]
    of _rkc, with Y_{j-1} in a and Y_{j-2} in b for even j, and the reverse
    for odd j."""
    w0 = 1.0 + RKC_DAMPING / s ** 2
    # Chebyshev T_j and its first two derivatives at w0, for j = 0..s
    T, dT, d2T = [1.0, w0], [0.0, 1.0], [0.0, 0.0]
    for j in range(2, s + 1):
        T.append(2.0 * w0 * T[j - 1] - T[j - 2])
        dT.append(2.0 * T[j - 1] + 2.0 * w0 * dT[j - 1] - dT[j - 2])
        d2T.append(4.0 * dT[j - 1] + 2.0 * w0 * d2T[j - 1] - d2T[j - 2])
    w1 = dT[s] / d2T[s]
    b = [d2T[j] / dT[j] ** 2 if j >= 2 else 0.0 for j in range(s + 1)]
    b[0] = b[1] = b[2]
    a = [1.0 - b[j] * T[j] for j in range(s + 1)]
    const, per_dt = np.zeros((2, s - 1, 5))
    for j in range(2, s + 1):
        # mu_j, nu_j, mu~_j and gamma~_j of Y_j = (1 - mu_j - nu_j) Y_0 +
        # mu_j Y_{j-1} + nu_j Y_{j-2} + mu~_j dt F(Y_{j-1}) + gamma~_j dt F(Y_0)
        mu, nu = 2.0 * b[j] * w0 / b[j - 1], -b[j] / b[j - 2]
        mu_t = 2.0 * b[j] * w1 / b[j - 1]
        const[j - 2, [0, 2 + j % 2, 3 - j % 2]] = 1.0 - mu - nu, mu, nu
        per_dt[j - 2, [1, 4]] = -a[j - 1] * mu_t, mu_t
    const.flags.writeable = per_dt.flags.writeable = False
    return (w0 + 1.0) / w1, b[1] * w1, const, per_dt


def _stage_count(z):
    """The smallest s >= 2 whose stability interval [-beta(s), 0] holds -z;
    beta(s) is close to 0.653 s^2, which gives the first guess."""
    s = max(2, round((z / 0.653) ** 0.5))
    while s > 2 and _rkc_scheme(s - 1)[0] >= z:
        s -= 1
    while _rkc_scheme(s)[0] < z:
        s += 1
    return s


def _stiff_radius(basis, u_min):
    """(n+1) lambda_max u_min^{-2/n}: a bound on the spectral radius of the
    stiff part (n+1) u^{-2/n} Lap_b of the flow's Jacobian at a factor whose
    smallest grid value is the float u_min; an array of grid values stands
    for its minimum.  lambda_max = j k + n J / 2, from the closed form
    (4 j k + 2 n (j + k)) / 4 at j + k = J, j = J // 2."""
    n, J = basis.n, basis.J
    if not isinstance(u_min, float):
        u_min = float(u_min.min())
    lam = (J // 2) * (J - J // 2) + 0.5 * n * J
    return (n + 1) * lam * u_min ** (-2.0 / n)


def _radius_ratio(ws, x0, F0, v, bound):
    """(r, v): r = rho / bound for the spectral radius rho of the flow's
    Jacobian at the padded slot coefficients x0 with right-hand side F0, and
    the vector v of its last power iteration.  Nonlinear power iteration, as
    in the RKC code of Sommeijer, Shampine & Verwer: each iteration is one
    finite difference (F(x0 + h v / |v|) - F0) / h through the workspace ws,
    h = sqrt(eps) |x0|, and the iteration stops once two estimates agree to
    1 %.  It starts from v, the last estimate's vector, or else from (A /
    A_max)^8 F0, F0 weighted to the top band where the stiff modes live.
    Gives (1, None), the bound, when F0 vanishes to round-off (a stationary
    state), a perturbed factor is not positive, or the estimate does not
    converge to a positive number within RADIUS_ITERATIONS iterations."""
    A = ws.basis.yamabe_slots
    root_eps = np.sqrt(np.finfo(float).eps)
    if v is None:
        if not np.linalg.norm(F0) > root_eps * np.linalg.norm(A * x0):
            return 1.0, None
        v = (A / A.max()) ** 8 * F0
    h = root_eps * np.linalg.norm(x0)
    last = 0.0
    for _ in range(RADIUS_ITERATIONS):
        norm = np.linalg.norm(v)
        if not 0.0 < norm < np.inf:
            break
        try:
            v = _rhs_coeffs(ws, x0 + (h / norm) * v) - F0
        except NonPositiveFactor:
            break
        rho = np.linalg.norm(v) / h
        if abs(rho - last) <= 0.01 * rho:
            r = rho / bound
            return (r, v) if 0.0 < r < np.inf else (1.0, None)
        last = rho
    return 1.0, None


def _rkc(Y, dt, s, rhs):
    """Y_s of the s-stage damped RKC2 method for c' = F(c) from c0 = Y[0],
    with Y[1] = F(c0), in the five rows Y: s - 1 further evaluations rhs(x),
    each of which writes F(x) into the row Y[4].  Each stage writes its row
    with one product of its five coefficients and the rows [c0, F0, a, b,
    F], where Y_{j-1} and Y_{j-2} trade the rows a and b, so Y_j overwrites
    Y_{j-2}.  Returns the row that holds Y_s."""
    _, mu1, const, per_dt = _rkc_scheme(s)
    Y[3] = Y[0]
    np.multiply(Y[1], mu1 * dt, out=Y[2])
    Y[2] += Y[0]
    for j, coeffs in enumerate(const + dt * per_dt, start=2):
        rhs(Y[2 + j % 2])
        np.dot(coeffs, Y, out=Y[3 - j % 2])
    return Y[3 - s % 2]


def step(state, f, dt, slack=1e-10, dt_min=1e-7):
    """One monotonicity-gated damped RKC2 step with volume renormalization.

    The stage count is the smallest whose stability interval covers dt times
    the spectral radius of the flow's Jacobian.  That radius is estimated by
    `_radius_ratio` as a ratio r to the bound `_stiff_radius` of the state,
    refreshed every RADIUS_REFRESH accepted steps from the last estimate's
    vector, and taken as min(RADIUS_SAFETY r, 1) times the bound, so no step
    has more stages than the bound asks for.  A step the bound already gives
    at most 3 stages takes them without an estimate.  Halves dt on
    positivity loss or an E_f increase beyond slack, the backstops of a
    radius read too low, reusing the first stage's right-hand side; raises
    PositivityLoss / StepRejected when dt_min is reached.  Returns the new
    FlowState, with its alpha, F2 and the next step's carry, and the dt
    actually used.

    The stages run in the transforms' native layout: padded slot
    coefficients and fiber-ordered grid values, through the one workspace
    that every kernel evaluation of the run reuses: its rows Y hold the
    stages, and each evaluation projects into the row F that the stage
    reads.  A state carried from the last step gives the slot coefficients,
    min u, E_f and right-hand side that the step starts from, so only the
    new state is converted to grid order.
    """
    basis = state.u.basis
    n = basis.n
    key = state.rhs_key
    if key is not None and key[0] is state.u.coeffs and key[1] is f.values:
        ef0, radius, u_min = state.E_f, state.radius, state.u_min
        ws = state.workspace or _Workspace(basis, f.values)
        ws.Y[0], ws.Y[1] = state.slots, state.rhs
    else:
        ws, radius = _Workspace(basis, f.values), None
        ef0, u_min = energy_f(state.u, f), float(state.u.values.min())
        ws.Y[0] = basis.to_slots(state.u.coeffs)
        try:
            _rhs_coeffs(ws, ws.Y[0], ws.Y[1])      # independent of dt
        except NonPositiveFactor as exc:
            raise PositivityLoss(f"factor is not positive at t = {state.t:.6g}") from exc
    x0, F0 = ws.Y[0], ws.Y[1]
    rho = _stiff_radius(basis, u_min)
    if dt * rho > _rkc_scheme(3)[0]:      # the bound asks for more than 3 stages
        if radius is None or radius[2] >= RADIUS_REFRESH:
            v = None if radius is None else radius[1]
            radius = (*_radius_ratio(ws, x0, F0, v, rho), 0)
        rho *= min(RADIUS_SAFETY * radius[0], 1.0)
    if radius is not None:
        radius = (radius[0], radius[1], radius[2] + 1)   # the age at the new state
    while True:
        try:
            x1 = _rkc(ws.Y, dt, _stage_count(dt * rho),
                      lambda x: _rhs_coeffs(ws, x, ws.F))
            E1 = _fiber_terms(ws, x1)
        except NonPositiveFactor:
            if dt / 2.0 < dt_min:
                raise PositivityLoss(
                    f"factor lost positivity at dt = {dt:.3e} (dt_min reached)")
            dt /= 2.0
            continue
        f_vol = _f_volume(ws)
        R, dens = _curvature_density(ws, ws.g, ws.dens)
        # sigma u has energy sigma^2 E, density sigma^{2+2/n} dens and
        # curvature sigma^{-2/n} R, so its alpha, F2 and right-hand side are
        # those of u at sigma^{2/n} alpha times powers of sigma: the
        # renormalized state needs no further synthesis
        sigma = _volume_factor(basis, dens)
        a1, ef1 = _alpha_energy_f(n, sigma ** 2 * E1,
                                  sigma ** critical_exponent(n) * f_vol)
        if not ef1 <= ef0 + slack:
            if dt / 2.0 < dt_min:
                raise StepRejected(
                    f"energy gate violated by {ef1 - ef0:.3e} at dt_min")
            dt /= 2.0
            continue
        a = sigma ** (2.0 / n) * a1
        F2 = _f2(dens, _deviation(a, R, ws.f, out=ws.h), out=ws.h)
        slots = sigma * x1
        values = basis.from_fibers(ws.u)
        values *= sigma
        u1 = Field(basis, basis.from_slots(slots), values)
        return FlowState(state.t + dt, u1, a1, F2=sigma ** (2.0 - 2.0 / n) * F2,
                         E_f=ef1, rhs=sigma ** (1.0 - 2.0 / n) * _project_rhs(ws, a),
                         rhs_key=(u1.coeffs, f.values), workspace=ws,
                         radius=radius, slots=slots, u_min=sigma * ws.u_min), dt


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

class Termination(Enum):
    CONVERGED = "Converged"
    CONCENTRATED = "Concentrated"
    TIME_LIMIT = "TimeLimit"
    STEP_FAILURE = "StepFailure"


@dataclass(frozen=True)
class FlowConfig:
    dt_init: float = 0.05
    t_max: float = 50.0
    tol_converge: float = 1e-8
    blowup_factor: float = 50.0
    mass_threshold: float = 0.9
    concentration_rho: float = 0.5
    record_every: int = 10
    enforce_beta: bool = False
    max_steps: int = 200_000
    wall_time_cap: float | None = None
    compute_shadow: bool = True


@dataclass
class RunResult:
    status: Termination
    records: list                    # the recorded FlowStates
    message: str = ""
    shadow_point: np.ndarray | None = None
    f_at_shadow: float | None = None
    grad_f_at_shadow: float | None = None
    lap_f_at_shadow: float | None = None

    @property
    def final_state(self):
        return self.records[-1]


def _f_data_at(f, point):
    """(f, |grad_S f|, Lap_b f) at an arbitrary sphere point."""
    basis = f.basis
    calc = PolyCalculus(basis.space, basis.monomial_coeffs(f.coeffs))
    jet = calc.jet(np.asarray(point, dtype=complex)[None, :])
    return (float(jet.value[0]), float(np.linalg.norm(jet.tangent[0])),
            float(jet.sub_laplacian[0]))


def run(u0, f, config=None):
    """Integrate the flow from u0, recording diagnostics at a fixed cadence.

    Terminates Converged when F2 < tol_converge, Concentrated when the mass
    concentration and max u exceed their thresholds, TimeLimit at t_max (the
    last step lands on it), and StepFailure when the stepper gives up.  On
    concentration the shadow point and the f-data there are attached.
    """
    from .normalization import find_centering, shadow

    config = config or FlowConfig()
    if not 0.0 < config.dt_init < np.inf:
        raise ConfigError(f"dt_init must be a finite positive number, not {config.dt_init}")
    if not config.t_max > 0.0:
        raise ConfigError(f"t_max must be a positive number, not {config.t_max}")
    every = config.record_every
    if not (isinstance(every, (int, np.integer)) and every >= 1):
        raise ConfigError(f"record_every must be a positive integer, not {every}")
    if not f.values.min() > 0:
        raise ConfigError("prescribed curvature candidate f must be positive")
    if not (np.isfinite(u0.coeffs).all() and np.isfinite(u0.values).all()):
        raise ConfigError("initial factor u0 must be finite")
    u = volume_renormalize(u0)
    if config.enforce_beta:
        gate = beta_threshold(f)
        if energy_f(u, f) > gate:
            raise ConfigError(
                f"initial normalized energy {energy_f(u, f):.6f} above the "
                f"admissibility gate {gate:.6f}")

    records = []
    started = time.monotonic()

    def record(st):
        """st with its diagnostics and shadow, appended to records."""
        st = replace(st, diagnostics=diagnostics(st.u, f, rho=config.concentration_rho))
        if config.compute_shadow:
            cres = find_centering(st.u)
            st = replace(st, shadow_converged=cres.converged)
            if cres.converged:
                theta, _, eps = shadow(st.u, result=cres)
                st = replace(st, theta=theta, eps=eps)
        records.append(st)
        return st

    state = record(FlowState(0.0, u, alpha(u, f)))

    dt = config.dt_init
    accepted_since_growth = 0
    status = Termination.TIME_LIMIT
    n_steps = 0
    while True:
        if state.t >= config.t_max:
            message = f"t_max ({config.t_max:g}) reached at t = {state.t:.6g}"
            break
        if n_steps >= config.max_steps:
            message = f"max_steps ({config.max_steps}) reached at t = {state.t:.6g}"
            break
        if config.wall_time_cap and time.monotonic() - started > config.wall_time_cap:
            message = (f"wall-time cap ({config.wall_time_cap:g} s) reached "
                       f"at t = {state.t:.6g}")
            break
        # shortening the last step is no halving, so dt stays; it lands on
        # t_max exactly, as t >= dt > t_max - t leaves no rounding in t + dt.
        # t is a sum of n_steps rounded additions, off by at most n_steps
        # half-ulps of t_max; a step that would stop within that of t_max is
        # stretched to land on it, so no step attempt goes to the remainder
        gap = config.t_max - state.t
        dt_try = gap if gap - dt <= n_steps * np.spacing(config.t_max) else dt
        try:
            new_state, dt_used = step(state, f, dt_try)
        except (PositivityLoss, StepRejected) as exc:
            status, message = Termination.STEP_FAILURE, str(exc)
            break
        n_steps += 1
        if dt_used < dt_try:
            dt = dt_used
            accepted_since_growth = 0
        else:
            accepted_since_growth += 1
            # after 20 accepted steps at a reduced dt, try doubling it
            if accepted_since_growth >= 20 and dt < config.dt_init:
                dt = min(2.0 * dt, config.dt_init)
                accepted_since_growth = 0
        state = new_state
        if n_steps % config.record_every == 0:
            state = record(state)
        if state.F2 < config.tol_converge:
            status, message = Termination.CONVERGED, f"F2 = {state.F2:.3e}"
            break
        # the mass scan only matters once max u is past the blow-up bound
        max_u = float(state.u.values.max())
        if max_u > config.blowup_factor:
            mass = mass_concentration(state.u, rho=config.concentration_rho)
            if mass > config.mass_threshold:
                status, message = Termination.CONCENTRATED, (
                    f"mass {mass:.3f}, max u {max_u:.1f}")
                break

    if records[-1] is not state:
        state = record(state)
    # the result holds no kernel buffers: a step from a record builds its own
    records[:] = [replace(st, workspace=None) for st in records]
    result = RunResult(status=status, records=records, message=message)
    if status in (Termination.CONVERGED, Termination.CONCENTRATED):
        point = None
        if state.theta is not None and np.linalg.norm(state.theta) > 1e-12:
            point = state.theta / np.linalg.norm(state.theta)
        elif status is Termination.CONCENTRATED:
            _, point = center_of_mass(state.u)
        if point is not None and np.linalg.norm(point) > 0.5:
            result.shadow_point = point
            fv, gv, lv = _f_data_at(f, point)
            result.f_at_shadow, result.grad_f_at_shadow, result.lap_f_at_shadow = fv, gv, lv
    return result
