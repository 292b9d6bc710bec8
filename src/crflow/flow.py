"""The prescribed Webster scalar curvature flow and its diagnostics.

The conformal factor u > 0 evolves by du/dt = (n/2)(alpha f - R) u where R is
the Webster curvature of u^{2/n} theta_0,

    R = u^{-(1+2/n)} ( -(2+2/n) Lap_b u + R_0 u ),      R_0 = n(n+1)/2,

and alpha is the unique constant making the total curvature match the
f-average: alpha int f dV_theta = int R dV_theta.  Time stepping is the
explicit damped second-order Runge-Kutta-Chebyshev method (RKC2) on basis
coefficients, with as many stages as the stiffness of the state asks for,
followed by a multiplicative volume renormalization; steps that would raise the
scale-invariant energy E_f beyond a small slack are retried with half the step.

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
(alpha f - R and F2) and `_volume_factor` complete it.  The kernel reads and
writes one workspace (`_Workspace`): f in fiber order, (n/2) w, (n/2) w f,
the buffers and the transform plans between them.  `step` builds one per
call; every RKC2 stage, the end-of-step positivity test, the
renormalization, the E_f gate and F2 use it, and a stage allocates no
grid-sized array.  The stages run in the transforms' native layout: padded
slot coefficients and fiber-ordered values, with no permutation inside a
step, and an accepted state carries its E_f and right-hand side into the
next step.
"""

import functools
import time
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .errors import (ConfigError, CRFlowError, DegenerateDenominator,
                     NonPositiveFactor, PositivityLoss, StepRejected)
from .morse import sbc_check
from .polynomials import PolyCalculus, real_coords
from .spectral import (Field, base_curvature, grad_inner_values,
                       horizontal_gradient_values)


MAX_CENTERS = 512    # ball centers scanned by mass_concentration
RKC_DAMPING = 2.0 / 13.0    # epsilon of the damped RKC2 step


def critical_exponent(n):
    """Volume exponent: dV_theta = u^{2+2/n} dV_theta0."""
    return 2.0 + 2.0 / n


# ---------------------------------------------------------------------------
# the flow kernel and the pointwise building blocks on it
# ---------------------------------------------------------------------------

def _density(weights, u, q):
    """Quadrature weights of dV_theta = u^{2+2/n} dV_theta0 at values u with
    q = u^{2/n} and quadrature weights `weights`, as w u u q."""
    return weights * u * u * q


def density(basis, uv):
    """Quadrature weights of dV_theta = u^{2+2/n} dV_theta0 at grid values uv,
    with the same rounding as the flow kernel."""
    return _density(basis.weights, uv, uv ** (2.0 / basis.n))


class _Workspace:
    """The flow kernel's data for one basis and one f: f in fiber order,
    (n/2) w and (n/2) w f with w the fiber-ordered weights, the buffers one
    kernel evaluation fills (the curvature rows (x, A x), the values
    (u, u R q), q = u^{2/n}, (n/2) w f u, two scratch rows and the projected
    coefficients) and the transform plans between them.  Each evaluation
    overwrites the last one's buffers; `step` builds one workspace per
    call."""

    def __init__(self, basis, fvals=None):
        self.basis = basis
        self.w = (0.5 * basis.n) * basis.fiber_weights
        if fvals is not None:
            self.f = basis.to_fibers(fvals)
            self.wf = self.w * self.f
        self.rows = np.empty((2, basis.yamabe_slots.size))
        self.vals = np.empty((2, self.w.size))
        self.u, self.uRq = self.vals
        self.q, self.wfu, self.g, self.h = np.empty((4, self.w.size))
        self.coeffs = np.empty(self.rows.shape[1])
        self.synthesize = basis.synthesis_plan(self.rows, self.vals)
        self.project = basis.projection_plan(self.g[None], self.coeffs[None])


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
    q = u^{2/n}.  Returns the energy E."""
    basis = ws.basis
    rows = _curvature_rows(basis, x, out=ws.rows)
    ws.synthesize()
    if not ws.u.min() > 0:
        raise NonPositiveFactor("conformal factor must be positive on the grid")
    np.power(ws.u, 2.0 / basis.n, out=ws.q)
    return _energy(rows)


def _f_volume(ws):
    """int f dV_theta of the factor in ws, as (2/n) ((n/2) w f u) . (u q);
    leaves (n/2) w f u in ws.wfu for _project_rhs."""
    np.multiply(ws.wf, ws.u, out=ws.wfu)
    np.multiply(ws.u, ws.q, out=ws.g)
    return (2.0 / ws.basis.n) * float(ws.wfu @ ws.g)


def _curvature_density(ws):
    """New fiber-ordered arrays (R, dens) of the factor in ws: its Webster
    curvature (u R q) / (u q) and its density."""
    return ws.uRq / (ws.u * ws.q), _density(ws.basis.fiber_weights, ws.u, ws.q)


def _alpha_energy_f(n, E, f_vol):
    """(alpha, E_f) of the factor with energy E and int f dV_theta = f_vol:
    alpha f_vol = E and E_f = E / f_vol^{n/(n+1)}."""
    if abs(f_vol) < 1e-14:
        raise DegenerateDenominator("int f dV_theta vanished")
    return E / f_vol, E / f_vol ** (n / (n + 1.0))


def _deviation(a, R, dens, fvals):
    """The deviation alpha f - R and F2 = int (alpha f - R)^2 dV_theta of the
    factor with normalizing constant a, curvature R and density dens."""
    dev = a * fvals - R
    return dev, float(dens @ dev ** 2)


def _volume_factor(basis, dens):
    """sigma with int (sigma u)^{2+2/n} dV_theta0 = vol, from u's density."""
    total = float(dens.sum())
    if total <= 0:
        raise NonPositiveFactor("cannot renormalize a non-positive factor")
    return (basis.vol / total) ** (basis.n / (2.0 * basis.n + 2.0))


def _project_rhs(ws, a):
    """Padded slot coefficients of (n/2)(a f - R) u for the factor in ws:
    the projection of a (n/2) w f u - (n/2) w (u R q) / q, with (n/2) w f u
    from _f_volume."""
    g, h = ws.g, ws.h
    np.divide(ws.uRq, ws.q, out=h)
    h *= ws.w
    np.multiply(ws.wfu, a, out=g)
    g -= h
    ws.project()
    return ws.coeffs.copy()


def _rhs_coeffs(ws, x):
    """The flow's right-hand side (n/2)(alpha f - R) u in the native layout:
    padded slot coefficients, for padded slot coefficients x, through the
    workspace ws of f."""
    E = _fiber_terms(ws, x)
    return _project_rhs(ws, _alpha_energy_f(ws.basis.n, E, _f_volume(ws))[0])


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
    centers; dens, if given, is u's density."""
    basis = u.basis
    dens = density(basis, u.values) if dens is None else dens
    total = dens.sum()
    X = real_coords(basis.nodes)
    stride = max(1, len(X) // MAX_CENTERS)
    centers = X[::stride]
    cos_rho = np.cos(rho)
    best = 0.0
    for start in range(0, len(centers), 128):
        block = centers[start:start + 128]
        dots = block @ X.T
        masses = (dots >= cos_rho) @ dens
        best = max(best, float(masses.max()))
    return best / total


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
    dev, F2 = _deviation(a, rv, dens, f.values)
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
    E_f and rhs, the right-hand side (n/2)(alpha f - R) u as padded slot
    coefficients; the next step reuses them only while rhs_key is
    (u.coeffs, f.values) of its own u and f.  `run` sets the diagnostics and
    the shadow (theta, eps, shadow_converged) of the states it records."""
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
    s = max(2, int(round(np.sqrt(z / 0.653))))
    while s > 2 and _rkc_scheme(s - 1)[0] >= z:
        s -= 1
    while _rkc_scheme(s)[0] < z:
        s += 1
    return s


def _stiff_radius(basis, uv):
    """(n+1) lambda_max (min u)^{-2/n}: a bound on the spectral radius of the
    stiff part (n+1) u^{-2/n} Lap_b of the flow's Jacobian at grid values uv."""
    n = basis.n
    return (n + 1) * float(basis.eigenvalues.max()) * float(uv.min()) ** (-2.0 / n)


def _rkc(c0, F0, dt, s, rhs):
    """Y_s of the s-stage damped RKC2 method for c' = rhs(c) from c0, with
    F0 = rhs(c0): s - 1 further rhs evaluations.  Each stage is one product
    of its five coefficients with the stacked rows [c0, F0, a, b, F], where
    Y_{j-1} and Y_{j-2} trade the rows a and b, so Y_j overwrites Y_{j-2}."""
    _, mu1, const, per_dt = _rkc_scheme(s)
    Y = np.empty((5, len(c0)))
    Y[0], Y[1], Y[3] = c0, F0, c0
    Y[2] = c0 + mu1 * dt * F0
    for j, coeffs in enumerate(const + dt * per_dt, start=2):
        Y[4] = rhs(Y[2 + j % 2])
        Y[3 - j % 2] = coeffs @ Y
    return Y[3 - s % 2]


def step(state, f, dt, slack=1e-10, dt_min=1e-7):
    """One monotonicity-gated damped RKC2 step with volume renormalization.

    The stage count is the smallest whose stability interval covers dt times
    the state's stiff radius, so the step is stable at any dt.  Halves dt on
    positivity loss or an E_f increase beyond slack, reusing the first
    stage's right-hand side; raises PositivityLoss / StepRejected when dt_min
    is reached.  Returns the new FlowState, with its alpha, F2, E_f and
    right-hand side, and the dt actually used.

    The stages run in the transforms' native layout: padded slot
    coefficients and fiber-ordered grid values, converted once per step,
    through one workspace that every kernel evaluation of the step reuses.
    """
    basis = state.u.basis
    n = basis.n
    ws = _Workspace(basis, f.values)
    x0 = basis.to_slots(state.u.coeffs)
    key = state.rhs_key
    if key is not None and key[0] is state.u.coeffs and key[1] is f.values:
        ef0, F0 = state.E_f, state.rhs
    else:
        ef0 = energy_f(state.u, f)
        try:
            F0 = _rhs_coeffs(ws, x0)      # independent of dt
        except NonPositiveFactor as exc:
            raise PositivityLoss(f"factor is not positive at t = {state.t:.6g}") from exc
    rho = _stiff_radius(basis, state.u.values)
    while True:
        try:
            x1 = _rkc(x0, F0, dt, _stage_count(dt * rho),
                      lambda x: _rhs_coeffs(ws, x))
            E1 = _fiber_terms(ws, x1)
        except NonPositiveFactor:
            if dt / 2.0 < dt_min:
                raise PositivityLoss(
                    f"factor lost positivity at dt = {dt:.3e} (dt_min reached)")
            dt /= 2.0
            continue
        f_vol = _f_volume(ws)
        R, dens = _curvature_density(ws)
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
        _, F2 = _deviation(a, R, dens, ws.f)
        u1 = Field(basis, sigma * basis.from_slots(x1),
                   sigma * basis.from_fibers(ws.u))
        return FlowState(state.t + dt, u1, a1, F2=sigma ** (2.0 - 2.0 / n) * F2,
                         E_f=ef1, rhs=sigma ** (1.0 - 2.0 / n) * _project_rhs(ws, a),
                         rhs_key=(u1.coeffs, f.values)), dt


# ---------------------------------------------------------------------------
# orchestration
# ---------------------------------------------------------------------------

class Termination(Enum):
    CONVERGED = "Converged"
    CONCENTRATED = "Concentrated"
    TIME_LIMIT = "TimeLimit"
    STEP_FAILURE = "StepFailure"


@dataclass
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
            try:
                cres = find_centering(st.u)
                theta, _, eps = shadow(st.u, result=cres)
                st = replace(st, theta=theta, eps=eps, shadow_converged=cres.converged)
            except CRFlowError:
                st = replace(st, shadow_converged=False)
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
