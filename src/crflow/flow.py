"""The prescribed Webster scalar curvature flow and its diagnostics.

The conformal factor u > 0 evolves by du/dt = (n/2)(alpha f - R) u where R is
the Webster curvature of u^{2/n} theta_0,

    R = u^{-(1+2/n)} ( -(2+2/n) Lap_b u + R_0 u ),      R_0 = n(n+1)/2,

and alpha is the unique constant making the total curvature match the
f-average: alpha int f dV_theta = int R dV_theta.  Time stepping is explicit
RK4 on basis coefficients followed by a multiplicative volume renormalization;
steps that would raise the scale-invariant energy E_f beyond a small slack are
retried with half the step.

Fields are real (real coefficients, real grid values); complex numbers are
points of C^{n+1} only, so the moment b and the Kazdan-Warner vector are
taken over the real coordinates Re x_i, Im x_i.

Each formula is written once, in the flow kernel: `_grid_terms` (grid values
of u, R and the density dV_theta from one two-row synthesis), `_energy`,
`_alpha_energy_f`, `_deviation` (alpha f - R and F2) and `_volume_factor`.
"""

import time
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import (ConfigError, CRFlowError, DegenerateDenominator,
                     NonPositiveFactor, PositivityLoss, StepRejected)
from .morse import sbc_check
from .polynomials import PolyCalculus, real_coords
from .spectral import Field, coordinate_grad_inner_values, grad_inner_values


MAX_CENTERS = 512    # ball centers scanned by mass_concentration


def base_curvature(n):
    """Webster curvature of the round contact form."""
    return n * (n + 1) / 2.0


def critical_exponent(n):
    """Volume exponent: dV_theta = u^{2+2/n} dV_theta0."""
    return 2.0 + 2.0 / n


# ---------------------------------------------------------------------------
# the flow kernel and the pointwise building blocks on it
# ---------------------------------------------------------------------------

def density(basis, uv):
    """Quadrature weights of dV_theta = u^{2+2/n} dV_theta0 at grid values uv,
    as w u u u^{2/n}: the same rounding as `_grid_terms`."""
    return basis.weights * uv * uv * uv ** (2.0 / basis.n)


def _grid_terms(basis, c):
    """Grid values (u, R, dens) of the factor with real coefficients c: one
    two-row synthesis of [c, -lambda c], the positivity check, the Webster
    curvature R and the volume density, from one power q = u^{2/n}."""
    n = basis.n
    u, lap = basis.synthesize(np.stack([c, -basis.eigenvalues * c]))
    if u.min() <= 0:
        raise NonPositiveFactor("conformal factor must be positive on the grid")
    q = u ** (2.0 / n)
    R = (-(2.0 + 2.0 / n) * lap + base_curvature(n) * u) / (u * q)
    return u, R, basis.weights * u * u * q


def _energy(basis, c):
    """int ((2+2/n)|grad u|^2 + R_0 u^2) dV from coefficients (Parseval)."""
    n = basis.n
    w = (2.0 + 2.0 / n) * basis.eigenvalues + base_curvature(n)
    return float(w @ np.abs(c) ** 2)


def _alpha_energy_f(basis, c, dens, fvals):
    """(alpha, E_f) with alpha int f dV_theta = E and
    E_f = E / (int f dV_theta)^{n/(n+1)}."""
    f_vol = float(dens @ fvals)
    if abs(f_vol) < 1e-14:
        raise DegenerateDenominator("int f dV_theta vanished")
    E = _energy(basis, c)
    return E / f_vol, E / f_vol ** (basis.n / (basis.n + 1.0))


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


def _rhs_coeffs(basis, c, fvals):
    """Basis coefficients of (n/2)(alpha f - R) u for real coefficients c."""
    u, R, dens = _grid_terms(basis, c)
    dev, _ = _deviation(_alpha_energy_f(basis, c, dens, fvals)[0], R, dens, fvals)
    return basis.project(0.5 * basis.n * dev * u)


def curvature_values(u):
    """Exact grid values of the Webster curvature of u^{2/n} theta_0."""
    return _grid_terms(u.basis, u.coeffs)[1]


def energy(u):
    """Total curvature energy int ((2+2/n)|grad u|^2 + R_0 u^2) dV.

    Evaluated spectrally (exact for band-limited u); agrees with the
    curvature-side evaluation int R dV_theta, see energy_consistency."""
    return _energy(u.basis, u.coeffs)


def energy_consistency(u):
    """(spectral E, curvature-side int R dV_theta, |difference|)."""
    _, R, dens = _grid_terms(u.basis, u.coeffs)
    e1, e2 = energy(u), float(dens @ R)
    return e1, e2, abs(e1 - e2)


def alpha(u, f):
    """Normalizing constant: alpha int f dV_theta = int R dV_theta = E(u)."""
    return _alpha_energy_f(u.basis, u.coeffs, density(u.basis, u.values),
                           f.values)[0]


def energy_f(u, f):
    """Scale- and conformally-invariant normalized energy."""
    return _alpha_energy_f(u.basis, u.coeffs, density(u.basis, u.values),
                           f.values)[1]


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
    X = np.concatenate([basis.nodes.real, basis.nodes.imag], axis=1)
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
    """The 2(n+1) integrals int <grad X_r, grad R> dV_theta over the real
    coordinates X = real_coords(x), for a factor u with density dens and
    Webster curvature field R_field; zero in the continuum for every
    conformal factor."""
    return coordinate_grad_inner_values(R_field) @ dens


def diagnostics(u, f, rho=0.5):
    """All scalar monitors of a flow state, computed by quadrature.  One
    synthesis of u gives the grid values and the density that E_f, alpha,
    F2, P, b, the Kazdan-Warner vector and the mass scan all read."""
    basis = u.basis
    c = u.coeffs
    uv, rv, dens = _grid_terms(basis, c)
    a, ef = _alpha_energy_f(basis, c, dens, f.values)
    dev, F2 = _deviation(a, rv, dens, f.values)
    dev_field = Field.from_values(basis, dev)
    # called through this module's name, which perfbench/tracing.py wraps
    grad_sq = grad_inner_values(dev_field, dev_field)
    G2 = float(basis.weights @ (grad_sq * uv ** 2))
    P, _ = center_of_mass(u, dens=dens)
    b = (dens * dev) @ real_coords(basis.nodes)
    kw = kazdan_warner_vector(Field.from_values(basis, rv), dens)
    return DiagnosticsRecord(
        E=energy(u), E_f=ef, alpha=a, F2=F2, G2=max(G2, 0.0),
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
    """One state of a run.  `step` sets F2, the run loop's stop test; `run`
    sets the diagnostics and the shadow (theta, eps, shadow_converged) of the
    states it records."""
    t: float
    u: Field
    alpha: float
    diagnostics: DiagnosticsRecord | None = None
    F2: float | None = None
    theta: np.ndarray | None = None
    eps: float | None = None
    shadow_converged: bool | None = None


def step(state, f, dt, slack=1e-10, dt_min=1e-7):
    """One monotonicity-gated RK4 step with volume renormalization.

    Halves dt on positivity loss or an E_f increase beyond slack; raises
    PositivityLoss / StepRejected when dt_min is reached.  Returns the new
    FlowState, with its alpha and F2, and the dt actually used.
    """
    basis = state.u.basis
    fvals = f.values
    c0 = state.u.coeffs
    ef0 = energy_f(state.u, f)
    try:
        k1 = _rhs_coeffs(basis, c0, fvals)      # independent of dt
    except NonPositiveFactor as exc:
        raise PositivityLoss(f"factor is not positive at t = {state.t:.6g}") from exc
    while True:
        try:
            k2 = _rhs_coeffs(basis, c0 + 0.5 * dt * k1, fvals)
            k3 = _rhs_coeffs(basis, c0 + 0.5 * dt * k2, fvals)
            k4 = _rhs_coeffs(basis, c0 + dt * k3, fvals)
            c1 = c0 + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4)
            v1, R1, dens = _grid_terms(basis, c1)
        except NonPositiveFactor:
            if dt / 2.0 < dt_min:
                raise PositivityLoss(
                    f"factor lost positivity at dt = {dt:.3e} (dt_min reached)")
            dt /= 2.0
            continue
        sigma = _volume_factor(basis, dens)
        u1 = sigma * Field(basis, c1, v1)
        dens = density(basis, u1.values)
        a1, ef1 = _alpha_energy_f(basis, u1.coeffs, dens, fvals)
        if ef1 > ef0 + slack:
            if dt / 2.0 < dt_min:
                raise StepRejected(
                    f"energy gate violated by {ef1 - ef0:.3e} at dt_min")
            dt /= 2.0
            continue
        # R(sigma u) = sigma^{-2/n} R(u), so F2 needs no further synthesis
        R1 = sigma ** (-2.0 / basis.n) * R1
        _, F2 = _deviation(a1, R1, dens, fvals)
        return FlowState(state.t + dt, u1, a1, F2=F2), dt


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
        # stretched to land on it, so no RK4 attempt goes to the remainder
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
