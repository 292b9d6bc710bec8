"""The prescribed Webster scalar curvature flow and its diagnostics.

The conformal factor u > 0 evolves by du/dt = (n/2)(alpha f - R) u where R is
the Webster curvature of u^{2/n} theta_0,

    R = u^{-(1+2/n)} ( -(2+2/n) Lap_b u + R_0 u ),      R_0 = n(n+1)/2,

and alpha is the unique constant making the total curvature match the
f-average: alpha int f dV_theta = int R dV_theta.  Time stepping is explicit
RK4 on basis coefficients followed by a multiplicative volume renormalization;
steps that would raise the scale-invariant energy E_f beyond a small slack are
retried with half the step.
"""

import time
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import (ConfigError, CRFlowError, DegenerateDenominator,
                     NonPositiveFactor, PositivityLoss, StepRejected)
from .polynomials import PolyCalculus
from .spectral import Field, coordinate_grad_inner_values, grad_inner_values


def base_curvature(n):
    """Webster curvature of the round contact form."""
    return n * (n + 1) / 2.0


def critical_exponent(n):
    """Volume exponent: dV_theta = u^{2+2/n} dV_theta0."""
    return 2.0 + 2.0 / n


# ---------------------------------------------------------------------------
# pointwise building blocks
# ---------------------------------------------------------------------------

def curvature_values(u):
    """Exact grid values of the Webster curvature of u^{2/n} theta_0."""
    basis = u.basis
    n = basis.n
    uv = u.real_values
    if uv.min() <= 0:
        raise NonPositiveFactor("conformal factor must be positive on the grid")
    lap = np.real(basis.synthesize(-basis.eigenvalues * u.coeffs))
    return (-(2.0 + 2.0 / n) * lap + base_curvature(n) * uv) / uv ** (1.0 + 2.0 / n)


def webster_curvature(u):
    """Webster curvature as a Field (spectral projection of the point values)."""
    return Field.from_values(u.basis, curvature_values(u))


def energy(u):
    """Total curvature energy int ((2+2/n)|grad u|^2 + R_0 u^2) dV.

    Evaluated spectrally (exact for band-limited u); agrees with the
    curvature-side evaluation int R dV_theta, see energy_consistency."""
    basis = u.basis
    n = basis.n
    w = (2.0 + 2.0 / n) * basis.eigenvalues + base_curvature(n)
    return float(np.real(np.sum(w * np.abs(u.coeffs) ** 2)))


def energy_consistency(u):
    """(spectral E, curvature-side int R dV_theta, |difference|)."""
    basis = u.basis
    e1 = energy(u)
    rv = curvature_values(u)
    uv = u.real_values
    e2 = float(basis.weights @ (rv * uv ** critical_exponent(basis.n)))
    return e1, e2, abs(e1 - e2)


def f_volume(u, f):
    """int f u^{2+2/n} dV_theta0."""
    basis = u.basis
    return float(basis.weights @ (f.real_values * u.real_values ** critical_exponent(basis.n)))


def alpha(u, f):
    """Normalizing constant: alpha int f dV_theta = int R dV_theta = E(u)."""
    den = f_volume(u, f)
    if abs(den) < 1e-14:
        raise DegenerateDenominator("int f dV_theta vanished")
    return energy(u) / den


def energy_f(u, f):
    """Scale- and conformally-invariant normalized energy."""
    n = u.basis.n
    return energy(u) / f_volume(u, f) ** (n / (n + 1.0))


def volume_renormalize(u):
    """Scale u so that int u^{2+2/n} dV = vol (exactly restorable)."""
    basis = u.basis
    n = basis.n
    total = float(basis.weights @ u.real_values ** critical_exponent(n))
    if total <= 0:
        raise NonPositiveFactor("cannot renormalize a non-positive factor")
    sigma = (basis.vol / total) ** (n / (2.0 * n + 2.0))
    return sigma * u


def flow_rhs(u, f):
    """(n/2)(alpha f - R) u projected to the basis."""
    basis = u.basis
    return Field.from_coeffs(
        basis, _rhs_coeffs(basis, u.coeffs.real, f.real_values, basis.n))


def cr_yamabe_constant(n, vol):
    """Energy of the round solution per critical volume, E(1)/vol^{n/(n+1)}."""
    return base_curvature(n) * vol ** (1.0 / (n + 1.0))


def beta_threshold(f):
    """Admissible-energy gate (1+eps0) Y (min f)^{-n/(n+1)}; requires the
    bubble-ratio bound max f / min f < 2^{1/n}."""
    basis = f.basis
    n = basis.n
    fv = f.real_values
    fmin, fmax = float(fv.min()), float(fv.max())
    if fmin <= 0:
        raise ConfigError("f must be positive for the energy gate")
    delta = fmax / fmin
    if delta >= 2.0 ** (1.0 / n):
        raise ConfigError(
            "energy gate undefined: max f / min f must be below 2^(1/n)")
    ratio = delta ** (n / (n + 1.0)) / 2.0 ** (1.0 / (n + 1.0))
    eps0 = (1.0 - ratio) / (1.0 + ratio)
    return (1.0 + eps0) * cr_yamabe_constant(n, basis.vol) * fmin ** (-n / (n + 1.0))


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiagnosticsRecord:
    E: float
    E_f: float
    F2: float
    G2: float
    P: np.ndarray
    P_hat: np.ndarray
    b: np.ndarray
    B: np.ndarray
    kw_residual: float
    max_u: float
    mass_concentration: float


def center_of_mass(u):
    """P = int x u^{2+2/n} dV and its normalization P_hat (P itself when |P|
    is below 1e-12)."""
    basis = u.basis
    dens = basis.weights * u.real_values ** critical_exponent(basis.n)
    P = dens @ basis.nodes
    norm = np.linalg.norm(P)
    P_hat = P / norm if norm > 1e-12 else P
    return P, P_hat


def mass_concentration(u, rho=0.5, max_centers=512):
    """Largest fraction of dV_theta mass inside a round geodesic ball of
    radius rho, maximized over a spread subsample of grid centers."""
    basis = u.basis
    dens = basis.weights * u.real_values ** critical_exponent(basis.n)
    total = dens.sum()
    X = np.concatenate([basis.nodes.real, basis.nodes.imag], axis=1)
    stride = max(1, len(X) // max_centers)
    centers = X[::stride]
    cos_rho = np.cos(rho)
    best = 0.0
    for start in range(0, len(centers), 128):
        block = centers[start:start + 128]
        dots = block @ X.T
        masses = (dots >= cos_rho) @ dens
        best = max(best, float(masses.max()))
    return best / total


def kazdan_warner_vector(u, f, R_field=None):
    """The 2(n+1) complex integrals int <grad x_i, grad R> dV_theta (and the
    conjugate-coordinate ones) for the current factor; zero in the continuum
    for every conformal factor."""
    basis = u.basis
    if R_field is None:
        R_field = webster_curvature(u)
    dens = basis.weights * u.real_values ** critical_exponent(basis.n)
    kw = coordinate_grad_inner_values(R_field) @ dens
    return np.concatenate([kw, np.conj(kw)])


def diagnostics(u, f, rho=0.5):
    """All scalar monitors of a flow state, computed by quadrature."""
    basis = u.basis
    n = basis.n
    p = critical_exponent(n)
    rv = curvature_values(u)
    a = alpha(u, f)
    uv = u.real_values
    dens = basis.weights * uv ** p
    dev = a * f.real_values - rv
    F2 = float(dens @ dev ** 2)
    dev_field = Field.from_values(basis, dev)
    # called through this module's name, which perfbench/tracing.py wraps
    grad_sq = np.real(grad_inner_values(dev_field, dev_field))
    G2 = float(basis.weights @ (grad_sq * uv ** 2))
    P, P_hat = center_of_mass(u)
    b = np.empty(2 * (n + 1), dtype=complex)
    moments = dens * dev
    b[: n + 1] = moments @ basis.nodes
    b[n + 1:] = moments @ np.conj(basis.nodes)
    R_field = Field.from_values(basis, rv)
    kw = kazdan_warner_vector(u, f, R_field=R_field)
    return DiagnosticsRecord(
        E=energy(u), E_f=energy_f(u, f), F2=F2, G2=max(G2, 0.0),
        P=P, P_hat=P_hat, b=b, B=np.sqrt(n + 1.0) * b,
        kw_residual=float(np.linalg.norm(kw)),
        max_u=float(uv.max()),
        mass_concentration=mass_concentration(u, rho=rho))


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FlowState:
    t: float
    u: Field
    alpha: float
    diagnostics: DiagnosticsRecord | None = None


def _rhs_coeffs(basis, c, fvals, n):
    """Basis coefficients of (n/2)(alpha f - R) u for real coefficients c."""
    u, lap = np.stack([c, -basis.eigenvalues * c]) @ basis.funcs   # one gemm
    if u.min() <= 0:
        raise NonPositiveFactor("conformal factor must be positive on the grid")
    R = (-(2.0 + 2.0 / n) * lap + base_curvature(n) * u) / u ** (1.0 + 2.0 / n)
    w = (2.0 + 2.0 / n) * basis.eigenvalues + base_curvature(n)
    a = float(w @ (c * c)) / float(basis.weights @ (fvals * u ** critical_exponent(n)))
    return basis.funcs @ (basis.weights * (0.5 * n * (a * fvals - R) * u))


def _renorm_coeffs(basis, c, n):
    """Volume-renormalized coefficients and their grid values."""
    u = c @ basis.funcs
    if u.min() <= 0:
        raise NonPositiveFactor("conformal factor must be positive on the grid")
    sigma = (basis.vol / float(basis.weights @ u ** critical_exponent(n))) ** (
        n / (2.0 * n + 2.0))
    return sigma * c, sigma * u


def step(state, f, dt, slack=1e-10, dt_min=1e-7, with_diagnostics=False):
    """One monotonicity-gated RK4 step with volume renormalization.

    Halves dt on positivity loss or an E_f increase beyond slack; raises
    PositivityLoss / StepRejected when dt_min is reached.  Returns the new
    FlowState and the dt actually used.
    """
    basis = state.u.basis
    n = basis.n
    fvals = f.real_values
    c0 = state.u.coeffs.real
    ef0 = energy_f(state.u, f)
    while True:
        try:
            k1 = _rhs_coeffs(basis, c0, fvals, n)
            k2 = _rhs_coeffs(basis, c0 + 0.5 * dt * k1, fvals, n)
            k3 = _rhs_coeffs(basis, c0 + 0.5 * dt * k2, fvals, n)
            k4 = _rhs_coeffs(basis, c0 + dt * k3, fvals, n)
            c1, v1 = _renorm_coeffs(
                basis, c0 + dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4), n)
        except NonPositiveFactor:
            if dt / 2.0 < dt_min:
                raise PositivityLoss(
                    f"factor lost positivity at dt = {dt:.3e} (dt_min reached)")
            dt /= 2.0
            continue
        u1 = Field(basis, c1, v1)
        ef1 = energy_f(u1, f)
        if ef1 > ef0 + slack:
            if dt / 2.0 < dt_min:
                raise StepRejected(
                    f"energy gate violated by {ef1 - ef0:.3e} at dt_min")
            dt /= 2.0
            continue
        diag = diagnostics(u1, f) if with_diagnostics else None
        return FlowState(state.t + dt, u1, alpha(u1, f), diag), dt


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
    dt_min: float = 1e-7
    monotonicity_slack: float = 1e-10
    max_steps: int = 200_000
    wall_time_cap: float | None = None
    dt_growth_every: int = 20
    compute_shadow: bool = True


@dataclass
class TrajectoryRecord:
    t: float
    alpha: float
    diagnostics: DiagnosticsRecord
    theta: np.ndarray | None = None
    eps: float | None = None
    shadow_converged: bool | None = None


@dataclass
class RunResult:
    status: Termination
    states: list
    records: list
    message: str = ""
    shadow_point: np.ndarray | None = None
    f_at_shadow: float | None = None
    grad_f_at_shadow: float | None = None
    lap_f_at_shadow: float | None = None

    @property
    def final_state(self):
        return self.states[-1]


def _f_data_at(f, point):
    """(f, |grad_S f|, Lap_b f) at an arbitrary sphere point."""
    basis = f.basis
    calc = PolyCalculus(basis.space, basis.monomial_coeffs(f.coeffs))
    pt = np.asarray(point, dtype=complex)[None, :]
    _, gnorm = calc.tangent_gradient(pt)
    return (float(calc.value(pt)[0]), float(gnorm[0]),
            float(calc.sub_laplacian_value(pt)[0]))


def run(u0, f, config=None):
    """Integrate the flow from u0, recording diagnostics at a fixed cadence.

    Terminates Converged when F2 < tol_converge, Concentrated when the mass
    concentration and max u exceed their thresholds, TimeLimit at t_max, and
    StepFailure when the stepper gives up.  On concentration the shadow point
    and the f-data there are attached to the result.
    """
    from .normalization import find_centering, shadow

    config = config or FlowConfig()
    basis = u0.basis
    f_positive = f.real_values.min() > 0
    if not f_positive:
        raise ConfigError("prescribed curvature candidate f must be positive")
    u = volume_renormalize(u0)
    if config.enforce_beta:
        gate = beta_threshold(f)
        if energy_f(u, f) > gate:
            raise ConfigError(
                f"initial normalized energy {energy_f(u, f):.6f} above the "
                f"admissibility gate {gate:.6f}")

    state = FlowState(0.0, u, alpha(u, f), diagnostics(u, f, rho=config.concentration_rho))
    states = [state]
    records = []
    started = time.monotonic()

    def record(st):
        rec = TrajectoryRecord(st.t, st.alpha, st.diagnostics)
        if config.compute_shadow:
            try:
                cres = find_centering(st.u)
                theta, _, eps = shadow(st.u, result=cres)
                rec.theta, rec.eps = theta, eps
                rec.shadow_converged = cres.converged
            except CRFlowError:
                rec.shadow_converged = False
        records.append(rec)
        return rec

    record(state)

    def cheap_monitor(st):
        """F2 and max u without the gradient machinery."""
        uv = st.u.real_values
        rv = curvature_values(st.u)
        dev = st.alpha * f.real_values - rv
        F2 = float((basis.weights * uv ** critical_exponent(basis.n)) @ dev ** 2)
        return F2, float(uv.max())

    dt = config.dt_init
    accepted_since_growth = 0
    status, message = Termination.TIME_LIMIT, ""
    n_steps = 0
    while state.t < config.t_max and n_steps < config.max_steps:
        if config.wall_time_cap and time.monotonic() - started > config.wall_time_cap:
            message = "wall-time cap reached"
            break
        try:
            new_state, dt_used = step(state, f, dt,
                                      slack=config.monotonicity_slack,
                                      dt_min=config.dt_min)
        except (PositivityLoss, StepRejected) as exc:
            status, message = Termination.STEP_FAILURE, str(exc)
            break
        n_steps += 1
        if dt_used < dt:
            dt = dt_used
            accepted_since_growth = 0
        else:
            accepted_since_growth += 1
            if accepted_since_growth >= config.dt_growth_every and dt < config.dt_init:
                dt = min(2.0 * dt, config.dt_init)
                accepted_since_growth = 0
        state = new_state
        if n_steps % config.record_every == 0:
            state = replace(state, diagnostics=diagnostics(
                state.u, f, rho=config.concentration_rho))
            states.append(state)
            record(state)
        F2, max_u = cheap_monitor(state)
        if F2 < config.tol_converge:
            status, message = Termination.CONVERGED, f"F2 = {F2:.3e}"
            break
        # the mass scan only matters once max u is past the blow-up bound
        if max_u > config.blowup_factor:
            mass = mass_concentration(state.u, rho=config.concentration_rho)
            if mass > config.mass_threshold:
                status, message = Termination.CONCENTRATED, (
                    f"mass {mass:.3f}, max u {max_u:.1f}")
                break

    if state.diagnostics is None or states[-1] is not state:
        state = replace(state, diagnostics=diagnostics(
            state.u, f, rho=config.concentration_rho))
        states.append(state)
        record(state)
    result = RunResult(status=status, states=states, records=records, message=message)
    if status in (Termination.CONVERGED, Termination.CONCENTRATED):
        rec = records[-1]
        point = None
        if rec.theta is not None and np.linalg.norm(rec.theta) > 1e-12:
            point = rec.theta / np.linalg.norm(rec.theta)
        elif status is Termination.CONCENTRATED:
            _, point = center_of_mass(state.u)
        if point is not None and np.linalg.norm(point) > 0.5:
            result.shadow_point = point
            fv, gv, lv = _f_data_at(f, point)
            result.f_at_shadow, result.grad_f_at_shadow, result.lap_f_at_shadow = fv, gv, lv
    return result
