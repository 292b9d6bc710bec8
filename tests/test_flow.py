"""Curvature operator, energies, stepping, diagnostics."""

from dataclasses import replace

import numpy as np
import pytest

import crflow
from crflow.concentration import PHASE1, initial_factor
from crflow.errors import DegenerateDenominator, NonPositiveFactor, PositivityLoss
from crflow.flow import (FlowState, alpha, base_curvature, beta_threshold,
                         critical_exponent, curvature_values, diagnostics,
                         density, energy, energy_consistency, energy_f, step,
                         volume_renormalize, _rhs_coeffs, _Workspace)
from crflow.polynomials import real_coords
from crflow.presets import f_constant, f_dipole
from crflow.spectral import Field


@pytest.fixture(scope="module")
def basis():
    return crflow.build_basis(1, 8)


@pytest.fixture(scope="module")
def basis_n2():
    return crflow.build_basis(2, 2)


def perturbed_factor(basis, seed=0, amp=0.05):
    rng = np.random.default_rng(seed)
    vals = np.ones(len(basis.nodes))
    for j in range(basis.n + 1):
        vals = vals + amp * rng.uniform(-1, 1) * np.real(basis.nodes[:, j])
        vals = vals + amp * rng.uniform(-1, 1) * np.imag(basis.nodes[:, j])
    vals = vals + amp * rng.uniform(-1, 1) * np.real(
        basis.nodes[:, 0] * np.conj(basis.nodes[:, -1]))
    return volume_renormalize(Field.from_values(basis, vals))


# ---------------------------------------------------------------------------
# curvature
# ---------------------------------------------------------------------------

def test_round_curvature_values(basis, basis_n2):
    for b in (basis, basis_n2):
        R = Field.from_values(b, curvature_values(Field.constant(b, 1.0)))
        want = base_curvature(b.n)      # 1 for n=1, 3 for n=2
        assert np.abs(R.values - want).max() < 1e-10


def test_curvature_rejects_nonpositive(basis):
    bad = Field.from_values(basis, -np.ones(len(basis.nodes)))
    with pytest.raises(NonPositiveFactor):
        curvature_values(bad)


def test_bubble_curvature_conformal_invariance(basis):
    # theta_{p,eps} is a pullback of the round form, so its curvature is the
    # round constant; the error is truncation-limited and shrinks geometrically
    # in eps (measured x25 per 0.1 at J = 8)
    N = np.array([0, 1.0 + 0j])
    u8 = volume_renormalize(crflow.bubble(N, 0.8, basis))
    assert np.abs(curvature_values(u8) - 1.0).max() < 1e-4
    u7 = volume_renormalize(crflow.bubble(N, 0.7, basis))
    assert np.abs(curvature_values(u7) - 1.0).max() < 5e-3
    u5 = volume_renormalize(crflow.bubble(N, 0.5, basis))
    R5 = curvature_values(u5)
    dens = u5.values ** critical_exponent(1)
    l2 = np.sqrt(float(basis.weights @ ((R5 - 1.0) ** 2 * dens)) / basis.vol)
    assert l2 < 0.03
    assert np.abs(R5 - 1.0).max() < 0.5


# ---------------------------------------------------------------------------
# alpha and energies
# ---------------------------------------------------------------------------

def test_alpha_constant_cases(basis):
    one = Field.constant(basis, 1.0)
    assert abs(alpha(one, Field.constant(basis, 2.0)) - 0.5) < 1e-12
    assert abs(alpha(one, f_constant(basis)) - 1.0) < 1e-12


def test_alpha_defining_identity_random(basis):
    f = f_dipole(basis, amplitude=0.2)
    for seed in (1, 2, 3):
        u = perturbed_factor(basis, seed)
        a = alpha(u, f)
        p = critical_exponent(1)
        dens = basis.weights * u.values ** p
        lhs = a * float(dens @ f.values)
        rhs = float(dens @ curvature_values(u))
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


def test_alpha_degenerate_denominator(basis):
    one = Field.constant(basis, 1.0)
    zero = Field.constant(basis, 0.0)
    with pytest.raises(DegenerateDenominator):
        alpha(one, zero)


def test_energy_of_constant(basis):
    one = Field.constant(basis, 1.0)
    assert abs(energy(one) - base_curvature(1) * basis.vol) < 1e-9


def test_energy_consistency_random(basis):
    for seed in (4, 5, 6):
        u = perturbed_factor(basis, seed, amp=0.15)
        e1, e2, gap = energy_consistency(u)
        assert gap < 1e-9 * max(1.0, abs(e1))


def test_energy_f_scale_invariance(basis):
    f = f_dipole(basis, amplitude=0.2)
    u = perturbed_factor(basis, 7)
    base = energy_f(u, f)
    for sigma in (0.5, 2.0):
        assert abs(energy_f(sigma * u, f) - base) < 1e-10 * base


def test_beta_threshold_and_gate(basis):
    f = f_dipole(basis, amplitude=0.2)     # ratio 1.5 < 2: gate defined
    beta = beta_threshold(f)
    one = volume_renormalize(Field.constant(basis, 1.0))
    assert energy_f(one, f) < beta
    from crflow.errors import ConfigError
    f_bad = f_dipole(basis, amplitude=0.4)  # ratio 7/3 > 2
    with pytest.raises(ConfigError):
        beta_threshold(f_bad)


# ---------------------------------------------------------------------------
# conformal invariance of the normalized energy
# ---------------------------------------------------------------------------

def _gentle_automorphism(rng, n):
    from crflow.geometry import CRAutomorphism
    a = rng.normal(size=(n + 1, n + 1)) + 1j * rng.normal(size=(n + 1, n + 1))
    q, r = np.linalg.qr(a)
    U = q * (np.diag(r) / np.abs(np.diag(r)))
    qz = 0.25 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    return CRAutomorphism.chart(U, qz, 0.2 * float(rng.normal()),
                                float(rng.uniform(0.8, 1.25)))


@pytest.mark.parametrize("J,tol", [(8, 1e-4), (6, 1e-3)])
def test_energy_f_conformal_invariance(J, tol):
    # E_f(u) = E_{f o phi}(v) with v the pulled-back factor; truncation-limited
    basis = crflow.build_basis(1, J)
    rng = np.random.default_rng(100 + J)
    f = f_dipole(basis, amplitude=0.2)
    from crflow.conformal import compose_values, pullback_factor
    for _ in range(10):
        u = perturbed_factor(basis, int(rng.integers(1 << 30)), amp=0.12)
        phi = _gentle_automorphism(rng, 1)
        v, _ = pullback_factor(u, phi)
        f_phi = Field.from_values(basis, compose_values(f, phi))
        lhs = energy_f(u, f)
        rhs = energy_f(v, f_phi)
        assert abs(lhs - rhs) / lhs < tol


# ---------------------------------------------------------------------------
# rhs and stepping
# ---------------------------------------------------------------------------

def rhs_coeffs(basis, c, fvals):
    """_rhs_coeffs across the native-layout boundary: the coefficients c in
    as a slot vector, f's grid values in fiber order, coefficients out."""
    x = _rhs_coeffs(_Workspace(basis, fvals), basis.to_slots(c))
    return basis.from_slots(x)


def test_rhs_stationary_cases(basis):
    one = Field.constant(basis, 1.0)
    for f in (f_constant(basis), Field.constant(basis, 2.0)):
        rhs = basis.synthesize(rhs_coeffs(basis, one.coeffs, f.values))
        assert np.abs(rhs).max() < 1e-12


def test_rhs_sign_follows_deviation(basis):
    u = perturbed_factor(basis, 8, amp=0.1)
    f = f_dipole(basis, amplitude=0.2)
    rhs = basis.synthesize(rhs_coeffs(basis, u.coeffs, f.values))
    a = alpha(u, f)
    dev = a * f.values - curvature_values(u)
    # pointwise product of the exact deviation with u is what gets projected;
    # check sign agreement where the deviation is significantly nonzero
    strong = np.abs(dev) > 0.25 * np.abs(dev).max()
    assert np.all(np.sign(rhs[strong]) == np.sign(dev[strong]))


def test_step_stationary_to_machine(basis):
    f = f_constant(basis)
    one = Field.constant(basis, 1.0)
    state = FlowState(0.0, one, alpha(one, f), None)
    for _ in range(100):
        state, _ = step(state, f, 0.05)
    assert np.abs(state.u.values - 1.0).max() < 1e-12
    assert abs(state.t - 5.0) < 1e-12


def test_step_volume_renormalized(basis):
    f = f_dipole(basis, amplitude=0.2)
    state = FlowState(0.0, perturbed_factor(basis, 9), 0.0, None)
    state = FlowState(0.0, state.u, alpha(state.u, f), None)
    p = critical_exponent(1)
    for _ in range(5):
        state, _ = step(state, f, 0.05)
        total = float(basis.weights @ state.u.values ** p)
        assert abs(total - basis.vol) < 1e-12 * basis.vol


def test_step_monotone_energy(basis):
    f = f_dipole(basis, amplitude=0.2)
    state = FlowState(0.0, perturbed_factor(basis, 10, amp=0.2), 0.0, None)
    state = FlowState(0.0, state.u, alpha(state.u, f), None)
    ef = energy_f(state.u, f)
    for _ in range(50):
        state, _ = step(state, f, 0.05)
        ef_new = energy_f(state.u, f)
        assert ef_new <= ef + 1e-10
        ef = ef_new


def test_step_f2_matches_diagnostics(basis):
    # step takes the new state's F2 from the renormalization's synthesis via
    # R(sigma u) = sigma^{-2/n} R(u); start off-volume so that sigma ~ 1/1.3
    f = f_dipole(basis, amplitude=0.2)
    u = 1.3 * perturbed_factor(basis, 24, amp=0.1)
    state, _ = step(FlowState(0.0, u, alpha(u, f)), f, 0.05)
    d = diagnostics(state.u, f)
    assert abs(state.F2 - d.F2) <= 1e-10 * d.F2
    assert abs(state.alpha - alpha(state.u, f)) <= 1e-12 * abs(state.alpha)


def test_run_constant_f_converges(basis):
    from crflow.flow import FlowConfig, Termination, run
    f = f_constant(basis)
    u0 = perturbed_factor(basis, 11, amp=0.08)
    res = run(u0, f, FlowConfig(dt_init=0.1, t_max=40.0, record_every=50,
                                compute_shadow=False))
    assert res.status is Termination.CONVERGED
    assert res.final_state.diagnostics.F2 < 1e-8
    # Kazdan-Warner residual at the converged solution
    fv = f.values
    assert res.final_state.diagnostics.kw_residual <= 1e-6 * fv.max() * basis.vol


def test_run_rejects_beta_violation(basis, monkeypatch):
    from crflow import flow
    from crflow.errors import ConfigError
    from crflow.flow import FlowConfig, run
    f = f_dipole(basis, amplitude=0.2)
    # an oscillatory start carries enough gradient energy to top the gate
    # (bubble-like starts do not: their normalized energy stays bounded)
    his = [i for i, (j, k) in enumerate(basis.bidegrees) if j + k == basis.J][:4]
    vals = np.ones(len(basis.nodes))
    for hi in his:
        vals = vals + 1.5 * np.real(basis.funcs[hi])
    vals = np.maximum(vals, 0.05)
    u0 = volume_renormalize(Field.from_values(basis, vals))
    assert energy_f(u0, f) > beta_threshold(f)
    evaluations = _count_calls(monkeypatch, flow, "energy_f")
    with pytest.raises(ConfigError):
        run(u0, f, FlowConfig(enforce_beta=True, compute_shadow=False))
    assert len(evaluations) == 1        # the gate and its message share one
    monkeypatch.undo()
    # and an admissible start passes the gate
    ok = run(perturbed_factor(basis, 20, amp=0.03), f,
             FlowConfig(enforce_beta=True, t_max=0.2, record_every=100,
                        compute_shadow=False))
    assert ok.final_state.t > 0


def test_run_names_its_time_limit(basis):
    from crflow.flow import FlowConfig, Termination, run
    f = f_dipole(basis, amplitude=0.2)
    u0 = perturbed_factor(basis, 23, amp=0.03)
    res = run(u0, f, FlowConfig(dt_init=0.05, t_max=10.0, max_steps=3,
                                record_every=100, compute_shadow=False))
    t = res.final_state.t
    assert res.status is Termination.TIME_LIMIT and 0 < t < 10.0
    assert res.message == f"max_steps (3) reached at t = {t:.6g}"
    res = run(u0, f, FlowConfig(dt_init=0.05, t_max=0.1, record_every=100,
                                compute_shadow=False))
    t = res.final_state.t
    assert res.status is Termination.TIME_LIMIT and t >= 0.1
    assert res.message == f"t_max (0.1) reached at t = {t:.6g}"


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP P0: the L2-projected right-hand side is not the gradient of the "
    "discrete E_f, so the gate halves dt and the stepper creeps on a "
    "continuum solution; the fix is direction 1 (the metric-Galerkin flow)"))
def test_step_does_not_creep_on_a_bubble(basis):
    from crflow.conformal import bubble
    from crflow.flow import FlowConfig, run
    north = np.array([0, 1.0 + 0j])
    u0 = volume_renormalize(bubble(north, 0.5, basis))
    res = run(u0, Field.constant(basis, 2.0),
              FlowConfig(dt_init=0.03125, t_max=0.25, max_steps=200,
                         compute_shadow=False))
    assert res.final_state.t >= 0.25, res.message


def _stability_polynomial(z, s):
    """R_s(z) = Y_s of y' = z y, y(0) = 1, dt = 1, for each entry of z."""
    from crflow.flow import _rkc
    Y = np.empty((5, z.size))
    Y[0], Y[1] = 1.0, z
    return _rkc(Y, 1.0, s, lambda y: np.multiply(z, y, out=Y[4]))


def test_rkc_scheme_is_stable_and_second_order():
    from crflow.flow import _rkc_scheme
    for s in range(2, 41):
        beta = _rkc_scheme(s)[0]
        assert beta >= 0.49 * s ** 2
        z = np.linspace(-beta, 0.0, 4001)
        R = _stability_polynomial(z, s)
        assert np.abs(R).max() <= 1.0 + 1e-12, s
        z = np.array([-4e-3, -2e-3, -1e-3])
        R = _stability_polynomial(z, s)
        # R_s(z) = 1 + z + z^2/2 + O(z^3): measured |error| <= 0.17 |z|^3
        assert np.all(np.abs(R - np.exp(z)) <= 0.2 * np.abs(z) ** 3), s


def test_stage_count_is_the_smallest_stable_one():
    from crflow.flow import _rkc_scheme, _stage_count
    for z in (0.0, 1.0, 2.0, 5.0, 64.0, 65.0, 1000.0, 3e4):
        s = _stage_count(z)
        assert _rkc_scheme(s)[0] >= z
        assert s == 2 or _rkc_scheme(s - 1)[0] < z


def _reference_radius(basis, c, fvals, iterations=60):
    """The flow Jacobian's spectral radius at coefficients c: power
    iteration on central differences, from the top-band start."""
    A = basis.from_slots(basis.yamabe_slots)
    v = (A / A.max()) ** 8 * rhs_coeffs(basis, c, fvals)
    h = 1e-6 * np.linalg.norm(c)
    for _ in range(iterations):
        v /= np.linalg.norm(v)
        v = (rhs_coeffs(basis, c + h * v, fvals)
             - rhs_coeffs(basis, c - h * v, fvals)) / (2 * h)
    return np.linalg.norm(v)


def test_stiff_radius_bounds_the_jacobian(basis):
    # the Jacobian's spectral radius by a long power iteration: measured
    # bound / radius 1.57 on the bubble and 1.27 on the random factor.  The
    # step's estimate reads 1.001 and 0.985 of the radius after 5 and 7
    # power iterations, and a warm restart from its vector agrees at once
    from crflow import flow
    from crflow.presets import f_two_peak
    f = f_two_peak(basis)
    for u in (initial_factor(basis, 0), initial_factor(basis, 3)):
        reference = _reference_radius(basis, u.coeffs, f.values)
        bound = flow._stiff_radius(basis, u.values.min())
        assert 0.5 * bound <= reference <= bound
        ws = _Workspace(basis, f.values)
        x0 = basis.to_slots(u.coeffs)
        F0 = _rhs_coeffs(ws, x0)
        r, v = flow._radius_ratio(ws, x0, F0, None, bound)
        assert 0.95 * reference <= r * bound <= 1.01 * reference, r * bound / reference
        assert r < 1 / flow.RADIUS_SAFETY
        r2, _ = flow._radius_ratio(ws, x0, F0, v, bound)
        assert abs(r2 - r) <= 0.02 * r


def _raise_non_positive(ws, x):
    raise NonPositiveFactor("conformal factor must be positive on the grid")


def test_radius_estimate_falls_back_to_the_bound(basis, monkeypatch):
    # a zero right-hand side (u = 1 under constant f: F0 is round-off) has
    # no direction to start from; a non-finite or vanishing difference, or a
    # perturbed factor that is not positive, gives no radius.  Each falls
    # back to r = 1, the bound, without a RuntimeWarning (an error under
    # this suite's filter)
    from crflow import flow
    one = Field.constant(basis, 1.0)
    ws = _Workspace(basis, f_constant(basis).values)
    x0 = basis.to_slots(one.coeffs)
    F0 = _rhs_coeffs(ws, x0)
    bound = flow._stiff_radius(basis, one.values.min())
    assert 0 < np.abs(F0).max() < 1e-12
    assert flow._radius_ratio(ws, x0, F0, None, bound) == (1.0, None)
    state, dt = step(FlowState(0.0, one, alpha(one, f_constant(basis))),
                     f_constant(basis), 0.5)
    assert dt == 0.5 and state.radius == (1.0, None, 1)
    f = f_dipole(basis, amplitude=0.2)
    u = perturbed_factor(basis, 25)
    ws = _Workspace(basis, f.values)
    x0 = basis.to_slots(u.coeffs)
    F0 = _rhs_coeffs(ws, x0)
    bound = flow._stiff_radius(basis, u.values.min())
    assert flow._radius_ratio(ws, x0, F0, None, bound)[1] is not None
    # min(nan, 1.0) is nan: the guard sits in the estimate, not at its use
    assert flow._radius_ratio(ws, x0, F0, None, np.nan) == (1.0, None)
    for name, rhs in (("nan", lambda ws, x: np.full_like(x, np.nan)),
                      ("inf", lambda ws, x: np.full_like(x, np.inf)),
                      ("zero difference", lambda ws, x: F0.copy()),
                      ("not positive", _raise_non_positive)):
        monkeypatch.setattr(flow, "_rhs_coeffs", rhs)
        assert flow._radius_ratio(ws, x0, F0, None, bound) == (1.0, None), name


def test_estimated_stage_count_stays_within_the_bound(basis, monkeypatch, tmp_path):
    # criterion 9's phase 1 on its bubble and its seed-3 random factor: no
    # attempt takes more stages than the bound gives for its state and dt,
    # the estimate saves stages on the bubble, and two runs write the same
    # trajectory.csv byte for byte
    from crflow import flow
    from crflow.cli import write_trajectory_csv
    from crflow.flow import run
    from crflow.presets import f_two_peak
    f = f_two_peak(basis)
    stiff_radius, rkc = flow._stiff_radius, flow._rkc
    bounds, attempts = [], []

    def recorded_bound(*args):
        bounds.append(stiff_radius(*args))
        return bounds[-1]

    def recorded_rkc(Y, dt, s, rhs):
        attempts.append(flow._stage_count(dt * bounds[-1]) - s)
        return rkc(Y, dt, s, rhs)

    monkeypatch.setattr(flow, "_stiff_radius", recorded_bound)
    monkeypatch.setattr(flow, "_rkc", recorded_rkc)
    config = replace(PHASE1, t_max=3.0, record_every=5)
    for name, u0 in (("bubble", initial_factor(basis, 0)),
                     ("seed3", initial_factor(basis, 3))):
        paths = [tmp_path / f"{name}{k}.csv" for k in range(2)]
        for path in paths:
            del attempts[:]
            res = run(u0, f, config)
            assert res.final_state.t == 3.0, res.message
            write_trajectory_csv(path, res.records, basis.n)
        assert min(attempts) >= 0
        if name == "bubble":
            assert sum(attempts) > 0
        assert paths[0].read_bytes() == paths[1].read_bytes()


def test_phase1_matches_the_fine_dt_reference(basis):
    # ROADMAP P0: criterion 9's seed-0 phase 1 at t = 20 against a run with
    # every dt <= 0.003125 (E_f 5.8219113, min u 0.29375).  Per-step volume
    # renormalization makes the scheme first order in dt: dt = 0.1, 0.05 and
    # 0.025 read E_f 5.8219056, 5.8219085 and 5.8219100
    from crflow.flow import run
    from crflow.presets import f_two_peak
    f = f_two_peak(basis)
    res = run(initial_factor(basis, 0), f, replace(PHASE1, t_max=20.0))
    assert res.final_state.t == 20.0, res.message
    ef = res.final_state.diagnostics.E_f
    min_u = float(res.final_state.u.values.min())
    assert abs(ef - 5.8219113) <= 5e-6 * 5.8219113, ef
    assert abs(min_u - 0.29375) <= 1e-3 * 0.29375, min_u


def test_phase1_seed3_reaches_t30_without_energy_rise(basis, monkeypatch):
    # ROADMAP P0: criterion 9's seed-3 random factor stalled at max_steps
    # (6000) near t = 20.19 with a cumulative E_f rise of 2.5e-7
    from crflow import flow
    from crflow.flow import run
    from crflow.presets import f_two_peak
    f = f_two_peak(basis)
    u0 = initial_factor(basis, 3)
    efs = [energy_f(volume_renormalize(u0), f)]
    stepper = flow.step

    def recorded(*args, **kwargs):
        new_state, dt = stepper(*args, **kwargs)
        efs.append(energy_f(new_state.u, f))
        return new_state, dt

    monkeypatch.setattr(flow, "step", recorded)
    res = run(u0, f, PHASE1)
    assert res.final_state.t == 30.0 and len(efs) - 1 <= 6000, res.message
    efs = np.array(efs)
    rise = efs - np.minimum.accumulate(efs)
    assert rise.max() <= 1e-10, rise.max()


def test_run_lands_on_t_max(basis, tmp_path):
    from crflow.cli import write_trajectory_csv
    from crflow.flow import FlowConfig, Termination, run
    f = f_dipole(basis, amplitude=0.2)
    u0 = perturbed_factor(basis, 23, amp=0.03)
    # 0.05 does not divide 0.12: the last step is shortened to land on t_max
    res = run(u0, f, FlowConfig(dt_init=0.05, t_max=0.12, record_every=100,
                                compute_shadow=False))
    assert res.status is Termination.TIME_LIMIT
    assert res.final_state.t == 0.12
    assert res.message == "t_max (0.12) reached at t = 0.12"
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(path, res.records, basis.n)
    assert float(path.read_text().splitlines()[-1].split(",")[0]) == 0.12


# t sums to 0.7999999999999999 after eight steps of 0.1 (1 ulp short of
# t_max) and to 2.9999999999999973 after sixty of 0.05 (6 ulps short): the
# last step is stretched onto t_max instead of adding a step of 1e-16..1e-15
@pytest.mark.parametrize("dt_init, t_max, n_steps", [(0.1, 0.8, 8), (0.05, 3.0, 60)])
def test_run_spends_no_step_on_rounding_remainder(basis, monkeypatch, dt_init, t_max,
                                                  n_steps):
    from crflow import flow
    from crflow.flow import FlowConfig, Termination, run
    f = f_dipole(basis, amplitude=0.2)
    u0 = perturbed_factor(basis, 23, amp=0.03)
    steps = _count_calls(monkeypatch, flow, "step")
    res = run(u0, f, FlowConfig(dt_init=dt_init, t_max=t_max, record_every=100,
                                compute_shadow=False))
    assert res.status is Termination.TIME_LIMIT and res.final_state.t == t_max
    assert len(steps) == n_steps


@pytest.fixture(scope="module", params=[(1, 8), (1, 12), (2, 4)],
                ids=["n1J8", "n1J12", "n2J4"])
def kernel_basis(request):
    return crflow.build_basis(*request.param)


def test_kernel_matches_the_dense_formula(kernel_basis):
    # E, (u, u R, dens) and the stage right-hand side against the formulas
    # written out on the dense funcs: u = c funcs, u R = ((2+2/n) (lambda c)
    # funcs + R_0 u) / u^{2/n}, dens = w u^{2+2/n}, and
    # funcs (w (n/2)(alpha f - R) u) with alpha = E / int f dV_theta
    from crflow.flow import _grid_terms
    basis = kernel_basis
    n, lam, w = basis.n, basis.eigenvalues, basis.weights
    f = f_dipole(basis, amplitude=0.2)
    c = perturbed_factor(basis, 41).coeffs
    u = c @ basis.funcs
    q = u ** (2.0 / n)
    uR = ((2.0 + 2.0 / n) * ((lam * c) @ basis.funcs) + base_curvature(n) * u) / q
    dens = w * u ** critical_exponent(n)
    E = (2.0 + 2.0 / n) * ((lam * c) @ c) + base_curvature(n) * (c @ c)
    a = E / (dens @ f.values)
    rhs = basis.funcs @ (w * 0.5 * n * (a * f.values * u - uR))
    gE, (gu, gR, gdens) = _grid_terms(basis, c)
    for got, want in ((gE, E), (gu, u), (gR * gu, uR), (gdens, dens),
                      (rhs_coeffs(basis, c, f.values), rhs)):
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_stage_calls_through_one_workspace_keep_their_results(basis):
    f = f_dipole(basis, amplitude=0.2)
    ws = _Workspace(basis, f.values)
    x1, x2 = (basis.to_slots(perturbed_factor(basis, s).coeffs) for s in (42, 43))
    first = _rhs_coeffs(ws, x1)
    kept = first.copy()
    second = _rhs_coeffs(ws, x2)
    assert np.array_equal(first, kept)
    assert np.array_equal(second, _rhs_coeffs(_Workspace(basis, f.values), x2))


def test_rhs_into_a_buffer_matches_the_copy(basis):
    # into a buffer of the caller's, into the workspace's own row F (no
    # copy) and into a new array: the same bits
    f = f_dipole(basis, amplitude=0.2)
    ws = _Workspace(basis, f.values)
    x = basis.to_slots(perturbed_factor(basis, 44).coeffs)
    want = _rhs_coeffs(ws, x)
    buf = np.full_like(want, np.nan)
    assert _rhs_coeffs(ws, x, buf) is buf
    assert np.array_equal(buf, want)
    assert _rhs_coeffs(ws, x, ws.F) is ws.F
    assert np.array_equal(ws.F, want) and not np.shares_memory(want, ws.F)


def test_accepted_state_is_not_a_view_into_the_workspace(basis, monkeypatch):
    # the workspace's buffers are overwritten by the next step's kernel
    from crflow import flow
    f = f_dipole(basis, amplitude=0.2)
    u = perturbed_factor(basis, 25)
    made = []

    class Recorded(_Workspace):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(flow, "_Workspace", Recorded)
    state, _ = step(FlowState(0.0, u, alpha(u, f)), f, 0.05)
    assert len(made) == 1
    buffers = [b for b in vars(made[0]).values() if isinstance(b, np.ndarray)]
    for out in (state.rhs, state.u.coeffs, state.u.values):
        assert not any(np.shares_memory(out, b) for b in buffers)


def test_step_takes_k1_once_across_halvings(basis, monkeypatch):
    from crflow import flow
    f = f_dipole(basis, amplitude=0.2)
    u = perturbed_factor(basis, 25)
    rhs = flow._rhs_coeffs
    calls = []

    def counted(*args):
        calls.append(None)
        if len(calls) == 2:          # the first attempt's second stage
            raise NonPositiveFactor("forced halving")
        return rhs(*args)

    monkeypatch.setattr(flow, "_rhs_coeffs", counted)
    state, dt = step(FlowState(0.0, u, alpha(u, f)), f, 0.05)
    assert dt == 0.025 and state.t == 0.025
    # k1 = F0 once, the failed stage, then the retry's s' - 1 stages
    s_retry = flow._stage_count(0.025 * flow._stiff_radius(basis, u.values.min()))
    assert s_retry >= 2
    assert len(calls) == 1 + 1 + (s_retry - 1)


def test_step_carries_its_energy_and_rhs(basis, monkeypatch):
    # the accepted state's E_f and right-hand side, taken from the step's
    # own synthesis, are those of a fresh evaluation at the new u
    from crflow import flow
    f = f_dipole(basis, amplitude=0.2)
    u = perturbed_factor(basis, 25)

    def assert_carry(state):
        ef = energy_f(state.u, f)
        assert abs(state.E_f - ef) <= 1e-14 * ef
        fresh = _rhs_coeffs(_Workspace(basis, f.values),
                            basis.to_slots(state.u.coeffs))
        assert np.abs(state.rhs - fresh).max() <= 1e-13 * np.abs(fresh).max()
        assert state.rhs_key[0] is state.u.coeffs and state.rhs_key[1] is f.values

    state, dt = step(FlowState(0.0, u, alpha(u, f)), f, 0.05)
    assert dt == 0.05
    assert_carry(state)
    rhs = flow._rhs_coeffs
    calls = []

    def halving(*args):
        calls.append(None)
        if len(calls) == 1:          # the first attempt's second stage
            raise NonPositiveFactor("forced halving")
        return rhs(*args)

    monkeypatch.setattr(flow, "_rhs_coeffs", halving)
    state, dt = step(state, f, 0.05)
    assert dt == 0.025
    monkeypatch.undo()
    assert_carry(state)


def test_step_recomputes_a_carry_that_is_not_its_own(basis):
    # replace(state, u=other) and a step under another f keep the carried
    # E_f and rhs of the old pair; the step must recompute both
    from dataclasses import replace
    f = f_dipole(basis, amplitude=0.2)
    u = perturbed_factor(basis, 25)
    state, _ = step(FlowState(0.0, u, alpha(u, f)), f, 0.05)
    other = perturbed_factor(basis, 27)
    g = f_dipole(basis, amplitude=0.1)
    for stale, fresh, h in ((replace(state, u=other), FlowState(0.05, other, 0.0), f),
                            (state, FlowState(0.05, state.u, 0.0), g)):
        got, _ = step(stale, h, 0.05)
        want, _ = step(fresh, h, 0.05)
        assert np.array_equal(got.u.coeffs, want.u.coeffs)
        assert got.E_f == want.E_f


def _assert_rhs_counts(monkeypatch, u0, f, config):
    """Run the flow and check its right-hand-side evaluations: F0 of the
    first state, then s_i - 1 stages per step, with no halving; every later
    F0 is carried over from the accepted state, across the records' replace
    too.  The radius estimate's power iterations count on their own, 2 to
    RADIUS_ITERATIONS per estimate.  Returns the estimates' results."""
    from crflow import flow
    from crflow.flow import run
    rhs, ratio, stage_count = flow._rhs_coeffs, flow._radius_ratio, flow._stage_count
    calls, estimates, inside, stages = {"estimate": 0, "other": 0}, [], [], []

    def counted_rhs(*args):
        calls["estimate" if inside else "other"] += 1
        return rhs(*args)

    def counted_ratio(*args):
        inside.append(None)
        try:
            estimates.append(ratio(*args))
        finally:
            inside.pop()
        return estimates[-1]

    def counted_stages(z):
        stages.append(stage_count(z))
        return stages[-1]

    monkeypatch.setattr(flow, "_rhs_coeffs", counted_rhs)
    monkeypatch.setattr(flow, "_radius_ratio", counted_ratio)
    monkeypatch.setattr(flow, "_stage_count", counted_stages)
    res = run(u0, f, config)
    assert res.final_state.t == config.t_max
    assert len(stages) == round(config.t_max / config.dt_init)    # no halving
    assert calls["other"] == 1 + sum(s - 1 for s in stages)
    assert 2 * len(estimates) <= calls["estimate"] <= flow.RADIUS_ITERATIONS * len(estimates)
    # the result keeps no kernel buffers
    assert all(st.workspace is None for st in res.records)
    return estimates


def test_run_evaluates_the_rhs_once_plus_the_stages(basis, monkeypatch):
    # the bound gives at most 3 stages per step here: no estimate
    from crflow.flow import FlowConfig
    estimates = _assert_rhs_counts(
        monkeypatch, perturbed_factor(basis, 23, amp=0.03), f_dipole(basis, amplitude=0.2),
        FlowConfig(dt_init=0.05, t_max=0.5, record_every=3, compute_shadow=False))
    assert estimates == []


def test_run_counts_the_radius_estimates_on_their_own(basis, monkeypatch):
    # criterion 9's phase 1 for 30 steps: one estimate at the first step and
    # one refresh after RADIUS_REFRESH accepted steps, neither a fallback
    from crflow.presets import f_two_peak
    estimates = _assert_rhs_counts(
        monkeypatch, initial_factor(basis, 0), f_two_peak(basis),
        replace(PHASE1, t_max=3.0, record_every=7))
    assert len(estimates) == 2 and all(v is not None for _, v in estimates)


def test_step_from_nonpositive_factor_is_positivity_loss(basis):
    f = f_dipole(basis, amplitude=0.2)
    u = -1.0 * perturbed_factor(basis, 26)
    with pytest.raises(PositivityLoss):
        step(FlowState(0.0, u, 1.0), f, 0.05)


def test_non_finite_factor_raises_typed_errors(basis, monkeypatch):
    # u.min() <= 0 and ef1 > ef0 + slack are both False for a NaN, so the
    # positivity test and the energy gate are written to fail on one; run
    # rejects a non-finite u0 before it starts
    from crflow import flow
    from crflow.errors import ConfigError, StepRejected
    from crflow.flow import FlowConfig, run
    f = f_dipole(basis, amplitude=0.2)
    u = perturbed_factor(basis, 26)
    coeffs = u.coeffs.copy()
    coeffs[3] = np.nan
    bad = Field.from_coeffs(basis, coeffs)
    with pytest.raises(PositivityLoss):
        step(FlowState(0.0, bad, 1.0), f, 0.05)
    with pytest.raises(ConfigError, match="u0"):
        run(bad, f, FlowConfig(t_max=0.1, compute_shadow=False))
    alpha_energy_f = flow._alpha_energy_f
    monkeypatch.setattr(flow, "_alpha_energy_f",
                        lambda *args: (alpha_energy_f(*args)[0], np.nan))
    with pytest.raises(StepRejected):
        step(FlowState(0.0, u, alpha(u, f)), f, 0.05, dt_min=0.02)


def _count_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_run_scans_mass_only_past_blowup_bound(basis, monkeypatch):
    from crflow import flow
    from crflow.flow import FlowConfig, run
    f = f_dipole(basis, amplitude=0.2)
    u0 = perturbed_factor(basis, 21, amp=0.03)
    scans = _count_calls(monkeypatch, flow, "mass_concentration")
    diags = _count_calls(monkeypatch, flow, "diagnostics")
    res = run(u0, f, FlowConfig(t_max=0.5, record_every=4, blowup_factor=np.inf,
                                compute_shadow=False))
    assert res.final_state.t >= 0.5 and len(diags) == len(res.records) > 2
    assert len(scans) == len(diags)
    # armed (every max u exceeds the bound), the scan runs after every step too
    del scans[:], diags[:]
    steps = _count_calls(monkeypatch, flow, "step")
    run(u0, f, FlowConfig(t_max=0.5, record_every=4, blowup_factor=1e-3,
                          mass_threshold=2.0, compute_shadow=False))
    assert len(scans) == len(diags) + len(steps)


def test_phase1_work_is_pinned(basis, monkeypatch):
    # criterion 9's seed-0 phase 1: the accepted steps and the kernel
    # evaluations are exact counts, so that no change adds kernel work
    # unseen.  Of the 1737 right-hand sides, 1 is the first F0 and the rest
    # are RKC2 stages and radius estimates; each accepted step adds one
    # evaluation of its result, and each of the two records one more
    from crflow import flow
    from crflow.flow import run
    from crflow.presets import f_two_peak
    steps = _count_calls(monkeypatch, flow, "step")
    rhs = _count_calls(monkeypatch, flow, "_rhs_coeffs")
    fiber = _count_calls(monkeypatch, flow, "_fiber_terms")
    res = run(initial_factor(basis, 0), f_two_peak(basis), PHASE1)
    assert res.final_state.t == 30.0 and len(res.records) == 2
    assert (len(steps), len(rhs), len(fiber)) == (300, 1737, 2039)


def test_run_records_centering_failure(basis, monkeypatch):
    from crflow import normalization
    from crflow.flow import FlowConfig, run

    find_centering = normalization.find_centering

    def no_convergence(u, **kwargs):
        return find_centering(u, max_iter=0)

    monkeypatch.setattr(normalization, "find_centering", no_convergence)
    res = run(perturbed_factor(basis, 22, amp=0.03), f_dipole(basis, amplitude=0.2),
              FlowConfig(t_max=0.2, record_every=2))
    assert res.records and all(r.shadow_converged is False for r in res.records)
    assert all(r.theta is None for r in res.records)


def test_run_shadow_never_pulls_back(basis, monkeypatch):
    # the shadow records of a run never read the normalized factor v; a
    # centering result still yields it on request, as the pullback of its u
    from crflow import normalization
    from crflow.conformal import pullback_factor
    from crflow.flow import FlowConfig, run
    from crflow.normalization import find_centering

    def no_pullback(u, phi):
        raise AssertionError("pullback_factor called")

    u0 = perturbed_factor(basis, 22, amp=0.03)
    monkeypatch.setattr(normalization, "pullback_factor", no_pullback)
    res = run(u0, f_dipole(basis, amplitude=0.2),
              FlowConfig(t_max=0.2, record_every=2, compute_shadow=True))
    assert res.records and all(r.shadow_converged for r in res.records)
    cres = find_centering(res.final_state.u)
    monkeypatch.undo()
    v, _ = pullback_factor(res.final_state.u, cres.phi)
    assert np.array_equal(cres.v.coeffs, v.coeffs)


def test_run_propagates_unexpected_centering_error(basis, monkeypatch):
    from crflow import normalization
    from crflow.flow import FlowConfig, run

    def broken(u, **kwargs):
        raise RuntimeError("not a centering failure")

    monkeypatch.setattr(normalization, "find_centering", broken)
    with pytest.raises(RuntimeError, match="not a centering failure"):
        run(perturbed_factor(basis, 22, amp=0.03), f_dipole(basis, amplitude=0.2),
            FlowConfig(t_max=0.2, record_every=2))


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def test_diagnostics_round_state(basis):
    f = Field.constant(basis, 2.0)
    d = diagnostics(Field.constant(basis, 1.0), f)
    assert d.F2 < 1e-18 and d.G2 < 1e-18
    assert np.abs(d.P).max() < 1e-12
    assert d.kw_residual < 1e-12


def reference_diagnostics(u, f, rho=0.5):
    """The record by its defining formulas, one monitor at a time: E
    spectrally, G2 from the deviation alpha f - R projected to a Field and
    paired with itself by grad_inner_values, and the Kazdan-Warner vector
    from R projected to a Field; the kernel's grid values, with the same
    rounding as the flow's, for the rest."""
    from crflow.flow import (DiagnosticsRecord, _grid_terms, center_of_mass,
                             kazdan_warner_vector, mass_concentration)
    from crflow.spectral import grad_inner_values, horizontal_gradient_values
    basis = u.basis
    _, (uv, rv, dens) = _grid_terms(basis, u.coeffs)
    E = energy(u)
    f_vol = float(dens @ f.values)
    a, ef = E / f_vol, E / f_vol ** (basis.n / (basis.n + 1.0))
    dev = f.values * a - rv
    dev_field = Field.from_values(basis, dev)
    G2 = float(basis.weights @ (grad_inner_values(dev_field, dev_field) * uv ** 2))
    R = Field.from_values(basis, rv)
    kw = kazdan_warner_vector(horizontal_gradient_values(basis, R.coeffs), dens)
    return DiagnosticsRecord(
        E=E, E_f=ef, alpha=a, F2=float(dens @ np.square(dev)), G2=max(G2, 0.0),
        P=center_of_mass(u, dens=dens)[0], b=(dens * dev) @ real_coords(basis.nodes),
        kw_residual=float(np.sqrt(2.0) * np.linalg.norm(kw)),
        max_u=float(uv.max()),
        mass_concentration=mass_concentration(u, rho=rho, dens=dens))


def test_diagnostics_match_the_reference_formulas(kernel_basis):
    # one projection of R and one gradient synthesis of (P R, f.coeffs)
    # give G2 and the Kazdan-Warner residual up to round-off, within 1e-13
    # relative (worst seen over ten seeds per case: 5.7e-15 for G2, and the
    # residual to the bit); every other monitor is the same number
    from dataclasses import fields
    from crflow.presets import f_two_peak
    basis = kernel_basis
    cases = [f_dipole(basis, amplitude=0.2)]
    if basis.n == 1:
        cases.append(f_two_peak(basis))
    for seed, f in enumerate(cases, start=44):
        u = perturbed_factor(basis, seed, amp=0.1)
        got, want = diagnostics(u, f), reference_diagnostics(u, f)
        assert got.G2 > 0 and got.kw_residual > 0
        for name in (fd.name for fd in fields(got)):
            a, b = getattr(got, name), getattr(want, name)
            if name in ("G2", "kw_residual"):
                assert abs(a - b) <= 1e-13 * b, (name, a, b)
            else:
                assert np.array_equal(a, b), name


def test_diagnostics_synthesize_and_project_once(basis, monkeypatch):
    # one projection (P R) and one synthesis (the horizontal gradients of
    # P R and f) per record; the kernel evaluation runs through its plans
    from crflow.spectral import Basis
    f = f_dipole(basis, amplitude=0.2)
    u = perturbed_factor(basis, 44)
    diagnostics(u, f)           # builds the lazy Basis.gradient
    calls = {name: _count_calls(monkeypatch, Basis, name)
             for name in ("synthesize", "project")}
    diagnostics(u, f)
    assert {name: len(c) for name, c in calls.items()} == {"synthesize": 1, "project": 1}


def test_step_from_a_carry_less_state_reads_the_kernel(basis, monkeypatch):
    # E_f and min u of a state without carry come from the step's first
    # kernel evaluation, not from a grid-order energy_f
    from crflow import flow
    f = f_dipole(basis, amplitude=0.2)
    u = perturbed_factor(basis, 25)
    state = FlowState(0.0, u, alpha(u, f))
    want, _ = step(state, f, 0.05)

    def no_energy_f(*args):
        raise AssertionError("energy_f called")

    monkeypatch.setattr(flow, "energy_f", no_energy_f)
    got, _ = step(state, f, 0.05)
    assert np.array_equal(got.u.coeffs, want.u.coeffs) and got.E_f == want.E_f


def test_diagnostics_bubble_center_of_mass(basis):
    N = np.array([0, 1.0 + 0j])
    ub = volume_renormalize(crflow.bubble(N, 0.3, basis, residual_tol=0.5))
    P, P_hat = crflow.center_of_mass(ub)
    assert np.linalg.norm(P_hat - N) < 0.05


def test_center_of_mass_equivariance(basis):
    rng = np.random.default_rng(13)
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(a)
    U = q * (np.diag(r) / np.abs(np.diag(r)))
    ub = volume_renormalize(crflow.bubble(np.array([0, 1.0 + 0j]), 0.4, basis,
                                          residual_tol=0.5))
    # u_rot(x) = u(U^{-1} x), so P(u_rot) = U P(u)
    rotated = Field.from_values(basis, np.real(
        basis.space.evaluate(basis.monomial_coeffs(ub.coeffs),
                             basis.nodes @ np.conj(U))))
    P, _ = crflow.center_of_mass(ub)
    P_rot, _ = crflow.center_of_mass(rotated)
    assert np.abs(P_rot - U @ P).max() < 1e-3 * np.linalg.norm(P)


def test_diagnostics_b_vector_random(basis):
    f = f_dipole(basis, amplitude=0.2)
    for seed in (14, 15):
        u = perturbed_factor(basis, seed)
        d = diagnostics(u, f)
        # b is the first moment of alpha f - R against dV_theta over the real
        # coordinates
        dev = alpha(u, f) * f.values - curvature_values(u)
        moment = (density(basis, u.values) * dev) @ real_coords(basis.nodes)
        assert d.b.shape == (2 * basis.n + 2,) and d.b.dtype == np.float64
        assert np.abs(d.b - moment).max() <= 1e-10 * np.abs(moment).max()
        assert d.F2 >= 0 and d.G2 >= 0
        assert 0 <= d.mass_concentration <= 1


def direct_mass_concentration(u, rho, dens):
    """mass_concentration by the direct scan: the dot products of the centers
    X[::stride] with every grid point, thresholded and summed against dens."""
    from crflow.flow import MAX_CENTERS
    X = real_coords(u.basis.nodes)
    centers = X[::max(1, len(X) // MAX_CENTERS)]
    return float(((centers @ X.T >= np.cos(rho)) @ dens).max()) / dens.sum()


def _scan_states(basis):
    """A bubble, a random factor and, for n = 1, criterion 9's phase-1 end
    state, carried to the grid of basis by its monomial expansion."""
    from crflow.presets import f_two_peak, u0_from_spec
    p = np.zeros(basis.n + 1, dtype=complex)
    p[0], p[-1] = 0.6, 0.8j
    states = [volume_renormalize(crflow.bubble(p, 0.4, basis, residual_tol=0.5)),
              u0_from_spec(basis, {"type": "random", "amplitude": 0.1}, seed=5)]
    if basis.n == 1:
        from crflow.flow import run
        b8 = crflow.build_basis(1, 8)
        u = run(initial_factor(b8, 0), f_two_peak(b8), PHASE1).final_state.u
        values = b8.space.evaluate(b8.monomial_coeffs(u.coeffs), basis.nodes).real
        states.append(Field.from_values(basis, values))
    return states


def test_mass_scan_by_fft_matches_the_direct_scan(kernel_basis):
    from crflow.flow import mass_concentration
    for u in _scan_states(kernel_basis):
        dens = density(kernel_basis, u.values)
        for rho in (0.5, 1.1):
            got = mass_concentration(u, rho=rho)
            want = direct_mass_concentration(u, rho, dens)
            assert abs(got - want) <= 1e-14, (rho, got, want)
            assert got == mass_concentration(u, rho=rho, dens=dens)


def test_mass_scan_needs_no_center_block():
    # the direct scan held a 128 x N block of dot products (36 MB at (2,4));
    # the torus convolutions hold a few arrays of N / S entries per center
    # simplex point.  Measured peak: 1.6 MB of the 36 MB
    import tracemalloc
    from crflow.flow import mass_concentration
    basis = crflow.build_basis(2, 4)
    u = _scan_states(basis)[0]
    dens = density(basis, u.values)
    tracemalloc.start()
    try:
        mass_concentration(u, rho=1.1, dens=dens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * len(basis.nodes) * 8 / 10, peak


def test_kazdan_warner_closed_form(basis, basis_n2):
    from crflow.flow import kazdan_warner_vector
    from crflow.spectral import grad_inner_values, horizontal_gradient_values

    for b, seed in ((basis, 16), (basis_n2, 17)):
        u = perturbed_factor(b, seed, amp=0.1)
        R = Field.from_values(b, curvature_values(u))
        dens = b.weights * u.values ** critical_exponent(b.n)
        kw = kazdan_warner_vector(horizontal_gradient_values(b, R.coeffs),
                                  density(b, u.values))
        assert kw.shape == (2 * b.n + 2,)
        for j in range(2 * b.n + 2):
            ref = grad_inner_values(Field.coordinate(b, j), R)
            assert abs(kw[j] - ref @ dens) <= 1e-12 * np.abs(kw).max()
