"""End-to-end acceptance criteria.

One test per criterion, each printing a PASS/FAIL line (visible with -s, and
collected into acceptance_report.txt).  Criterion 9 is exploratory on S^3:
a miss is reported as xfail, not as a suite failure.
"""

import os
import time
from itertools import product

import numpy as np
import pytest

import crflow
from crflow.constants import (NAMES, all_constants, constant, monte_carlo_constant,
                              quadrature_constant)
from crflow.flow import (FlowConfig, FlowState, Termination, alpha,
                         base_curvature, critical_exponent, curvature_values,
                         diagnostics, energy_f, run, step, volume_renormalize)
from crflow.geometry import cayley_forward_xy, cayley_inverse_xy, delta_xy, \
    dilate_xy, translate_xy
from crflow.morse import degree_sum_from_counts, sbc_check, solve_k
from crflow.normalization import shadow_deficit_ratio
from crflow.presets import f_constant, f_dipole, f_two_peak, u0_from_spec
from crflow.spectral import Field, sphere_volume_cached

_REPORT = []
_REPORT_PATH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "acceptance_report.txt")


def report(num, ok, detail):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}"
    _REPORT.append(line)
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="session", autouse=True)
def write_report(request):
    yield
    # a partial run (-k, a single node id) leaves the full report in place
    collected = {item.name for item in request.session.items
                 if item.name.startswith("test_criterion_")}
    if len(collected) == 10:
        with open(_REPORT_PATH, "w", encoding="utf-8") as fh:
            fh.write("\n".join(_REPORT) + "\n")


@pytest.fixture(scope="module")
def basis8():
    return crflow.build_basis(1, 8)


# ---------------------------------------------------------------------------
# 1. geometry suite
# ---------------------------------------------------------------------------

def test_criterion_01_geometry_suite():
    t0 = time.time()
    rng = np.random.default_rng(1001)
    worst = 0.0
    for n in (1, 2):
        z = rng.normal(size=(1000, n)) + 1j * rng.normal(size=(1000, n))
        tau = rng.normal(size=1000)
        x = cayley_inverse_xy(z, tau)
        z2, tau2 = cayley_forward_xy(x)
        worst = max(worst, np.abs(z2 - z).max(), np.abs(tau2 - tau).max())
        x0 = rng.normal(size=(1000, n + 1)) + 1j * rng.normal(size=(1000, n + 1))
        x0 /= np.linalg.norm(x0, axis=1)[:, None]
        zz, tt = cayley_forward_xy(x0)
        worst = max(worst, np.abs(cayley_inverse_xy(zz, tt) - x0).max())
        # dilation and translation group laws on 1000 random points
        a, b = rng.uniform(0.2, 3.0, size=2)
        za, ta = dilate_xy(*dilate_xy(z, tau, a), b)
        zb, tb = dilate_xy(z, tau, a * b)
        worst = max(worst, np.abs(za - zb).max(), np.abs(ta - tb).max())
        qz = rng.normal(size=n) + 1j * rng.normal(size=n)
        qt, r = float(rng.normal()), float(rng.uniform(0.3, 2.0))
        zd, td = delta_xy(z, tau, qz, qt, r)
        ze, te = translate_xy(*dilate_xy(z, tau, r), qz, qt)
        worst = max(worst, np.abs(zd - ze).max(), np.abs(td - te).max())
        want_t = r * r * tau + qt + 2 * r * np.imag(np.sum(qz * np.conj(z), axis=1))
        worst = max(worst, np.abs(td - want_t).max(),
                    np.abs(zd - (r * z + qz)).max())
    dt = time.time() - t0
    report(1, worst <= 1e-10 and dt < 5.0,
           f"max error {worst:.2e}, {dt:.2f}s (n in {{1,2}}, 1000 cases each)")


# ---------------------------------------------------------------------------
# 2. eigen anchor
# ---------------------------------------------------------------------------

def test_criterion_02_eigen_anchor():
    t0 = time.time()
    worst_anchor, worst_gram = 0.0, 0.0
    for n, J in ((1, 8), (2, 2)):
        basis = crflow.build_basis(n, J)
        worst_gram = max(worst_gram, basis.gram_error())
        for j in range(2 * n + 2):
            xj = Field.coordinate(basis, j)
            lap = crflow.sub_laplacian(xj)
            worst_anchor = max(worst_anchor, float(
                np.abs(lap.values + (n / 2.0) * xj.values).max()))
    dt = time.time() - t0
    report(2, worst_anchor <= 1e-10 and worst_gram <= 1e-10 and dt < 30.0,
           f"anchor {worst_anchor:.2e}, gram {worst_gram:.2e}, {dt:.1f}s")


# ---------------------------------------------------------------------------
# 3. stationary round solution
# ---------------------------------------------------------------------------

def test_criterion_03_stationary_round_state(basis8):
    details = []
    ok = True
    for basis in (basis8, crflow.build_basis(2, 2)):
        n = basis.n
        one = Field.constant(basis, 1.0)
        f = Field.constant(basis, 2.0)
        R = curvature_values(one)
        curv_err = float(np.abs(R - base_curvature(n)).max())
        F2 = diagnostics(one, f).F2
        ok = ok and curv_err < 1e-10 and F2 < 1e-18
        details.append(f"n={n}: |R-R0| {curv_err:.1e}, F2 {F2:.1e}")
    state = FlowState(0.0, Field.constant(basis8, 1.0), 1.0, None)
    f = f_constant(basis8)
    state = FlowState(0.0, state.u, alpha(state.u, f), None)
    for _ in range(100):
        state, _ = step(state, f, 0.05)
    drift = float(np.abs(state.u.values - 1.0).max())
    ok = ok and drift < 1e-12
    report(3, ok, "; ".join(details) + f"; 100-step drift {drift:.1e}")


# ---------------------------------------------------------------------------
# 4. energy monotonicity over randomized data
# ---------------------------------------------------------------------------

def test_criterion_04_energy_monotonicity(basis8):
    t0 = time.time()
    f = f_dipole(basis8, amplitude=0.2)     # Morse, ratio 1.5 < 2
    assert sbc_check(float(f.values.max()), float(f.values.min()), 1)
    worst = -np.inf
    for seed in range(20):
        u = u0_from_spec(basis8, {"type": "random", "amplitude": 0.12},
                         seed=1000 + seed)
        state = FlowState(0.0, u, alpha(u, f), None)
        for _ in range(40):
            ef0 = energy_f(state.u, f)
            state, _ = step(state, f, 0.08)
            worst = max(worst, energy_f(state.u, f) - ef0)
    dt = time.time() - t0
    report(4, worst <= 1e-10 and dt < 180.0,
           f"worst accepted increment {worst:.2e} over 20x40 steps, {dt:.0f}s")


# ---------------------------------------------------------------------------
# 5. conformal invariance of the normalized energy
# ---------------------------------------------------------------------------

def _gentle_automorphism(rng, n):
    from crflow.geometry import CRAutomorphism
    a = rng.normal(size=(n + 1, n + 1)) + 1j * rng.normal(size=(n + 1, n + 1))
    q, r = np.linalg.qr(a)
    U = q * (np.diag(r) / np.abs(np.diag(r)))
    qz = 0.25 * (rng.normal(size=n) + 1j * rng.normal(size=n))
    return CRAutomorphism.chart(U, qz, 0.2 * float(rng.normal()),
                                float(rng.uniform(0.8, 1.25)))


def test_criterion_05_conformal_invariance():
    from crflow.conformal import compose_values, pullback_factor
    results = {}
    for J, tol in ((8, 1e-4), (6, 1e-3)):
        basis = crflow.build_basis(1, J)
        f = f_dipole(basis, amplitude=0.2)
        rng = np.random.default_rng(500 + J)
        worst = 0.0
        for _ in range(10):
            u = u0_from_spec(basis, {"type": "random", "amplitude": 0.12},
                             seed=int(rng.integers(1 << 30)))
            phi = _gentle_automorphism(rng, 1)
            v, _ = pullback_factor(u, phi)
            f_phi = Field.from_values(basis, compose_values(f, phi))
            rel = abs(energy_f(u, f) - energy_f(v, f_phi)) / energy_f(u, f)
            worst = max(worst, rel)
        results[J] = (worst, tol)
    ok = all(w <= tol for w, tol in results.values())
    report(5, ok, ", ".join(f"J={J}: {w:.2e} (tol {tol:.0e})"
                            for J, (w, tol) in results.items()))


# ---------------------------------------------------------------------------
# 6. Kazdan-Warner residual at the converged round solution
# ---------------------------------------------------------------------------

def test_criterion_06_kazdan_warner(basis8):
    f = f_constant(basis8)
    u0 = u0_from_spec(basis8, {"type": "random", "amplitude": 0.06}, seed=6)
    res = run(u0, f, FlowConfig(dt_init=0.1, t_max=40.0, record_every=100,
                                compute_shadow=False))
    d = res.final_state.diagnostics
    bound = 1e-6 * float(f.values.max()) * basis8.vol
    ok = (res.status is Termination.CONVERGED and d.kw_residual <= bound)
    report(6, ok, f"kw residual {d.kw_residual:.2e} <= {bound:.2e} "
                  f"(status {res.status.value}, F2 {d.F2:.1e})")


# ---------------------------------------------------------------------------
# 7. the six constants
# ---------------------------------------------------------------------------

def test_criterion_07_constants():
    t0 = time.time()
    ok = True
    details = []
    for n in (1, 2, 3, 4):
        exact = {e.name: e.value for e in all_constants(n)}
        for name in NAMES:
            lo = quadrature_constant(name, n, refinement=0).value
            hi = quadrature_constant(name, n, refinement=1).value
            if exact[name] <= 0 or lo <= 0:
                ok = False
                details.append(f"{name}(n={n}) <= 0")
            rel = abs(hi - lo) / abs(hi)
            if rel > 1e-6:
                ok = False
                details.append(f"{name}(n={n}) refinement drift {rel:.1e}")
            rel = abs(exact[name] - hi) / abs(hi)
            if rel > 1e-9:
                ok = False
                details.append(f"{name}(n={n}) closed form vs quadrature {rel:.1e}")
    for n in (1, 2):
        for name in NAMES:
            mc, se = monte_carlo_constant(name, n, n_samples=200_000)
            q = constant(name, n).value
            if abs(mc - q) > 3.0 * se:
                ok = False
                details.append(f"{name}(n={n}) MC off by {(mc - q) / se:.1f} se")
    a2 = constant("A2", 2).value
    a5 = constant("A5", 2).value
    ok = ok and a2 > 0 and a5 > 0
    dt = time.time() - t0
    ok = ok and dt < 120.0
    report(7, ok, f"A1..A6 > 0 for n=1..4, closed form = quadrature to 1e-9, "
                  f"MC within 3 sigma, "
                  f"A2(2)={a2:.4f}, A5(2)={a5:.4f}, {dt:.0f}s"
                  + ("; " + "; ".join(details) if details else ""))


# ---------------------------------------------------------------------------
# 8. shadow deficit asymptotics
# ---------------------------------------------------------------------------

def test_criterion_08_shadow_deficit_law():
    n = 2
    target = 4.0 * sphere_volume_cached(n) * constant("A3", n).value
    ratios = {eps: shadow_deficit_ratio(eps, n) for eps in (0.2, 0.1, 0.05)}
    errs = [abs(ratios[e] - target) / target for e in (0.2, 0.1, 0.05)]
    monotone = errs[0] > errs[1] > errs[2]
    ok = monotone and errs[2] < 0.05
    report(8, ok, f"ratios {ratios[0.2]:.3f} -> {ratios[0.1]:.3f} -> "
                  f"{ratios[0.05]:.3f} vs 4*vol*A3 = {target:.3f} "
                  f"(rel errs {errs[0]:.4f} > {errs[1]:.4f} > {errs[2]:.4f})")


# ---------------------------------------------------------------------------
# 9. concentration behavior (exploratory at n = 1)
# ---------------------------------------------------------------------------

def test_criterion_09_concentration_exploratory(basis8):
    from crflow.critical_points import find_critical_points
    from crflow.morse import theorem_gate

    f = f_two_peak(basis8)
    data, _ = find_critical_points(f)
    gate = theorem_gate(data)
    assert gate.k is not None and not gate.satisfied, \
        "scenario needs the solvable-direction verdict"

    # two phases: settle past the slow drift with the detector disarmed, then
    # continue with detection armed so the stop reads the settled shadow
    phase1 = FlowConfig(dt_init=0.1, t_max=30.0, record_every=400,
                        blowup_factor=np.inf, mass_threshold=2.0,
                        compute_shadow=False, max_steps=6000,
                        wall_time_cap=300.0)
    phase2 = FlowConfig(dt_init=0.05, t_max=30.0, record_every=100,
                        blowup_factor=2.45, mass_threshold=0.9,
                        concentration_rho=1.1, compute_shadow=True,
                        max_steps=4000, wall_time_cap=240.0)
    rng = np.random.default_rng(42)
    hits, lines = 0, []
    for seed in range(5):
        if seed % 2 == 0:
            p = rng.normal(size=2) + 1j * rng.normal(size=2)
            p /= np.linalg.norm(p)
            u0 = volume_renormalize(crflow.bubble(p, 0.45, basis8,
                                                  residual_tol=0.5))
        else:
            u0 = u0_from_spec(basis8, {"type": "random", "amplitude": 0.1},
                              seed=seed)
        r1 = run(u0, f, phase1)
        r2 = run(r1.final_state.u, f, phase2)
        entry = f"seed {seed}: {r2.status.value}"
        if r2.shadow_point is not None and r2.status is Termination.CONCENTRATED:
            entry += (f" lap f {r2.lap_f_at_shadow:+.3f}, "
                      f"|grad f| {r2.grad_f_at_shadow:.3f}")
            if r2.lap_f_at_shadow <= 0 and r2.grad_f_at_shadow < 0.05:
                hits += 1
        lines.append(entry)
    detail = f"{hits}/5 runs concentrated at a nonpositive-Laplacian critical " \
             f"point ({'; '.join(lines)})"
    if hits < 1:
        line = f"[criterion  9] MISS - {detail} (exploratory: n=1 is outside " \
               "the proven range; reported, not build-breaking)"
        _REPORT.append(line)
        print(line, flush=True)
        pytest.xfail(line)
    report(9, True, detail + " (exploratory)")


# ---------------------------------------------------------------------------
# 10. the exact gate
# ---------------------------------------------------------------------------

def test_criterion_10_morse_gate_exhaustive():
    solvable_hits = 0
    for n in (1, 2):
        for m in product(range(4), repeat=2 * n + 2):
            k = solve_k(list(m), n)
            if k is not None:
                solvable_hits += 1
                assert degree_sum_from_counts(m, n) == -1, (n, m)
    examples_ok = (solve_k([1, 0, 0, 0], 1) == [0, 0, 0, 0]
                   and solve_k([2, 0, 0, 0], 1) is None)
    thresholds_ok = True
    for n in (1, 2):
        t = 2.0 ** (1.0 / n)
        thresholds_ok &= (not sbc_check(t, 1.0, n)) \
            and sbc_check(t * (1 - 1e-12), 1.0, n)
    ok = solvable_hits > 0 and examples_ok and thresholds_ok
    report(10, ok, f"{solvable_hits} solvable count vectors all have degree "
                   f"sum -1; documented examples and exact 2^(1/n) ties hold")
