"""Named invariant checks runnable as one suite (see the selftest command).

Each check returns (name, passed, detail).  The suite is intentionally small
enough for a laptop run well under five minutes; the heavier acceptance
criteria live in the test suite.
"""

import numpy as np

from . import constants as const_mod
from .errors import PositivityLoss, StepRejected
from .flow import FlowState, alpha, energy_f, step, volume_renormalize
from .geometry import (cayley_forward_xy, cayley_inverse_xy, delta_xy,
                       dilate_xy, translate_xy)
from .hquad import sphere_volume
from .presets import f_dipole
from .spectral import Field, build_basis


def _random_heisenberg(rng, n, size):
    z = rng.normal(size=(size, n)) + 1j * rng.normal(size=(size, n))
    tau = rng.normal(size=size)
    return z, tau


def check_cayley_roundtrip(n=1, samples=1000, seed=11):
    rng = np.random.default_rng(seed)
    z, tau = _random_heisenberg(rng, n, samples)
    x = cayley_inverse_xy(z, tau)
    z2, tau2 = cayley_forward_xy(x)
    err = max(np.abs(z2 - z).max(), np.abs(tau2 - tau).max())
    x2 = cayley_inverse_xy(z2, tau2)
    err = max(err, np.abs(x2 - x).max())
    return "cayley-roundtrip", err < 1e-10, f"max error {err:.2e}"


def check_group_laws(n=1, samples=1000, seed=12):
    """D_a D_b = D_ab; delta_{q,r} against its closed form (r z + q_z,
    r^2 tau + q_tau + 2 r Im(q_z . conj z)); and T_q T_p = T_{q.p} with
    q.p = (q_z + p_z, q_tau + p_tau + 2 Im(q_z . conj p_z))."""
    rng = np.random.default_rng(seed)
    z, tau = _random_heisenberg(rng, n, samples)
    a, b = rng.uniform(0.2, 3.0, size=2)
    z1, t1 = dilate_xy(*dilate_xy(z, tau, a), b)
    z2, t2 = dilate_xy(z, tau, a * b)
    err = max(np.abs(z1 - z2).max(), np.abs(t1 - t2).max())
    (qz, pz), (qt, pt) = _random_heisenberg(rng, n, 2)
    r = float(rng.uniform(0.3, 2.5))
    zd, td = delta_xy(z, tau, qz, qt, r)
    want_t = r * r * tau + qt + 2.0 * r * np.imag(np.conj(z) @ qz)
    err = max(err, np.abs(zd - (r * z + qz)).max(), np.abs(td - want_t).max())
    zc, tc = translate_xy(*translate_xy(z, tau, pz, pt), qz, qt)
    zs, ts = translate_xy(z, tau, qz + pz, qt + pt + 2.0 * np.imag(np.vdot(pz, qz)))
    err = max(err, np.abs(zc - zs).max(), np.abs(tc - ts).max())
    return "group-laws", err < 1e-10, f"max error {err:.2e}"


def check_eigen_anchor(n=1, J=3, eigenvalues=None):
    basis = build_basis(n, J)
    lam = basis.eigenvalues if eigenvalues is None else eigenvalues
    err = 0.0
    for j in range(2 * n + 2):
        xj = Field.coordinate(basis, j)
        lap = basis.synthesize(-lam * xj.coeffs)
        err = max(err, float(np.abs(lap - (-(n / 2.0) * xj.values)).max()))
    gram = basis.gram_error()
    ok = err < 1e-10 and gram < 1e-10
    return "eigen-anchor", ok, f"anchor err {err:.2e}, gram err {gram:.2e}"


def check_volume_consistency(n=1):
    basis = build_basis(n, 2)
    vol_sphere = float(basis.weights.sum())
    vol_chart = sphere_volume(n)
    rel = abs(vol_sphere - vol_chart) / vol_chart
    return "volume-consistency", rel < 1e-9, f"relative gap {rel:.2e}"


def check_ef_monotonicity(n=1, J=4, steps=25, slack=1e-10, dt=0.05,
                          dt_min=1e-7, seed=13):
    """Smoke run: every accepted step must not raise E_f beyond slack.

    With dt_min = dt the halving retry is disabled, so an over-large step
    against a zero slack surfaces as a named failure (negative control for
    the gate itself)."""
    basis = build_basis(n, J)
    f = f_dipole(basis, amplitude=0.2)
    rng = np.random.default_rng(seed)
    vals = 1.0 + 0.1 * rng.uniform(-1, 1) * np.real(basis.nodes[:, 0]) \
        + 0.05 * rng.uniform(-1, 1) * np.real(basis.nodes[:, 1])
    u = volume_renormalize(Field.from_values(basis, vals))
    state = FlowState(0.0, u, alpha(u, f), None)
    worst = -np.inf
    try:
        for _ in range(steps):
            ef0 = energy_f(state.u, f)
            state, _ = step(state, f, dt, slack=slack, dt_min=dt_min)
            worst = max(worst, energy_f(state.u, f) - ef0)
    except (StepRejected, PositivityLoss) as exc:
        return "Ef-monotonicity", False, f"step rejected: {exc}"
    ok = worst <= slack
    return "Ef-monotonicity", ok, f"worst increment {worst:.2e}"


def check_constants_closed_form(ns=(1, 2)):
    """Every closed-form constant is positive and within 1e-6 relative of the
    level-0 chart quadrature of its defining integral."""
    worst_value, worst_rel = np.inf, 0.0
    for n in ns:
        for est in const_mod.all_constants(n):
            quad = const_mod.quadrature_constant(est.name, n, refinement=0).value
            worst_value = min(worst_value, est.value)
            worst_rel = max(worst_rel, abs(est.value - quad) / abs(quad))
    ok = worst_value > 0 and worst_rel <= 1e-6
    return ("constants-closed-form", ok,
            f"min value {worst_value:.4f}, worst rel diff to quadrature {worst_rel:.1e}")


def run_all(n=1):
    checks = [
        check_cayley_roundtrip(n=n),
        check_group_laws(n=n),
        check_eigen_anchor(n=n),
        check_volume_consistency(n=n),
        check_ef_monotonicity(n=n),
        check_constants_closed_form(),
    ]
    return checks
