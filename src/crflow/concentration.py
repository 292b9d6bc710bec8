"""Acceptance criterion 9, defined once: where the hypotheses fail, the flow
concentrates.

On the two-peak f (n = 1) the Morse gate's count system is solvable, so the
existence theorem does not apply; the flow should escape along the bubble
family, its shadow parking at a critical point of f with nonpositive
sub-Laplacian.  Phase 1 settles past the slow tangential drift with the
concentration detector disarmed; phase 2 arms it, so that the stop reads the
settled shadow.  The `concentrate` workload of `perfbench/workload.py` keeps
a copy of this experiment, pinned to it by `tests/test_perfbench_targets.py`.
"""

import numpy as np

from .conformal import bubble
from .critical_points import find_critical_points
from .flow import FlowConfig, run, volume_renormalize
from .morse import theorem_gate
from .presets import u0_from_spec

PHASE1 = FlowConfig(dt_init=0.1, t_max=30.0, record_every=400,
                    blowup_factor=np.inf, mass_threshold=2.0,
                    compute_shadow=False, max_steps=6000, wall_time_cap=300.0)
PHASE2 = FlowConfig(dt_init=0.05, t_max=30.0, record_every=100,
                    blowup_factor=2.45, mass_threshold=0.9,
                    concentration_rho=1.1, compute_shadow=True,
                    max_steps=4000, wall_time_cap=240.0)


def initial_factor(basis, seed):
    """Criterion 9's u0 for `seed`: an even seed gives the bubble of scale
    0.45 at the (seed // 2 + 1)-th center drawn from default_rng(42), an odd
    seed the seeded random factor of amplitude 0.1."""
    if seed % 2:
        return u0_from_spec(basis, {"type": "random", "amplitude": 0.1}, seed=seed)
    rng = np.random.default_rng(42)
    for _ in range(seed // 2 + 1):
        p = rng.normal(size=basis.n + 1) + 1j * rng.normal(size=basis.n + 1)
    return volume_renormalize(bubble(p / np.linalg.norm(p), 0.45, basis,
                                     residual_tol=0.5))


def run_two_phase(f, u0):
    """(gate, phase1, phase2): f's theorem gate, and the two phases only when
    the gate finds a solvable k with the hypotheses unmet (else None, None)."""
    gate = theorem_gate(find_critical_points(f)[0])
    if gate.k is None or gate.satisfied:
        return gate, None, None
    phase1 = run(u0, f, PHASE1)
    return gate, phase1, run(phase1.final_state.u, f, PHASE2)
