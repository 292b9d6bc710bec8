"""A flow that cannot converge: mass concentrates at a critical point.

The two-peak landscape has a solvable count system, so the existence
hypotheses fail; the flow escapes along the bubble family and the shadow
point parks at a critical point with nonpositive sub-Laplacian.  This is
acceptance criterion 9's seed 0, run by `crflow.concentration`.

Run:  python demos/06_concentration.py        (a few seconds)
"""
import numpy as np

import crflow
from crflow.concentration import initial_factor, run_two_phase
from crflow.presets import f_two_peak

basis = crflow.build_basis(1, 8)
f = f_two_peak(basis)

# the gate, then: settle past the slow tangential drift, then arm the detector
gate, r1, r2 = run_two_phase(f, initial_factor(basis, 0))
print(f"gate: k = {gate.k}, hypotheses met: {gate.satisfied}")
print("settling phase:", r1.status.value)
for rec in r1.records:
    print(f"  t={rec.t:6.2f}  max_u={rec.diagnostics.max_u:6.3f}  "
          f"mass={rec.diagnostics.mass_concentration:.3f}")

print("detection phase:", r2.status.value, "-", r2.message)
if r2.shadow_point is not None:
    print("shadow point (unit vector):",
          np.round(r2.shadow_point, 4))
    print(f"f there      = {r2.f_at_shadow:.4f}")
    print(f"|grad f|     = {r2.grad_f_at_shadow:.4f}")
    print(f"sub-Lap of f = {r2.lap_f_at_shadow:+.4f}  (expected <= 0)")
