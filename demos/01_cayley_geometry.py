"""Tour of the chart geometry: Cayley transform, group laws, Jacobians.

Run:  python demos/01_cayley_geometry.py
"""
import numpy as np

import crflow
from crflow.geometry import (CRAutomorphism, cayley_forward_xy,
                             cayley_inverse_xy, translate_xy)

rng = np.random.default_rng(0)

print("== Cayley transform round trips ==")
z = rng.normal(size=(5, 1)) + 1j * rng.normal(size=(5, 1))
tau = rng.normal(size=5)
x = cayley_inverse_xy(z, tau)
z2, tau2 = cayley_forward_xy(x)
print("max |z - z''| =", np.abs(z2 - z).max())
print("points stay on the sphere:", np.abs(np.sum(np.abs(x) ** 2, 1) - 1).max())

print("\n== Heisenberg translation is twisted ==")
zt, tt = translate_xy(np.array([[1.0 + 0j]]), np.array([0.0]), np.array([1j]), 0.0)
print("T_(i,0) (1,0) =", (zt[0, 0], tt[0]), " (tau picks up 2 Im(i))")

print("\n== automorphisms preserve the total measure ==")
basis = crflow.build_basis(1, 8)
phi = CRAutomorphism.chart(np.array([[0.8, 0.6j], [0.6j, 0.8]]),
                           np.array([0.2 + 0.1j]), 0.1, 1.4)
jac = phi.jacobian_xy(basis.nodes)
print("int |det dphi| dV =", basis.weights @ jac, " vs vol =", basis.vol)
print("jacobian positive:", jac.min() > 0)

print("\n== the Jacobian obeys the chain rule through the inverse ==")
x = basis.nodes[:100]
gap = np.abs(phi.inverse().jacobian_xy(phi.apply_xy(x)) * phi.jacobian_xy(x) - 1).max()
print("max |jac(phi^-1)(phi x) jac(phi)(x) - 1| =", gap)
