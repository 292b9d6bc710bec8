"""The bigraded-harmonic basis on the CR sphere and its sub-Laplacian.

Run:  python demos/02_spectral_basis.py
"""
from collections import Counter

import numpy as np

import crflow
from crflow.spectral import Field

basis = crflow.build_basis(1, 6)
print(f"S^3 basis at degree 6: {basis.nb} functions on {len(basis.nodes)} nodes")
print("gram error:", basis.gram_error())
print("total measure:", basis.vol, "(= 4 pi^2 for n = 1)")

print("\neigenvalue multiplicities (lambda_{j,k} = jk + n(j+k)/2):")
table = Counter(zip(basis.bidegrees, np.round(basis.eigenvalues, 6)))
for ((j, k), lam), cnt in sorted(table.items(), key=lambda t: (t[0][1], t[0][0])):
    print(f"  (j,k)=({j},{k})  lambda={lam:4}  dim={cnt}")

print("\nanchor: Lap_b X = -(n/2) X for the real coordinates X = Re x_i, Im x_i")
err = 0.0
for j in range(2 * basis.n + 2):
    xj = Field.coordinate(basis, j)
    err = max(err, np.abs(crflow.sub_laplacian(xj).values + 0.5 * xj.values).max())
print("  max error:", err)

print("\ncarre du champ gives pointwise |grad u|^2:")
u = Field.from_values(basis, 1.0 + 0.3 * np.real(basis.nodes[:, 0]))
g = crflow.horizontal_grad_sq(u)
by_parts = -basis.quad(u.values * crflow.sub_laplacian(u).values)
print("  int |grad u|^2 =", crflow.integrate(g), " = -int u Lap u =", by_parts)
