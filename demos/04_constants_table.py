"""The six bubble-expansion constants: closed form, with the adaptive chart
quadrature and a Monte Carlo estimate of the defining integrals beside it.

Run:  python demos/04_constants_table.py
"""
from crflow.constants import NAMES, constant, monte_carlo_constant, quadrature_constant

for n in (1, 2):
    print(f"n = {n}")
    print(f"{'name':<4} {'closed form':>18} {'quadrature':>18} {'rel diff':>9} "
          f"{'monte carlo':>22} {'z':>6}")
    for name in NAMES:
        exact = constant(name, n).value
        quad = quadrature_constant(name, n, refinement=1).value
        mc, se = monte_carlo_constant(name, n, n_samples=100_000)
        z = (mc - exact) / se
        print(f"{name:<4} {exact:>18.12f} {quad:>18.12f} "
              f"{abs(quad - exact) / exact:>9.1e} "
              f"{mc:>12.4f} +-{se:.4f} {z:>+6.2f}")
    print()

print("the deficit-law pairing: (vol^2 - Theta(eps)^2)/eps^2 -> 4 vol A3 (n=2)")
from crflow.normalization import shadow_deficit_ratio
from crflow.spectral import sphere_volume_cached

target = 4 * sphere_volume_cached(2) * constant("A3", 2).value
for eps in (0.2, 0.1, 0.05):
    r = shadow_deficit_ratio(eps, 2)
    print(f"  eps={eps:5}: ratio {r:10.4f}   target {target:10.4f} "
          f"  rel err {abs(r - target) / target:.4f}")
