"""The six bubble-expansion constants in closed form, with two cross-checks.

Each constant is an integral over H^n of a function of (|z|, tau).  With
b_n = pi^{n+1} / n! they are

    A1 = 2 b_n / (n+1)          A2 = b_n / (2n(n+1))
    A3 = b_n / 4^n              A6 = 2 b_n / n
    A4 = 8 b_n                  A5 = 8n b_n (1 - 2^{n+1} (n+1) sum_{k>=n+2} 1/(k 2^k))

For A1, A2, A3 and A6 the tau-integral of (tau^2 + s^2)^{-m} is
sqrt(pi) Gamma(m - 1/2)/Gamma(m) s^{1-2m}, and the radial integral left over
is a Beta integral (DLMF 5.12).  A4 and A5 have the |z|^4 + tau^2
denominator; after tau = r^2 s their integrands carry 1/(1+s^2).  With
x = r^2, a = x and q = 1 + x, partial fractions in s^2 give

    int ds / ((1+s^2)(a^2 s^2 + D))              = pi / (sqrt(D)(a + sqrt(D)))
    int (1-s^2) ds / ((1+s^2)^2 (a^2 s^2 + D))    = pi a / (sqrt(D)(a + sqrt(D))^2)

and the power n+1 of the denominator comes from (-1)^n/n! d^n/dD^n at
D = q^2.  The x-integral that remains is rational plus a ln 2 term.  The
code sums that term's tail series, whose terms are all positive, instead of
forming P_n - Q_n ln 2, which cancels digits as n grows.

The two-level adaptive chart quadrature (`quadrature_constant`) and a
seeded importance-sampling Monte Carlo estimate (`monte_carlo_constant`)
evaluate the defining integrals independently of these formulas; the tests,
criterion 7 and `crflow selftest` compare them against the closed forms.
"""

from dataclasses import dataclass
from math import factorial, fsum, pi

import numpy as np

from .errors import NonConvergentQuadrature
from .hquad import heisenberg_integral, surface_area_odd_sphere

NAMES = ("A1", "A2", "A3", "A4", "A5", "A6")


@dataclass(frozen=True)
class ConstantEstimate:
    name: str
    n: int
    value: float
    abs_error_estimate: float
    method: str


def _check(name, n):
    if name not in NAMES:
        raise ValueError(f"unknown constant {name!r}")
    if n < 1:
        raise ValueError("n must be >= 1")


def _integrand(name, n):
    """(g(r, tau), uses_sigma_substitution) for the named constant."""
    if name == "A1":
        def g(r, t):
            s = 1.0 + r * r
            return 4.0 ** (n + 1) / n * r * r * s / (t * t + s * s) ** (n + 2)
        return g, False
    if name == "A2":
        def g(r, t):
            s = 1.0 + r * r
            return (4.0 ** n / (2.0 * n) * (r ** 4 + t * t - 1.0) * r * r
                    / (t * t + s * s) ** (n + 2))
        return g, False
    if name == "A3":
        def g(r, t):
            s = 1.0 + r * r
            return r * r / (t * t + s * s) ** (n + 1)
        return g, False
    if name == "A6":
        def g(r, t):
            s = 1.0 + r * r
            return 4.0 ** (n + 1) / (2.0 * n) * r * r / (t * t + s * s) ** (n + 1)
        return g, False
    if name == "A4":
        # 2 * 4^{n+1} int r^2/(r^4 + t^2) * K-factor; after t = r^2 s the
        # radial weight is unchanged and the integrand is bounded
        def g(r, s):
            d = 1.0 + r * r
            return (2.0 * 4.0 ** (n + 1)
                    / ((1.0 + s * s) * (r ** 4 * s * s + d * d) ** (n + 1)))
        return g, True
    if name == "A5":
        def g(r, s):
            d = 1.0 + r * r
            return (4.0 * 4.0 ** (n + 1) * (1.0 - s * s)
                    / ((1.0 + s * s) ** 2 * (r ** 4 * s * s + d * d) ** (n + 1)))
        return g, True
    raise ValueError(f"unknown constant {name!r}")


def _tolerance(level):
    return 1e-8 * 4.0 ** (-level)


def _ln2_tail(n):
    """sum_{k >= n+2} 1/(k 2^k); each term is at most half the one before, so
    60 terms reach below the double-precision rounding of the sum."""
    return fsum(1.0 / (k * 2.0 ** k) for k in range(n + 2, n + 62))


_CLOSED_FORMS = {
    "A1": lambda n, b: 2.0 * b / (n + 1),
    "A2": lambda n, b: b / (2.0 * n * (n + 1)),
    "A3": lambda n, b: b / 4.0 ** n,
    "A4": lambda n, b: 8.0 * b,
    "A5": lambda n, b: 8.0 * n * b * (1.0 - 2.0 ** (n + 1) * (n + 1) * _ln2_tail(n)),
    "A6": lambda n, b: 2.0 * b / n,
}


def constant(name, n):
    """The exact value of one constant, evaluated in double precision.

    abs_error_estimate bounds the rounding: (n + 8) units of 2^-52 relative
    covers pi^{n+1}, the few products, and the 1 - 2^{n+1}(n+1)(tail) of A5,
    whose relative rounding grows like (n+1)/2 units; against 40-digit
    arithmetic the largest error for n <= 40 is 0.39 of this bound."""
    _check(name, n)
    value = _CLOSED_FORMS[name](n, pi ** (n + 1) / factorial(n))
    return ConstantEstimate(name=name, n=n, value=value,
                            abs_error_estimate=(n + 8) * 2.0 ** -52 * value,
                            method="closed form")


def all_constants(n):
    return [constant(name, n) for name in NAMES]


def quadrature_constant(name, n, refinement=1):
    """One constant by adaptive chart quadrature, with a Richardson-style
    error estimate.

    Runs the adaptive quadrature at the requested refinement level and one
    level deeper; the reported value is the deeper one and the error estimate
    combines the level difference with the internal panel estimates."""
    _check(name, n)
    g, _ = _integrand(name, n)
    coarse, err_c = heisenberg_integral(g, n, tol=_tolerance(refinement))
    fine, err_f = heisenberg_integral(g, n, tol=_tolerance(refinement + 1))
    err = abs(fine - coarse) + err_f
    if err > 1e-5 * max(1.0, abs(fine)):
        raise NonConvergentQuadrature(
            f"{name}(n={n}): error estimate {err:.3e} too large")
    return ConstantEstimate(name=name, n=n, value=float(fine),
                            abs_error_estimate=float(err),
                            method=f"adaptive-panel level {refinement}")


# ---------------------------------------------------------------------------
# Monte Carlo cross-check
# ---------------------------------------------------------------------------

def monte_carlo_constant(name, n, n_samples=200_000, seed=2024):
    """Importance-sampling estimate (value, standard_error).

    Samples r = tan(phi) and the second variable (tau resp. the sigma of the
    A4/A5 substitution) as s_r * tan(theta) with uniform (phi, theta); the
    tangent reparametrization plays the role of a heavy-tailed proposal and
    leaves a bounded integrand on a bounded rectangle, so the standard error
    is a faithful 1/sqrt(N) statistic."""
    g, sigma_form = _integrand(name, n)
    rng = np.random.default_rng(seed + 7 * n + NAMES.index(name))
    omega = surface_area_odd_sphere(n)
    phi = rng.uniform(0.0, pi / 2.0, size=n_samples)
    theta = rng.uniform(-pi / 2.0, pi / 2.0, size=n_samples)
    r = np.tan(phi)
    sec2_phi = 1.0 + r * r
    t_scale = 1.0 if sigma_form else (1.0 + r * r)
    second = t_scale * np.tan(theta)
    sec2_theta = 1.0 + np.tan(theta) ** 2
    vals = (g(r, second) * r ** (2 * n - 1)
            * t_scale * sec2_theta * sec2_phi)
    vals = omega * (pi / 2.0) * pi * vals
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / np.sqrt(n_samples))
    return mean, stderr
