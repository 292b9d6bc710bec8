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
Both read the one integrand per constant (`_integrand`), whose integer
powers are products (`hquad.ipow`), not pow() calls.  The Monte Carlo draws
block by block from one seeded stream, phi from its first n_samples doubles
and theta from the next n_samples, so its estimate does not depend on
MC_BLOCK.
"""

import operator
from dataclasses import dataclass
from math import factorial, fsum, pi, sqrt

import numpy as np

from .errors import NonConvergentQuadrature
from .hquad import heisenberg_integral, ipow, surface_area_odd_sphere

NAMES = ("A1", "A2", "A3", "A4", "A5", "A6")
MC_BLOCK = 8192    # Monte Carlo samples per integrand evaluation


@dataclass(frozen=True)
class ConstantEstimate:
    name: str
    n: int
    value: float
    abs_error_estimate: float
    method: str


def _integer(value, label):
    """value as an int; a bool or a non-integer is a ValueError naming label."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{label} must be an integer, got {value!r}")


def check_dimension(n):
    """The dimension n as an int >= 1; anything else is a ValueError naming n."""
    n = _integer(n, "n")
    if n < 1:
        raise ValueError("n must be >= 1")
    return n


def _check(name, n):
    """The dimension n as an int, after checking name and n."""
    if name not in NAMES:
        raise ValueError(f"unknown constant {name!r}")
    return check_dimension(n)


def _integrand(name, n):
    """(g(r, tau), uses_sigma_substitution) for the named constant.

    Each g forms r^2 and 1 + r^2 once and takes its integer powers as
    products (`ipow`), not through pow()."""
    if name == "A1":
        def g(r, t):
            r2 = r * r
            s = 1.0 + r2
            return 4.0 ** (n + 1) / n * r2 * s / ipow(t * t + s * s, n + 2)
        return g, False
    if name == "A2":
        def g(r, t):
            r2, t2 = r * r, t * t
            s = 1.0 + r2
            return (4.0 ** n / (2.0 * n) * (r2 * r2 + t2 - 1.0) * r2
                    / ipow(t2 + s * s, n + 2))
        return g, False
    if name == "A3":
        def g(r, t):
            r2 = r * r
            s = 1.0 + r2
            return r2 / ipow(t * t + s * s, n + 1)
        return g, False
    if name == "A6":
        def g(r, t):
            r2 = r * r
            s = 1.0 + r2
            return 4.0 ** (n + 1) / (2.0 * n) * r2 / ipow(t * t + s * s, n + 1)
        return g, False
    if name == "A4":
        # 2 * 4^{n+1} int r^2/(r^4 + t^2) * K-factor; after t = r^2 s the
        # radial weight is unchanged and the integrand is bounded
        def g(r, s):
            r2, s2 = r * r, s * s
            d = 1.0 + r2
            return (2.0 * 4.0 ** (n + 1)
                    / ((1.0 + s2) * ipow(r2 * r2 * s2 + d * d, n + 1)))
        return g, True
    if name == "A5":
        def g(r, s):
            r2, s2 = r * r, s * s
            d, w = 1.0 + r2, 1.0 + s2
            return (4.0 * 4.0 ** (n + 1) * (1.0 - s2)
                    / (w * w * ipow(r2 * r2 * s2 + d * d, n + 1)))
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
    n = _check(name, n)
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
    n = _check(name, n)
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
    is a faithful 1/sqrt(N) statistic.

    phi takes the first n_samples doubles of one seeded stream and theta the
    next n_samples: two generators on that stream, the second advanced past
    phi's doubles, fill reused MC_BLOCK buffers block by block.  The
    integrand and its chart Jacobian, with integer powers as products, are
    evaluated per block, which keeps their temporaries in cache."""
    n = _check(name, n)
    n_samples = _integer(n_samples, "n_samples")
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2 for a standard error")
    g, sigma_form = _integrand(name, n)
    seed = seed + 7 * n + NAMES.index(name)
    phi_rng = np.random.default_rng(seed)
    theta_rng = np.random.default_rng(seed)
    theta_rng.bit_generator.advance(n_samples)
    buffers = np.empty((4, MC_BLOCK))
    vals = np.empty(n_samples)
    for lo in range(0, n_samples, MC_BLOCK):
        v = vals[lo:lo + MC_BLOCK]
        r, t, jac, sec2_phi = buffers[:, :len(v)]
        phi_rng.random(out=r)
        r *= pi / 2.0
        np.tan(r, out=r)
        theta_rng.random(out=t)
        t *= pi
        t += -pi / 2.0
        np.tan(t, out=t)
        # jac = r^{2n-1} (1 + r^2)^k (1 + t^2), k = 1 (sigma) or 2; v holds
        # 1 + t^2 until it takes the block's values
        np.multiply(r, r, out=sec2_phi)
        sec2_phi += 1.0
        np.multiply(t, t, out=v)
        v += 1.0
        ipow(r, 2 * n - 1, out=jac)
        jac *= sec2_phi
        jac *= v
        if not sigma_form:
            jac *= sec2_phi
            t *= sec2_phi
        np.multiply(g(r, t), jac, out=v)
    mean = float(vals.mean())
    vals -= mean
    np.square(vals, out=vals)
    stderr = sqrt(float(vals.sum()) / (n_samples - 1) / n_samples)
    # the constant factor of the estimator scales its mean and error alike
    scale = surface_area_odd_sphere(n) * (pi / 2.0) * pi
    return scale * mean, scale * stderr
