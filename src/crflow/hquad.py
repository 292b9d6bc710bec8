"""Adaptive quadrature over the Heisenberg group after radial reduction.

Every integral over H^n = C^n x R of a function depending only on (|z|, tau)
reduces to a 2D integral

    integral = omega_{2n-1} * int_0^inf int_{-inf}^{inf} g(r, tau) r^{2n-1} dtau dr

with omega_{2n-1} = 2 pi^n / (n-1)! the area of the unit sphere in C^n.  The
driver reparametrizes r = tan(phi), tau = (1 + r^2) tan(theta), which plays
the role of a chart-adapted proposal: for every integrand in this package the
transformed function is bounded on the rectangle [0, pi/2) x (-pi/2, pi/2)
and vanishes at the far edge.  The phi-domain is truncated explicitly where a
probed majorant bound falls below half of the error budget, and the boxed
integral runs a globally adaptive tensor Gauss rule with an embedded two-rule
error estimate: each round splits the worst panels that carry a fixed share of
the estimate and evaluates all their children in blocked, vectorized calls.
"""

from math import factorial, pi

import numpy as np

from .errors import NonConvergentQuadrature

_GL_CACHE = {}
MAX_PANELS = 12000     # panel budget of the adaptive rule
M_LO, M_HI = 7, 11     # Gauss points per axis of the embedded rule pair
MARK_FRACTION = 0.5    # share of the error estimate each round refines
BLOCK_PANELS = 64      # panels per integrand call: bounds its temporaries


def _gl(mpts):
    if mpts not in _GL_CACHE:
        _GL_CACHE[mpts] = np.polynomial.legendre.leggauss(mpts)
    return _GL_CACHE[mpts]


def surface_area_odd_sphere(n):
    """Area of S^{2n-1} in C^n = R^{2n}."""
    return 2.0 * pi ** n / factorial(n - 1)


def ipow(x, k, out=None):
    """x ** k for an integer k >= 1 by k - 1 multiplications, into out (a new
    array when None; it must not share memory with x).  np.power calls pow()
    per element, several times the cost of a product; the two agree to a few
    units in the last place."""
    if k == 1:
        return np.positive(x, out=out)
    out = np.multiply(x, x, out=out)
    for _ in range(k - 2):
        out *= x
    return out


def _panel_rule(G, x0, x1, y0, y1, mpts):
    """Tensor Gauss rule with mpts points per axis on each panel
    [x0,x1] x [y0,y1] (arrays), BLOCK_PANELS panels per call of G."""
    xg, w = _gl(mpts)
    hx, hy = (x1 - x0) / 2.0, (y1 - y0) / 2.0
    X = x0[:, None] + hx[:, None] * (xg + 1.0)
    Y = y0[:, None] + hy[:, None] * (xg + 1.0)
    sums = np.empty(len(x0))
    for lo in range(0, len(x0), BLOCK_PANELS):
        blk = slice(lo, lo + BLOCK_PANELS)
        XX, YY = np.broadcast_arrays(X[blk, :, None], Y[blk, None, :])
        vals = G(XX.ravel(), YY.ravel()).reshape(-1, mpts)
        sums[blk] = (vals @ w).reshape(-1, mpts) @ w
    return hx * hy * sums


def adaptive_box(G, x0, x1, y0, y1, tol):
    """Adaptive 2D integral of G over [x0,x1] x [y0,y1].

    Per-panel error is the difference between tensor Gauss rules with M_LO
    and M_HI points per axis.  Each round marks the smallest set of worst
    panels that carries MARK_FRACTION of the summed estimate (bulk, or
    Doerfler, marking) and splits each marked panel in four, until the
    summed estimate is below tol or MAX_PANELS panels are live.  The
    children of a round are evaluated together.
    Returns (value, error_estimate).
    """
    def evaluate(box):
        fine = _panel_rule(G, *box, M_HI)
        return fine, np.abs(fine - _panel_rule(G, *box, M_LO))

    box = [np.array([v], dtype=float) for v in (x0, x1, y0, y1)]
    fine, err = evaluate(box)
    while True:
        err_total = float(err.sum())
        if err_total <= tol or len(err) >= MAX_PANELS:
            return float(fine.sum()), err_total
        order = np.argsort(-err)
        n_mark = int(np.searchsorted(np.cumsum(err[order]),
                                     MARK_FRACTION * err_total)) + 1
        # a split adds three panels: stop at the budget as one split at a
        # time would
        n_mark = min(n_mark, (MAX_PANELS - len(err) + 2) // 3)
        marked = np.zeros(len(err), dtype=bool)
        marked[order[:n_mark]] = True
        a, b, c, d = (v[marked] for v in box)
        xm, ym = (a + b) / 2.0, (c + d) / 2.0
        children = (np.concatenate((a, xm, a, xm)), np.concatenate((xm, b, xm, b)),
                    np.concatenate((c, c, ym, ym)), np.concatenate((ym, ym, d, d)))
        child_fine, child_err = evaluate(children)
        box = [np.concatenate((v[~marked], w)) for v, w in zip(box, children)]
        fine = np.concatenate((fine[~marked], child_fine))
        err = np.concatenate((err[~marked], child_err))


def _transformed(g, n):
    """G(phi, theta) = g(r, tau) r^{2n-1} (1+r^2) sec^2(theta) sec^2(phi)."""
    def G(phi, theta):
        r = np.tan(phi)
        sec2_phi = 1.0 + r * r
        t = np.tan(theta)
        sec2_theta = 1.0 + t * t
        tau = sec2_phi * t
        vals = np.asarray(g(r, tau), dtype=float)
        return vals * ipow(r, 2 * n - 1) * sec2_phi * sec2_theta * sec2_phi
    return G


def _phi_cutoff(G, tol, probes=33):
    """Truncation angle: beyond it the probed majorant bound of the remaining
    strip area falls below tol.  Raises if the integrand does not decay."""
    thetas = np.linspace(-pi / 2.0 * (1 - 1e-9), pi / 2.0 * (1 - 1e-9), probes)

    def strip_bound(phi):
        vals = np.abs(G(np.full(probes, phi), thetas))
        return 8.0 * float(vals.max()) * (pi / 2.0 - phi) * pi

    phi = pi / 4.0
    for _ in range(60):
        gap = pi / 2.0 - phi
        if strip_bound(phi) <= tol and strip_bound(phi + 0.5 * gap) <= tol:
            return phi
        phi = pi / 2.0 - 0.5 * gap
        if gap < 1e-12:
            break
    raise NonConvergentQuadrature(
        "integrand does not decay; tail bound never met")


def heisenberg_integral(g, n, tol=1e-9):
    """omega_{2n-1} * int int g(r, tau) r^{2n-1} dtau dr over r >= 0, tau in R.

    g must be vectorized over numpy arrays and absolutely integrable against
    the radial weight; divergence or an error estimate above tol surfaces as
    NonConvergentQuadrature.
    Returns (value, error_estimate).
    """
    omega = surface_area_odd_sphere(n)
    G = _transformed(g, n)
    phi_max = _phi_cutoff(G, 0.5 * tol / omega)
    half = pi / 2.0
    value, err = adaptive_box(G, 0.0, phi_max, -half, half, 0.5 * tol / omega)
    value *= omega
    err = err * omega + 0.5 * tol
    if err > max(tol * 8.0, 1e-13 * abs(value)):
        raise NonConvergentQuadrature(
            f"error estimate {err:.3e} above tolerance {tol:.3e}")
    return value, err


def sphere_volume(n, tol=1e-11):
    """Total volume of (S^{2n+1}, theta_0), defined as the Heisenberg integral
    of the chart density K(z, tau); equals 4 pi^{n+1} / n!."""
    def g(r, tau):
        s = 1.0 + r * r
        return (4.0 / (s * s + tau * tau)) ** (n + 1)

    value, _ = heisenberg_integral(g, n, tol=tol)
    return value
