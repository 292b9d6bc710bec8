"""Center-of-mass normalization by conformal automorphisms.

For a volume-normalized factor u the task is to find phi with

    int x dV_h = 0,         h = phi^*(u^{2/n} theta_0) = v^{2+2/n} theta_0,
    v = (u o phi) |det d phi|^{n/(2n+2)},

which by change of variables is int phi^{-1}(y) u^{2+2/n}(y) dV(y) = 0: the
residual is evaluated against the fixed measure u^{2+2/n} dV without any
reprojection.  The pole of the chart is fixed at the mass direction P_hat
(the chart's point at infinity), and a damped Newton iteration runs over the
translation q and log of the scale r; for a factor concentrating with scale
eps the recovered r is 1/eps.
"""

from dataclasses import dataclass

import numpy as np

from .conformal import pullback_factor
from .errors import NoConvergence
from .flow import center_of_mass, density
from .geometry import CRAutomorphism, HeisenbergPoint, unitary_from_north
from .hquad import heisenberg_integral
from .spectral import sphere_volume_cached

CENTER_TOL = 1e-8
MAX_ITER = 100
COND_LIMIT = 1e8
VOL_TOL = 1e-6       # relative volume gap a normalized factor may have


@dataclass
class CenteringResult:
    phi: CRAutomorphism
    v: object                 # Field
    residual: float
    eps: float
    converged: bool
    iterations: int = 0
    residual_history: tuple = ()


def _automorphism(U, params, n):
    qz = params[:n] + 1j * params[n:2 * n]
    qt = params[2 * n]
    r = float(np.exp(params[2 * n + 1]))
    return CRAutomorphism(U, HeisenbergPoint(qz, qt), r)


def _residual(U, params, n, nodes, dens):
    phi_inv = _automorphism(U, params, n).inverse()
    mapped = phi_inv.apply_xy(nodes)
    vec = dens @ mapped
    return np.concatenate([vec.real, vec.imag]), vec


def find_centering(u, tol=CENTER_TOL, max_iter=MAX_ITER):
    """Solve the zero-mass condition by damped Newton over (q, log r).

    Returns the best iterate with converged = False after max_iter instead of
    raising.  The pole rotation sends the chart infinity to P_hat.
    """
    basis = u.basis
    n = basis.n
    uv = u.real_values
    dens = density(basis, uv)
    total = dens.sum()
    if abs(total - basis.vol) > VOL_TOL * basis.vol:
        raise ValueError("find_centering expects a volume-normalized factor")

    P, P_hat = center_of_mass(u)
    if np.linalg.norm(P) > 1e-12:
        U = unitary_from_north(-P_hat)      # chart infinity lands on P_hat
    else:
        U = np.eye(n + 1, dtype=complex)

    dim = 2 * n + 2

    def fvec(params):
        return _residual(U, params, n, basis.nodes, dens)[0]

    # seed: q = 0 and the better of r = 1 / r = max_u^{1/n}
    seeds = [np.zeros(dim)]
    r_guess = max(1.0, float(uv.max()) ** (1.0 / n))
    if r_guess > 1.5:
        s = np.zeros(dim)
        s[-1] = np.log(r_guess)
        seeds.append(s)
    params = min(seeds, key=lambda s: np.linalg.norm(fvec(s)))

    def scale_component(rho):
        """Residual component along P_hat as a function of log r (q fixed)."""
        pr = params.copy()
        pr[-1] = rho
        _, vec = _residual(U, pr, n, basis.nodes, dens)
        return float(np.real(np.vdot(P_hat, vec)))

    def bisect_scale():
        """Bisection in log r along the P_hat axis; returns a new log r or None."""
        rho0 = params[-1]
        grid = rho0 + np.linspace(-4.0, 4.0, 33)
        vals = [scale_component(r) for r in grid]
        for a, b, va, vb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
            if va == 0.0:
                return a
            if va * vb < 0:
                lo, hi, vlo = a, b, va
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    vm = scale_component(mid)
                    if vlo * vm <= 0:
                        hi = mid
                    else:
                        lo, vlo = mid, vm
                return 0.5 * (lo + hi)
        return None

    fv = fvec(params)
    res = float(np.linalg.norm(fv))
    history = [res]
    iterations = 0
    h = 1e-6
    for iterations in range(1, max_iter + 1):
        if res < tol:
            break
        J = np.empty((dim, dim))
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = h
            J[:, j] = (fvec(params + e) - fvec(params - e)) / (2 * h)
        direction = None
        if np.linalg.cond(J) < COND_LIMIT:
            try:
                direction = np.linalg.solve(J, -fv)
            except np.linalg.LinAlgError:
                direction = None
        if direction is None:
            rho = bisect_scale()
            if rho is None:
                break
            direction = np.zeros(dim)
            direction[-1] = rho - params[-1]
        accepted = False
        t = 1.0
        for _ in range(40):
            trial = params + t * direction
            trial[-1] = np.clip(trial[-1], -18.0, 18.0)
            fv_t = fvec(trial)
            res_t = float(np.linalg.norm(fv_t))
            if res_t < res * (1.0 - 1e-4 * t):
                params, fv, res = trial, fv_t, res_t
                history.append(res)
                accepted = True
                break
            t /= 2.0
        if not accepted:
            break
    else:
        iterations = max_iter

    phi = _automorphism(U, params, n)
    v, _ = pullback_factor(u, phi)
    return CenteringResult(
        phi=phi, v=v, residual=float(res), eps=1.0 / phi.r,
        converged=bool(res < tol), iterations=iterations,
        residual_history=tuple(history))


def shadow(u, result=None):
    """Theta = int phi dV_theta0 for the centering automorphism of u.

    Returns (Theta, Theta_hat, eps); Theta_hat is Theta itself when |Theta|
    is negligible.  Raises NoConvergence when the centering did not converge.
    """
    basis = u.basis
    if result is None:
        result = find_centering(u)
    if not result.converged:
        raise NoConvergence(
            f"centering stalled at residual {result.residual:.3e}")
    mapped = result.phi.apply_xy(basis.nodes)
    theta = basis.weights @ mapped
    norm = np.linalg.norm(theta)
    theta_hat = theta / norm if norm > 1e-12 else theta
    return theta, theta_hat, result.eps


# ---------------------------------------------------------------------------
# continuum shadow of an exact bubble (chart-side quadrature)
# ---------------------------------------------------------------------------

def ideal_bubble_shadow_gap(eps, n, tol=1e-9, full_density=False):
    """The chart-side integral I(eps) in the shadow expansion of an exact
    bubble, Theta_{n+1} = vol - 2 eps^2 I(eps).

    With full_density=True the chart density carries its 4^{n+1} weight and
    the result reproduces the measured shadow of an actual bubble state.
    With full_density=False both the density and the companion constant A3
    use the bare normalization, the consistent pairing for the deficit law
    (vol^2 - Theta^2)/eps^2 -> 4 vol A3; the two conventions differ exactly
    by 4^{n+1}."""
    e2 = eps * eps
    scale = 4.0 ** (n + 1) if full_density else 1.0

    def g(r, tau):
        num = e2 * (r ** 4 + tau ** 2) + r ** 2
        den = (1.0 + e2 * r * r) ** 2 + e2 * e2 * tau ** 2
        s = 1.0 + r * r
        return scale * num / den / (tau ** 2 + s * s) ** (n + 1)

    value, _ = heisenberg_integral(g, n, tol=tol)
    return value


def ideal_bubble_shadow(eps, n, tol=1e-9, full_density=True):
    """Theta_{n+1}(eps) = vol - 2 eps^2 I(eps) for an exact bubble.

    The default full-density normalization matches shadow() measured on
    bubble states."""
    vol = sphere_volume_cached(n)
    gap = ideal_bubble_shadow_gap(eps, n, tol=tol, full_density=full_density)
    return vol - 2.0 * eps * eps * gap


def shadow_deficit_ratio(eps, n, tol=1e-9):
    """(vol^2 - Theta(eps)^2) / eps^2 in the bare-density pairing; converges
    monotonically to 4 vol A3 as eps -> 0."""
    vol = sphere_volume_cached(n)
    theta = ideal_bubble_shadow(eps, n, tol=tol, full_density=False)
    return (vol * vol - theta * theta) / (eps * eps)
