"""Center-of-mass normalization by conformal automorphisms.

For a volume-normalized factor u the task is to find phi with

    int x dV_h = 0,         h = phi^*(u^{2/n} theta_0) = v^{2+2/n} theta_0,
    v = (u o phi) |det d phi|^{n/(2n+2)},

which by change of variables is int psi(y) u^{2+2/n}(y) dV(y) = 0 for
psi = phi^{-1}: the residual is evaluated against the fixed measure
u^{2+2/n} dV without any reprojection.  Its zero is the conformal barycenter
of that measure (Douady & Earle, Acta Math. 157 (1986)), unique up to a
unitary rotation.

psi is kept as one U(n+1, 1) matrix H, and a damped Gauss-Newton iteration
moves it by boosts, H <- boost(delta) @ H for delta in C^{n+1}; no chart and
no pole enter.  The residual F = sum dens psi(x) is 2n+2 reals (real parts,
then imaginary parts).  To first order boost(delta) sends y to
y + delta - y (conj(delta) . y), so with y = psi(x), W = sum dens and the
complex symmetric M = sum dens y y^T (no conjugate) the Jacobian at
delta = 0 is exact:

    dF/d Re delta_i = W e_i - M[:, i],    dF/d Im delta_i = i (W e_i + M[:, i]).

Each step solves J step = -F by least squares, which needs no second path
for a rank-deficient J, and backtracks.  The scale eps = 1/||H||_2 does not
change under unitary rotations on either side; for a factor concentrating
with scale eps it is that eps.  v is pulled back when CenteringResult.v is
first read.
"""

from dataclasses import dataclass
from functools import cached_property
from math import isfinite

import numpy as np

from .conformal import pullback_factor
from .constants import check_dimension
from .errors import NoConvergence
from .flow import center_of_mass, density
from .geometry import CRAutomorphism
from .hquad import heisenberg_integral, ipow
from .spectral import sphere_volume_cached

CENTER_TOL = 1e-8
MAX_ITER = 100
VOL_TOL = 1e-6       # relative volume gap a normalized factor may have
MAX_LOG_SCALE = 18.0  # longest boost |t delta| one Gauss-Newton trial takes
SHADOW_TOL = 1e-9    # quadrature tolerance of the chart-side shadow integral


@dataclass
class CenteringResult:
    u: object                 # the centered Field
    phi: CRAutomorphism
    residual: float
    eps: float                # 1/||G||_2 of phi: the rotation-invariant scale
    converged: bool
    iterations: int = 0
    residual_history: tuple = ()

    @cached_property
    def v(self):
        """The normalized factor (u o phi) |det d phi|^{n/(2n+2)}, a Field."""
        return pullback_factor(self.u, self.phi)[0]


def _zero_mass_system(psi, nodes, dens):
    """F = sum dens psi(x) as 2n+2 reals, and its exact Jacobian in
    (Re delta, Im delta) at delta = 0 for psi <- boost(delta) o psi."""
    y = psi.apply_xy(nodes)
    F = dens @ y
    M = y.T @ (dens[:, None] * y)
    W = dens.sum() * np.eye(len(F))
    cols = np.concatenate([W - M, 1j * (W + M)], axis=1)
    return np.concatenate([F.real, F.imag]), np.concatenate([cols.real, cols.imag])


def find_centering(u, max_iter=MAX_ITER):
    """Solve the zero-mass condition by damped Gauss-Newton over boosts.

    Returns the best iterate with converged = False after max_iter instead of
    raising.
    """
    basis = u.basis
    n = basis.n
    uv = u.values
    dens = density(basis, uv)
    gap = abs(dens.sum() - basis.vol) / basis.vol
    if gap > VOL_TOL:
        raise ValueError(f"find_centering: relative volume gap {gap:.3e} "
                         f"exceeds VOL_TOL = {VOL_TOL:g}; volume-normalize u")

    # seed: the better of psi = I and the boost that spreads a bubble of
    # scale max_u^{-1/n} at the mass direction P_hat
    _, P_hat = center_of_mass(u, dens=dens)
    r_guess = max(1.0, float(uv.max()) ** (1.0 / n))
    seeds = [CRAutomorphism(np.eye(n + 2)),
             CRAutomorphism.boost(-np.log(r_guess) * P_hat)]
    candidates = [(s, *_zero_mass_system(s, basis.nodes, dens)) for s in seeds]
    psi, fv, jac = min(candidates, key=lambda c: np.linalg.norm(c[1]))

    res = float(np.linalg.norm(fv))
    history = [res]
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if res < CENTER_TOL:
            break
        step = np.linalg.lstsq(jac, -fv, rcond=None)[0]
        size = np.linalg.norm(step)
        t = 1.0 if size <= MAX_LOG_SCALE else MAX_LOG_SCALE / size
        for _ in range(40):
            boost = CRAutomorphism.boost(t * (step[:n + 1] + 1j * step[n + 1:]))
            trial = CRAutomorphism(boost.G @ psi.G)
            fv_t, jac_t = _zero_mass_system(trial, basis.nodes, dens)
            res_t = float(np.linalg.norm(fv_t))
            if res_t < res * (1.0 - 1e-4 * t):
                psi, fv, jac, res = trial, fv_t, jac_t, res_t
                history.append(res)
                break
            t /= 2.0
        else:
            break               # no descent along the step

    return CenteringResult(
        u=u, phi=psi.inverse(), residual=res, eps=1.0 / np.linalg.norm(psi.G, 2),
        converged=res < CENTER_TOL, iterations=iterations,
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

def ideal_bubble_shadow_gap(eps, n):
    """The bare chart-side integral I(eps) in the shadow expansion of an exact
    bubble, Theta_{n+1} = vol - 2 eps^2 4^{n+1} I(eps).

    The density here omits its 4^{n+1} weight, as does the companion constant
    A3, which is the consistent pairing for the deficit law
    (vol^2 - Theta^2)/eps^2 -> 4 vol A3.  eps must be finite and > 0, and n
    an integer >= 1."""
    if not (isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be finite and > 0, got {eps!r}")
    n = check_dimension(n)
    e2 = eps * eps

    def g(r, tau):
        r2, t2 = r * r, tau * tau
        a, s = 1.0 + e2 * r2, 1.0 + r2
        num = e2 * (r2 * r2 + t2) + r2
        den = a * a + e2 * e2 * t2
        return num / den / ipow(t2 + s * s, n + 1)

    value, _ = heisenberg_integral(g, n, tol=SHADOW_TOL)
    return value


def ideal_bubble_shadow(eps, n):
    """Theta_{n+1}(eps) = vol - 2 eps^2 4^{n+1} I(eps) for an exact bubble,
    the shadow() measured on bubble states."""
    gap = ideal_bubble_shadow_gap(eps, n)       # checks eps and n
    return sphere_volume_cached(n) - 2.0 * eps * eps * 4.0 ** (n + 1) * gap


def shadow_deficit_ratio(eps, n):
    """(vol^2 - Theta(eps)^2) / eps^2 in the bare-density pairing; converges
    monotonically to 4 vol A3 as eps -> 0."""
    gap = ideal_bubble_shadow_gap(eps, n)       # checks eps and n
    vol = sphere_volume_cached(n)
    theta = vol - 2.0 * eps * eps * gap
    return (vol * vol - theta * theta) / (eps * eps)
