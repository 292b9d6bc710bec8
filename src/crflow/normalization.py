"""Center-of-mass normalization by conformal automorphisms.

For a volume-normalized factor u the task is to find phi with

    int x dV_h = 0,         h = phi^*(u^{2/n} theta_0) = v^{2+2/n} theta_0,
    v = (u o phi) |det d phi|^{n/(2n+2)},

which by change of variables is int phi^{-1}(y) u^{2+2/n}(y) dV(y) = 0: the
residual is evaluated against the fixed measure u^{2+2/n} dV without any
reprojection.  The pole of the chart is fixed at the mass direction P_hat
(the chart's point at infinity) by a unitary U, and a damped Gauss-Newton
iteration runs over the translation q and log of the scale r; for a factor
concentrating with scale eps the recovered r is 1/eps.

The grid's chart coordinates (z, tau) = cayley_forward(U^{-1} x) are
computed once.  For params (Re q_z, Im q_z, q_tau, log r) and s = 1/r, phi^{-1}
sends them to

    (Z, T) = D_s T_{-q}(z, tau)
           = (s (z - q_z), s^2 (tau - q_tau - 2 Im q_z . conj z)),

and the residual F = sum dens Psi(Z, T), Psi = (Psi', 2/d - 1), Psi' = 2Z/d,
d = 1 + |Z|^2 - i T, is the zero-mass vector rotated by U^{-1} (same norm).
Its Jacobian is exact: delta d = 2 Re(conj Z . delta Z) - i delta T and
delta Psi = ((2 delta Z - Psi' delta d) / d, -2 delta d / d^2), where
(delta Z, delta T) is (-s e_i, 2 s^2 Im z_i) along Re q_i, (-i s e_i,
-2 s^2 Re z_i) along Im q_i, (0, -s^2) along q_tau and (-Z, -2T) along log r.
Each step solves J step = -F by least squares, which needs no second path
for a rank-deficient J, and backtracks.  The automorphism is built once, at
the end; v is pulled back when CenteringResult.v is first read.
"""

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .conformal import pullback_factor
from .errors import NoConvergence
from .flow import center_of_mass, density
from .geometry import (CRAutomorphism, HeisenbergPoint, cayley_forward_xy,
                       cayley_inverse_xy, delta_xy, unitary_from_north)
from .hquad import heisenberg_integral
from .spectral import sphere_volume_cached

CENTER_TOL = 1e-8
MAX_ITER = 100
VOL_TOL = 1e-6       # relative volume gap a normalized factor may have
SHADOW_TOL = 1e-9    # quadrature tolerance of the chart-side shadow integral


@dataclass
class CenteringResult:
    u: object                 # the centered Field
    phi: CRAutomorphism
    residual: float
    eps: float
    converged: bool
    iterations: int = 0
    residual_history: tuple = ()

    @cached_property
    def v(self):
        """The normalized factor (u o phi) |det d phi|^{n/(2n+2)}, a Field."""
        return pullback_factor(self.u, self.phi)[0]


def _chart(z, tau, params):
    """s = 1/r and (Z, T) = D_s T_{-q}(z, tau) = delta_{D_s(-q), s}(z, tau)
    for params (q, log r)."""
    n = z.shape[1]
    qz = params[:n] + 1j * params[n:2 * n]
    s = float(np.exp(-params[-1]))
    Z, T = delta_xy(z, tau, -s * qz, -s * s * params[2 * n], s)
    return s, Z, T


def _mass_residual(z, tau, dens, params):
    """sum dens Psi(Z, T) as 2n+2 reals (real parts, then imaginary parts)."""
    _, Z, T = _chart(z, tau, params)
    vec = dens @ cayley_inverse_xy(Z, T)
    return np.concatenate([vec.real, vec.imag])


def _mass_jacobian(z, tau, dens, params):
    """The exact derivative of _mass_residual in params, (2n+2) x (2n+2)."""
    s, Z, T = _chart(z, tau, params)
    N, n = Z.shape
    d = 1.0 + np.sum(np.abs(Z) ** 2, axis=1) - 1j * T
    eye = np.eye(n)[:, None, :]
    # (delta Z, delta T) along Re q_i, Im q_i, q_tau and log r
    dZ = np.concatenate([np.broadcast_to(-s * eye, (n, N, n)),
                         np.broadcast_to(-1j * s * eye, (n, N, n)),
                         np.zeros((1, N, n)), -Z[None]])
    dT = np.concatenate([2.0 * s * s * z.imag.T, -2.0 * s * s * z.real.T,
                         np.full((1, N), -s * s), -2.0 * T[None]])
    dd = 2.0 * np.real(np.sum(np.conj(Z) * dZ, axis=2)) - 1j * dT
    dpsi = np.concatenate(
        [(2.0 * dZ - (2.0 * Z / d[:, None]) * dd[..., None]) / d[:, None],
         (-2.0 * dd / d ** 2)[..., None]], axis=2)
    cols = dens @ dpsi
    return np.concatenate([cols.real, cols.imag], axis=1).T


def find_centering(u, max_iter=MAX_ITER):
    """Solve the zero-mass condition by damped Gauss-Newton over (q, log r).

    Returns the best iterate with converged = False after max_iter instead of
    raising.  The pole rotation sends the chart infinity to P_hat.
    """
    basis = u.basis
    n = basis.n
    uv = u.values
    dens = density(basis, uv)
    gap = abs(dens.sum() - basis.vol) / basis.vol
    if gap > VOL_TOL:
        raise ValueError(f"find_centering: relative volume gap {gap:.3e} "
                         f"exceeds VOL_TOL = {VOL_TOL:g}; volume-normalize u")

    P, P_hat = center_of_mass(u)
    if np.linalg.norm(P) > 1e-12:
        U = unitary_from_north(-P_hat)      # chart infinity lands on P_hat
    else:
        U = np.eye(n + 1, dtype=complex)
    z, tau = cayley_forward_xy(basis.nodes @ np.conj(U))
    fvec = partial(_mass_residual, z, tau, dens)
    dim = 2 * n + 2

    # seed: q = 0 and the better of r = 1 / r = max_u^{1/n}
    seeds = [np.zeros(dim)]
    r_guess = max(1.0, float(uv.max()) ** (1.0 / n))
    if r_guess > 1.5:
        s = np.zeros(dim)
        s[-1] = np.log(r_guess)
        seeds.append(s)
    params = min(seeds, key=lambda s: np.linalg.norm(fvec(s)))

    fv = fvec(params)
    res = float(np.linalg.norm(fv))
    history = [res]
    iterations = 0
    for iterations in range(1, max_iter + 1):
        if res < CENTER_TOL:
            break
        J = _mass_jacobian(z, tau, dens, params)
        direction = np.linalg.lstsq(J, -fv, rcond=None)[0]
        t = 1.0
        for _ in range(40):
            trial = params + t * direction
            trial[-1] = np.clip(trial[-1], -18.0, 18.0)
            fv_t = fvec(trial)
            res_t = float(np.linalg.norm(fv_t))
            if res_t < res * (1.0 - 1e-4 * t):
                params, fv, res = trial, fv_t, res_t
                history.append(res)
                break
            t /= 2.0
        else:
            break               # no descent along the step

    r = float(np.exp(params[-1]))
    phi = CRAutomorphism(
        U, HeisenbergPoint(params[:n] + 1j * params[n:2 * n], params[2 * n]), r)
    return CenteringResult(
        u=u, phi=phi, residual=res, eps=1.0 / r, converged=res < CENTER_TOL,
        iterations=iterations, residual_history=tuple(history))


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
    (vol^2 - Theta^2)/eps^2 -> 4 vol A3."""
    e2 = eps * eps

    def g(r, tau):
        num = e2 * (r ** 4 + tau ** 2) + r ** 2
        den = (1.0 + e2 * r * r) ** 2 + e2 * e2 * tau ** 2
        s = 1.0 + r * r
        return num / den / (tau ** 2 + s * s) ** (n + 1)

    value, _ = heisenberg_integral(g, n, tol=SHADOW_TOL)
    return value


def ideal_bubble_shadow(eps, n):
    """Theta_{n+1}(eps) = vol - 2 eps^2 4^{n+1} I(eps) for an exact bubble,
    the shadow() measured on bubble states."""
    vol = sphere_volume_cached(n)
    return vol - 2.0 * eps * eps * 4.0 ** (n + 1) * ideal_bubble_shadow_gap(eps, n)


def shadow_deficit_ratio(eps, n):
    """(vol^2 - Theta(eps)^2) / eps^2 in the bare-density pairing; converges
    monotonically to 4 vol A3 as eps -> 0."""
    vol = sphere_volume_cached(n)
    theta = vol - 2.0 * eps * eps * ideal_bubble_shadow_gap(eps, n)
    return (vol * vol - theta * theta) / (eps * eps)
