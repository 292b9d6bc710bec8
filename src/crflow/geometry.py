"""Cayley transform, Heisenberg group operations and conformal automorphisms.

The sphere S^{2n+1} sits in C^{n+1} as {|x| = 1}.  The Cayley chart maps the
sphere minus the south pole S = (0, ..., 0, -1) onto the Heisenberg group
H^n = C^n x R:

    cayley_forward(x) = ( x' / (1 + x_{n+1}),  Re( i (1 - x_{n+1}) / (1 + x_{n+1}) ) )

with inverse

    cayley_inverse(z, tau) = ( 2 z / d,  (1 - |z|^2 + i tau) / d ),
    d = 1 + |z|^2 - i tau.

H^n carries dilations D_r(z, tau) = (r z, r^2 tau) and twisted translations
T_{(z', t')}(z, tau) = (z + z', tau + t' + 2 Im(z' . conj(z))).  A conformal
automorphism of the sphere is stored as the composition

    phi = U o cayley_inverse o T_q o D_r o cayley_forward o U^{-1}

for a unitary U, a translation q and a scale r > 0.  All point-wise functions
below are vectorized over a leading axis of points.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveScale, PoleSingularity

POLE_TOL = 1e-12


# ---------------------------------------------------------------------------
# raw vectorized maps (points as complex arrays, shape (..., n+1) / (..., n))
# ---------------------------------------------------------------------------

def cayley_forward_xy(x):
    """Chart coordinates (z, tau) of sphere points x, shape (..., n+1)."""
    x = np.asarray(x, dtype=complex)
    d = 1.0 + x[..., -1]
    if np.any(np.abs(d) < POLE_TOL):
        raise PoleSingularity("point within 1e-12 of the chart's south pole")
    z = x[..., :-1] / d[..., None]
    tau = np.real(1j * (1.0 - x[..., -1]) / d)
    return z, tau


def cayley_inverse_xy(z, tau):
    """Sphere points from chart coordinates; always lands off the south pole."""
    z = np.asarray(z, dtype=complex)
    tau = np.asarray(tau, dtype=float)
    den = 1.0 + np.sum(np.abs(z) ** 2, axis=-1) - 1j * tau
    out = np.empty(z.shape[:-1] + (z.shape[-1] + 1,), dtype=complex)
    out[..., :-1] = 2.0 * z / den[..., None]
    out[..., -1] = (1.0 - np.sum(np.abs(z) ** 2, axis=-1) + 1j * tau) / den
    return out


def dilate_xy(z, tau, lam):
    if lam <= 0:
        raise NonPositiveScale(f"dilation scale must be > 0, got {lam}")
    return lam * np.asarray(z, dtype=complex), lam * lam * np.asarray(tau, dtype=float)


def translate_xy(z, tau, qz, qtau):
    """Left translation by (qz, qtau): (z + qz, tau + qtau + 2 Im(qz . conj z))."""
    z = np.asarray(z, dtype=complex)
    twist = 2.0 * np.imag(np.sum(qz * np.conj(z), axis=-1))
    return z + qz, np.asarray(tau, dtype=float) + qtau + twist


def delta_xy(z, tau, qz, qtau, r):
    """delta_{q,r} = T_q o D_r, i.e. (r z + q_z, r^2 tau + q_tau + 2 r Im(q_z . conj z))."""
    zd, td = dilate_xy(z, tau, r)
    return translate_xy(zd, td, qz, qtau)


def volume_density_xy(z, tau, n):
    """Density of the spherical volume form against dz dtau in the chart:
    K(z, tau) = (4 / ((1 + |z|^2)^2 + tau^2))^{n+1}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    z = np.asarray(z, dtype=complex)
    s = 1.0 + np.sum(np.abs(z) ** 2, axis=-1)
    return (4.0 / (s * s + np.asarray(tau, dtype=float) ** 2)) ** (n + 1)


# ---------------------------------------------------------------------------
# unitary helpers
# ---------------------------------------------------------------------------

def unitary_from_north(p):
    """A unitary U with U . north = p (north = (0,...,0,1)), via a phased
    Householder reflector.  Exact for p = +-north."""
    p = np.asarray(p, dtype=complex)
    nc = p.shape[0]
    north = np.zeros(nc, dtype=complex)
    north[-1] = 1.0
    phase = 1.0 if abs(p[-1]) < POLE_TOL else p[-1] / abs(p[-1])
    q = np.conj(phase) * p            # now <north, q> = |p_{n+1}| is real
    w = north - q
    nw = np.real(np.vdot(w, w))
    if nw < POLE_TOL:
        return phase * np.eye(nc, dtype=complex)
    H = np.eye(nc, dtype=complex) - 2.0 * np.outer(w, np.conj(w)) / nw
    return phase * H


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HeisenbergPoint:
    """A point (z, tau) of H^n = C^n x R."""
    z: np.ndarray
    tau: float

    def __post_init__(self):
        z = np.atleast_1d(np.asarray(self.z, dtype=complex))
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "tau", float(self.tau))
        if not (np.all(np.isfinite(z.view(float))) and np.isfinite(self.tau)):
            raise ValueError("HeisenbergPoint components must be finite")

    @property
    def n(self):
        return self.z.shape[0]


def _identity_q(n):
    return HeisenbergPoint(np.zeros(n, dtype=complex), 0.0)


@dataclass(frozen=True)
class CRAutomorphism:
    """phi = U o Psi o T_q o D_r o pi o U^{-1} with U unitary and r > 0."""
    U: np.ndarray
    q: HeisenbergPoint
    r: float

    def __post_init__(self):
        U = np.asarray(self.U, dtype=complex)
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "r", float(self.r))
        if self.r <= 0:
            raise NonPositiveScale("automorphism scale r must be > 0")
        if np.abs(U.conj().T @ U - np.eye(U.shape[0])).max() > 1e-12:
            raise ValueError("U must be unitary within 1e-12")
        if U.shape[0] != self.q.n + 1:
            raise ValueError("U size and q dimension disagree")

    @property
    def n(self):
        return self.q.n

    @classmethod
    def identity(cls, n):
        return cls(np.eye(n + 1, dtype=complex), _identity_q(n), 1.0)

    def inverse(self):
        """(Psi T_q D_r pi)^{-1} = Psi T_{q~} D_{1/r} pi with q~ = D_{1/r}(-q)."""
        qz, qtau = dilate_xy(-self.q.z, -self.q.tau, 1.0 / self.r)
        return CRAutomorphism(self.U, HeisenbergPoint(qz, float(qtau)), 1.0 / self.r)

    # ---- point-wise action --------------------------------------------

    def apply_xy(self, x):
        """phi(x) for x of shape (..., n+1)."""
        xt = x @ np.conj(self.U)          # rows of U^{-1} x  ==  x @ conj(U)
        z, tau = cayley_forward_xy(xt)
        z2, t2 = delta_xy(z, tau, self.q.z, self.q.tau, self.r)
        y = cayley_inverse_xy(z2, t2)
        return y @ self.U.T

    def jacobian_xy(self, x):
        """|det d phi|(x) = r^{2n+2} K(delta_{q,r}(pi(U^{-1} x))) / K(pi(U^{-1} x))."""
        n = self.n
        xt = x @ np.conj(self.U)
        z, tau = cayley_forward_xy(xt)
        z2, t2 = delta_xy(z, tau, self.q.z, self.q.tau, self.r)
        return (self.r ** (2 * n + 2) * volume_density_xy(z2, t2, n)
                / volume_density_xy(z, tau, n))

    def conformal_exponent_xy(self, x):
        """|det d phi|^{n/(2n+2)}(x), the conformal-factor weight."""
        n = self.n
        return self.jacobian_xy(x) ** (n / (2.0 * n + 2.0))


def concentrating_automorphism(p, eps, n):
    """The automorphism whose conformal factor is the bubble at p with scale eps:
    chart centered at p (so -p sits at infinity), dilation by 1/eps."""
    if not (0 < eps <= 1):
        raise ValueError("bubble scale must lie in (0, 1]")
    U = unitary_from_north(np.asarray(p, dtype=complex))
    return CRAutomorphism(U, _identity_q(n), 1.0 / eps)
