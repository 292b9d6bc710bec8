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
automorphism of the sphere is a matrix G in U(n+1, 1) acting by a linear
fractional map, with no pole; CRAutomorphism.chart builds the G of
U o cayley_inverse o T_q o D_r o cayley_forward o U^{-1}, and
CRAutomorphism.boost the Hermitian G that moves the ball's origin.  All
point-wise functions below are vectorized over a leading axis of points.
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
    s = np.sum(np.abs(z) ** 2, axis=-1)
    den = 1.0 + s - 1j * tau
    last = (1.0 - s + 1j * tau) / den
    return np.concatenate([2.0 * z / den[..., None], last[..., None]], axis=-1)


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
    return translate_xy(*dilate_xy(z, tau, r), qz, qtau)


def volume_density_xy(z, tau, n):
    """Density of the spherical volume form against dz dtau in the chart:
    K(z, tau) = (4 / ((1 + |z|^2)^2 + tau^2))^{n+1}."""
    if n < 1:
        raise ValueError("n must be >= 1")
    z = np.asarray(z, dtype=complex)
    s = 1.0 + np.sum(np.abs(z) ** 2, axis=-1)
    return (4.0 / (s * s + np.asarray(tau, dtype=float) ** 2)) ** (n + 1)


# ---------------------------------------------------------------------------
# conformal automorphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CRAutomorphism:
    """phi(x) = (A x + b) / (c . x + d) for G = [[A, b], [c, d]] in U(n+1, 1):
    G^* J G = J with J = diag(1, ..., 1, -1), so G maps the cone {(x, 1) :
    |x| = 1} over the sphere to itself.  phi_1 o phi_2 has the matrix G1 @ G2."""
    G: np.ndarray

    def __post_init__(self):
        G = np.asarray(self.G, dtype=complex)
        object.__setattr__(self, "G", G)
        s = np.r_[np.ones(len(G) - 1), -1.0]        # J = diag(s)
        with np.errstate(all="ignore"):     # a non-finite or zero G gives NaN
            err = np.abs(G.conj().T * s @ G - np.diag(s)).max() / np.abs(G).max() ** 2
        if not err <= 1e-12:
            raise ValueError(f"G must be finite, G^* J G = J to 1e-12; error {err:.1e}")

    @property
    def n(self):
        return len(self.G) - 2

    @classmethod
    def chart(cls, U, qz, qtau, r):
        """U o Psi o T_q o D_r o pi o U^{-1}: C sends (x', x_{n+1}, 1) to the
        Siegel coordinates (x', 1 + x_{n+1}, 1 - x_{n+1}) ~ (z, 1, |z|^2 - i tau),
        where T_q and D_r are linear, and diag(U, 1) C^{-1} T_q D_r C diag(U, 1)^*
        has G^* J G = r^2 J."""
        if not r > 0:
            raise NonPositiveScale(f"automorphism scale r must be > 0, got {r}")
        n = len(U) - 1
        C, T, V = (np.eye(n + 2, dtype=complex) for _ in range(3))
        C[n:, n:], V[:-1, :-1] = [[1.0, 1.0], [-1.0, 1.0]], U
        T[:n, n], T[n + 1, :n] = qz, 2.0 * np.conj(qz)
        T[n + 1, n] = np.vdot(qz, qz) - 1j * qtau
        D_r = np.r_[np.full(n, r), 1.0, r * r]
        return cls(V @ np.linalg.solve(C, T * D_r) @ C @ V.conj().T / r)

    @classmethod
    def boost(cls, w):
        """exp [[0, w], [w^*, 0]] for w in C^{n+1}: with rho = |w| and
        e = w / rho, G = [[I + (cosh rho - 1) e e^*, sinh rho e],
        [sinh rho e^*, cosh rho]], the ball automorphism sending 0 to
        tanh(rho) e.  G is Hermitian with ||G||_2 = e^rho."""
        w = np.asarray(w, dtype=complex)
        rho = np.linalg.norm(w)
        e = w / rho if rho > 0 else w
        G = np.eye(len(w) + 1, dtype=complex)
        G[:-1, :-1] += (np.cosh(rho) - 1.0) * np.outer(e, e.conj())
        G[:-1, -1], G[-1, :-1] = np.sinh(rho) * e, np.sinh(rho) * e.conj()
        G[-1, -1] = np.cosh(rho)
        return cls(G)

    def inverse(self):
        """J G^* J, the inverse matrix since G^* J G = J."""
        s = np.r_[np.ones(self.n + 1), -1.0]
        return CRAutomorphism(s[:, None] * self.G.conj().T * s)

    # ---- point-wise action --------------------------------------------

    def _denominator(self, x):
        return x @ self.G[-1, :-1] + self.G[-1, -1]

    def apply_xy(self, x):
        """phi(x) for x of shape (..., n+1)."""
        y = x @ self.G[:-1, :-1].T + self.G[:-1, -1]
        return y / self._denominator(x)[..., None]

    def jacobian_xy(self, x):
        """|det d phi|(x) = |c . x + d|^{-2(n+1)}."""
        return np.abs(self._denominator(x)) ** (-2.0 * (self.n + 1))

    def conformal_exponent_xy(self, x):
        """|det d phi|^{n/(2n+2)}(x) = |c . x + d|^{-n}, the conformal weight."""
        return np.abs(self._denominator(x)) ** -float(self.n)


def concentrating_automorphism(p, eps):
    """The automorphism whose conformal factor is the bubble at p with scale
    eps: the boost by log(eps) p fixes p and -p with Jacobians eps^{-(2n+2)}
    and eps^{2n+2}."""
    if not (0 < eps <= 1):
        raise ValueError("bubble scale must lie in (0, 1]")
    return CRAutomorphism.boost(np.log(eps) * np.asarray(p, dtype=complex))
