"""Fields under conformal automorphisms: pullbacks and bubble factors."""

import numpy as np

from .errors import TruncationLoss
from .geometry import concentrating_automorphism
from .spectral import Field

BUBBLE_RESIDUAL_TOL = 0.05   # relative L2 projection residual


def compose_values(u, phi):
    """Real grid values of u o phi, by exact polynomial evaluation at phi(nodes)."""
    basis = u.basis
    mapped = phi.apply_xy(basis.nodes)
    return basis.space.evaluate(basis.monomial_coeffs(u.coeffs), mapped).real


def pullback_factor(u, phi):
    """The transformed conformal factor v = (u o phi) |det d phi|^{n/(2n+2)}.

    Returns (v: Field, exact_values): the projection and the pre-projection
    grid values (useful where the projection residual matters).
    """
    vals = compose_values(u, phi) * phi.conformal_exponent_xy(u.basis.nodes)
    return Field.from_values(u.basis, vals), vals


def projection_residual(basis, values, projected=None):
    """Relative L2 (quadrature) distance between values and their projection."""
    if projected is None:
        projected = basis.synthesize(basis.project(values))
    num = basis.quad((values - projected) ** 2)
    den = basis.quad(values ** 2)
    return float(np.sqrt(max(num, 0.0) / den))


def bubble(p, eps, basis, residual_tol=BUBBLE_RESIDUAL_TOL):
    """Standard bubble conformal factor concentrated at p with scale eps.

    Point values are |det d phi|^{n/(2n+2)} for the concentrating automorphism;
    the exact factor has unit critical-volume by change of variables, and the
    spectral projection keeps that within the truncation residual, which is
    checked against residual_tol.
    """
    if len(p) != basis.n + 1:
        raise ValueError(f"center needs n+1 = {basis.n + 1} coordinates, got {len(p)}")
    phi = concentrating_automorphism(p, eps)
    vals = phi.conformal_exponent_xy(basis.nodes)
    field = Field.from_values(basis, vals)
    resid = projection_residual(basis, vals, field.values)
    if resid > residual_tol:
        raise TruncationLoss(
            f"bubble(eps={eps}) projection residual {resid:.3e} exceeds "
            f"{residual_tol:.1e}; increase J or eps")
    return field
