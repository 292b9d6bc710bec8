"""Best-effort numerical extraction of MorseData from a polynomial field.

This is plumbing around the exact gate in morse.py: projected-gradient Newton
from grid seeds, dedup of the zoo of converged points, index classification by
tangent-Hessian eigenvalue signs and the sub-Laplacian sign from
MonomialSpace.sub_laplacian, all read from PolyCalculus.jet.  Degenerate or
unresolved points surface as warnings, never as silently dropped data.
"""

import numpy as np

from .morse import CriticalPoint, MorseData
from .polynomials import PolyCalculus, real_coords

DEDUP_TOL = 1e-6       # distance below which two converged points are one
HESSIAN_TOL = 1e-8     # smallest |Hessian eigenvalue| of a nondegenerate point
LAP_TOL = 1e-10        # smallest |Lap_b f| with a sign
SEED = 0               # random Newton seeds


def _newton_on_sphere(calc, seeds, max_iter=60, tol=1e-12):
    """Projected Newton for grad_S f = 0 from every seed (rows of complex
    coords) at once, with one jet of the active seeds per step.  Each step
    applies the pseudo-inverse of the exact tangent Hessian (eigenvalues
    below 1e-10 of the largest in modulus are cut) to the tangent gradient,
    capped at length 0.5; a seed stops when its tangent gradient falls below
    tol.  Returns the points and whether each converged within max_iter
    steps."""
    X = real_coords(seeds)
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    ok = np.zeros(len(X), dtype=bool)
    active = np.arange(len(X))
    for _ in range(max_iter):
        x = X[active, 0::2] + 1j * X[active, 1::2]
        jet = calc.jet(x)
        done = np.linalg.norm(jet.tangent, axis=1) < tol
        ok[active[done]] = True
        keep = ~done & np.isfinite(jet.sphere_hessian).all(axis=(1, 2))
        active, g = active[keep], jet.tangent[keep]
        Q, Ht = jet.frame[keep], jet.sphere_hessian[keep]
        if not len(active):
            break
        lam, V = np.linalg.eigh(Ht)
        big = np.abs(lam) > 1e-10 * np.abs(lam).max(axis=1, keepdims=True)
        inv = np.divide(1.0, lam, out=np.zeros_like(lam), where=big)
        rhs = -(Q.mT @ g[:, :, None])
        d = (Q @ (V @ (inv[:, :, None] * (V.mT @ rhs))))[:, :, 0]
        d *= 0.5 / np.maximum(np.linalg.norm(d, axis=1, keepdims=True), 0.5)
        Xa = X[active] + d
        X[active] = Xa / np.linalg.norm(Xa, axis=1, keepdims=True)
    return X[:, 0::2] + 1j * X[:, 1::2], ok


def _first_of_each(points):
    """The points, in order, that lie at least DEDUP_TOL from every point
    kept before them: each cluster of converged points is represented by
    the first one in seed order.  The first point not yet within DEDUP_TOL
    of a kept one is the next to keep, so one distance pass per kept point
    finds them all."""
    keep, free = [], np.ones(len(points), dtype=bool)
    while free.any():
        i = int(np.argmax(free))
        keep.append(i)
        free &= np.linalg.norm(points - points[i], axis=1) >= DEDUP_TOL
    return points[keep]


def find_critical_points(f, n_seeds=160):
    """MorseData for the band-limited field f, plus a list of warnings.

    Seeds combine extremal grid values, a spread subsample and random points;
    each converged critical point is classified by its tangent Hessian (index)
    and by the sign of the sub-Laplacian there.
    """
    basis = f.basis
    calc = PolyCalculus(basis.space, basis.monomial_coeffs(f.coeffs))
    fv = f.values
    order = np.argsort(fv)
    third = max(4, n_seeds // 3)
    rng = np.random.default_rng(SEED)
    random_pts = rng.normal(size=(third, basis.n + 1)) \
        + 1j * rng.normal(size=(third, basis.n + 1))
    random_pts /= np.linalg.norm(random_pts, axis=1)[:, None]
    seeds = np.concatenate([
        basis.nodes[order[:third]], basis.nodes[order[-third:]],
        basis.nodes[order[:: max(1, len(order) // third)]], random_pts])
    points, ok = _newton_on_sphere(calc, seeds)
    unique = _first_of_each(points[ok])
    jet = calc.jet(unique)
    found, warnings = [], []
    for x, eigs, lap, value in zip(unique, np.linalg.eigvalsh(jet.sphere_hessian),
                                   jet.sub_laplacian, jet.value):
        if np.abs(eigs).min() < HESSIAN_TOL:
            warnings.append(f"near-degenerate Hessian at {np.round(x, 4)}")
        elif abs(lap) < LAP_TOL:
            warnings.append(f"sub-Laplacian ~ 0 at {np.round(x, 4)}")
        else:
            found.append((x, int(np.sum(eigs < 0)), -1 if lap < 0 else 1, float(value)))
    euler = sum((-1) ** ind for _, ind, _, _ in found)
    if euler != 0:
        warnings.append(
            f"signed point count {euler} != 0: some critical points were "
            "likely missed; rerun with more seeds")
    pts = tuple(
        CriticalPoint(index=i, laplacian_sign=s, f_value=v,
                      location=tuple(np.asarray(x)))
        for x, i, s, v in found)
    crit_vals = [p.f_value for p in pts]
    data = MorseData(n=basis.n, critical_points=pts,
                     f_max=max([float(fv.max())] + crit_vals),
                     f_min=min([float(fv.min())] + crit_vals))
    return data, warnings
