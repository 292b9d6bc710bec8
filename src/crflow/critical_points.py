"""Best-effort numerical extraction of MorseData from a polynomial field.

This is plumbing around the exact gate in morse.py: projected-gradient Newton
from grid seeds, dedup of the zoo of converged points, index classification by
tangent-Hessian eigenvalue signs and the sub-Laplacian sign from the spectral
operator.  Degenerate or unresolved points surface as warnings, never as
silently dropped data.
"""

import numpy as np

from .morse import CriticalPoint, MorseData
from .polynomials import PolyCalculus, real_coords

DEDUP_TOL = 1e-6       # distance below which two converged points are one
HESSIAN_TOL = 1e-8     # smallest |Hessian eigenvalue| of a nondegenerate point
LAP_TOL = 1e-10        # smallest |Lap_b f| with a sign
SEED = 0               # random Newton seeds


def _newton_on_sphere(calc, x0, max_iter=60, tol=1e-12):
    """Projected Newton for grad_S f = 0 from x0 (complex coords): each step
    solves the exact sphere Hessian against the tangent gradient."""
    X = real_coords(x0)
    X /= np.linalg.norm(X)
    for _ in range(max_iter):
        x = X[0::2] + 1j * X[1::2]
        g, gn = calc.tangent_gradient(x[None, :])
        if gn[0] < tol:
            return x, True
        Q, H = calc.tangent_hessian(x)
        try:
            d = Q @ np.linalg.lstsq(H, -(Q.T @ g[0]), rcond=1e-10)[0]
        except np.linalg.LinAlgError:
            return x, False
        step = np.linalg.norm(d)
        if step > 0.5:
            d *= 0.5 / step
        X = X + d
        X /= np.linalg.norm(X)
    return X[0::2] + 1j * X[1::2], False


def find_critical_points(f, n_seeds=160):
    """MorseData for the band-limited field f, plus a list of warnings.

    Seeds combine extremal grid values, a spread subsample and random points;
    each converged critical point is classified by its tangent Hessian (index)
    and by the sign of the sub-Laplacian there.
    """
    basis = f.basis
    calc = PolyCalculus(basis.space, basis.monomial_coeffs(f.coeffs))
    fv = f.real_values
    order = np.argsort(fv)
    third = max(4, n_seeds // 3)
    rng = np.random.default_rng(SEED)
    random_pts = rng.normal(size=(third, basis.n + 1)) \
        + 1j * rng.normal(size=(third, basis.n + 1))
    random_pts /= np.linalg.norm(random_pts, axis=1)[:, None]
    seeds = np.concatenate([
        basis.nodes[order[:third]], basis.nodes[order[-third:]],
        basis.nodes[order[:: max(1, len(order) // third)]], random_pts])
    found = []
    warnings = []
    for x0 in seeds:
        x, ok = _newton_on_sphere(calc, x0)
        if not ok:
            continue
        if any(np.linalg.norm(x - y) < DEDUP_TOL for y, *_ in found):
            continue
        eigs = calc.hessian_eigs(x)
        if np.abs(eigs).min() < HESSIAN_TOL:
            warnings.append(f"near-degenerate Hessian at {np.round(x, 4)}")
            continue
        lap = float(calc.sub_laplacian_value(x[None, :])[0])
        if abs(lap) < LAP_TOL:
            warnings.append(f"sub-Laplacian ~ 0 at {np.round(x, 4)}")
            continue
        value = float(calc.value(x[None, :])[0])
        index = int(np.sum(eigs < 0))
        found.append((x, index, -1 if lap < 0 else 1, value))
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
