"""Best-effort numerical extraction of MorseData from a polynomial field.

This is plumbing around the exact gate in morse.py: projected-gradient Newton
from grid seeds, dedup of the zoo of converged points, index classification by
tangent-Hessian eigenvalue signs and the sub-Laplacian sign from the spectral
operator.  Degenerate or unresolved points surface as warnings, never as
silently dropped data.
"""

import numpy as np

from .morse import CriticalPoint, MorseData
from .polynomials import PolyCalculus


def _newton_on_sphere(calc, x0, max_iter=60, tol=1e-12):
    """Projected Newton for grad_S f = 0 from x0 (complex coords)."""
    nc = calc.space.nc
    D = 2 * nc
    X = np.empty(D)
    X[0::2] = x0.real
    X[1::2] = x0.imag
    X /= np.linalg.norm(X)

    def split(Xr):
        return (Xr[0::2] + 1j * Xr[1::2])[None, :]

    h = 1e-6
    for _ in range(max_iter):
        g, gn = calc.tangent_gradient(split(X))
        if gn[0] < tol:
            return split(X)[0], True
        # batched finite-difference Jacobian of the tangential gradient
        offsets = np.concatenate([np.eye(D) * h, -np.eye(D) * h])
        pts = X[None, :] + offsets
        pts /= np.linalg.norm(pts, axis=1)[:, None]
        gall, _ = calc.tangent_gradient(pts[:, 0::2] + 1j * pts[:, 1::2])
        J = (gall[:D] - gall[D:]).T / (2 * h)
        try:
            d = np.linalg.lstsq(J, -g[0], rcond=1e-10)[0]
        except np.linalg.LinAlgError:
            return split(X)[0], False
        d -= np.dot(d, X) * X
        step = np.linalg.norm(d)
        if step > 0.5:
            d *= 0.5 / step
        X = X + d
        X /= np.linalg.norm(X)
    return split(X)[0], False


def find_critical_points(f, n_seeds=160, dedup_tol=1e-6, hessian_tol=1e-8,
                         lap_tol=1e-10, seed=0):
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
    rng = np.random.default_rng(seed)
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
        if any(np.linalg.norm(x - y) < dedup_tol for y, *_ in found):
            continue
        eigs = calc.hessian_eigs(x)
        if np.abs(eigs).min() < hessian_tol:
            warnings.append(f"near-degenerate Hessian at {np.round(x, 4)}")
            continue
        lap = float(calc.sub_laplacian_value(x[None, :])[0])
        if abs(lap) < lap_tol:
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
