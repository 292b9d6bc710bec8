"""Prescribed-curvature presets and initial-data builders.

Presets are low-degree polynomials in the ambient coordinates restricted to
the sphere, so their critical structure is computable and their spectral
representation exact.  Real coordinates are X_{2i} = Re x_i, X_{2i+1} = Im x_i.
"""

import numpy as np

from .conformal import bubble, projection_residual
from .errors import ConfigError
from .flow import base_curvature, is_json_number, volume_renormalize
from .polynomials import MonomialSpace, real_coords
from .spectral import Field


def _band_limited(basis, vals, what):
    """The field of exact grid values vals of a polynomial f; ConfigError
    when f has a component above the basis degree J."""
    field = Field.from_values(basis, vals)
    resid = projection_residual(basis, vals, field.values)
    if resid > 1e-10:
        raise ConfigError(f"{what} has degree above J = {basis.J}: projection "
                          f"residual {resid:.1e} exceeds 1e-10; increase J")
    return field


def _number(value, what, kind=(int, float)):
    """value if it is a JSON number of kind (int: an integer); ConfigError
    naming what otherwise, so that a string, a boolean or 1.7 for an
    integer is not read as one."""
    if not is_json_number(value, kind):
        want = "an integer" if kind is int else "a number"
        raise ConfigError(f"{what} must be {want}, not {value!r}")
    return value


def _pair(value, what):
    """The complex number of a JSON pair [re, im] of numbers; ConfigError
    naming what otherwise."""
    if not (isinstance(value, (list, tuple)) and len(value) == 2
            and all(is_json_number(v) for v in value)):
        raise ConfigError(f"{what} must be a pair [re, im] of numbers, not {value!r}")
    return complex(value[0], value[1])


def f_constant(basis):
    return Field.constant(basis, base_curvature(basis.n))


def f_dipole(basis, amplitude=0.25, axis=0):
    """Single-maximum tilt: R_0 (1 + a X_axis); Morse with one max, one min."""
    vals = base_curvature(basis.n) * (1.0 + amplitude * real_coords(basis.nodes)[:, axis])
    return _band_limited(basis, vals, "the dipole preset")


# quadratic-plus-linear landscape on S^3 with two unequal peaks joined by a
# sharp pass: the full critical zoo is eight nondegenerate points, the two
# maxima and the connecting index-2 saddle carry a negative sub-Laplacian
# (count vector m = (2,1,0,0), a solvable system), everything else positive
TWO_PEAK_L = np.array([0.29068875, -0.10438159, -0.00637912, 0.02991882])
TWO_PEAK_Q = np.array([
    [-2.74996697e-02,  9.89799506e-02,  5.85489170e-03, -2.10629963e-05],
    [ 9.89799506e-02, -4.85749394e-01, -6.35225605e-02, -6.53513416e-02],
    [ 5.85489170e-03, -6.35225605e-02, -8.25485436e-02,  2.30135016e-01],
    [-2.10629963e-05, -6.53513416e-02,  2.30135016e-01, -3.28052718e-02]])


def f_two_peak(basis, scale=1.0):
    """Two-peak Morse function used by the concentration experiments (n = 1)."""
    n = basis.n
    if n != 1:
        raise ConfigError("the two-peak preset is defined on S^3 (n = 1)")
    X = real_coords(basis.nodes)
    g = X @ TWO_PEAK_L + np.einsum("ni,ij,nj->n", X, TWO_PEAK_Q, X)
    vals = base_curvature(n) * (1.0 + scale * g)
    if vals.min() <= 0:
        raise ConfigError("two-peak preset lost positivity; reduce scale")
    return _band_limited(basis, vals, "the two-peak preset")


PRESETS = {
    "constant": f_constant,
    "dipole": f_dipole,
    "two-peak-morse": f_two_peak,
}


def f_from_spec(basis, spec):
    """Resolve a preset name or an explicit monomial term list into a Field.

    Term lists are dictionaries {"powers_x": [...], "powers_xbar": [...],
    "coeff": c} with c real or [re, im]; the sum must be real and positive on
    the grid, of degree at most 4 and, on the sphere, at most J.
    """
    if isinstance(spec, str):
        key = spec.strip().lower().replace(" ", "-").replace("_", "-")
        if key == "two-peak":
            key = "two-peak-morse"
        if key not in PRESETS:
            raise ConfigError(f"unknown f preset {spec!r}; "
                              f"choose from {sorted(PRESETS)} or give terms")
        return PRESETS[key](basis)
    if not isinstance(spec, list) or not spec:
        raise ConfigError("f_spec must be a preset name or a term list")
    space = MonomialSpace(basis.n + 1, 4)
    coeffs = np.zeros(space.dim, dtype=complex)
    for pos, term in enumerate(spec):
        what = f"f_spec term {pos}"
        try:
            a, b = (tuple(_number(v, f"{what}: {key} entry", int) for v in term[key])
                    for key in ("powers_x", "powers_xbar"))
            c = term["coeff"]
            coeff = (_pair(c, f"{what}: coeff") if isinstance(c, (list, tuple))
                     else complex(_number(c, f"{what}: coeff")))
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"f_spec term {pos}: {exc}") from exc
        if (a, b) not in space.index:
            raise ConfigError(f"f_spec term {pos}: powers need n+1 nonnegative "
                              "entries each, of total degree at most 4")
        coeffs[space.index[(a, b)]] += coeff
    vals = space.evaluate(coeffs, basis.nodes)
    if np.abs(vals.imag).max() > 1e-9:
        raise ConfigError("f_spec terms do not sum to a real function")
    if vals.real.min() <= 0:
        raise ConfigError("parsed f is not strictly positive on the grid")
    return _band_limited(basis, vals.real, "parsed f")


def u0_from_spec(basis, spec, seed=0):
    """Initial factor: 'constant', a bubble, an explicit perturbation of 1,
    or a seeded random low-degree perturbation; always volume-normalized."""
    if spec is None or spec == "constant" or spec == {"type": "constant"}:
        return Field.constant(basis, 1.0)
    if not isinstance(spec, dict) or "type" not in spec:
        raise ConfigError("u0_spec must be 'constant' or a typed object")
    kind = spec["type"]
    if kind == "constant":
        return Field.constant(basis, 1.0)
    if kind == "bubble":
        try:
            p = np.asarray([_pair(v, f"bubble u0_spec: p[{i}]")
                            for i, v in enumerate(spec["p"])])
            eps = float(_number(spec["eps"], "bubble u0_spec: eps"))
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"bubble u0_spec: {exc}") from exc
        if abs(np.sum(np.abs(p) ** 2) - 1.0) > 1e-9:
            raise ConfigError("bubble center must be a unit vector")
        try:
            u0 = bubble(p, eps, basis)
        except ValueError as exc:
            raise ConfigError(f"bubble u0_spec: {exc}") from exc
        return volume_renormalize(u0)
    if kind == "perturbation":
        vals = np.ones(len(basis.nodes))
        X = real_coords(basis.nodes)
        for pos, term in enumerate(spec.get("terms", [])):
            what = f"perturbation term {pos}"
            try:
                j = _number(term["coordinate"], f"{what}: coordinate", int)
                amp = float(_number(term["amplitude"], f"{what}: amplitude"))
            except (KeyError, TypeError) as exc:
                raise ConfigError(f"perturbation term {pos}: {exc}") from exc
            if not 0 <= j <= 2 * basis.n + 1:
                raise ConfigError(f"perturbation term {pos}: coordinate out of range")
            vals = vals + amp * X[:, j]
        if vals.min() <= 0:
            raise ConfigError("perturbed u0 is not positive")
        return volume_renormalize(Field.from_values(basis, vals))
    if kind == "random":
        amp = float(_number(spec.get("amplitude", 0.05), "random u0_spec: amplitude"))
        rng = np.random.default_rng(seed)
        vals = np.ones(len(basis.nodes))
        X = real_coords(basis.nodes)
        for j in range(2 * basis.n + 2):
            vals = vals + amp * rng.uniform(-1.0, 1.0) * X[:, j]
        pair = rng.integers(0, basis.n + 1, size=2)
        vals = vals + amp * rng.uniform(-1.0, 1.0) * np.real(
            basis.nodes[:, pair[0]] * np.conj(basis.nodes[:, pair[1]]))
        if vals.min() <= 0:
            raise ConfigError("random u0 lost positivity; reduce amplitude")
        return volume_renormalize(Field.from_values(basis, vals))
    raise ConfigError(f"unknown u0_spec type {kind!r}")
