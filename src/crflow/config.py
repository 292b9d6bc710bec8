"""Scenario configuration: JSON loading, validation, field resolution."""

import json
from dataclasses import dataclass, field, fields

from .errors import ConfigError
from .flow import FlowConfig
from .presets import f_from_spec, u0_from_spec
from .spectral import build_basis


@dataclass
class Scenario:
    n: int = 1
    J: int = 8
    f_spec: object = "constant"
    u0_spec: object = "constant"
    seed: int = 0
    flow: FlowConfig = field(default_factory=FlowConfig)

    def build(self):
        basis = build_basis(self.n, self.J)
        f = f_from_spec(basis, self.f_spec)
        u0 = u0_from_spec(basis, self.u0_spec, seed=self.seed)
        return basis, f, u0


# the flow's scenario keys are FlowConfig's fields: name -> annotated type
_FLOW_TYPES = {fld.name: fld.type for fld in fields(FlowConfig)}
_TOP_KEYS = {"n", "J", "f_spec", "u0_spec", "seed"} | _FLOW_TYPES.keys()
# Infinity reads as "never" for t_max, blowup_factor, mass_threshold and
# wall_time_cap; it is no step size, an F2 bound every state meets, and a
# ball radius whose cosine is NaN
_FINITE_KEYS = {"dt_init", "tol_converge", "concentration_rho"}


def _is_number(value, kind=(int, float)):
    """JSON numbers only: bool is an int subclass, but true is not 1, and
    json.loads reads the NaN literal as a float that is no number."""
    return isinstance(value, kind) and not isinstance(value, bool) and value == value


def _line_of_key(text, key):
    for lineno, line in enumerate(text.splitlines(), start=1):
        if f'"{key}"' in line:
            return lineno
    return None


def load_scenario(path):
    """Parse and validate a scenario file; ConfigError carries a line hint."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}:1: top level must be an object")

    def fail(key, msg):
        line = _line_of_key(text, key)
        at = f"{path}:{line}" if line else path
        raise ConfigError(f"{at}: key '{key}': {msg}")

    for key in raw:
        if key not in _TOP_KEYS:
            fail(key, "unknown key")

    sc = Scenario()
    if "n" in raw:
        if not _is_number(raw["n"], int) or raw["n"] < 1:
            fail("n", "must be an integer >= 1")
        sc.n = raw["n"]
    if "J" in raw:
        if not _is_number(raw["J"], int) or raw["J"] < 1:
            fail("J", "must be an integer >= 1")
        sc.J = raw["J"]
    sc.f_spec = raw.get("f_spec", "constant")
    sc.u0_spec = raw.get("u0_spec", "constant")
    if "seed" in raw:
        if not _is_number(raw["seed"], int) or raw["seed"] < 0:
            fail("seed", "must be an integer >= 0")
        sc.seed = raw["seed"]

    flow = FlowConfig()
    for key in [k for k in raw if k in _FLOW_TYPES]:   # first bad key in file order
        value, kind = raw[key], _FLOW_TYPES[key]
        if kind is bool:
            if not isinstance(value, bool):
                fail(key, "must be a boolean")
        elif kind is int:
            if not _is_number(value, int) or value < 1:
                fail(key, "must be a positive integer")
        elif kind is float:
            if not _is_number(value) or value <= 0:
                fail(key, "must be a positive number")
            if key in _FINITE_KEYS and value == float("inf"):
                fail(key, "must be a finite positive number")
        elif value is not None and (not _is_number(value) or value <= 0):
            fail(key, "must be a positive number or null")
        setattr(flow, key, value)
    sc.flow = flow
    return sc
