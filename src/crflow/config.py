"""Scenario configuration: JSON loading, validation, field resolution."""

import json
from dataclasses import dataclass, field

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
    morse_data: str | None = None      # optional critical-point file to echo
    flow: FlowConfig = field(default_factory=FlowConfig)

    def build(self):
        basis = build_basis(self.n, self.J)
        f = f_from_spec(basis, self.f_spec)
        u0 = u0_from_spec(basis, self.u0_spec, seed=self.seed)
        return basis, f, u0


_FLOW_KEYS = {
    "dt_init", "t_max", "tol_converge", "blowup_factor", "mass_threshold",
    "concentration_rho", "record_every", "enforce_beta", "dt_min",
    "monotonicity_slack", "max_steps", "wall_time_cap", "dt_growth_every",
    "compute_shadow",
}
_TOP_KEYS = {"n", "J", "f_spec", "u0_spec", "seed", "morse_data"} | _FLOW_KEYS


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
        if not isinstance(raw["n"], int) or raw["n"] < 1:
            fail("n", "must be an integer >= 1")
        sc.n = raw["n"]
    if "J" in raw:
        if not isinstance(raw["J"], int) or raw["J"] < 1:
            fail("J", "must be an integer >= 1")
        sc.J = raw["J"]
    sc.f_spec = raw.get("f_spec", "constant")
    sc.u0_spec = raw.get("u0_spec", "constant")
    if "seed" in raw:
        if not isinstance(raw["seed"], int):
            fail("seed", "must be an integer")
        sc.seed = raw["seed"]
    if "morse_data" in raw:
        if raw["morse_data"] is not None and not isinstance(raw["morse_data"], str):
            fail("morse_data", "must be a path string or null")
        sc.morse_data = raw["morse_data"]

    flow = FlowConfig()
    for key in _FLOW_KEYS & set(raw):
        value = raw[key]
        if key in ("record_every", "max_steps", "dt_growth_every"):
            if not isinstance(value, int) or value < 1:
                fail(key, "must be a positive integer")
        elif key in ("enforce_beta", "compute_shadow"):
            if not isinstance(value, bool):
                fail(key, "must be a boolean")
        elif key == "wall_time_cap":
            if value is not None and (not isinstance(value, (int, float)) or value <= 0):
                fail(key, "must be a positive number or null")
        else:
            if not isinstance(value, (int, float)) or value <= 0:
                fail(key, "must be a positive number")
        setattr(flow, key, value)
    sc.flow = flow
    return sc
