"""Scenario configuration: JSON loading, validation, field resolution."""

import json
from dataclasses import dataclass, field, fields

from .errors import ConfigError
from .flow import FlowConfig, check_setting, is_json_number
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


# the flow's scenario keys are FlowConfig's fields
_FLOW_KEYS = {fld.name for fld in fields(FlowConfig)}
_TOP_KEYS = {"n", "J", "f_spec", "u0_spec", "seed"} | _FLOW_KEYS


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

    def at(key):
        for lineno, line in enumerate(text.splitlines(), start=1):
            if f'"{key}"' in line:
                return f"{path}:{lineno}"
        return path

    def fail(key, msg):
        raise ConfigError(f"{at(key)}: key '{key}': {msg}")

    for key in raw:
        if key not in _TOP_KEYS:
            fail(key, "unknown key")

    sc = Scenario()
    if "n" in raw:
        if not is_json_number(raw["n"], int) or raw["n"] < 1:
            fail("n", "must be an integer >= 1")
        sc.n = raw["n"]
    if "J" in raw:
        if not is_json_number(raw["J"], int) or raw["J"] < 1:
            fail("J", "must be an integer >= 1")
        sc.J = raw["J"]
    sc.f_spec = raw.get("f_spec", "constant")
    sc.u0_spec = raw.get("u0_spec", "constant")
    if "seed" in raw:
        if not is_json_number(raw["seed"], int) or raw["seed"] < 0:
            fail("seed", "must be an integer >= 0")
        sc.seed = raw["seed"]

    flow = {key: raw[key] for key in raw if key in _FLOW_KEYS}
    for key, value in flow.items():     # the first bad key in file order
        try:
            check_setting(key, value)
        except ConfigError as exc:
            raise ConfigError(f"{at(key)}: {exc}") from None
    sc.flow = FlowConfig(**flow)
    return sc
