"""Validated JSON configuration with typo-safe key checking.

Unknown keys are rejected with the full key path; every constraint
violation names the offending key.  `dump` emits the canonical form with
all defaults filled in, and load(dump(load(x))) is the identity.
"""

import functools
import json
import math
from dataclasses import dataclass

from . import elasticity, kernels, mobility
from .energy_force import LineQuadratureRule
from .errors import ConfigError
from .evolution import StepPolicy

__all__ = ["SimulationConfig", "load_config", "loads_config"]

_POLICY = StepPolicy()
_DEFAULTS = {
    "epsilon": None,  # required
    "elasticity": {"isotropic": {}},
    "mobility": {"isotropic": {}},
    "quadrature": {
        "sphere_polar": 24,
        "sphere_azimuthal": 48,
        "line_order": 4,
    },
    # the "stepping" and "remesh" keys are StepPolicy's field names
    "stepping": {k: getattr(_POLICY, k) for k in ("c1", "c2", "dt_max", "dt_min", "t_end")},
    "remesh": {k: getattr(_POLICY, k) for k in ("h_min", "h_max")},
    "theta_max": _POLICY.theta_max,
    "annihilation_kappa": _POLICY.kappa,
    "output": {"every": _POLICY.snapshot_every},
}


def _section(given, defaults, path):
    """The given keys of one config section over its defaults.  The section
    must be a JSON object holding only keys that `defaults` has; `path`
    names it in errors ("" for the whole config)."""
    if not isinstance(given, dict):
        raise ConfigError(f"{repr(path) if path else 'config'} must be a JSON object")
    for key in given:
        if key not in defaults:
            raise ConfigError(f"unknown key {path + '.' if path else ''}{key!r}")
    return {**defaults, **given}


def _finite_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _positive(value, key):
    if not (_finite_number(value) and value > 0):
        raise ConfigError(f"{key!r} must be a positive finite number, got {value!r}")
    return float(value)


def _int_at_least(value, key, least):
    if not isinstance(value, int) or isinstance(value, bool) or value < least:
        raise ConfigError(f"{key!r} must be an integer >= {least}, got {value!r}")
    return value


@dataclass(frozen=True)
class SimulationConfig:
    data: dict

    @property
    def epsilon(self):
        return self.data["epsilon"]

    def elasticity_tensor(self):
        block = self.data["elasticity"]
        if "isotropic" in block:
            iso = block["isotropic"]
            return elasticity.make_isotropic(iso["lambda"], iso["mu"])
        return _full_tensor(tuple(block["full"]))

    def mobility_model(self):
        block = self.data["mobility"]
        if "isotropic" in block:
            drag = mobility.IsotropicDrag(m=block["isotropic"]["m"])
        else:
            bcc = block["bcc"]
            drag = mobility.BccDrag(B_eg=bcc["B_eg"], B_ec=bcc["B_ec"], B_s=bcc["B_s"])
        return mobility.MobilityModel(alpha=block["alpha"], drag=drag)

    def kernel_evaluator(self):
        q = self.data["quadrature"]
        rule = kernels.SphericalQuadrature.product_rule(
            q["sphere_polar"], q["sphere_azimuthal"]
        )
        profile = kernels.MollifierProfile(self.epsilon)
        return kernels.KernelEvaluator(self.elasticity_tensor(), profile, rule)

    def line_rule(self):
        return LineQuadratureRule(self.data["quadrature"]["line_order"])

    def step_policy(self):
        d = self.data
        return StepPolicy(
            **d["stepping"],
            **d["remesh"],
            theta_max=d["theta_max"],
            kappa=d["annihilation_kappa"],
            snapshot_every=d["output"]["every"],
        )

    def dump(self):
        return json.dumps(self.data, indent=2, sort_keys=True)


@functools.lru_cache(maxsize=8)
def _full_tensor(values):
    """The validated stiffness of 'elasticity.full': loads_config and every
    evaluator share it, so the Legendre-Hadamard estimate runs once."""
    C = elasticity.from_components(values)
    if not elasticity.validate_symmetries(C):
        raise ConfigError("'elasticity.full' violates the stiffness symmetries")
    if C.lh_constant <= 0:
        raise ConfigError(
            f"'elasticity.full' violates the Legendre-Hadamard condition "
            f"(estimated constant {C.lh_constant:.3g} <= 0)"
        )
    return C


def _validate_elasticity(given):
    block = _section(given, {"isotropic": None, "full": None}, "elasticity")
    if (block["isotropic"] is None) == (block["full"] is None):
        raise ConfigError("'elasticity' needs exactly one of 'isotropic' or 'full'")
    if block["isotropic"] is not None:
        iso = _section(block["isotropic"], {"lambda": 1.0, "mu": 1.0}, "elasticity.isotropic")
        lam = iso["lambda"]
        mu = _positive(iso["mu"], "elasticity.isotropic.mu")
        if not _finite_number(lam):
            raise ConfigError("'elasticity.isotropic.lambda' must be a finite number")
        if not lam + 2 * mu > 0:
            raise ConfigError("'elasticity.isotropic.lambda' violates lambda + 2*mu > 0")
        return {"isotropic": {"lambda": float(lam), "mu": mu}}
    full = block["full"]
    if not isinstance(full, list) or len(full) != 81 or not all(map(_finite_number, full)):
        raise ConfigError("'elasticity.full' must be a list of 81 finite numbers")
    full = [float(v) for v in full]
    _full_tensor(tuple(full))
    return {"full": full}


def _validate_mobility(given):
    block = _section(given, {"alpha": 1.0, "isotropic": None, "bcc": None}, "mobility")
    if (block["isotropic"] is None) == (block["bcc"] is None):
        raise ConfigError("'mobility' needs exactly one of 'isotropic' or 'bcc'")
    alpha = _positive(block["alpha"], "mobility.alpha")
    if block["isotropic"] is not None:
        iso = _section(block["isotropic"], {"m": 1.0}, "mobility.isotropic")
        return {"alpha": alpha, "isotropic": {"m": _positive(iso["m"], "mobility.isotropic.m")}}
    bcc = _section(block["bcc"], {"B_eg": 1.0, "B_ec": 1.0, "B_s": 1.0}, "mobility.bcc")
    return {"alpha": alpha, "bcc": {k: _positive(v, f"mobility.bcc.{k}") for k, v in bcc.items()}}


def loads_config(text):
    try:
        given = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    raw = _section(given, _DEFAULTS, "")
    if "epsilon" not in given:
        raise ConfigError("missing required key 'epsilon'")
    data = {"epsilon": _positive(raw["epsilon"], "epsilon")}
    data["elasticity"] = _validate_elasticity(raw["elasticity"])
    data["mobility"] = _validate_mobility(raw["mobility"])

    q = _section(raw["quadrature"], _DEFAULTS["quadrature"], "quadrature")
    # the rule constructors state the order conditions
    for key, build in (
        ("sphere_polar", lambda n: kernels.SphericalQuadrature.product_rule(n_polar=n)),
        ("sphere_azimuthal", lambda n: kernels.SphericalQuadrature.product_rule(n_azimuthal=n)),
        ("line_order", LineQuadratureRule),
    ):
        q[key] = _int_at_least(q[key], f"quadrature.{key}", 0)
        try:
            build(q[key])
        except ValueError as exc:
            raise ConfigError(f"'quadrature.{key}': {exc}") from exc
    data["quadrature"] = q

    s = _section(raw["stepping"], _DEFAULTS["stepping"], "stepping")
    data["stepping"] = {key: _positive(v, f"stepping.{key}") for key, v in s.items()}
    r = _section(raw["remesh"], _DEFAULTS["remesh"], "remesh")
    r = {key: _positive(v, f"remesh.{key}") for key, v in r.items()}
    if not r["h_min"] < r["h_max"]:
        raise ConfigError("'remesh.h_min' must be smaller than 'remesh.h_max'")
    data["remesh"] = r

    data["theta_max"] = _positive(raw["theta_max"], "theta_max")
    data["annihilation_kappa"] = _positive(raw["annihilation_kappa"], "annihilation_kappa")
    # a surviving loop must be long enough to remesh
    if data["annihilation_kappa"] < 3.0 * r["h_min"]:
        raise ConfigError("'annihilation_kappa' must be at least 3 * 'remesh.h_min'")
    out = _section(raw["output"], _DEFAULTS["output"], "output")
    data["output"] = {"every": _int_at_least(out["every"], "output.every", 1)}
    return SimulationConfig(data)


def load_config(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return loads_config(text)
