"""Validated JSON configuration with typo-safe key checking.

Unknown keys are rejected with the full key path; every constraint
violation names the offending key.  `dump` emits the canonical form with
all defaults filled in, and load(dump(load(x))) is the identity.
"""

import json
import math
from dataclasses import dataclass

from . import elasticity, kernels, mobility
from .energy_force import LineQuadratureRule
from .errors import ConfigError
from .evolution import StepPolicy

__all__ = ["SimulationConfig", "load_config", "loads_config"]

_DEFAULTS = {
    "epsilon": None,  # required
    "elasticity": {"isotropic": {"lambda": 1.0, "mu": 1.0}},
    "mobility": {"alpha": 1.0, "isotropic": {"m": 1.0}},
    "quadrature": {
        "sphere_polar": 24,
        "sphere_azimuthal": 48,
        "line_order": 4,
    },
    "stepping": {"c1": 0.1, "c2": 0.1, "dt_max": 1.0, "dt_min": 1e-12, "t_end": 1.0},
    "remesh": {"h_min": 0.3, "h_max": 1.0},
    "theta_max": 50.0,
    "annihilation_kappa": 3.0,
    "output": {"every": 10},
}


def _require_keys(data, allowed, path):
    for key in data:
        if key not in allowed:
            raise ConfigError(f"unknown key {path}{key!r}")


def _finite_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _positive(value, key):
    if not (_finite_number(value) and value > 0):
        raise ConfigError(f"{key!r} must be a positive finite number, got {value!r}")
    return float(value)


def _nonneg_int(value, key):
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ConfigError(f"{key!r} must be a nonnegative integer, got {value!r}")
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
        C = elasticity.from_components(block["full"])
        if not elasticity.validate_symmetries(C):
            raise ConfigError("'elasticity.full' violates the stiffness symmetries")
        if C.lh_constant <= 0:
            raise ConfigError(
                f"'elasticity.full' violates the Legendre-Hadamard condition "
                f"(estimated constant {C.lh_constant:.3g} <= 0)"
            )
        return C

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
        s = self.data["stepping"]
        r = self.data["remesh"]
        return StepPolicy(
            c1=s["c1"],
            c2=s["c2"],
            dt_max=s["dt_max"],
            dt_min=s["dt_min"],
            t_end=s["t_end"],
            h_min=r["h_min"],
            h_max=r["h_max"],
            theta_max=self.data["theta_max"],
            kappa=self.data["annihilation_kappa"],
            snapshot_every=self.data["output"]["every"],
        )

    def dump(self):
        return json.dumps(self.data, indent=2, sort_keys=True)


def _validate_elasticity(block):
    _require_keys(block, {"isotropic", "full"}, "elasticity.")
    if ("isotropic" in block) == ("full" in block):
        raise ConfigError("'elasticity' needs exactly one of 'isotropic' or 'full'")
    if "isotropic" in block:
        iso = block["isotropic"]
        _require_keys(iso, {"lambda", "mu"}, "elasticity.isotropic.")
        lam = iso.get("lambda", 1.0)
        mu = _positive(iso.get("mu", 1.0), "elasticity.isotropic.mu")
        if not _finite_number(lam):
            raise ConfigError("'elasticity.isotropic.lambda' must be a finite number")
        if not lam + 2 * mu > 0:
            raise ConfigError("'elasticity.isotropic.lambda' violates lambda + 2*mu > 0")
        return {"isotropic": {"lambda": float(lam), "mu": mu}}
    full = block["full"]
    if not isinstance(full, list) or len(full) != 81 or not all(map(_finite_number, full)):
        raise ConfigError("'elasticity.full' must be a list of 81 finite numbers")
    return {"full": [float(v) for v in full]}


def _validate_mobility(block):
    _require_keys(block, {"alpha", "isotropic", "bcc"}, "mobility.")
    if ("isotropic" in block) == ("bcc" in block):
        raise ConfigError("'mobility' needs exactly one of 'isotropic' or 'bcc'")
    alpha = _positive(block.get("alpha", 1.0), "mobility.alpha")
    if "isotropic" in block:
        iso = block["isotropic"]
        _require_keys(iso, {"m"}, "mobility.isotropic.")
        return {"alpha": alpha, "isotropic": {"m": _positive(iso.get("m", 1.0), "mobility.isotropic.m")}}
    bcc = block["bcc"]
    _require_keys(bcc, {"B_eg", "B_ec", "B_s"}, "mobility.bcc.")
    return {
        "alpha": alpha,
        "bcc": {k: _positive(bcc.get(k, 1.0), f"mobility.bcc.{k}") for k in ("B_eg", "B_ec", "B_s")},
    }


def loads_config(text):
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _require_keys(raw, set(_DEFAULTS), "")
    if "epsilon" not in raw:
        raise ConfigError("missing required key 'epsilon'")
    data = {"epsilon": _positive(raw["epsilon"], "epsilon")}

    data["elasticity"] = _validate_elasticity(raw.get("elasticity", _DEFAULTS["elasticity"]))
    data["mobility"] = _validate_mobility(raw.get("mobility", _DEFAULTS["mobility"]))

    q = dict(_DEFAULTS["quadrature"])
    q_in = raw.get("quadrature", {})
    _require_keys(q_in, set(q), "quadrature.")
    q.update(q_in)
    # the rule constructors state the order conditions
    for key, build in (
        ("sphere_polar", lambda n: kernels.SphericalQuadrature.product_rule(n_polar=n)),
        ("sphere_azimuthal", lambda n: kernels.SphericalQuadrature.product_rule(n_azimuthal=n)),
        ("line_order", LineQuadratureRule),
    ):
        q[key] = _nonneg_int(q[key], f"quadrature.{key}")
        try:
            build(q[key])
        except ValueError as exc:
            raise ConfigError(f"'quadrature.{key}': {exc}") from exc
    data["quadrature"] = q

    s = dict(_DEFAULTS["stepping"])
    s_in = raw.get("stepping", {})
    _require_keys(s_in, set(s), "stepping.")
    s.update(s_in)
    for key in ("c1", "c2", "dt_max", "dt_min", "t_end"):
        s[key] = _positive(s[key], f"stepping.{key}")
    data["stepping"] = s

    r = dict(_DEFAULTS["remesh"])
    r_in = raw.get("remesh", {})
    _require_keys(r_in, set(r), "remesh.")
    r.update(r_in)
    r["h_min"] = _positive(r["h_min"], "remesh.h_min")
    r["h_max"] = _positive(r["h_max"], "remesh.h_max")
    if not r["h_min"] < r["h_max"]:
        raise ConfigError("'remesh.h_min' must be smaller than 'remesh.h_max'")
    data["remesh"] = r

    data["theta_max"] = _positive(raw.get("theta_max", _DEFAULTS["theta_max"]), "theta_max")
    data["annihilation_kappa"] = _positive(
        raw.get("annihilation_kappa", _DEFAULTS["annihilation_kappa"]), "annihilation_kappa"
    )
    out = dict(_DEFAULTS["output"])
    out_in = raw.get("output", {})
    _require_keys(out_in, set(out), "output.")
    out.update(out_in)
    out["every"] = _nonneg_int(out["every"], "output.every") or 1
    data["output"] = out
    return SimulationConfig(data)


def load_config(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return loads_config(text)
