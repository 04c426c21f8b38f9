"""The calibration scripts' per-step code against the run it calibrates."""

import importlib.util
from pathlib import Path

from dddflow import elasticity as EL
from dddflow import energy_force as EF
from dddflow import evolution as EV
from dddflow import kernels as KN
from dddflow import mobility as MB
from dddflow import shapes as SH
from dddflow.calibration import BOUND_CONSTANTS

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_calibrate_bounds_ratios_are_the_monitored_ratios(lat):
    # the script's pk_linf also takes the pk_force maximum, so only the
    # two velocity bounds are the run's ratios times their constants
    script = _load("calibrate_bounds")
    eps = script.EPS
    ev = KN.KernelEvaluator(
        EL.make_isotropic(1.0, 1.0), KN.MollifierProfile(eps), KN.SphericalQuadrature.product_rule(16, 32)
    )
    rule = EF.LineQuadratureRule(2)
    model = MB.MobilityModel(alpha=1.0, drag=MB.IsotropicDrag(m=1.0))
    net = SH.single_loop_network(SH.circle_loop(lat, 5 * eps, 32), eps)
    _, ratios = script.step_ratios(net, ev, model, rule)
    state = EV.step(EV.EvolutionState(time=0.0, network=net), 0.0, ev, model, rule, EV.StepPolicy())
    row = state.diagnostics[-1]
    assert ratios["ap_vel"] == row.ratio_ap_vel * BOUND_CONSTANTS["ap_vel"]
    assert ratios["length_rate"] == row.ratio_length_rate * BOUND_CONSTANTS["length_rate"]
    assert set(ratios) == {"pk_linf", "pk_l2", "ap_vel", "length_rate"}
