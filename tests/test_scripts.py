"""The scripts: the calibration's per-step code against the run it
calibrates, and the benchmark entry on synthetic result files."""

import importlib.util
import json
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


def _result(workload, seed, trace, metrics, rev, failed=0):
    return {
        "workload": workload, "seed": seed, "trace": trace, "attempted": 2, "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
        "provenance": {"git_rev": rev, "src_sha256": rev * 2, "nproc": 2, "numpy": "2.0", "scipy": "1.1"},
    }


def test_bench_entry_folds_parent_and_change(tmp_path):
    script = _load("bench_entry")
    sides = {"parent": (tmp_path / "parent", "aaa", 10.0), "change": (tmp_path / "change", "bbb", 7.0)}
    for side, (directory, rev, wall) in sides.items():
        directory.mkdir()
        for seed in (1, 2, 3, 4):
            res = _result("w", seed, 0, {"wall_s": (wall + seed, "s"), "peak_rss_mb": (100.0, "MB")}, rev)
            (directory / f"w-s{seed}-t0.json").write_text(json.dumps(res))
        traced = {
            "geometry.mass_ratio.s": (wall / 10, "s"),
            "geometry.mass_ratio.calls": (9, "count"),
            "energy_force.pk_force.s": (0.0, "s"),
        }
        (directory / "w-s1-t1.json").write_text(json.dumps(_result("w", 1, 1, traced, rev)))
    out = tmp_path / "BENCH.json"
    assert script.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
                        "--out", str(out)]) == 0
    entry = json.loads(out.read_text())
    assert entry["parent"] == {
        "git_rev": ["aaa"], "src_sha256": ["aaaaaa"], "numpy": ["2.0"], "scipy": ["1.1"], "nproc": [2]
    }
    assert entry["change"]["git_rev"] == ["bbb"]
    w = entry["workloads"]["w"]
    wall = w["end_to_end"]["wall_s"]
    # walls 11..14 and 8..11: medians 12.5 and 9.5, IQR 1.5 (linear quartiles)
    assert wall["parent"] == {"median": 12.5, "iqr": 1.5, "n": 4}
    assert wall["change"] == {"median": 9.5, "iqr": 1.5, "n": 4}
    assert wall["median_change"] == 9.5 / 12.5 - 1.0
    assert (wall["pairs"], wall["pairs_lower"]) == (4, 4)
    assert w["end_to_end"]["peak_rss_mb"]["pairs_lower"] == 0
    assert w["failed"] == {"parent": "0/8", "change": "0/8"}
    assert w["traced_s"] == {"geometry.mass_ratio.s": {"parent": 1.0, "change": 0.7}}
