"""The scripts: the calibration's per-step code against the run it
calibrates, the benchmark entry on synthetic result files, and the step
profile on a small circle."""

import importlib.util
import json
from pathlib import Path

import numpy as np

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
    # the script advances the run's state with the run's own step, and its
    # velocity bounds are that step's ratios times their constants; its
    # pk_linf also takes the pk_force maximum, so it can only be larger
    script = _load("calibrate_bounds")
    eps = script.EPS
    ev = KN.KernelEvaluator(
        EL.make_isotropic(1.0, 1.0), KN.MollifierProfile(eps), KN.SphericalQuadrature.product_rule(16, 32)
    )
    rule = EF.LineQuadratureRule(2)
    model = MB.MobilityModel(alpha=1.0, drag=MB.IsotropicDrag(m=1.0))
    policy = EV.StepPolicy(t_end=1e9, dt_max=0.5)
    net = SH.single_loop_network(SH.circle_loop(lat, 5 * eps, 32), eps)
    state = EV.EvolutionState(time=0.0, network=net)
    ratios = script.step_ratios(state, ev, model, rule, policy)
    (stepped,) = state.diagnostics
    assert state.time == stepped.dt > 0
    (row,) = EV.step(EV.EvolutionState(time=0.0, network=net), ev, model, rule, policy).diagnostics
    assert stepped == row
    assert ratios["ap_vel"] == row.ratio_ap_vel * BOUND_CONSTANTS["ap_vel"]
    assert ratios["length_rate"] == row.ratio_length_rate * BOUND_CONSTANTS["length_rate"]
    assert ratios["pk_linf"] >= row.ratio_pk_linf * BOUND_CONSTANTS["pk_linf"]
    assert set(ratios) == {"pk_linf", "pk_l2", "ap_vel", "length_rate"}
    # a dt floor appends no row, so the step gives no ratios
    floored = EV.EvolutionState(time=0.0, network=net)
    assert script.step_ratios(floored, ev, model, rule, EV.StepPolicy(dt_min=1.0)) == {}
    assert floored.termination == "dt_floor" and floored.diagnostics == []


def _result(workload, seed, trace, metrics, rev, failed=0, detail=None):
    return {
        "workload": workload, "seed": seed, "trace": trace, "attempted": 2, "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
        "detail": detail or {},
        "provenance": {"git_rev": rev, "src_sha256": rev * 2, "nproc": 2, "numpy": "2.0", "scipy": "1.1"},
    }


def test_bench_entry_folds_parent_and_change(tmp_path):
    script = _load("bench_entry")
    sides = {"parent": (tmp_path / "parent", "aaa", 10.0), "change": (tmp_path / "change", "bbb", 7.0)}
    for side, (directory, rev, wall) in sides.items():
        directory.mkdir()
        for seed in (1, 2, 3, 4):
            # the change's faster fourth run has enough samples for p90
            samples = 52 + 10 * seed + (40 if (side, seed) == ("change", 4) else 0)
            detail = {"step_samples": samples, "step_tail_percentile": 90.0 if samples >= 100 else 75.0}
            res = _result("w", seed, 0, {"wall_s": (wall + seed, "s"), "peak_rss_mb": (100.0, "MB")}, rev,
                          detail=detail)
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
    assert w["step_tail"] == {
        "parent": {"percentiles": [75.0], "samples": [62, 92]},
        "change": {"percentiles": [75.0, 90.0], "samples": [62, 132]},
    }
    assert w["traced_s"] == {"geometry.mass_ratio.s": {"parent": 1.0, "change": 0.7}}


def test_step_profile_splits_each_step_by_phase():
    script = _load("step_profile")
    assert set(script.load_generators()) == {"shrink_circle", "loop_ensemble", "static_eval"}
    # a 12-node circle shrinks to annihilation in a few dozen steps, remeshed to 7 nodes on the way
    eps, n = 0.1, 12
    th = 2.0 * np.pi * np.arange(n) / n
    radius = n * 0.8 * eps / (2.0 * np.pi)
    nodes = np.stack([radius * np.cos(th), radius * np.sin(th), np.zeros(n)], axis=1)
    net = {"format": "ddd-net/1", "epsilon": eps, "lattice": np.eye(3).tolist(),
           "loops": [{"burgers": [0, 0, 1], "nodes": nodes.tolist()}]}
    cfg = {"epsilon": eps, "quadrature": {"sphere_polar": 16, "sphere_azimuthal": 32, "line_order": 2},
           "stepping": {"dt_max": 0.5, "t_end": 1e9}}
    solve = EV.solve_velocity
    out = script.profile(net, cfg)
    assert EV.solve_velocity is solve
    assert out["termination"] == "annihilated"
    steps = out["steps"]
    assert out["n_steps"] == len(steps) > 10
    assert {s["n_nodes"] for s in steps} == {12, 7}
    phases = [f"{p}_s" for p in script.PHASES]
    assert all(s[p] >= 0.0 for s in steps for p in phases)
    assert out["total_s"] == sum(s[p] for s in steps for p in phases)
    assert set(out["fit"]) == set(script.PHASES)
    assert all(set(f) == {"intercept_s", "slope_s_per_node"} for f in out["fit"].values())
