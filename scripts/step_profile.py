"""Split each evolution step of a benchmark workload into its phases.

    python3 scripts/step_profile.py --workload NAME --seed N

Builds the workload's network and config with the seeded generators of
`perfbench/workloads.py`, runs it to its end with `evolution.run` and
times, per step, the energy and gradient, the velocity solve, the mass
ratio theta-hat and the rest of the step (push-forward, remesh,
annihilation, diagnostics; no snapshot is written).  Prints one JSON
object: each step's node count and seconds per phase, and per phase the
least-squares intercept and slope of its seconds against the node count,
so the fixed per-step cost shows apart from the cost per node, and
`rule_axis`, the axis the run turned its sphere rule to (null if it kept
the configured rule), which tells whether its sweeps took the flat
path.  Wall clock (`time.perf_counter`) in one process; pin BLAS to one
thread (OPENBLAS_NUM_THREADS=1) to match the benchmark.
"""

import argparse
import dataclasses
import importlib.util
import json
import sys
import time
from pathlib import Path

import numpy as np

from dddflow import config, evolution, netio

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PHASES = ("energy_gradient", "velocity", "theta", "rest")
# the names evolution.run reaches each timed phase through
TIMED = {"energy_and_gradient": "energy_gradient", "solve_velocity": "velocity", "mass_ratio": "theta"}


def load_generators():
    """The workload generators, read from perfbench/workloads.py."""
    spec = importlib.util.spec_from_file_location("workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.GENERATORS


def fit(n_nodes, seconds):
    """Least-squares intercept (s) and slope (s per node) of seconds
    against the node count."""
    A = np.stack([np.ones(len(n_nodes)), np.asarray(n_nodes, dtype=float)], axis=1)
    (intercept, slope), *_ = np.linalg.lstsq(A, np.asarray(seconds), rcond=None)
    return {"intercept_s": float(intercept), "slope_s_per_node": float(slope)}


def profile(net_dict, cfg_dict):
    """Per-step phase seconds of one run of the network under the config."""
    cfg = config.loads_config(json.dumps(cfg_dict))
    net = netio.network_from_dict(net_dict)
    ev, model, rule = cfg.kernel_evaluator(), cfg.mobility_model(), cfg.line_rule()
    policy = dataclasses.replace(cfg.step_policy(), snapshot_every=1)
    steps, current = [], dict.fromkeys(PHASES, 0.0)

    def timed(fn, phase):
        def wrapper(network, *args):
            if phase == "energy_gradient":
                current["n_nodes"] = network.n_nodes
            t0 = time.perf_counter()
            out = fn(network, *args)
            current[phase] += time.perf_counter() - t0
            return out

        return wrapper

    stamp = [0.0]

    def close_step(istep, state):
        now = time.perf_counter()
        current["rest"] = now - stamp[0] - sum(current[p] for p in PHASES[:-1])
        steps.append(dict(current))
        current.update(dict.fromkeys(PHASES, 0.0))
        stamp[0] = now

    originals = {name: getattr(evolution, name) for name in TIMED}
    try:
        for name, phase in TIMED.items():
            setattr(evolution, name, timed(originals[name], phase))
        stamp[0] = time.perf_counter()
        state = evolution.run(net, ev, model, rule, policy, snapshot_cb=close_step)
    finally:
        for name, fn in originals.items():
            setattr(evolution, name, fn)
    n = [s["n_nodes"] for s in steps]
    return {
        "termination": state.termination,
        "rule_axis": next((e["axis"] for e in state.events if e["kind"] == "rule_aligned"), None),
        "n_steps": len(steps),
        "total_s": sum(s[p] for s in steps for p in PHASES),
        "fit": {p: fit(n, [s[p] for s in steps]) for p in PHASES},
        "steps": [{"n_nodes": s["n_nodes"], **{f"{p}_s": s[p] for p in PHASES}} for s in steps],
    }


def main(argv=None):
    generators = load_generators()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(generators))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    net, cfg, _ = generators[args.workload](args.seed)
    out = {"workload": args.workload, "seed": args.seed, **profile(net, cfg)}
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
