"""One workload in a fresh process: set-up, timed operations, gates.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``.  It
writes one JSON result to ``--out`` and prints nothing else of use.

    python3 perfbench/worker.py --spec SPEC --out OUT --launch EPOCH
        [--seconds S] [--setup-only] [--trace]

``--launch`` is the wall-clock time the parent started this process, so
``setup_s`` covers interpreter start and the package import.
"""

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracer import Tracer, bound_argument, per_call_overhead  # noqa: E402


def _network_nodes(fn, args, kwargs, result):
    try:
        return bound_argument(fn, args, kwargs, "network").n_nodes
    except (KeyError, TypeError, AttributeError):
        return None


def _chunks(fn, args, kwargs, result):
    try:
        n_items = bound_argument(fn, args, kwargs, "n_items")
        return math.ceil(n_items / bound_argument(fn, args, kwargs, "chunk"))
    except (KeyError, TypeError):
        return None


def _text_bytes(fn, args, kwargs, result):
    return len(result.encode())


# (module, attribute pattern, span name, size): see Tracer.install.
TRACE_TARGETS = [
    ("config", "load_config", None, None),
    ("config", "SimulationConfig.kernel_evaluator", "config.kernel_evaluator", None),
    ("config", "SimulationConfig.elasticity_tensor", "elasticity.tensor", None),
    ("kernels", "KernelEvaluator.__init__", "kernels.KernelEvaluator", None),
    ("kernels", "eval_*_many", None, None),
    ("netio", "load_network", None, None),
    ("netio", "save_network", None, None),
    ("netio", "diagnostics_csv", None, None),
    ("netio", "write_events", None, None),
    ("netio", "energy_csv", None, None),
    ("netio", "forces_csv", None, None),
    ("netio", "kernel_table_csv", None, _text_bytes),
    ("energy_force", "*", None, _network_nodes),
    ("evolution", "run", None, None),
    ("evolution", "step", None, None),
    ("evolution", "solve_velocity", None, None),
    ("geometry", "mass", None, None),
    ("geometry", "mass_ratio", None, None),
    ("geometry", "pushforward", None, None),
    ("geometry", "remesh", None, None),
    ("mobility", "drag_matrix", None, None),
    ("parallel", "map_reduce", None, _chunks),
]


def layer_metrics(summary, op_wall, line_order, n_sphere, state_counts, overhead_s):
    """Per-layer metrics of one traced operation (plus its set-up)."""

    def rec(name):
        return summary.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": [], "sizes": []})

    def median_ms(name):
        d = rec(name)["durations"]
        return statistics.median(d) * 1e3 if d else 0.0

    eg = rec("energy_force.energy_and_gradient")
    steps = state_counts["steps"]
    # node counts per pair-sum call: per step on evolution, per call on static_eval
    sizes = eg["sizes"] or rec("energy_force.energy_line")["sizes"] + rec("energy_force.pk_force")["sizes"]
    m = {
        "energy_force.energy_and_gradient.calls": eg["calls"],
        "energy_force.energy_and_gradient.s": eg["s"],
        "energy_force.energy_and_gradient.self_s": eg["self_s"],
        "energy_force.energy_and_gradient.ms_p50": median_ms("energy_force.energy_and_gradient"),
        "energy_force.n_gauss.mean": statistics.mean(eg["sizes"]) * line_order if eg["sizes"] else 0.0,
        "energy_force.energy_line.s": rec("energy_force.energy_line")["s"],
        "energy_force.pk_force.s": rec("energy_force.pk_force")["s"],
        "energy_force.energy_surface.s": rec("energy_force.energy_surface")["s"],
        "geometry.n_nodes.mean": statistics.mean(sizes) if sizes else 0.0,
        "geometry.n_nodes.max": max(sizes) if sizes else 0,
    }
    for name, stats in (
        ("geometry.mass_ratio", ("calls", "s", "self_s")),
        ("geometry.remesh", ("calls", "s")),
        ("geometry.pushforward", ("s",)),
        ("geometry.mass", ("calls",)),
        ("evolution.solve_velocity", ("calls", "s")),
        ("mobility.drag_matrix", ("calls", "s")),
        ("evolution.step", ("self_s",)),
        ("kernels.KernelEvaluator", ("s",)),
        ("elasticity.tensor", ("s",)),
        ("config.load_config", ("s",)),
        ("netio.load_network", ("s",)),
        ("netio.kernel_table_csv", ("s",)),
        ("netio.save_network", ("calls", "s")),
        ("netio.diagnostics_csv", ("s",)),
        ("netio.write_events", ("s",)),
        ("parallel.map_reduce", ("calls", "s")),
    ):
        for stat in stats:
            m[f"{name}.{stat}"] = rec(name)[stat]
    m["evolution.solve_velocity.calls_per_step"] = (
        rec("evolution.solve_velocity")["calls"] / steps if steps else 0.0
    )
    m["evolution.steps"] = steps
    m["evolution.remesh_events"] = state_counts["remesh_events"]
    m["evolution.annihilation_events"] = state_counts["annihilation_events"]
    m["kernels.n_sphere"] = n_sphere
    m["kernels.eval_many.s"] = sum(
        r["s"] for n, r in summary.items() if n.startswith("kernels.eval_") and n.endswith("_many")
    )
    m["netio.kernel_table_csv.bytes"] = sum(rec("netio.kernel_table_csv")["sizes"])
    m["parallel.map_reduce.chunks"] = sum(rec("parallel.map_reduce")["sizes"])
    op = rec("bench.op")
    n_spans = sum(r["calls"] for n, r in summary.items() if n != "bench.op")
    m["trace.overhead_frac"] = n_spans * overhead_s / op_wall
    m["trace.unattributed_frac"] = op["self_s"] / op["s"] if op["s"] else 0.0
    return m


def _counts(state):
    kinds = [e["kind"] for e in state.events]
    return {
        "steps": len(state.diagnostics),
        "remesh_events": kinds.count("remesh"),
        "annihilation_events": kinds.count("annihilation"),
    }


def _versions():
    import numpy
    import scipy

    blas = "unknown"
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    return {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas}


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--launch", type=float, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()
    with open(args.spec) as fh:
        spec = json.load(fh)
    workload = spec["workload"]

    import dddflow

    src = os.path.realpath(spec["src"])
    if not os.path.realpath(dddflow.__file__).startswith(src + os.sep):
        raise SystemExit(f"dddflow imported from {dddflow.__file__}, not from {src}")
    import ops

    tracer = None
    if args.trace:
        run_id = f"{spec['run_id']}-threads{os.environ.get('DDD_THREADS', '')}"
        tracer = Tracer(run_id)
        tracer.install("dddflow", TRACE_TARGETS)
    s = ops.setup(spec["config"], spec["network"])
    setup_s = time.time() - args.launch
    if args.setup_only:
        _dump(args.out, {"setup_s": setup_s})
        return

    refs = None
    if workload == "static_eval":
        with open(os.path.join(HERE, "static_refs.json")) as fh:
            refs = json.load(fh)
    op = ops.static_eval if workload == "static_eval" else ops.simulate
    walls, samples, failures = [], [], []
    counts = {"steps": 0, "remesh_events": 0, "annihilation_events": 0}
    begin = time.perf_counter()
    while True:
        out_dir = os.path.join(spec["work"], f"op{len(walls)}")
        os.makedirs(out_dir)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                wall, step_ms, result = op(s, out_dir)
            else:
                with tracer.span("bench.op"):
                    wall, step_ms, result = op(s, out_dir)
            samples += step_ms
            fails = ops.check(workload, result, spec["meta"], refs)
            if workload != "static_eval":
                counts = _counts(result)
        except Exception:  # a raised error is a failed operation, not a crash
            wall = time.perf_counter() - t0
            fails = [traceback.format_exc()]
        shutil.rmtree(out_dir)
        walls.append(wall)
        failures.append(fails)
        if tracer is not None or time.perf_counter() - begin >= args.seconds:
            break

    out = {
        "setup_s": setup_s,
        "walls": walls,
        "samples_ms": samples,
        "attempted": len(failures),
        "failed": sum(len(f) > 0 for f in failures),
        "failures": [m for f in failures for m in f],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "counts": counts,
        "versions": _versions(),
    }
    if tracer is not None:
        out["absent"] = tracer.absent
        summary = tracer.summary(inline=("parallel.map_reduce",))
        out["layers"] = layer_metrics(
            summary, walls[0], s.rule.order, len(s.ev.weights), counts, per_call_overhead()
        )
        os.makedirs(spec["traces"], exist_ok=True)
        tracer.dump(os.path.join(spec["traces"], f"{run_id}.jsonl"))
    _dump(args.out, out)


def _dump(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


if __name__ == "__main__":
    main()
