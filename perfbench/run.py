"""dddflow benchmark: one workload per call, outputs checked, metrics printed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The seed generates the workload's
network and config (perfbench/workloads.py); the program sees only those
two files.  Every workload process is fresh, with BLAS/OpenMP pinned to
one thread and DDD_THREADS set to the number of usable cores.

--trace 0 measures the end-to-end metrics: set-up (the median of
SETUP_SAMPLES fresh processes), then operations back to back for
--seconds, at least one.  --trace 1 runs one traced operation at
DDD_THREADS = cores and one at DDD_THREADS = 1 and reports per-layer
metrics from the first, plus parallel.speedup.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Results with provenance go to
perfbench/_work/results/, spans of traced runs to perfbench/_work/traces/.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import workloads  # noqa: E402

SETUP_SAMPLES = 3
DEADLINE_S = 170.0
PIN = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
       "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    pass


def tail_percentile(n):
    """Highest of these percentiles with at least ten samples beyond it;
    100 (the maximum) when there are too few samples for any."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            return p
    return 100.0


def source_digest(src):
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def git_rev(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "not a git checkout"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return out.stdout.strip() or "unavailable"


class Runner:
    """Starts workload processes with pinned threads and a shared deadline."""

    def __init__(self, root, work, deadline):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.nproc = len(os.sched_getaffinity(0))
        self.env = dict(os.environ)
        self.env.update({k: "1" for k in PIN})
        # One malloc arena: with one per thread, which arena keeps the freed
        # pair-sum temporaries depends on thread timing, and peak RSS of the
        # same input reads 251 or 322 MB from run to run.
        self.env["MALLOC_ARENA_MAX"] = "1"
        self.env["PYTHONPATH"] = os.path.join(root, "src")
        self.env["DDD_THREADS"] = str(self.nproc)

    def worker(self, spec_path, tag, threads=None, extra=()):
        out = os.path.join(self.work, f"{tag}.json")
        env = dict(self.env)
        if threads is not None:
            env["DDD_THREADS"] = str(threads)
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time before a workload process could start")
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--spec", spec_path,
               "--out", out, "--launch", repr(time.time()), *extra]
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=env, timeout=left,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        except subprocess.TimeoutExpired:
            raise BenchError(f"workload process {tag} did not finish in time")
        if proc.returncode != 0:
            raise BenchError(f"workload process {tag} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
        with open(out) as fh:
            return json.load(fh)


def write_inputs(work, root, workload, seed, run_id):
    net, cfg, meta = workloads.GENERATORS[workload](seed)
    paths = {k: os.path.join(work, f"{k}.json") for k in ("network", "config", "spec")}
    for key, obj in (("network", net), ("config", cfg)):
        with open(paths[key], "w") as fh:
            json.dump(obj, fh)
    spec = {
        "workload": workload,
        "run_id": run_id,
        "src": os.path.join(root, "src"),
        "network": paths["network"],
        "config": paths["config"],
        "work": work,
        "traces": os.path.join(HERE, "_work", "traces"),
        "meta": meta,
    }
    with open(paths["spec"], "w") as fh:
        json.dump(spec, fh)
    return paths["spec"]


def end_to_end(runner, spec, seconds):
    samples = [runner.worker(spec, f"setup{i}", extra=["--setup-only"])["setup_s"]
               for i in range(SETUP_SAMPLES - 1)]
    res = runner.worker(spec, "main", extra=["--seconds", str(seconds)])
    samples.append(res["setup_s"])
    steps = res["samples_ms"] or [w * 1e3 for w in res["walls"]]
    p_tail = tail_percentile(len(steps))
    metrics = {
        "setup_s": statistics.median(samples),
        "wall_s": statistics.median(res["walls"]),
        "step_ms_tail": float(np.percentile(steps, p_tail)),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    detail = {
        "setup_samples_s": samples,
        "walls_s": res["walls"],
        "step_samples": len(steps),
        "step_tail_percentile": p_tail,
        "counts": res["counts"],
    }
    return res, metrics, detail


def per_layer(runner, spec):
    res = runner.worker(spec, "traced", extra=["--trace"])
    single = runner.worker(spec, "traced_1thread", threads=1, extra=["--trace"])
    metrics = dict(res["layers"])
    metrics["parallel.speedup"] = single["walls"][0] / res["walls"][0]
    metrics["trace.absent"] = len(res["absent"])
    res["attempted"] += single["attempted"]
    res["failed"] += single["failed"]
    res["failures"] += single["failures"]
    detail = {
        "absent": res["absent"],
        "traced_wall_s": res["walls"][0],
        "traced_wall_1thread_s": single["walls"][0],
    }
    return res, metrics, detail


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    start = time.monotonic()
    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
    except OSError as exc:
        print(f"benchmark: run from the checkout root ({exc})", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(root, "src", "dddflow", "__init__.py")):
        print("benchmark: no src/dddflow in this directory; nothing to measure", file=sys.stderr)
        return 2
    if args.workload not in workloads.GENERATORS:
        print(f"benchmark: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    run_id = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = os.path.join(HERE, "_work", run_id)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        runner = Runner(root, work, start + DEADLINE_S)
        spec = write_inputs(work, root, args.workload, args.seed, run_id)
        if args.trace:
            res, values, detail = per_layer(runner, spec)
        else:
            res, values, detail = end_to_end(runner, spec, args.seconds)
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"benchmark: metrics not produced: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    provenance = {
        "git_rev": git_rev(root),
        "src_sha256": source_digest(os.path.join(root, "src")),
        "nproc": runner.nproc,
        "DDD_THREADS": runner.nproc,
        "pinned": {k: runner.env[k] for k in (*PIN, "MALLOC_ARENA_MAX")},
        **res["versions"],
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": metrics,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "failed_frac": res["failed"] / res["attempted"],
        "failures": res["failures"],
        "detail": detail,
        "provenance": provenance,
    }
    results = os.path.join(HERE, "_work", "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{run_id}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    for msg in res["failures"]:
        print(f"FAILED: {msg}")
    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']}")
    print(f"{'failed_frac':48s} {record['failed_frac']:.6g} ({res['failed']}/{res['attempted']})")
    for key, value in {**detail, **provenance}.items():
        if key != "pinned":
            print(f"# {key}: {value}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
