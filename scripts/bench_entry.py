"""Fold one change's benchmark results and its parent's into a BENCH entry.

    python3 scripts/bench_entry.py --parent DIR --change DIR --out BENCH_N.json

Each DIR holds the result files that `perfbench/run.py` wrote into
`perfbench/_work/results/` of one checkout: `<workload>-s<seed>-t0.json`
for the end-to-end metrics, `-t1.json` for a traced run.  Per workload
and end-to-end metric the entry holds the median, interquartile range and
run count of parent and change, the relative change of the median, and
how many seeds ran lower on the change.  Per workload and side it also
holds the percentiles that `step_ms_tail` was taken at and the range of
per-step sample counts, since the percentile moves with the count: a
switch (p75 to p90, p95 to p99) shows next to the metric.  Traced runs
add their per-layer seconds (the median over seeds) for the layers the
workload reaches.  Each side records its git revisions,
the digest of its `src/` (which names a checkout that is not a commit),
numpy and scipy versions and core count.
"""

import argparse
import glob
import json
import os
import statistics
import sys

import numpy as np


def load(directory):
    """{(workload, trace): {seed: result}} of every result file in directory."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            res = json.load(fh)
        runs.setdefault((res["workload"], res["trace"]), {})[res["seed"]] = res
    if not runs:
        raise SystemExit(f"bench_entry: no result files in {directory}")
    return runs


def summary(values):
    q1, q3 = np.percentile(values, [25, 75])
    return {"median": statistics.median(values), "iqr": float(q3 - q1), "n": len(values)}


def provenance(runs):
    prov = [res["provenance"] for by_seed in runs.values() for res in by_seed.values()]
    keys = ("git_rev", "src_sha256", "numpy", "scipy", "nproc")
    return {key: sorted({p[key] for p in prov}) for key in keys}


def values(runs, name):
    """The metric's value in each run, in seed order."""
    return [runs[seed]["metrics"][name]["value"] for seed in sorted(runs)]


def tail_detail(runs):
    """The step_ms_tail percentiles and the range of sample counts."""
    details = [res["detail"] for res in runs.values()]
    samples = [d["step_samples"] for d in details]
    return {
        "percentiles": sorted({d["step_tail_percentile"] for d in details}),
        "samples": [min(samples), max(samples)],
    }


def compare(base, runs, name, unit):
    row = {"unit": unit, "change": summary(values(runs, name))}
    if base:
        row["parent"] = summary(values(base, name))
        row["median_change"] = row["change"]["median"] / row["parent"]["median"] - 1.0
        seeds = sorted(set(base) & set(runs))
        row["pairs"] = len(seeds)
        row["pairs_lower"] = sum(
            runs[s]["metrics"][name]["value"] < base[s]["metrics"][name]["value"] for s in seeds
        )
    return row


def fold(parent, change):
    workloads = {}
    for (workload, trace), runs in sorted(change.items()):
        sides = {"parent": parent.get((workload, trace), {}), "change": runs}
        units = {name: m["unit"] for name, m in next(iter(runs.values()))["metrics"].items()}
        entry = workloads.setdefault(workload, {})
        if trace:
            entry["traced_s"] = {
                name: {side: statistics.median(values(r, name)) for side, r in sides.items() if r}
                for name, unit in units.items()
                if unit == "s" and max(max(values(r, name)) for r in sides.values() if r) > 0
            }
        else:
            entry["failed"] = {
                side: f"{sum(x['failed'] for x in r.values())}/{sum(x['attempted'] for x in r.values())}"
                for side, r in sides.items()
                if r
            }
            entry["end_to_end"] = {
                name: compare(sides["parent"], runs, name, unit) for name, unit in units.items()
            }
            entry["step_tail"] = {side: tail_detail(r) for side, r in sides.items() if r}
    return {"parent": provenance(parent), "change": provenance(change), "workloads": workloads}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="result files of the parent commit")
    p.add_argument("--change", required=True, help="result files of the change")
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    entry = fold(load(args.parent), load(args.change))
    with open(args.out, "w") as fh:
        json.dump(entry, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
