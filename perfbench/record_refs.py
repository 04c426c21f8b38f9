"""Record the static_eval references (perfbench/static_refs.json).

    python3 perfbench/record_refs.py

Run from the checkout root at a commit whose outputs are trusted (the
acceptance checks pass).  The references are the workload's outputs at its
canonical, seed-free placement; every seeded placement maps back onto it.
"""

import json
import os
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.getcwd(), "src")]

import workloads  # noqa: E402


def main():
    import ops

    net, cfg, meta = workloads.static_eval(None)
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        paths = {}
        for key, obj in (("network", net), ("config", cfg)):
            paths[key] = os.path.join(tmp, f"{key}.json")
            with open(paths[key], "w") as fh:
                json.dump(obj, fh)
        s = ops.setup(paths["config"], paths["network"])
        _, _, outputs = ops.static_eval(s, tmp)
    out = ops.static_outputs(outputs, meta["loop_index"], meta["node_index"])
    refs = {k: np.asarray(v).tolist() for k, v in out.items() if k != "tangents"}
    with open(os.path.join(HERE, "static_refs.json"), "w") as fh:
        json.dump(refs, fh)
        fh.write("\n")


if __name__ == "__main__":
    main()
