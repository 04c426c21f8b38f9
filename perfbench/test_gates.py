"""Each gate passes a right result and fails a deliberately wrong one.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_gates.py
"""

import json
import math
import os
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gates  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

RATIOS = {"ap_vel": 0.2, "pk_linf": 0.5, "length_rate": 0.1, "mass": 1.0}
ENERGIES = [3.0, 2.5, 2.1, 1.8, 1.0]


def test_shrink_gate():
    assert gates.shrink_circle("annihilated", ENERGIES, RATIOS) == []
    assert gates.shrink_circle("t_end", ENERGIES, RATIOS)
    assert gates.shrink_circle("annihilated", [3.0, 2.5, 2.6, 1.0], RATIOS)
    assert gates.shrink_circle("annihilated", ENERGIES, {**RATIOS, "pk_linf": 1.01})


def test_ensemble_gate():
    rows = [[0.0, 0.1, 2.0], [0.1, 0.1, 1.9]]
    kinds = ["annihilation", "remesh", "t_end"]
    assert gates.loop_ensemble("t_end", rows, ENERGIES, kinds) == []
    assert gates.loop_ensemble("dt_floor", rows, ENERGIES, kinds)
    assert gates.loop_ensemble("t_end", rows + [[0.2, math.nan, 1.8]], ENERGIES, kinds)
    assert gates.loop_ensemble("t_end", rows, ENERGIES[::-1], kinds)
    assert gates.loop_ensemble("t_end", rows, ENERGIES, ["remesh", "t_end"])
    assert gates.loop_ensemble("t_end", rows, ENERGIES, ["annihilation", "t_end"])


@pytest.fixture(scope="module")
def refs():
    with open(os.path.join(HERE, "static_refs.json")) as fh:
        return json.load(fh)


def _outputs(refs):
    force = np.array(refs["force"])
    # any tangent field orthogonal to the force will do for the gate
    tangents = np.cross(force, [0.3, -0.5, 0.8])
    tangents /= np.linalg.norm(tangents, axis=1)[:, None]
    return {**{k: np.array(v) for k, v in refs.items()}, "tangents": tangents}


@pytest.mark.parametrize("key", ["energy", "matrix", "force", "surface_energy", "table_rows"])
def test_static_gate_catches_each_output(refs, key):
    out = _outputs(refs)
    assert gates.static_eval(out, refs) == []
    wrong = np.array(out[key], dtype=float)
    wrong.flat[wrong.size // 2] += 1e-5 * np.abs(wrong).max()
    assert gates.static_eval({**out, key: wrong}, refs)


def test_static_gate_catches_tangential_force(refs):
    out = _outputs(refs)
    out["force"] = out["force"] + 1e-9 * np.abs(out["force"]).max() * out["tangents"]
    fails = gates.static_eval(out, refs)
    assert fails and all("orthogonal" in f for f in fails)


def test_kernel_table_sample_catches_wrong_stiffness(refs):
    """Rows from the real kernel match; a 1% stiffer medium does not."""
    kernels = pytest.importorskip("dddflow.kernels")
    from dddflow import elasticity, netio

    import ops

    grid = ops.kernel_grid()[list(ops.TABLE_SAMPLE)]
    out = _outputs(refs)
    for mu, ok in ((1.0, True), (1.01, False)):
        ev = kernels.KernelEvaluator(
            elasticity.make_isotropic(1.0, mu),
            kernels.MollifierProfile(workloads.EPS),
            kernels.SphericalQuadrature.product_rule(24, 48),
        )
        text = netio.kernel_table_csv(ev, grid, include_grad=True)
        rows = [[float(v) for v in line.split(",")] for line in text.splitlines()[1:]]
        assert (gates.static_eval({**out, "table_rows": rows}, refs) == []) == ok


@pytest.mark.parametrize("name", sorted(workloads.GENERATORS))
def test_seed_moves_inputs_not_counts(name):
    a, b = workloads.GENERATORS[name](1), workloads.GENERATORS[name](2)
    assert [len(lp["nodes"]) for lp in a[0]["loops"]] == [len(lp["nodes"]) for lp in b[0]["loops"]]
    assert a[0] != b[0] and a[1] == b[1]
    assert workloads.GENERATORS[name](1) == a


def test_static_relabelling_maps_back_to_canonical():
    canon = np.concatenate([lp["nodes"] for lp in workloads.static_eval(None)[0]["loops"]])
    net, _, meta = workloads.static_eval(5)
    nodes = np.concatenate([lp["nodes"] for lp in net["loops"]])[meta["node_index"]]
    shift = nodes - canon
    assert np.allclose(shift, shift[0], atol=1e-12)
    burgers = [tuple(net["loops"][i]["burgers"]) for i in meta["loop_index"]]
    assert burgers == list(workloads.STATIC_BURGERS)


def test_tracer_reports_absent_names_and_nests_spans():
    mod = types.ModuleType("fakepkg.layer")

    def inner():
        return 1

    def outer():
        return mod.inner() + 1

    inner.__module__ = outer.__module__ = "fakepkg.layer"
    mod.inner, mod.outer = inner, outer
    sys.modules["fakepkg.layer"] = mod
    try:
        tr = Tracer("test")
        tr.install("fakepkg", [("layer", "outer", None, None), ("layer", "inner", None, None),
                               ("layer", "gone", None, None), ("missing", "x", None, None)])
        assert mod.outer() == 2
    finally:
        del sys.modules["fakepkg.layer"]
    assert tr.absent == ["layer.gone", "missing.x"]
    summary = tr.summary()
    assert summary["layer.outer"]["calls"] == summary["layer.inner"]["calls"] == 1
    outer_span, inner_span = tr.spans
    assert inner_span[1] == outer_span[0]
    assert summary["layer.outer"]["self_s"] <= summary["layer.outer"]["s"] - summary["layer.inner"]["s"] + 1e-12
