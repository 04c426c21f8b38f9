"""What each workload runs, through the same public functions the
``dddflow`` commands use.  Imported only inside a workload process, after
the package is importable."""

import dataclasses
import os
import time

import numpy as np

from dddflow import config, energy_force, evolution, geometry, netio

import gates

KERNEL_TABLE_N = 11
# Rows of the kernel table checked against the recorded reference; 665 is
# the grid centre (s = 0).
TABLE_SAMPLE = tuple(range(0, KERNEL_TABLE_N**3, 190)) + (665,)


@dataclasses.dataclass
class Setup:
    network: object
    ev: object
    model: object
    rule: object
    policy: object


def setup(config_path, network_path):
    """What every command does before its first workload call."""
    cfg = config.load_config(config_path)
    network = netio.load_network(network_path)
    return Setup(
        network=network,
        ev=cfg.kernel_evaluator(),
        model=cfg.mobility_model(),
        rule=cfg.line_rule(),
        policy=cfg.step_policy(),
    )


def simulate(s, out_dir):
    """``dddflow simulate``: evolve, save a snapshot every ``output.every``
    steps, write diagnostics, events and the final network.  The snapshot
    hook runs every step so that it can stamp per-step latency.

    Returns (wall seconds, per-step milliseconds, final state)."""
    every = s.policy.snapshot_every
    policy = dataclasses.replace(s.policy, snapshot_every=1)
    stamps = []

    def snapshot(istep, state):
        stamps.append(time.perf_counter())
        if istep % every == 0 and not state.network.is_empty():
            netio.save_network(state.network, os.path.join(out_dir, f"snapshot_{istep:06d}.json"))

    t0 = time.perf_counter()
    state = evolution.run(s.network, s.ev, s.model, s.rule, policy, snapshot_cb=snapshot)
    with open(os.path.join(out_dir, "diagnostics.csv"), "w") as fh:
        fh.write(netio.diagnostics_csv(state.diagnostics))
    netio.write_events(state.events, os.path.join(out_dir, "events.jsonl"))
    if not state.network.is_empty():
        netio.save_network(state.network, os.path.join(out_dir, "final.json"))
    wall = time.perf_counter() - t0
    step_ms = np.diff(np.array([t0] + stamps)) * 1e3
    return wall, step_ms.tolist(), state


def kernel_grid():
    """The ``kernel-table`` default box [-1, 1]^3 at KERNEL_TABLE_N points
    per axis, built as the command builds it."""
    axes = [np.linspace(-1.0, 1.0, KERNEL_TABLE_N)] * 3
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)


def static_eval(s, out_dir):
    """``dddflow energy``, ``dddflow force``, the slip energy of the two
    planar spanning disks, and ``dddflow kernel-table --grad``, each with
    its CSV written.

    Returns (wall seconds, per-call milliseconds, raw outputs)."""
    net, ev, rule = s.network, s.ev, s.rule
    calls = []

    def timed(fn):
        t0 = time.perf_counter()
        result = fn()
        calls.append(time.perf_counter() - t0)
        return result

    def energy():
        bd = energy_force.energy_line(net, ev, rule)
        _write(out_dir, "energy.csv", netio.energy_csv(bd))
        return bd

    def force():
        field = energy_force.pk_force(net, ev, rule)
        _write(out_dir, "forces.csv", netio.forces_csv(net, field))
        return field

    def surface():
        disks = [geometry.make_planar_surface(lp).split_radial().split_radial() for lp in net.loops]
        return energy_force.energy_surface(disks, ev)

    def table():
        text = netio.kernel_table_csv(ev, kernel_grid(), include_grad=True)
        _write(out_dir, "kernel_table.csv", text)
        return text

    outputs = {"breakdown": timed(energy), "field": timed(force)}
    outputs["surface_energy"] = timed(surface)
    outputs["table"] = timed(table)
    return sum(calls), [c * 1e3 for c in calls], outputs


def _write(out_dir, name, text):
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.write(text)


def static_outputs(outputs, loop_index, node_index):
    """Raw static_eval outputs in the canonical labelling of the
    references: loop i of the references is loop loop_index[i] here, node
    j is node node_index[j]."""
    li = np.asarray(loop_index)
    ni = np.asarray(node_index)
    lines = outputs["table"].splitlines()
    rows = [[float(v) for v in lines[1 + r].split(",")] for r in TABLE_SAMPLE]
    return {
        "energy": outputs["breakdown"].total,
        "matrix": outputs["breakdown"].matrix[np.ix_(li, li)],
        "force": outputs["field"].density[ni],
        "tangents": outputs["field"].tangents[ni],
        "surface_energy": outputs["surface_energy"],
        "table_rows": rows,
    }


def check(workload, result, meta, refs):
    """Gate failures of one operation's result (see gates.py)."""
    if workload == "static_eval":
        return gates.static_eval(static_outputs(result, meta["loop_index"], meta["node_index"]), refs)
    energies = [r.energy for r in result.diagnostics]
    if workload == "shrink_circle":
        return gates.shrink_circle(
            result.termination, energies, evolution.bound_monitor(result.diagnostics)
        )
    rows = [r.values() for r in result.diagnostics]
    return gates.loop_ensemble(result.termination, rows, energies, [e["kind"] for e in result.events])
