"""Correctness gates.  Each returns a list of failure messages (empty when
the output passes), so one wrong result counts as one failed operation."""

import math

import numpy as np

# Same tolerance as the gradient_flow acceptance check.
ENERGY_TOL = 1e-3
# Bound ratios start at exactly 1 for the mass envelope; allow round-off.
BOUND_TOL = 1e-12
ORTHO_TOL = 1e-12
REF_TOL = 1e-6


def energy_nonincreasing(energies):
    en = np.asarray(energies, dtype=float)
    if len(en) < 2:
        return []
    dec = -np.diff(en)
    tol = ENERGY_TOL * max(float(dec.max()), 1e-300)
    worst = float(dec.min())
    if worst < -tol:
        return [f"energy increased by {-worst:.3e} (tolerance {tol:.3e})"]
    return []


def shrink_circle(termination, energies, bound_ratios):
    """Terminates annihilated, energy does not increase, every monitored
    bound ratio stays at or below 1."""
    fails = []
    if termination != "annihilated":
        fails.append(f"terminated {termination!r}, expected 'annihilated'")
    fails += energy_nonincreasing(energies)
    for name, ratio in bound_ratios.items():
        if not ratio <= 1.0 + BOUND_TOL:
            fails.append(f"bound ratio {name} = {ratio:.6g} > 1")
    return fails


def loop_ensemble(termination, diagnostics, energies, event_kinds):
    """Terminates at t_end with finite diagnostics, energy does not
    increase, at least one annihilation and one remesh."""
    fails = []
    if termination != "t_end":
        fails.append(f"terminated {termination!r}, expected 't_end'")
    if not all(math.isfinite(v) for row in diagnostics for v in row):
        fails.append("non-finite diagnostics value")
    fails += energy_nonincreasing(energies)
    for kind in ("annihilation", "remesh"):
        if kind not in event_kinds:
            fails.append(f"no {kind} event")
    return fails


def close(name, got, ref, tol=REF_TOL):
    """Relative to the largest reference entry, so near-zero entries of a
    tensor do not demand digits the computation does not carry."""
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if got.shape != ref.shape:
        return [f"{name}: shape {got.shape} != reference {ref.shape}"]
    scale = max(float(np.abs(ref).max()), 1e-300)
    err = float(np.abs(got - ref).max()) / scale
    if not err <= tol:
        return [f"{name}: relative error {err:.3e} > {tol:g}"]
    return []


def force_orthogonal(density, tangents):
    """pk_force density orthogonal to the node tangents."""
    density = np.asarray(density, dtype=float)
    dot = np.abs((density * np.asarray(tangents, dtype=float)).sum(axis=1)).max()
    scale = max(float(np.linalg.norm(density, axis=1).max()), 1e-300)
    if not dot <= ORTHO_TOL * scale:
        return [f"force density not orthogonal to tangents: {dot / scale:.3e} relative"]
    return []


def static_eval(outputs, refs):
    """One-shot evaluations against references recorded at a known-good
    commit.  outputs and refs share the keys energy, matrix, force,
    surface_energy and table_rows (outputs in canonical labelling)."""
    fails = force_orthogonal(outputs["force"], outputs["tangents"])
    for key in ("energy", "matrix", "force", "surface_energy", "table_rows"):
        fails += close(key, outputs[key], refs[key])
    return fails
