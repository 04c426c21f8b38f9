"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria (tolerances pinned in dddflow.checks):
  1 kernel_symmetry          both K symmetries and J evenness, 1e-12 relative
  2 oracle_equivalence       spherical K vs real-space K, 1e-6 relative
  3 decay_scaling            far-field slopes <= -(m-j+1)+0.1, finite constants
  4 surface_independence     disk / cone / line energies within 1%, refining
  5 force_gradient           FD gradient 1e-5; density convergence order >= 0.9
  6 velocity_solve           weak residual 1e-9; v.tau = 0 at 1e-12; f=0 -> v=0
  7 gradient_flow            monotone energy; dissipation order >= 1.9; radius
  8 mass_ratio               theta in [0.99 pi, pi]; theta >= 1 - 1e-6
  9 monitored_bounds         held-out suite ratios <= 1 with calibrated C
 10 determinism              byte-identical diagnostics from two fresh runs

`kernel_self_convergence` is the supplementary suite used by the check
CLI to catch degraded quadrature settings.
"""

import pytest

from dddflow import checks

CRITERIA = [
    (1, "kernel_symmetry"),
    (2, "oracle_equivalence"),
    (3, "decay_scaling"),
    (4, "surface_independence"),
    (5, "force_gradient"),
    (6, "velocity_solve"),
    (7, "gradient_flow"),
    (8, "mass_ratio"),
    (9, "monitored_bounds"),
    (10, "determinism"),
    (None, "kernel_self_convergence"),
]


@pytest.mark.parametrize("number,name", CRITERIA, ids=[c[1] for c in CRITERIA])
def test_acceptance(number, name):
    (result,) = checks.run_checks(names=[name])
    label = f"criterion {number}" if number else "supplementary"
    status = "PASS" if result.passed else "FAIL"
    print(f"\n{label} ({name}): {status} [{result.seconds:.1f}s] {result.detail}")
    assert result.passed, f"{label} ({name}) failed: {result.detail}"
