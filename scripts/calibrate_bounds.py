"""Calibrate the prefactors of the monitored analytic bounds.

Runs the reference circle family R/eps in {5, 10, 20, 40} (isotropic
stiffness lambda=mu=1, isotropic drag m=1, alpha=1) and records, at
every step, the supremum of each bound's left-hand side divided by its
right-hand side evaluated with C = 1.  The stored constant is twice the
observed supremum; see dddflow.calibration.BOUND_CONSTANTS.

The mass-growth envelope shares its constant with the length-rate bound
(it is the integrated form of the same estimate), and the continuity
constant is calibrated from random small deformations of the same
circles.

Usage: python scripts/calibrate_bounds.py
"""

import math

import numpy as np

from dddflow import elasticity as EL
from dddflow import energy_force as EF
from dddflow import evolution as EV
from dddflow import geometry as GE
from dddflow import kernels as KN
from dddflow import mobility as MB
from dddflow import shapes as SH
from dddflow.calibration import BOUND_CONSTANTS

EPS = 0.1
MAX_STEPS = 60


def step_ratios(state, ev, model, rule, policy):
    """Advance the run's state by one step of the run's own `step`, and
    return each bound's left-hand side over its right-hand side with C = 1
    on the network the step started from.

    ap_vel and length_rate are the step's monitored ratios times their
    constants; pk_linf takes the larger of the gradient and line-formula
    forces.
    """
    net = state.network
    solved = EV._energy_force_velocity(state, ev, model, rule)
    vf = solved[2]
    dt = policy.choose_dt(net.epsilon, vf.v_inf, vf.dv_inf, policy.t_end - state.time)
    EV.step(state, dt, ev, model, rule, policy, precomputed=solved)
    row = state.diagnostics[-1]
    m, theta = row.mass, row.theta_hat
    field = EF.pk_force(net, ev, rule)
    f_inf = max(row.f_inf, float(np.linalg.norm(field.density, axis=1).max()))
    r_f = EV._bound_ratios(net, model, vf, f_inf, m, theta, 0.0, m)[1]
    eps = net.epsilon
    logterm = math.log(1.0 + 2.0 * m / (eps * theta))
    f_l2 = float(np.sqrt((field.lumped * (field.density**2).sum(axis=1)).sum()))
    return {
        "pk_linf": r_f * BOUND_CONSTANTS["pk_linf"],
        "pk_l2": f_l2 * eps / (net.max_burgers_norm() * math.sqrt(m) * theta * logterm),
        "ap_vel": row.ratio_ap_vel * BOUND_CONSTANTS["ap_vel"],
        "length_rate": row.ratio_length_rate * BOUND_CONSTANTS["length_rate"],
    }


def continuity_ratio(net, g, ev, rule):
    """(|f(x + g) - f(x)|_inf - |d_tau g|_inf) / (M (|d_tau g|_inf + |g|_inf)),
    the continuity constant that one displacement g demands."""
    f0 = EF.pk_force(net, ev, rule).density
    f1 = EF.pk_force(GE.pushforward(net, g), ev, rule).density
    lhs = float(np.linalg.norm(f1 - f0, axis=1).max())
    layout = net.layout
    grad_inf = float((np.linalg.norm(g[layout.succ] - g, axis=1) / layout.seg_len).max())
    g_inf = float(np.linalg.norm(g, axis=1).max())
    return (lhs - grad_inf) / (GE.mass(net) * (grad_inf + g_inf))


def calibrate():
    C = EL.make_isotropic(1.0, 1.0)
    ev = KN.KernelEvaluator(
        C, KN.MollifierProfile(EPS), KN.SphericalQuadrature.product_rule(16, 32)
    )
    rule = EF.LineQuadratureRule(2)
    model = MB.MobilityModel(alpha=1.0, drag=MB.IsotropicDrag(m=1.0))
    lat = SH.cubic_lattice()
    policy = EV.StepPolicy(t_end=1e9, dt_max=0.5)
    sup = {}
    cont_sup = 0.0
    rng = np.random.default_rng(2024)
    for r_over_eps in (5, 10, 20, 40):
        R = r_over_eps * EPS
        n = max(24, int(round(2 * np.pi * R / (0.6 * EPS))))
        net = SH.single_loop_network(SH.circle_loop(lat, R, n), EPS)

        # continuity constant from small random deformations
        g = 1e-3 * EPS * rng.normal(size=(net.n_nodes, 3))
        cont_sup = max(cont_sup, continuity_ratio(net, g, ev, rule))

        state = EV.EvolutionState(time=0.0, network=net)
        for istep in range(MAX_STEPS):
            for name, val in step_ratios(state, ev, model, rule, policy).items():
                sup[name] = max(sup.get(name, 0.0), val)
            if state.termination:
                break
        print(f"R/eps={r_over_eps}: done after {istep + 1} steps")
    constants = {k: 2.0 * v for k, v in sup.items()}
    constants["mass"] = constants["length_rate"]
    constants["continuity"] = 2.0 * max(cont_sup, 1e-3)
    return constants


if __name__ == "__main__":
    out = calibrate()
    print("\nBOUND_CONSTANTS = {")
    for k, v in out.items():
        print(f'    "{k}": {v:.6g},')
    print("}")
