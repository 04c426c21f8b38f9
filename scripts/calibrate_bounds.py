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

EPS = 0.1
MAX_STEPS = 60


def raw_ratios(net, model, vf, f_density, field):
    eps = net.epsilon
    m = GE.mass(net)
    theta = GE.mass_ratio(net)
    bmax = net.max_burgers_norm()
    gam = min(model.alpha, model.beta())
    logterm = math.log(1.0 + 2.0 * m / (eps * theta))
    f_inf = float(np.linalg.norm(f_density, axis=1).max())
    f_inf = max(f_inf, float(np.linalg.norm(field.density, axis=1).max()))
    f_l2 = float(np.sqrt((field.lumped * (field.density**2).sum(axis=1)).sum()))
    v_h1 = math.sqrt(vf.v_l2**2 + vf.dv_l2**2)
    return {
        "pk_linf": f_inf * eps / (bmax * theta * logterm),
        "pk_l2": f_l2 * eps / (bmax * math.sqrt(m) * theta * logterm),
        "ap_vel": v_h1 * eps * gam / (math.sqrt(m) * theta * bmax * logterm),
        "length_rate": vf.dv_l1 * eps * gam / (m * theta * bmax * logterm),
        "v_inf": vf.v_inf * eps * gam / (math.sqrt(1 + 2 * m) * theta * bmax * logterm),
        "dv_inf": vf.dv_inf
        * eps
        * model.alpha
        / (bmax * (1 + math.sqrt(1 + 2 * m) / gam) * m * theta * logterm),
    }


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
        chk = EF.continuity_check(net, g, ev, rule)
        m = GE.mass(net)
        g_inf = float(np.linalg.norm(g, axis=1).max())
        grad_inf = EF._grad_tau_inf(net, g)
        raw_c = (chk.lhs - grad_inf) / (m * (grad_inf + g_inf))
        cont_sup = max(cont_sup, raw_c)

        for istep in range(MAX_STEPS):
            energy, grad = EF.energy_and_gradient(net, ev, rule)
            f_density = -grad / net.layout.lumped[:, None]
            vf = EV.solve_velocity(net, f_density, model)
            field = EF.pk_force(net, ev, rule)
            for name, val in raw_ratios(net, model, vf, f_density, field).items():
                sup[name] = max(sup.get(name, 0.0), val)
            dt = policy.choose_dt(EPS, vf.v_inf, vf.dv_inf, 1e9)
            moved = GE.pushforward(net, dt * vf.v)
            keep = [lp for lp in moved.loops if lp.total_length() >= policy.kappa * EPS]
            if not keep:
                break
            moved = moved.with_loops(keep)
            lo, hi = policy.h_min * EPS, policy.h_max * EPS
            if any(
                lp.segment_lengths().min() < lo or lp.segment_lengths().max() > hi
                for lp in moved.loops
            ):
                moved = GE.remesh(moved, lo, hi)
            net = moved
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
