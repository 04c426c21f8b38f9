"""Acceptance and invariant check suites.

Each check returns a CheckResult and is callable both from the `check`
CLI subcommand and from the pytest acceptance module.  The `overrides`
dict deliberately lets a caller degrade the numerics (spherical order,
profile amplitude) to verify that the suites catch real regressions.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import elasticity as EL
from . import energy_force as EF
from . import evolution as EV
from . import geometry as GE
from . import kernels as KN
from . import mobility as MB
from . import netio
from . import shapes as SH

__all__ = ["CheckResult", "CHECK_NAMES", "run_checks"]


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _evaluator(eps=1.0, n_polar=24, n_azimuthal=48, overrides=None):
    overrides = overrides or {}
    n_polar = overrides.get("sphere_polar", n_polar)
    n_azimuthal = overrides.get("sphere_azimuthal", n_azimuthal)
    C = EL.make_isotropic(1.0, 1.0)
    rule = KN.SphericalQuadrature.product_rule(n_polar, n_azimuthal)
    return KN.KernelEvaluator(C, KN.MollifierProfile(eps), rule, overrides.get("nphi_scale", 1.0))


def _random_points(rng, n, r_lo, r_hi):
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    return v * rng.uniform(r_lo, r_hi, size=(n, 1))


def check_kernel_symmetry(overrides=None):
    """Pair symmetry and evenness of K, evenness of J, at 100 points."""
    ev = _evaluator(overrides=overrides)
    rng = np.random.default_rng(0)
    pts = _random_points(rng, 100, 0.0, 100.0)
    K, K_neg = KN.sphere_sum(ev, pts), KN.sphere_sum(ev, -pts)
    J, J_neg = KN.sphere_sum(ev, pts, 2, ev.fj), KN.sphere_sum(ev, -pts, 2, ev.fj)
    worst = 0.0
    for k, k_neg, j, j_neg in zip(K, K_neg, J, J_neg):
        scale = max(np.abs(k).max(), 1e-300)
        worst = max(worst, np.abs(k - k.transpose(2, 3, 0, 1)).max() / scale)
        worst = max(worst, np.abs(k - k_neg).max() / scale)
        worst = max(worst, np.abs(j - j_neg).max() / max(np.abs(j).max(), 1e-300))
    return worst <= 1e-12, f"max relative asymmetry {worst:.2e} (tol 1e-12)"


def check_oracle_equivalence(overrides=None):
    """Spherical-quadrature K against the real-space convolution K."""
    ev = _evaluator(overrides=overrides)
    rng = np.random.default_rng(1)
    pts = _random_points(rng, 10, 0.3, 2.5)
    worst = 0.0
    for s, kf in zip(pts, KN.sphere_sum(ev, pts)):
        kd = KN.eval_K_direct(ev.elasticity, ev.profile, s)
        worst = max(worst, np.abs(kf - kd).max() / np.abs(kd).max())
    return worst <= 1e-6, f"max relative error vs oracle {worst:.2e} (tol 1e-6)"


def check_decay_scaling(overrides=None):
    """Far-field log-log slopes and finite bound constants."""
    ev = _evaluator(overrides=overrides)
    details = []
    ok = True
    for rep in KN.decay_bound_scan(ev, [(0, 0), (1, 0), (1, 1), (2, 0)], n_radii=25):
        m, j = rep.m, rep.j
        want = -(m - j + 1) + 0.1
        good = rep.slope <= want and np.isfinite(rep.constant)
        ok = ok and good
        details.append(f"(m={m},j={j}): slope {rep.slope:.2f} <= {want:.1f}, C={rep.constant:.2e}")
    return ok, "; ".join(details)


def check_surface_independence(overrides=None):
    """Flat-disk J energy, cone J energy and line K energy of one loop.

    Base surfaces are radially split until the cells resolve the core
    scale (fan spokes halved twice, 2 eps extent); the joint refinement
    halves the radial extent once more and doubles the line rule.
    """
    eps = 0.25
    ev = _evaluator(eps=eps, overrides=overrides)
    lat = SH.cubic_lattice()
    loop = SH.circle_loop(lat, 8 * eps, 64)
    net = SH.single_loop_network(loop, eps)
    disk = GE.make_planar_surface(loop).split_radial().split_radial()
    cone = GE.make_cone_surface(
        loop, np.array([0.0, 0.0, 2 * eps]) + loop.nodes.mean(axis=0)
    ).split_radial().split_radial()

    def spread(e_line, e_disk, e_cone):
        vals = np.array([e_line, e_disk, e_cone])
        scale = np.abs(vals).max()
        gaps = np.array(
            [abs(e_line - e_disk), abs(e_line - e_cone), abs(e_disk - e_cone)]
        ) / scale
        return gaps.max(), gaps

    base = (
        EF.energy_line(net, ev, EF.LineQuadratureRule(4)).total,
        EF.energy_surface([disk], ev),
        EF.energy_surface([cone], ev),
    )
    fine = (
        EF.energy_line(net, ev, EF.LineQuadratureRule(8)).total,
        EF.energy_surface([disk.split_radial()], ev),
        EF.energy_surface([cone.split_radial()], ev),
    )
    worst0, pair0 = spread(*base)
    worst1, pair1 = spread(*fine)
    ok = worst0 <= 0.01 and bool(np.all(pair1 < pair0))
    return ok, (
        f"pairwise spread {worst0:.4%} (tol 1%), refined {worst1:.4%}, "
        f"monotone decrease {bool(np.all(pair1 < pair0))}"
    )


def check_force_gradient(overrides=None):
    """The discrete gradient against finite differences, and the
    line-formula force density against minus-gradient under refinement."""
    eps = 0.25
    ev = _evaluator(eps=eps, overrides=overrides)
    rule = EF.LineQuadratureRule(4)
    lat = SH.cubic_lattice()
    rng = np.random.default_rng(3)
    loops = [
        SH.random_loop(lat, rng, n_nodes=10, scale=1.2, burgers=(1, 0, 0)),
        SH.random_loop(lat, rng, n_nodes=9, scale=1.0, burgers=(0, 1, 0), center=(2.5, 0.3, 0.1)),
        SH.random_loop(lat, rng, n_nodes=11, scale=0.8, burgers=(0, 0, 1), center=(-1.8, 1.0, -0.4)),
    ]
    net = GE.DislocationNetwork(lat, loops, eps)
    e0, grad = EF.energy_and_gradient(net, ev, rule)
    h = 1e-6 * eps
    worst = 0.0
    scale = np.abs(grad).max()
    for idx in range(net.n_nodes):
        for d in range(3):
            dp = np.zeros((net.n_nodes, 3))
            dp[idx, d] = h
            ep = EF.energy_and_gradient(GE.pushforward(net, dp), ev, rule)[0]
            em = EF.energy_and_gradient(GE.pushforward(net, -dp), ev, rule)[0]
            worst = max(worst, abs((ep - em) / (2 * h) - grad[idx, d]) / scale)
    eps2 = 0.1
    ev2 = _evaluator(eps=eps2, overrides=overrides)
    errs = []
    for n in (63, 126, 251):
        lp = SH.circle_loop(lat, 1.0, n)
        ntw = SH.single_loop_network(lp, eps2)
        ff = EF.pk_force(ntw, ev2, rule)
        fg = -EF.energy_and_gradient(ntw, ev2, rule)[1] / ff.lumped[:, None]
        errs.append(
            np.linalg.norm(fg - ff.density, axis=1).max()
            / np.linalg.norm(ff.density, axis=1).max()
        )
    order = float(np.polyfit(np.log([1.0, 0.5, 0.25]), np.log(errs), 1)[0])
    ok = worst <= 1e-5 and order >= 0.9
    return ok, f"FD relative error {worst:.2e} (tol 1e-5); density convergence order {order:.2f} (need >= 0.9)"


def check_velocity_solve(overrides=None):
    """Weak-form residual, exact constraint, and the zero-force case."""
    eps = 0.1
    lat = SH.cubic_lattice()
    loops = [
        SH.circle_loop(lat, 1.0, 48),
        SH.ellipse_loop(lat, 1.2, 0.7, 40, center=(0.0, 0.0, 1.0)),
    ]
    net = GE.DislocationNetwork(lat, loops, eps)
    model = MB.MobilityModel(alpha=0.7, drag=MB.IsotropicDrag(m=1.3))
    rng = np.random.default_rng(4)
    f = rng.normal(size=(net.n_nodes, 3))
    vf = EV.solve_velocity(net, f, model)
    resid = EV.weak_form_residual(net, f, model, vf, rng)
    vdott = np.abs((vf.v * vf.tangents).sum(axis=1)).max()
    v0 = EV.solve_velocity(net, np.zeros((net.n_nodes, 3)), model)
    zero_ok = float(np.abs(v0.v).max()) == 0.0
    ok = resid <= 1e-9 and vdott <= 1e-12 * max(vf.v_inf, 1.0) and zero_ok
    return ok, (
        f"weak-form residual {resid:.2e} (tol 1e-9); max|v.tau| {vdott:.2e}; "
        f"f=0 gives v=0 exactly: {zero_ok}"
    )


def _shrink_setup(overrides=None):
    eps = 0.1
    ev = _evaluator(eps=eps, n_polar=16, n_azimuthal=32, overrides=overrides)
    lat = SH.cubic_lattice()
    net = SH.single_loop_network(SH.circle_loop(lat, 10 * eps, 128), eps)
    model = MB.MobilityModel(alpha=1.0, drag=MB.IsotropicDrag(m=1.0))
    rule = EF.LineQuadratureRule(2)
    policy = EV.StepPolicy(t_end=1e9, dt_max=0.5)
    return eps, ev, net, model, rule, policy


def check_gradient_flow(overrides=None):
    """Shrinking circle: monotone energy, O(dt^2) dissipation identity,
    monotone radius until annihilation."""
    eps, ev, net, model, rule, policy = _shrink_setup(overrides)

    # dissipation-identity convergence under dt halving, from the initial state
    e0, grad = EF.energy_and_gradient(net, ev, rule)
    f = -grad / net.layout.lumped[:, None]
    vf = EV.solve_velocity(net, f, model)
    dt0 = policy.choose_dt(eps, vf.v_inf, vf.dv_inf, 1e9)
    errs = []
    dts = [dt0 / 2**k for k in range(4)]
    for dt in dts:
        moved = GE.pushforward(net, dt * vf.v)
        e1 = EF.energy_and_gradient(moved, ev, rule)[0]
        errs.append(abs((e1 - e0) + dt * vf.power))
    order = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])

    radii = []

    def record(_istep, st):
        if not st.network.is_empty():
            nodes = st.network.layout.nodes
            radii.append(float(np.linalg.norm(nodes - nodes.mean(axis=0), axis=1).mean()))

    policy = EV.StepPolicy(t_end=1e9, dt_max=0.5, snapshot_every=1)
    state = EV.run(net, ev, model, rule, policy, snapshot_cb=record)
    en = np.array([r.energy for r in state.diagnostics])
    dec = -np.diff(en)
    tol = 1e-3 * max(dec.max(), 1e-300)
    monotone = bool(np.all(dec >= -tol))
    annihilated = state.termination == "annihilated"
    radius_monotone = bool(np.all(np.diff(radii) < 0.0))
    ok = order >= 1.9 and monotone and radius_monotone and annihilated
    return ok, (
        f"dissipation-identity order {order:.2f} (need >= 1.9); energy nonincreasing: {monotone}; "
        f"mean radius strictly decreasing: {radius_monotone}; terminated: {state.termination} "
        f"after {len(state.diagnostics)} steps"
    )


def check_mass_ratio(overrides=None):
    """Estimator window on the 256-gon and the universal lower bound."""
    lat = SH.cubic_lattice()
    lp = SH.circle_loop(lat, 5.0, 256)
    theta = GE.mass_ratio(GE.DislocationNetwork(lat, [lp], 0.5))
    in_window = 0.99 * np.pi <= theta <= np.pi
    rng = np.random.default_rng(7)
    nets = [
        GE.DislocationNetwork(lat, [SH.circle_loop(lat, 1.0, 16)], 0.1),
        GE.DislocationNetwork(lat, [SH.ellipse_loop(lat, 2.0, 1.0, 40)], 0.1),
        GE.DislocationNetwork(lat, [SH.square_loop(lat, 2.0, 8)], 0.1),
        GE.DislocationNetwork(
            lat,
            [SH.random_loop(lat, rng, 12), SH.random_loop(lat, rng, 9, center=(3.0, 0, 0))],
            0.2,
        ),
    ]
    lower = min(GE.mass_ratio(n) for n in nets)
    ok = in_window and lower >= 1.0 - 1e-6
    return ok, (
        f"theta(256-gon) = {theta:.6f} in [0.99pi, pi] = [{0.99 * np.pi:.6f}, {np.pi:.6f}]: "
        f"{in_window}; min theta over suite {lower:.4f} >= 1 - 1e-6"
    )


def _held_out_runs():
    eps = 0.1
    lat = SH.cubic_lattice()
    ell = GE.DislocationNetwork(lat, [SH.ellipse_loop(lat, 20 * eps, 10 * eps, 128)], eps)
    sq = GE.DislocationNetwork(lat, [SH.square_loop(lat, 16 * eps, 16)], eps)
    two = GE.DislocationNetwork(
        lat,
        [
            SH.circle_loop(lat, 8 * eps, 64),
            SH.circle_loop(lat, 8 * eps, 64, center=(0.0, 0.0, 5 * eps)),
        ],
        eps,
    )
    return eps, [("ellipse_2to1", ell, 1.2), ("square_remeshed", sq, 1.2), ("two_loops_5eps", two, 0.6)]


def check_monitored_bounds(overrides=None):
    """Held-out evolution suite: every monitored bound ratio stays <= 1."""
    eps, cases = _held_out_runs()
    ev = _evaluator(eps=eps, n_polar=16, n_azimuthal=32, overrides=overrides)
    model = MB.MobilityModel(alpha=1.0, drag=MB.IsotropicDrag(m=1.0))
    rule = EF.LineQuadratureRule(2)
    details = []
    ok = True
    for name, net, t_end in cases:
        policy = EV.StepPolicy(t_end=t_end, dt_max=0.2)
        state = EV.run(net, ev, model, rule, policy)
        ratios = EV.bound_monitor(state.diagnostics)
        worst = max(ratios.values())
        # the mass envelope equals the initial mass at t=0, so allow round-off
        ok = ok and worst <= 1.0 + 1e-12
        details.append(
            name + ": " + ", ".join(f"{k}={v:.3f}" for k, v in ratios.items())
        )
    return ok, "; ".join(details)


def check_determinism(overrides=None):
    """Byte-identical diagnostics from two fresh runs of the shrink case."""
    outputs = []
    for _ in range(2):
        eps, ev, net, model, rule, policy = _shrink_setup(overrides)
        state = EV.run(net, ev, model, rule, policy)
        outputs.append(netio.diagnostics_csv(state.diagnostics).encode())
    same = outputs[0] == outputs[1]
    return same, f"diagnostics byte-identical across two runs: {same} ({len(outputs[0])} bytes)"


def check_kernel_self_convergence(overrides=None):
    """Doubling the spherical order changes K by < 1e-9 relative for
    |s| <= 20 eps, using the documented order-for-range rule."""
    overrides = overrides or {}
    eps = 1.0
    rng = np.random.default_rng(9)
    pts = _random_points(rng, 12, 0.0, 20.0)
    n_polar = overrides.get("sphere_polar", KN.polar_order_for(20.0))
    n_az = overrides.get("sphere_azimuthal", 2 * n_polar)
    scale_only = {"nphi_scale": overrides.get("nphi_scale", 1.0)}
    ev1 = _evaluator(eps=eps, n_polar=n_polar, n_azimuthal=n_az, overrides=scale_only)
    ev2 = _evaluator(eps=eps, n_polar=2 * n_polar, n_azimuthal=2 * n_az, overrides=scale_only)
    worst = 0.0
    for k1, k2 in zip(KN.sphere_sum(ev1, pts), KN.sphere_sum(ev2, pts)):
        worst = max(worst, np.abs(k1 - k2).max() / max(np.abs(k2).max(), 1e-300))
    return worst <= 1e-9, f"order-doubling change {worst:.2e} (tol 1e-9, base order {n_polar})"


CHECKS = [
    ("kernel_symmetry", check_kernel_symmetry),
    ("oracle_equivalence", check_oracle_equivalence),
    ("decay_scaling", check_decay_scaling),
    ("surface_independence", check_surface_independence),
    ("force_gradient", check_force_gradient),
    ("velocity_solve", check_velocity_solve),
    ("gradient_flow", check_gradient_flow),
    ("mass_ratio", check_mass_ratio),
    ("monitored_bounds", check_monitored_bounds),
    ("determinism", check_determinism),
    ("kernel_self_convergence", check_kernel_self_convergence),
]

CHECK_NAMES = [name for name, _ in CHECKS]


def run_checks(names=None, overrides=None):
    selected = CHECK_NAMES if names is None else names
    results = []
    for name, fn in CHECKS:
        if name not in selected:
            continue
        t0 = time.time()
        try:
            passed, detail = fn(overrides=overrides)
        except Exception as exc:  # a crashed suite is a failed suite
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, bool(passed), detail, time.time() - t0))
    return results
