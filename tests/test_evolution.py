import dataclasses
import importlib.util
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from dddflow import elasticity as EL
from dddflow import energy_force as EF
from dddflow import evolution as EV
from dddflow import geometry as GE
from dddflow import kernels as KN
from dddflow import mobility as MB
from dddflow import cli, config, netio
from dddflow import shapes as SH
from dddflow.errors import SolverError
from mobility_reference import drag_pair

MODEL = MB.MobilityModel(alpha=1.0, drag=MB.IsotropicDrag(m=1.0))


@pytest.fixture(scope="module")
def ev01(iso11):
    return KN.KernelEvaluator(
        iso11, KN.MollifierProfile(0.1), KN.SphericalQuadrature.product_rule(16, 32)
    )


@pytest.fixture(scope="module")
def rule2():
    return EF.LineQuadratureRule(2)


def _force_density(net, ev, rule):
    _, grad = EF.energy_and_gradient(net, ev, rule)
    return -grad / net.layout.lumped[:, None]


def test_zero_force_gives_zero_velocity(lat):
    net = SH.single_loop_network(SH.circle_loop(lat, 1.0, 64), 0.1)
    vf = EV.solve_velocity(net, np.zeros((64, 3)), MODEL)
    assert np.abs(vf.v).max() == 0.0
    assert vf.power == 0.0


def test_velocity_constraint_and_residual(lat, ev01, rule2, rng):
    net = GE.DislocationNetwork(
        lat,
        [SH.circle_loop(lat, 1.0, 48), SH.ellipse_loop(lat, 1.2, 0.7, 40, center=(0, 0, 1.0))],
        0.1,
    )
    f = rng.normal(size=(net.n_nodes, 3))
    vf = EV.solve_velocity(net, f, MODEL)
    assert np.abs((vf.v * vf.tangents).sum(axis=1)).max() <= 1e-12 * max(vf.v_inf, 1.0)
    assert EV.weak_form_residual(net, f, MODEL, vf, rng) <= 1e-9
    assert vf.residual <= 1e-10


def _pseudo_inverse_reference(model, b, tau):
    """Drag pseudo-inverse for one tangent, in its first closed form."""
    P = np.eye(3) - np.outer(tau, tau)
    if isinstance(model.drag, MB.IsotropicDrag):
        return model.drag.m * P
    d, tol = model.drag, model.screw_tolerance
    bn, cross, bt = np.linalg.norm(b), np.cross(b, tau), float(b @ tau)
    cn = np.linalg.norm(cross)
    screw_limit = d.B_s * abs(bt) / bn**2
    if cn <= tol * bn:
        return P / screw_limit
    u = P @ b / np.linalg.norm(P @ b)
    w = cross / cn
    cg = 1.0 / math.sqrt(cn**2 / d.B_eg**2 + bt**2 / d.B_s**2)
    cc = math.sqrt(d.B_ec**2 * cn**2 + d.B_s**2 * bt**2) / bn**2
    if cn <= 2.0 * tol * bn:
        t = (cn / bn - tol) / tol
        cg = (1.0 - t) * screw_limit + t * cg
        cc = (1.0 - t) * screw_limit + t * cc
    return np.outer(u, u) / cg + np.outer(w, w) / cc


def _dense_velocity_reference(net, f, model):
    """The velocity solve in its first form, kept as the oracle: one dense
    2n x 2n system per loop, assembled node by node, solved by Cholesky."""
    vs, off = [], 0
    for lp in net.loops:
        n = len(lp)
        layout = GE.DislocationNetwork(net.lattice, [lp], net.epsilon).layout
        tau, h, lumped, b = layout.tangents, layout.seg_len, layout.lumped, lp.burgers.cartesian
        Q = EV._normal_basis(tau)
        A, rhs = np.zeros((2 * n, 2 * n)), np.zeros(2 * n)
        for i in range(n):
            j = (i + 1) % n
            I, J = slice(2 * i, 2 * i + 2), slice(2 * j, 2 * j + 2)
            c = model.alpha / h[i]
            blk = c * (Q[i].T @ Q[j])
            A[I, I] += c * np.eye(2)
            A[J, J] += c * np.eye(2)
            A[I, J] -= blk
            A[J, I] -= blk.T
            A[I, I] += lumped[i] * (Q[i].T @ _pseudo_inverse_reference(model, b, tau[i]) @ Q[i])
            rhs[I] = lumped[i] * (Q[i].T @ f[off + i])
        u = scipy.linalg.cho_solve(scipy.linalg.cho_factor(A, lower=True), rhs)
        vs.append(np.einsum("nij,nj->ni", Q, u.reshape(n, 2)))
        off += n
    return np.concatenate(vs)


def _assert_matches_dense_reference(net, model, rng):
    f = rng.normal(size=(net.n_nodes, 3))
    v = EV.solve_velocity(net, f, model).v
    ref = _dense_velocity_reference(net, f, model)
    assert np.abs(v - ref).max() <= 1e-12 * np.abs(ref).max()


def test_network_solve_matches_dense_reference_isotropic(lat, rng):
    loops = [
        SH.circle_loop(lat, 1.0, 48),
        SH.ellipse_loop(lat, 1.2, 0.7, 40, center=(0, 0, 1.0)),
        SH.random_loop(lat, rng, n_nodes=30, center=(3.0, 0, 0)),
    ]
    net = GE.DislocationNetwork(lat, loops, 0.1)
    model = MB.MobilityModel(alpha=0.7, drag=MB.IsotropicDrag(m=1.3))
    _assert_matches_dense_reference(net, model, rng)


def test_network_solve_matches_dense_reference_bcc_near_screw(lat, rng):
    # b = x: the axis-aligned square's straight edges are exact screws, the
    # square turned by 1.5 tol sits in the blend band [tol, 2 tol]
    model = MB.MobilityModel(
        alpha=0.5, drag=MB.BccDrag(B_eg=4.0, B_ec=1.0, B_s=2.0), screw_tolerance=1e-3
    )
    tol = model.screw_tolerance
    square = SH.square_loop(lat, 1.0, 6, burgers=(1, 0, 0))
    a = math.asin(1.5 * tol)
    turn = np.array([[math.cos(a), -math.sin(a), 0], [math.sin(a), math.cos(a), 0], [0, 0, 1]])
    turned = GE.Loop(square.nodes @ turn.T + [0.0, 0.0, 1.0], square.burgers)
    other = SH.random_loop(lat, rng, n_nodes=20, burgers=(1, 1, 1), center=(3.0, 0, 0))
    net = GE.DislocationNetwork(lat, [square, turned, other], 0.1)
    layout = net.layout
    b, tau = layout.burgers, layout.tangents
    sin = np.linalg.norm(np.cross(b, tau), axis=1) / np.linalg.norm(b, axis=1)
    assert (sin < tol).sum() >= 8 and ((sin >= tol) & (sin <= 2 * tol)).sum() >= 8
    _assert_matches_dense_reference(net, model, rng)
    # the batched drag matrices equal per-tangent calls and the first closed form
    D = drag_pair(model, b, tau)
    for i in range(net.n_nodes):
        one = drag_pair(model, b[i], tau[i])
        assert np.array_equal(D.matrix[i], one.matrix)
        assert np.array_equal(D.pseudo_inverse[i], one.pseudo_inverse)
        ref = _pseudo_inverse_reference(model, b[i], tau[i])
        assert np.abs(one.pseudo_inverse - ref).max() <= 1e-14 * np.abs(ref).max()


def _odd_and_even_loops(lat, burgers):
    """Loops of 3 to 33 nodes, side by side: odd and even cycles, and
    sizes whose reduction passes through odd cycles and 2-cycles."""
    sizes = (3, 4, 5, 7, 8, 9, 17, 33)
    loops = [
        SH.ellipse_loop(lat, 1.0, 0.6, n, burgers=b, center=(3.0 * k, 0.2 * k, 0.1 * k))
        for k, (n, b) in enumerate(zip(sizes, burgers))
    ]
    return GE.DislocationNetwork(lat, loops, 0.1)


def test_odd_and_even_loops_match_dense_reference(lat, rng):
    net = _odd_and_even_loops(lat, [(0, 0, 1)] * 8)
    assert sorted(len(lp) for lp in net.loops) == [3, 4, 5, 7, 8, 9, 17, 33]
    _assert_matches_dense_reference(net, MB.MobilityModel(alpha=0.7, drag=MB.IsotropicDrag(m=1.3)), rng)
    burgers = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1), (1, -1, 0)]
    bcc = MB.MobilityModel(alpha=0.5, drag=MB.BccDrag(B_eg=4.0, B_ec=1.0, B_s=2.0))
    _assert_matches_dense_reference(_odd_and_even_loops(lat, burgers), bcc, rng)


BCC_NEAR_SCREW = MB.MobilityModel(
    alpha=0.5, drag=MB.BccDrag(B_eg=4.0, B_ec=1.0, B_s=2.0), screw_tolerance=1e-3
)
K = EV.DENSE_LOOP


def _screw_ellipses(lat, n):
    """An ellipse of n nodes with b along its major axis, whose tangents at
    the minor-axis ends are exact screws when 4 divides n, and the same
    ellipse turned by 1.5 screw tolerances, which puts them in the blend
    band."""
    lp = SH.ellipse_loop(lat, 1.0, 0.6, n, burgers=(1, 0, 0))
    a = math.asin(1.5 * BCC_NEAR_SCREW.screw_tolerance)
    turn = np.array([[math.cos(a), -math.sin(a), 0], [math.sin(a), math.cos(a), 0], [0, 0, 1]])
    return [lp, GE.Loop(lp.nodes @ turn.T, lp.burgers)]


@pytest.mark.parametrize("n", [3, 4, 5, K - 1, K, K + 1, 2 * K + 1, 128])
def test_single_loop_sizes_match_dense_reference(lat, rng, n):
    # below, at and above the size where cyclic reduction hands over to the dense solve
    iso = MB.MobilityModel(alpha=0.7, drag=MB.IsotropicDrag(m=1.3))
    _assert_matches_dense_reference(SH.single_loop_network(SH.random_loop(lat, rng, n_nodes=n), 0.1), iso, rng)
    tol = BCC_NEAR_SCREW.screw_tolerance
    for lp, band in zip(_screw_ellipses(lat, n), ((0.0, tol), (tol, 2 * tol))):
        net = SH.single_loop_network(lp, 0.1)
        if n % 4 == 0:
            b, tau = net.layout.burgers, net.layout.tangents
            sin = np.linalg.norm(np.cross(b, tau), axis=1) / np.linalg.norm(b, axis=1)
            assert ((sin >= band[0]) & (sin <= band[1])).sum() >= 2
        _assert_matches_dense_reference(net, BCC_NEAR_SCREW, rng)


def test_loops_below_and_above_dense_size_match_dense_reference(lat, rng):
    sizes = (5, K, K + 1, 2 * K + 1, 40)
    burgers = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 1, 1)]
    loops = [
        SH.random_loop(lat, rng, n_nodes=n, burgers=b, center=(3.0 * k, 0.0, 0.0))
        for k, (n, b) in enumerate(zip(sizes, burgers))
    ]
    net = GE.DislocationNetwork(lat, loops + _screw_ellipses(lat, 2 * K + 1), 0.1)
    # two reduction levels take 2K + 1 nodes below K, then every loop is solved dense
    assert len(EV._reduction_plan(tuple(len(lp) for lp in net.loops))[0]) == 2
    _assert_matches_dense_reference(net, MB.MobilityModel(alpha=0.7, drag=MB.IsotropicDrag(m=1.3)), rng)
    _assert_matches_dense_reference(net, BCC_NEAR_SCREW, rng)


def test_large_loop_residual_and_constraint(lat, rng):
    net = SH.single_loop_network(SH.circle_loop(lat, 2048 * 0.05 / (2 * math.pi), 2048), 0.1)
    vf = EV.solve_velocity(net, rng.normal(size=(2048, 3)), MODEL)
    assert vf.residual <= 1e-12
    assert np.abs((vf.v * vf.tangents).sum(axis=1)).max() <= 1e-14 * np.abs(vf.v).max()


def test_import_and_solve_leave_out_scipy_linalg_and_stats():
    code = (
        "import sys, numpy as np, dddflow\n"
        "from dddflow import mobility as MB, shapes as SH\n"
        "net = SH.single_loop_network(SH.circle_loop(SH.cubic_lattice(), 1.0, 32), 0.1)\n"
        "model = MB.MobilityModel(alpha=1.0, drag=MB.IsotropicDrag(m=1.0))\n"
        "dddflow.solve_velocity(net, np.ones((32, 3)), model)\n"
        "print(sorted(m for m in ('scipy.stats', 'scipy.linalg', 'scipy.sparse.linalg') if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_non_finite_force_raises(lat):
    net = SH.single_loop_network(SH.circle_loop(lat, 1.0, 32), 0.1)
    f = np.zeros((32, 3))
    f[5, 1] = np.nan
    with pytest.raises(SolverError, match="residual nan"):
        EV.solve_velocity(net, f, MODEL)


def test_energy_decrement_identity(lat, ev01, rule2):
    # for quadratic psi and A, <f, v> equals the full quadratic dissipation
    net = SH.single_loop_network(SH.circle_loop(lat, 1.0, 64), 0.1)
    f = _force_density(net, ev01, rule2)
    vf = EV.solve_velocity(net, f, MODEL)
    quad = MODEL.alpha * vf.dv_l2**2 + MODEL.drag.m * vf.v_l2**2
    assert abs(vf.power - quad) <= 1e-8 * abs(vf.power)


def test_gradient_penalty_smooths(lat, ev01, rule2):
    net = SH.single_loop_network(SH.ellipse_loop(lat, 1.0, 0.5, 64), 0.1)
    f = _force_density(net, ev01, rule2)
    norms = []
    for alpha in (0.5, 1.0, 2.0, 4.0):
        model = MB.MobilityModel(alpha=alpha, drag=MB.IsotropicDrag(m=1.0))
        norms.append(EV.solve_velocity(net, f, model).dv_l2)
    assert all(a > b for a, b in zip(norms, norms[1:]))


def test_hairpin_rejected(lat):
    b = GE.BurgersVector(lat, (1, 0, 0))
    nodes = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [0.5, 1e-9, 0]])
    net = GE.DislocationNetwork(lat, [GE.Loop(nodes, b)], 0.1)
    with pytest.raises(SolverError):
        EV.solve_velocity(net, np.zeros((4, 3)), MODEL)


def _fixed_dt(dt, **kw):
    """A policy whose step bounds never bind, so every step takes dt."""
    return EV.StepPolicy(dt_max=dt, c1=1e9, c2=1e9, **kw)


def test_step_moves_inward_and_updates_diagnostics(lat, ev01, rule2):
    net = SH.single_loop_network(SH.circle_loop(lat, 1.0, 48), 0.1)
    state = EV.EvolutionState(time=0.0, network=net)
    out = EV.step(state, ev01, MODEL, rule2, _fixed_dt(0.01))
    assert out.time == out.diagnostics[0].dt == 0.01
    r0 = np.linalg.norm(net.loops[0].nodes, axis=1).mean()
    r1 = np.linalg.norm(out.network.loops[0].nodes, axis=1).mean()
    assert r1 < r0
    row = out.diagnostics[0]
    assert row.mass > 0 and row.theta_hat > 0 and np.isfinite(row.energy)


def test_annihilation_event(lat, ev01, rule2):
    # loop length just below kappa*eps = 0.3
    tiny = SH.circle_loop(lat, 0.29 / (2 * np.pi), 12)
    net = SH.single_loop_network(tiny, 0.1)
    state = EV.EvolutionState(time=0.0, network=net)
    out = EV.step(state, ev01, MODEL, rule2, _fixed_dt(1e-6))
    kinds = [e["kind"] for e in out.events]
    assert "annihilation" in kinds
    assert out.termination == "annihilated"
    assert out.network.is_empty()


def test_blowup_detection(lat, ev01, rule2):
    net = SH.single_loop_network(SH.circle_loop(lat, 1.0, 64), 0.1)
    state = EV.EvolutionState(time=0.0, network=net)
    policy = _fixed_dt(0.01, theta_max=2.0)  # circle has theta ~ pi > 2
    out = EV.step(state, ev01, MODEL, rule2, policy)
    assert out.termination == "blowup"
    assert out.events[-1]["kind"] == "blowup"


def test_run_empty_network(lat, ev01, rule2):
    state = EV.run(GE.DislocationNetwork(lat, [], 0.1), ev01, MODEL, rule2, EV.StepPolicy())
    assert state.termination == "empty"


def test_run_shrinks_circle_with_remesh_events(lat, ev01, rule2):
    net = SH.single_loop_network(SH.circle_loop(lat, 0.6, 64), 0.1)
    policy = EV.StepPolicy(t_end=1e9, dt_max=0.5)
    state = EV.run(net, ev01, MODEL, rule2, policy)
    assert state.termination == "annihilated"
    kinds = {e["kind"] for e in state.events}
    assert "remesh" in kinds and "annihilated_all" in kinds
    en = [r.energy for r in state.diagnostics]
    dec = -np.diff(en)
    assert (dec >= -1e-3 * dec.max()).all()


def test_two_coaxial_loops_terminate_by_detection(lat, ev01, rule2):
    eps = 0.1
    loops = [
        SH.circle_loop(lat, 0.8, 48),
        SH.circle_loop(lat, 0.8, 48, center=(0.0, 0.0, 0.5 * eps)),
    ]
    net = GE.DislocationNetwork(lat, loops, eps)
    policy = EV.StepPolicy(t_end=1e9, dt_max=0.2, theta_max=4.0)
    state = EV.run(net, ev01, MODEL, rule2, policy)
    assert state.termination in ("blowup", "dt_floor")


def test_dt_floor_termination(lat, ev01, rule2):
    net = SH.single_loop_network(SH.circle_loop(lat, 1.0, 48), 0.1)
    # dt_max below dt_min forces the floor on the first step
    policy = EV.StepPolicy(t_end=1e9, dt_max=0.5, dt_min=1.0)
    state = EV.run(net, ev01, MODEL, rule2, policy)
    assert state.termination == "dt_floor"


def test_mesh_independence_of_radius_history(lat, ev01, rule2):
    # R(t) for 64 and 128 nodes agrees to < 1% while R > 3 eps
    eps = 0.1
    histories = {}
    for n in (64, 128):
        net = SH.single_loop_network(SH.circle_loop(lat, 1.0, n), eps)
        t, rs = [0.0], [1.0]

        def cb(istep, st, t=t, rs=rs):
            if not st.network.is_empty():
                nodes = st.network.layout.nodes
                t.append(st.time)
                rs.append(float(np.linalg.norm(nodes - nodes.mean(axis=0), axis=1).mean()))

        policy = EV.StepPolicy(t_end=1e9, dt_max=0.5, snapshot_every=1)
        EV.run(net, ev01, MODEL, rule2, policy, snapshot_cb=cb)
        histories[n] = (np.array(t), np.array(rs))
    t64, r64 = histories[64]
    t128, r128 = histories[128]
    t_common = np.linspace(0, min(t64[-1], t128[-1]), 40)
    a = np.interp(t_common, t64, r64)
    b = np.interp(t_common, t128, r128)
    keep = b > 3 * eps
    assert np.abs(a[keep] - b[keep]).max() <= 0.01 * b[keep].max()


def test_repeat_run_bit_identical(lat, ev01, rule2):
    net = SH.single_loop_network(SH.circle_loop(lat, 0.5, 48), 0.1)
    policy = EV.StepPolicy(t_end=0.5, dt_max=0.05)
    csvs = []
    for _ in range(2):
        state = EV.run(net, ev01, MODEL, rule2, policy)
        csvs.append(netio.diagnostics_csv(state.diagnostics))
    assert csvs[0] == csvs[1]


def test_repeat_run_builds_no_kernel_spectrum(lat, ev01, rule2):
    # a loop shrinking to annihilation meets about a hundred grid lengths,
    # and each spectrum must still be cached when the next run needs it;
    # flat along the rule's axis, the run needs only its kernel rows
    net = SH.single_loop_network(SH.circle_loop(lat, 0.5, 32), 0.1)
    unpaired = KN.KernelEvaluator(ev01.elasticity, ev01.profile, KN.SphericalQuadrature(ev01.nodes, ev01.weights))
    policy = EV.StepPolicy(t_end=1e9, dt_max=0.5)
    for ev in (ev01, unpaired):
        first = EV.run(net, ev, MODEL, rule2, policy)
        misses = EF._kernel_spectrum.cache_info().misses, EF._kernel_rows.cache_info().misses
        second = EV.run(net, ev, MODEL, rule2, policy)
        assert first.termination == second.termination == "annihilated"
        assert (EF._kernel_spectrum.cache_info().misses, EF._kernel_rows.cache_info().misses) == misses


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="heap policy is set through glibc's mallopt")
def test_repeat_run_reuses_the_freed_heap():
    # a fresh interpreter whose allocator settings come from the program only;
    # at glibc's defaults the second run faulted its chunk arrays in ~10k times
    code = (
        "import resource\n"
        "from dddflow import elasticity as EL, evolution as EV, kernels as KN, mobility as MB, shapes as SH\n"
        "from dddflow.energy_force import LineQuadratureRule\n"
        "net = SH.single_loop_network(SH.circle_loop(SH.cubic_lattice(), 1.0, 128), 0.1)\n"
        "ev = KN.KernelEvaluator(EL.make_isotropic(1.0, 1.0), KN.MollifierProfile(0.1),\n"
        "                        KN.SphericalQuadrature.product_rule(16, 32))\n"
        "model = MB.MobilityModel(alpha=1.0, drag=MB.IsotropicDrag(m=1.0))\n"
        "args = (net, ev, model, LineQuadratureRule(2), EV.StepPolicy(t_end=0.5))\n"
        "EV.run(*args)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "state = EV.run(*args)\n"
        "print(len(state.diagnostics), resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)"
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    steps, faults = map(int, out.stdout.split())
    assert steps == 10
    assert faults < 1000


def test_run_without_mallopt_takes_the_same_path(lat, ev01, rule2, monkeypatch):
    net = SH.single_loop_network(SH.circle_loop(lat, 0.5, 48), 0.1)
    policy = EV.StepPolicy(t_end=0.2, dt_max=0.05)
    EV._keep_freed_heap.cache_clear()
    normal = EV.run(net, ev01, MODEL, rule2, policy)
    lookups = []

    def no_libc(name):
        lookups.append(name)
        raise OSError("no libc")

    monkeypatch.setattr(EV.ctypes, "CDLL", no_libc)
    EV._keep_freed_heap.cache_clear()
    try:
        bare = EV.run(net, ev01, MODEL, rule2, policy)
    finally:
        EV._keep_freed_heap.cache_clear()
    assert lookups == [None]
    assert bare.termination == normal.termination and len(bare.diagnostics) > 1
    assert [r.values() for r in bare.diagnostics] == [r.values() for r in normal.diagnostics]


def test_bound_monitor(lat, ev01, rule2):
    net = SH.single_loop_network(SH.circle_loop(lat, 1.0, 64), 0.1)
    state = EV.run(net, ev01, MODEL, rule2, EV.StepPolicy(t_end=0.2, dt_max=0.05))
    ratios = EV.bound_monitor(state.diagnostics)
    assert set(ratios) == {"ap_vel", "pk_linf", "length_rate", "mass"}
    for v in ratios.values():
        assert np.isfinite(v) and v >= 0
    with pytest.raises(ValueError):
        EV.bound_monitor([])


def test_in_band_steps_advance_state_in_place_without_remesh(lat, ev01, rule2, monkeypatch):
    # 80 nodes keep segments inside the default band, so no remesh occurs
    net = SH.single_loop_network(SH.circle_loop(lat, 1.0, 80), 0.1)
    net.layout  # built before counting
    state = EV.EvolutionState(time=0.0, network=net)
    policy = _fixed_dt(0.01)
    builds = []
    real_init = GE.NodeLayout.__init__

    def counted(self, loops):
        builds.append(1)
        real_init(self, loops)

    monkeypatch.setattr(GE.NodeLayout, "__init__", counted)
    assert EV.step(state, ev01, MODEL, rule2, policy) is state
    assert EV.step(state, ev01, MODEL, rule2, policy) is state
    # the pushed-forward network is the next state: one layout per step
    assert len(builds) == 2
    assert len(state.diagnostics) == 2 and state.time == 0.01 + 0.01
    assert not any(e["kind"] == "remesh" for e in state.events)
    assert len(state.network.loops[0]) == 80


@pytest.mark.parametrize(
    "radius, n, policy",
    [
        # 64 nodes on R = 3 eps are closer than h_min, so the first step
        # remeshes; the mass bound of every row starts from the first row's mass
        pytest.param(0.3, 64, EV.StepPolicy(t_end=0.2, dt_max=0.05, snapshot_every=1), id="t_end"),
        # a loop just shorter than kappa * eps
        pytest.param(0.29 / (2 * np.pi), 12, EV.StepPolicy(snapshot_every=1), id="annihilated"),
        pytest.param(1.0, 48, EV.StepPolicy(theta_max=2.0, snapshot_every=1), id="blowup"),
        pytest.param(1.0, 48, EV.StepPolicy(t_end=1e9, dt_max=0.5, dt_min=1.0, snapshot_every=1), id="dt_floor"),
    ],
)
def test_run_is_a_loop_of_steps(lat, ev01, rule2, request, radius, n, policy):
    end = request.node.callspec.id
    net = SH.single_loop_network(SH.circle_loop(lat, radius, n), 0.1)
    snapshots = []
    ran = EV.run(net, ev01, MODEL, rule2, policy, snapshot_cb=lambda istep, st: snapshots.append(istep))
    assert ran.termination == end
    hand = EV.EvolutionState(time=0.0, network=net)
    while not hand.termination and policy.t_end - hand.time > policy.dt_min:
        assert EV.step(hand, ev01, MODEL, rule2, policy) is hand
    assert netio.diagnostics_csv(hand.diagnostics) == netio.diagnostics_csv(ran.diagnostics)
    # every step that appends a row takes a snapshot, a dt floor none
    assert snapshots == list(range(1, len(ran.diagnostics) + 1))
    if end == "t_end":
        assert len(ran.diagnostics) > 2 and ran.events[0]["kind"] == "remesh"
        assert hand.events == ran.events[:-1] and ran.events[-1]["kind"] == "t_end"
    else:
        assert hand.events == ran.events and hand.termination == end
    if end == "dt_floor":
        assert ran.diagnostics == [] and [e["kind"] for e in ran.events] == ["dt_floor"]


def _shrink_circle(seed):
    """The benchmark's shrink loop (128 nodes in a randomly turned plane),
    built by the generator in perfbench/workloads.py, to a short t_end."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    net, cfg, _ = module.shrink_circle(seed)
    cfg["stepping"]["t_end"] = 2.0
    return netio.network_from_dict(net), config.loads_config(json.dumps(cfg))


def test_run_turns_the_rule_to_a_planar_network():
    first = []
    for seed in (2701, 3):
        net, cfg = _shrink_circle(seed)
        nodes = net.layout.nodes
        centre = nodes.mean(axis=0)
        normal = np.linalg.svd(nodes - centre)[2][-1]
        ev, flat = cfg.kernel_evaluator(), EF.FLAT * net.epsilon
        assert np.ptp(nodes @ ev.axis) > flat
        off_plane = []

        def record(istep, st):
            off_plane.append(np.abs((st.network.layout.nodes - centre) @ normal).max())

        policy = dataclasses.replace(cfg.step_policy(), snapshot_every=1)
        state = EV.run(net, ev, cfg.mobility_model(), cfg.line_rule(), policy, snapshot_cb=record)
        aligned = [e for e in state.events if e["kind"] == "rule_aligned"]
        assert len(aligned) == 1 and aligned[0]["t"] == 0.0
        assert abs(np.dot(aligned[0]["axis"], normal)) >= 1.0 - 1e-15
        assert len(off_plane) == len(state.diagnostics) > 5 and max(off_plane) <= flat
        first.append(state.diagnostics[0].energy)
    # the lattice turns with the loop and the rule turns to its plane, so the
    # seeds differ only in the rule's phase about the normal
    assert abs(first[0] - first[1]) <= 1e-9 * abs(first[0])


def test_run_keeps_the_rule_of_a_network_normal_to_its_axis(lat, ev01, rule2):
    net = SH.single_loop_network(SH.circle_loop(lat, 0.3, 24), 0.1)
    state = EV.run(net, ev01, MODEL, rule2, EV.StepPolicy(t_end=0.05, dt_max=0.01))
    assert state.termination == "t_end"
    assert not any(e["kind"] == "rule_aligned" for e in state.events)


def test_non_finite_energy_stops_the_run(lat, ev01, rule2, tmp_path, monkeypatch):
    real = EV.energy_and_gradient
    calls = []

    def nan_after_first(net, ev, rule):
        energy, grad = real(net, ev, rule)
        calls.append(1)
        return (energy if len(calls) == 1 else np.nan), grad

    monkeypatch.setattr(EV, "energy_and_gradient", nan_after_first)
    net = SH.single_loop_network(SH.circle_loop(lat, 0.5, 24), 0.1)
    with pytest.raises(SolverError, match="non-finite energy at step 1"):
        EV.run(net, ev01, MODEL, rule2, EV.StepPolicy(t_end=1.0, dt_max=0.01))
    calls.clear()
    netpath, cfgpath, outdir = tmp_path / "net.json", tmp_path / "cfg.json", tmp_path / "run"
    netio.save_network(net, netpath)
    cfgpath.write_text(
        '{"epsilon": 0.1, "quadrature": {"sphere_polar": 12, "sphere_azimuthal": 24, "line_order": 2},'
        ' "stepping": {"t_end": 0.02, "dt_max": 0.01}}'
    )
    code = cli.main(["simulate", "--input", str(netpath), "--config", str(cfgpath), "--out-dir", str(outdir)])
    assert code == 3
    assert not (outdir / "diagnostics.csv").exists()
