import numpy as np
import pytest

from dddflow import elasticity as EL
from dddflow import energy_force as EF
from dddflow import geometry as GE
from dddflow import kernels as KN
from dddflow import shapes as SH


@pytest.fixture(scope="module")
def three_loop_net(lat):
    rng = np.random.default_rng(3)
    loops = [
        SH.random_loop(lat, rng, n_nodes=10, scale=1.2, burgers=(1, 0, 0)),
        SH.random_loop(lat, rng, n_nodes=9, scale=1.0, burgers=(0, 1, 0), center=(2.5, 0.3, 0.1)),
        SH.random_loop(lat, rng, n_nodes=11, scale=0.8, burgers=(0, 0, 1), center=(-1.8, 1.0, -0.4)),
    ]
    return GE.DislocationNetwork(lat, loops, 0.25)


def test_line_rule_exactness():
    rule = EF.LineQuadratureRule(4)
    assert rule.weights.sum() == pytest.approx(1.0, rel=1e-15)
    for deg in range(2 * 4):
        got = (rule.weights * rule.points**deg).sum()
        assert got == pytest.approx(1.0 / (deg + 1), rel=1e-13)
    with pytest.raises(ValueError):
        EF.LineQuadratureRule(0)


def test_energy_positive_and_translation_invariant(three_loop_net, ev_quarter, rule4):
    bd = EF.energy_line(three_loop_net, ev_quarter, rule4)
    assert bd.total > 0
    shift = np.tile([0.37, -1.2, 0.55], (three_loop_net.n_nodes, 1))
    bd2 = EF.energy_line(GE.pushforward(three_loop_net, shift), ev_quarter, rule4)
    assert abs(bd2.total - bd.total) <= 1e-12 * abs(bd.total)


def test_breakdown_matrix(three_loop_net, ev_quarter, rule4):
    bd = EF.energy_line(three_loop_net, ev_quarter, rule4)
    assert bd.matrix.shape == (3, 3)
    assert bd.total == pytest.approx(bd.matrix.sum(), rel=1e-15)
    assert np.abs(bd.matrix - bd.matrix.T).max() <= 1e-12 * np.abs(bd.matrix).max()


def test_far_pair_additivity(lat, rule4):
    eps = 0.25
    ev = KN.KernelEvaluator(EL.make_isotropic(1, 1), KN.MollifierProfile(eps))
    lp = SH.circle_loop(lat, 1.0, 32)
    single = EF.energy_line(SH.single_loop_network(lp, eps), ev, rule4).total
    far = SH.circle_loop(lat, 1.0, 32, center=(1000 * eps, 0.0, 0.0))
    both = EF.energy_line(GE.DislocationNetwork(lat, [lp, far], eps), ev, rule4).total
    assert both == pytest.approx(2 * single, rel=1e-3)


def test_energy_self_convergence(lat, rule4):
    eps = 0.25
    ev = KN.KernelEvaluator(EL.make_isotropic(1, 1), KN.MollifierProfile(eps))
    e64 = EF.energy_line(SH.single_loop_network(SH.circle_loop(lat, 2.0, 64), eps), ev, rule4).total
    e128 = EF.energy_line(SH.single_loop_network(SH.circle_loop(lat, 2.0, 128), eps), ev, rule4).total
    assert abs(e128 - e64) <= 0.01 * abs(e128)


def test_gradient_matches_fd_subset(three_loop_net, ev_quarter, rule4):
    e0, grad = EF.energy_and_gradient(three_loop_net, ev_quarter, rule4)
    h = 1e-6 * 0.25
    worst = 0.0
    for idx in (0, 11, 23):
        for d in range(3):
            dp = np.zeros((three_loop_net.n_nodes, 3))
            dp[idx, d] = h
            ep = EF.energy_and_gradient(GE.pushforward(three_loop_net, dp), ev_quarter, rule4)[0]
            em = EF.energy_and_gradient(GE.pushforward(three_loop_net, -dp), ev_quarter, rule4)[0]
            worst = max(worst, abs((ep - em) / (2 * h) - grad[idx, d]))
    assert worst <= 1e-5 * np.abs(grad).max()


def test_gradient_sums_to_zero(three_loop_net, ev_quarter, rule4):
    grad = EF.discrete_energy_gradient(three_loop_net, ev_quarter, rule4)
    assert np.abs(grad.sum(axis=0)).max() <= 1e-10 * np.abs(grad).max()


def test_pk_force_shrinks_prismatic_circle(lat, rule4):
    eps = 0.1
    ev = KN.KernelEvaluator(EL.make_isotropic(1, 1), KN.MollifierProfile(eps))
    loop = SH.circle_loop(lat, 1.0, 64)
    ff = EF.pk_force(SH.single_loop_network(loop, eps), ev, rule4)
    rhat = loop.nodes / np.linalg.norm(loop.nodes, axis=1)[:, None]
    assert ((ff.density * rhat).sum(axis=1) < 0).all()
    assert np.abs((ff.density * ff.tangents).sum(axis=1)).max() <= 1e-12
    assert not ff.hairpin.any()
    assert ff.lumped == pytest.approx(2 * np.sin(np.pi / 64))


def test_pk_force_rotational_covariance(lat, rule4, rng):
    from scipy.spatial.transform import Rotation

    eps = 0.25
    # finer sphere rule so the quadrature anisotropy is below the tolerance
    ev = KN.KernelEvaluator(
        EL.make_isotropic(1, 1), KN.MollifierProfile(eps),
        KN.SphericalQuadrature.product_rule(48, 96),
    )
    lp = SH.random_loop(lat, rng, n_nodes=14, scale=1.0, burgers=(1, 0, 0))
    f0 = EF.pk_force(SH.single_loop_network(lp, eps), ev, rule4)
    Q = Rotation.random(random_state=7).as_matrix()
    lat_rot = GE.Lattice(Q)
    lp_rot = GE.Loop(lp.nodes @ Q.T, GE.BurgersVector(lat_rot, (1, 0, 0)))
    f1 = EF.pk_force(GE.DislocationNetwork(lat_rot, [lp_rot], eps), ev, rule4)
    err = np.linalg.norm(f1.density - f0.density @ Q.T, axis=1).max()
    assert err <= 1e-8 * np.linalg.norm(f0.density, axis=1).max()


def test_force_equals_minus_gradient_density(lat, rule4):
    eps = 0.1
    ev = KN.KernelEvaluator(EL.make_isotropic(1, 1), KN.MollifierProfile(eps))
    net = SH.single_loop_network(SH.circle_loop(lat, 1.0, 126), eps)
    ff = EF.pk_force(net, ev, rule4)
    fg = -EF.discrete_energy_gradient(net, ev, rule4) / ff.lumped[:, None]
    err = np.linalg.norm(fg - ff.density, axis=1).max() / np.linalg.norm(ff.density, axis=1).max()
    assert err < 0.01  # first-order consistent densities at h ~ eps/2


def test_surface_energy_matches_line(lat):
    eps = 0.25
    ev = KN.KernelEvaluator(EL.make_isotropic(1, 1), KN.MollifierProfile(eps))
    loop = SH.circle_loop(lat, 4 * eps, 48)
    net = SH.single_loop_network(loop, eps)
    e_line = EF.energy_line(net, ev, EF.LineQuadratureRule(4)).total
    disk = GE.make_planar_surface(loop).split_radial().split_radial()
    e_disk = EF.energy_surface([disk], ev)
    assert e_disk == pytest.approx(e_line, rel=0.01)


def test_surface_energy_orientation_invariance(lat):
    eps = 0.25
    ev = KN.KernelEvaluator(EL.make_isotropic(1, 1), KN.MollifierProfile(eps))
    loop = SH.circle_loop(lat, 1.0, 24)
    s1 = GE.make_planar_surface(loop).split_radial()
    s2 = GE.make_planar_surface(loop.reversed()).split_radial()
    e1 = EF.energy_surface([s1], ev)
    e2 = EF.energy_surface([s2], ev)
    assert e1 == pytest.approx(e2, rel=1e-12)


def test_surface_form_force_cross_check(lat, rule4):
    eps = 0.1
    ev = KN.KernelEvaluator(EL.make_isotropic(1, 1), KN.MollifierProfile(eps))
    loop = SH.circle_loop(lat, 0.8, 48)
    surf = GE.make_planar_surface(loop).refined().refined()
    g_line = EF.pk_force(SH.single_loop_network(loop, eps), ev, rule4).G
    g_surf = EF.pk_force_surface_form(loop, surf, ev)
    err = np.linalg.norm(g_surf - g_line, axis=1).max() / np.linalg.norm(g_line, axis=1).max()
    assert err < 0.02


def test_force_bound_report(lat, rule4):
    eps = 0.1
    ev = KN.KernelEvaluator(EL.make_isotropic(1, 1), KN.MollifierProfile(eps))
    net = SH.single_loop_network(SH.circle_loop(lat, 1.0, 64), eps)
    checks = EF.force_bound_report(net, EF.pk_force(net, ev, rule4))
    assert {c.name for c in checks} == {"pk_linf", "pk_l2"}
    for c in checks:
        assert c.ratio < 1.0


def test_force_bound_scale_covariance(lat, rule4):
    # ||f||_inf * eps / (theta * log(1 + 2M/(eps theta))) is scale invariant
    def combo(radius, eps, n=64):
        ev = KN.KernelEvaluator(EL.make_isotropic(1, 1), KN.MollifierProfile(eps))
        net = SH.single_loop_network(SH.circle_loop(lat, radius, n), eps)
        ff = EF.pk_force(net, ev, rule4)
        m = GE.mass(net)
        th = GE.mass_ratio(net)
        f_inf = np.linalg.norm(ff.density, axis=1).max()
        return f_inf * eps / (th * np.log(1 + 2 * m / (eps * th)))

    a = combo(1.0, 0.1)
    b = combo(2.0, 0.2)
    assert b == pytest.approx(a, rel=1e-6)


def test_force_bound_zero_field(lat):
    net = SH.single_loop_network(SH.circle_loop(lat, 1.0, 16), 0.1)
    lumped = net.loops[0].lumped_lengths()
    taus, _ = net.loops[0].node_tangents()
    field = EF.ForceField(
        density=np.zeros((16, 3)), lumped=lumped, G=np.zeros((16, 3)),
        tangents=taus, hairpin=np.zeros(16, bool),
    )
    for c in EF.force_bound_report(net, field):
        assert c.lhs == 0.0 <= c.rhs
        assert c.ratio == 0.0


def test_continuity_check(lat, rule4, rng):
    eps = 0.1
    ev = KN.KernelEvaluator(EL.make_isotropic(1, 1), KN.MollifierProfile(eps))
    net = SH.single_loop_network(SH.circle_loop(lat, 1.0, 48), eps)
    zero = EF.continuity_check(net, np.zeros((48, 3)), ev, rule4)
    assert zero.lhs == 0.0
    shift = EF.continuity_check(net, np.tile([0.3, 0.1, -0.2], (48, 1)), ev, rule4)
    f_scale = np.linalg.norm(EF.pk_force(net, ev, rule4).density, axis=1).max()
    assert shift.lhs <= 1e-10 * f_scale and shift.rhs > 0
    g = 1e-3 * eps * rng.normal(size=(48, 3))
    small = EF.continuity_check(net, g, ev, rule4)
    assert small.lhs <= small.rhs


def test_empty_network_errors(lat, ev_quarter, rule4):
    empty = GE.DislocationNetwork(lat, [], 0.25)
    with pytest.raises(ValueError):
        EF.energy_line(empty, ev_quarter, rule4)
    with pytest.raises(ValueError):
        EF.pk_force(empty, ev_quarter, rule4)


def test_oversized_segments_warn(lat, ev_quarter, rule4):
    import warnings as W

    coarse = SH.single_loop_network(SH.circle_loop(lat, 1.0, 8), 0.25)
    with W.catch_warnings(record=True) as rec:
        W.simplefilter("always")
        EF.energy_line(coarse, ev_quarter, rule4)
    assert any("epsilon" in str(r.message) for r in rec)
