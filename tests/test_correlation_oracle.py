"""The grid correlation engine against the exact O(N^2) pair sum.

`exact_correlate` is the oracle: the sums of `energy_force._correlate`
evaluated pair by pair with the closed-form profile.  Swapping it in
gives the pair-sum value of every consumer.  The kernel-level pair sums
(K, grad K and J from `kernels.sphere_sum` at every point difference)
check the consumers' assembly independently of the correlation form.
`pk_force_surface_form` is a further consumer of the engine: the force's
auxiliary field from a spanning surface, a cross-check of the line
formula.
"""

import copy
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dddflow import elasticity as EL
from dddflow import energy_force as EF
from dddflow import geometry as GE
from dddflow import kernels as KN
from dddflow import shapes as SH
from dddflow.elasticity import ALTERNATING
from geometry_reference import midpoint_refined

TOL = 1e-8
RULE = EF.LineQuadratureRule(2)
BURGERS = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
# derandomized: the same examples on every run, so a margin once measured
# (worst engine error 2.3e-9 on G over 40 random networks) stays measured
EXAMPLES = settings(
    max_examples=6, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow]
)


def exact_correlate(ev, orders, src_t, src_a, dst_t):
    # pair by pair per sphere node: node-major (zc, n) and (zc, n, C)
    src_t, src_a = src_t.T, src_a.transpose(1, 0, 2)
    d = (src_t if dst_t is None else dst_t.T)[:, :, None] - src_t[:, None, :]
    sums = [np.matmul(KN.eta(ev.profile, d, order), src_a) for order in orders]
    if dst_t is None:
        return [src_a.transpose(0, 2, 1) @ s for s in sums]
    return [s.transpose(1, 0, 2) for s in sums]


def pair_sum(fn, *args):
    with mock.patch.object(EF, "_correlate", exact_correlate):
        return fn(*args)


def pk_force_surface_form(loop, surface, ev):
    """The auxiliary field G of `pk_force` at the loop nodes, via the
    spanning surface: the Stokes-transformed pair sum with the second
    kernel derivative.  The sign is fixed by agreement with the line
    formula."""
    b = loop.burgers.cartesian
    P, a9 = EF._surface_cloud([surface])
    z = ev.nodes
    fkz = ev.fk.reshape(-1, 3, 3, 3, 3)
    # F_n(cf)k = A_def A_klm fk_alcd b_a z_m z_e, (c, f) the density channel
    F = np.einsum(
        "def,klm,nalcd,a,nm,ne->ncfk", ALTERNATING, ALTERNATING, fkz, b, z, z, optimize=True
    ).reshape(-1, 9, 3)
    (G,) = EF._sweep(ev, F, None, [(2, ev.weights[:, None])], P, a9, loop.nodes)
    return G[0]


def rel(got, want):
    return float(np.abs(np.asarray(got) - want).max() / np.abs(want).max())


def _evaluator(eps, anisotropic):
    C = EL.make_isotropic(1.0, 1.0)
    if anisotropic:
        arr = C.c.copy()
        for n in range(3):
            arr[n, n, n, n] += 0.6  # cubic: C11 - C12 - 2 C44 = 0.6
        C = EL.ElasticityTensor(arr)
    return KN.KernelEvaluator(C, KN.MollifierProfile(eps), KN.SphericalQuadrature.product_rule(12, 24))


@st.composite
def networks(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    n_loops = draw(st.integers(1, 3))
    eps = draw(st.sampled_from([0.15, 0.25, 0.4]))
    rng = np.random.default_rng(seed)
    lat = SH.cubic_lattice()
    loops = []
    for li in range(n_loops):
        loops.append(
            SH.random_loop(
                lat, rng, n_nodes=int(rng.integers(6, 11)), scale=rng.uniform(0.3, 0.8),
                burgers=BURGERS[int(rng.integers(len(BURGERS)))],
                center=rng.uniform(-1.0, 1.0, size=3) * li,
            )
        )
    net = GE.DislocationNetwork(lat, loops, eps)
    return net, _evaluator(eps, draw(st.booleans()))


@pytest.mark.filterwarnings("ignore::UserWarning")
@EXAMPLES
@given(networks())
def test_line_engine_matches_pair_oracle(case):
    net, ev = case
    bd, bd_pair = EF.energy_line(net, ev, RULE), pair_sum(EF.energy_line, net, ev, RULE)
    assert rel(bd.matrix, bd_pair.matrix) <= TOL
    (e, g), (e_pair, g_pair) = EF.energy_and_gradient(net, ev, RULE), pair_sum(
        EF.energy_and_gradient, net, ev, RULE
    )
    assert abs(e - e_pair) <= TOL * abs(e_pair)
    assert rel(g, g_pair) <= TOL
    G, G_pair = EF.pk_force(net, ev, RULE).G, pair_sum(EF.pk_force, net, ev, RULE).G
    assert rel(G, G_pair) <= TOL


@pytest.mark.filterwarnings("ignore::UserWarning")
@EXAMPLES
@given(networks())
def test_line_engine_matches_kernel_pair_sums(case):
    """Energy blocks from K, and G from grad K, at every Gauss-point pair."""
    net, ev = case
    points, a9 = EF._gauss_cloud(net, RULE)
    n = len(points)
    d = (points[:, None, :] - points[None, :, :]).reshape(-1, 3)
    K = KN.sphere_sum(ev, d).reshape(n, n, 9, 9)
    e_pairs = np.einsum("ic,ijcd,jd->ij", a9, K, a9, optimize=True)
    onehot = np.eye(net.n_loops)[np.tile(net.layout.loop_of, RULE.order)]
    blocks = 0.5 * onehot.T @ e_pairs @ onehot
    assert rel(EF.energy_line(net, ev, RULE).matrix, blocks) <= TOL

    # G_m(s) = sum_g A_mlq b_a a_g,cd dK_alcd/ds_q (x_s - x_g)
    xn = net.layout.nodes
    bvec = np.concatenate([np.tile(lp.burgers.cartesian, (len(lp), 1)) for lp in net.loops])
    ds = (xn[:, None, :] - points[None, :, :]).reshape(-1, 3)
    dK = np.stack([KN.sphere_sum(ev, ds, 1, directions=[e]) for e in np.eye(3)], axis=-1)
    dK = dK.reshape(len(xn), n, 3, 3, 9, 3)
    G = np.einsum("mlq,sa,gx,sgalxq->sm", ALTERNATING, bvec, a9, dK, optimize=True)
    assert rel(EF.pk_force(net, ev, RULE).G, G) <= TOL


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_line_engine_in_factor_range_matches_pair_oracle():
    """Six loops with the six cubic Burgers vectors: their b (x) e densities
    span all 9 channels, so the engine correlates the 5 of FK's range."""
    rng = np.random.default_rng(6)
    lat = SH.cubic_lattice()
    loops = [
        SH.random_loop(lat, rng, n_nodes=7, scale=0.5, burgers=b, center=(li % 3, li // 3, 0.0))
        for li, b in enumerate(BURGERS)
    ]
    net = GE.DislocationNetwork(lat, loops, 0.25)
    ev = _evaluator(0.25, True)
    assert np.linalg.matrix_rank(EF._gauss_cloud(net, RULE)[1]) == 9
    assert ev.fk_range.shape[2] == 5
    channels = []

    def spy(ev, orders, src_t, src_a, dst_t):
        channels.append(src_a.shape[2])
        return correlate(ev, orders, src_t, src_a, dst_t)

    correlate = EF._correlate
    with mock.patch.object(EF, "_correlate", spy):
        bd = EF.energy_line(net, ev, RULE)
        e, g = EF.energy_and_gradient(net, ev, RULE)
        G = EF.pk_force(net, ev, RULE).G
    # energy_line puts each of the six loops in its own 5 slots
    assert set(channels) == {5, 6 * 5}
    # without the range the engine correlates the densities' 9 channels
    ev_full = copy.copy(ev)
    ev_full.fk_range = None
    assert rel(bd.matrix, EF.energy_line(net, ev_full, RULE).matrix) <= 1e-12
    e_full, g_full = EF.energy_and_gradient(net, ev_full, RULE)
    assert abs(e - e_full) <= 1e-12 * abs(e_full)
    assert rel(g, g_full) <= 1e-12
    assert rel(G, EF.pk_force(net, ev_full, RULE).G) <= 1e-12
    assert rel(bd.matrix, pair_sum(EF.energy_line, net, ev, RULE).matrix) <= TOL
    e_pair, g_pair = pair_sum(EF.energy_and_gradient, net, ev, RULE)
    assert abs(e - e_pair) <= TOL * abs(e_pair)
    assert rel(g, g_pair) <= TOL
    assert rel(G, pair_sum(EF.pk_force, net, ev, RULE).G) <= TOL


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("anisotropic", [False, True])
def test_compact_loop_with_cut_kernel_matches_pair_oracle(anisotropic):
    """One 8-node loop of diameter below 3 eps: every chunk's projections
    span fewer grid nodes than the profile's cut, so every kernel is cut
    at the cloud's own extent."""
    eps = 0.25
    rng = np.random.default_rng(8)
    loop = SH.random_loop(SH.cubic_lattice(), rng, n_nodes=8, scale=1.1 * eps, burgers=(1, 1, 0))
    assert np.linalg.norm(loop.nodes[:, None] - loop.nodes[None], axis=2).max() <= 3.0 * eps
    net = SH.single_loop_network(loop, eps)
    ev = _evaluator(eps, anisotropic)
    reaches = []

    def spy(epsilon, order, nfft, reach):
        reaches.append(reach)
        return spectrum(epsilon, order, nfft, reach)

    spectrum = EF._kernel_spectrum
    with mock.patch.object(EF, "_kernel_spectrum", spy):
        bd = EF.energy_line(net, ev, RULE)
        e, g = EF.energy_and_gradient(net, ev, RULE)
        G = EF.pk_force(net, ev, RULE).G
    assert reaches and max(reaches) < EF.KERNEL_HALF
    assert rel(bd.matrix, pair_sum(EF.energy_line, net, ev, RULE).matrix) <= TOL
    e_pair, g_pair = pair_sum(EF.energy_and_gradient, net, ev, RULE)
    assert abs(e - e_pair) <= TOL * abs(e_pair)
    assert rel(g, g_pair) <= TOL
    assert rel(G, pair_sum(EF.pk_force, net, ev, RULE).G) <= TOL


def _flat_network(case):
    """Circles of 0.5 eps segments in the rule's plane, isotropic, or the
    three coplanar loops of three Burgers vectors, cubic (their densities
    span 6 channels and their targets' Burgers vectors all 9)."""
    lat, eps = SH.cubic_lattice(), 0.1
    rule = KN.SphericalQuadrature.product_rule(16, 32)
    if case == "coplanar":
        loops = [
            SH.circle_loop(lat, 0.3, 24, burgers=b, center=(0.8 * k, 0.3 * (k % 2), 0.0))
            for k, b in enumerate([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        ]
        ev = _evaluator(eps, True)
        ev = KN.KernelEvaluator(ev.elasticity, ev.profile, rule)
        return GE.DislocationNetwork(lat, loops, eps), ev
    n_nodes, burgers = case
    loop = SH.circle_loop(lat, n_nodes * 0.5 * eps / (2.0 * np.pi), n_nodes, burgers=burgers)
    ev = KN.KernelEvaluator(EL.make_isotropic(1.0, 1.0), KN.MollifierProfile(eps), rule)
    return SH.single_loop_network(loop, eps), ev


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize(
    "case",
    [(n, b) for n in (7, 12, 128) for b in ((0, 0, 1), (1, 0, 0))] + ["coplanar"],
    ids=lambda c: c if isinstance(c, str) else f"{c[0]}-{'prismatic' if c[1][2] else 'glide'}",
)
def test_flat_sweep_matches_pair_oracle(case):
    """A cloud in the rule's plane takes the azimuth sweep, which never
    calls `_correlate`; the oracle runs on the same nodes without their
    azimuths."""
    net, ev = _flat_network(case)
    unpaired = KN.KernelEvaluator(ev.elasticity, ev.profile, KN.SphericalQuadrature(ev.nodes, ev.weights))
    surfaces = [GE.make_planar_surface(lp) for lp in net.loops]
    with mock.patch.object(EF, "_correlate", side_effect=AssertionError("not a flat sweep")):
        (e, g), G = EF.energy_and_gradient(net, ev, RULE), EF.pk_force(net, ev, RULE).G
        blocks, es = EF.energy_line(net, ev, RULE).matrix, EF.energy_surface(surfaces, ev)
    e_pair, g_pair = pair_sum(EF.energy_and_gradient, net, unpaired, RULE)
    assert abs(e - e_pair) <= TOL * abs(e_pair)
    assert rel(g, g_pair) <= TOL
    assert rel(G, pair_sum(EF.pk_force, net, unpaired, RULE).G) <= TOL
    assert rel(blocks, pair_sum(EF.energy_line, net, unpaired, RULE).matrix) <= TOL
    es_pair = pair_sum(EF.energy_surface, surfaces, unpaired)
    assert abs(es - es_pair) <= TOL * abs(es_pair)


@st.composite
def spanned_loops(draw):
    """One or two loops with cone surfaces; two give cross-surface terms."""
    seed = draw(st.integers(0, 2**32 - 1))
    n_loops = draw(st.integers(1, 2))
    eps = draw(st.sampled_from([0.2, 0.3]))
    rng = np.random.default_rng(seed)
    lat = SH.cubic_lattice()
    loops, surfs = [], []
    for li in range(n_loops):
        loop = SH.random_loop(
            lat, rng, n_nodes=int(rng.integers(8, 13)), scale=rng.uniform(0.4, 0.8),
            burgers=BURGERS[int(rng.integers(len(BURGERS)))],
            center=rng.uniform(-1.0, 1.0, size=3) * li,
        )
        apex = loop.nodes.mean(axis=0) + rng.uniform(-0.3, 0.3, size=3)
        loops.append(loop)
        surfs.append(GE.make_cone_surface(loop, apex).split_radial())
    return loops, surfs, _evaluator(eps, draw(st.booleans()))


@EXAMPLES
@given(spanned_loops())
def test_surface_engine_matches_pair_oracle(case):
    loops, surfs, ev = case
    es, es_pair = EF.energy_surface(surfs, ev), pair_sum(EF.energy_surface, surfs, ev)
    assert abs(es - es_pair) <= TOL * abs(es_pair)
    G = pk_force_surface_form(loops[0], surfs[0], ev)
    G_pair = pair_sum(pk_force_surface_form, loops[0], surfs[0], ev)
    assert rel(G, G_pair) <= TOL
    # slip energy from J at every quadrature-point pair, across surfaces too
    P, a9 = EF._surface_cloud(surfs)
    J = KN.sphere_sum(ev, (P[:, None] - P[None]).reshape(-1, 3), 2, ev.fj)
    e_J = 0.5 * np.einsum("ic,ijcd,jd->", a9, J.reshape(len(P), len(P), 9, 9), a9, optimize=True)
    assert abs(es - e_J) <= TOL * abs(e_J)


@pytest.mark.filterwarnings("ignore::UserWarning")
@EXAMPLES
@given(networks(), st.tuples(*[st.floats(-50.0, 50.0)] * 3))
def test_energy_translation_invariant(case, shift):
    net, ev = case
    e0 = EF.energy_line(net, ev, RULE).total
    moved = GE.pushforward(net, np.tile(shift, (net.n_nodes, 1)))
    assert abs(EF.energy_line(moved, ev, RULE).total - e0) <= 1e-12 * abs(e0)


@pytest.mark.filterwarnings("ignore::UserWarning")
@EXAMPLES
@given(networks(), st.data())
def test_reversal_with_burgers_negation_keeps_energy(case, data):
    net, ev = case
    flip = data.draw(st.lists(st.booleans(), min_size=net.n_loops, max_size=net.n_loops))
    loops = [
        GE.Loop(lp.nodes[::-1].copy(), GE.BurgersVector(net.lattice, -lp.burgers.coords)) if f else lp
        for lp, f in zip(net.loops, flip)
    ]
    e0 = EF.energy_line(net, ev, RULE).total
    e1 = EF.energy_line(GE.DislocationNetwork(net.lattice, loops, net.epsilon), ev, RULE).total
    assert abs(e1 - e0) <= 1e-12 * abs(e0)


@pytest.mark.filterwarnings("ignore::UserWarning")
@EXAMPLES
@given(networks())
def test_loop_pair_matrix_symmetric(case):
    net, ev = case
    B = EF.energy_line(net, ev, RULE).matrix
    assert np.abs(B - B.T).max() <= 1e-12 * np.abs(B).max()


def test_surface_form_force_cross_check(lat, rule4):
    eps = 0.1
    ev = KN.KernelEvaluator(EL.make_isotropic(1, 1), KN.MollifierProfile(eps))
    loop = SH.circle_loop(lat, 0.8, 48)
    surf = midpoint_refined(midpoint_refined(GE.make_planar_surface(loop)))
    g_line = EF.pk_force(SH.single_loop_network(loop, eps), ev, rule4).G
    g_surf = pk_force_surface_form(loop, surf, ev)
    err = np.linalg.norm(g_surf - g_line, axis=1).max() / np.linalg.norm(g_line, axis=1).max()
    assert err < 0.02
