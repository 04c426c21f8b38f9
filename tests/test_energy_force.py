import tracemalloc

import numpy as np
import pytest
import scipy.fft

from dddflow import elasticity as EL
from dddflow import energy_force as EF
from dddflow import evolution as EV
from dddflow import geometry as GE
from dddflow import kernels as KN
from dddflow import mobility as MB
from dddflow import shapes as SH
from dddflow.calibration import BOUND_CONSTANTS
from dddflow.errors import GeometryError
from geometry_reference import reversed_loop


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


def test_spline_matrix_partition_of_unity_and_first_moment(rng):
    dx, nfft = 0.25 / 6, 64
    base = rng.uniform(-40.0, 40.0, size=(1, 4))
    # random offsets within a spacing, and offsets at and next to both ends
    f = np.concatenate([rng.uniform(0.0, 1.0, 40), [0.0, 1e-15, 1e-9, 0.5, 1 - 1e-9, 1 - 1e-15]])
    t = base + ((rng.integers(0, 40, f.size) + f) * dx)[:, None]
    lo = t.min(axis=0)
    S = EF._spline_matrix(t, lo, dx, nfft)
    assert S.shape == (t.size, 4 * nfft)
    w, local = S.data.reshape(-1, 6), S.indices.reshape(-1, 6) % nfft
    coord = ((t - lo) / dx + 3.0).ravel()
    assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-14
    assert np.abs((w * local).sum(axis=1) - coord).max() <= 1e-14 * coord.max()


def test_spline_columns_stay_in_their_node_grid(three_loop_net, ev_quarter, rule4, monkeypatch):
    # far from the origin t - lo rounds: a margin subtracted from lo can put
    # the tap of the chunk's minimum at index -1, in the previous node's grid
    net = GE.pushforward(three_loop_net, np.tile([731.3, -517.9, 293.7], (three_loop_net.n_nodes, 1)))
    spline, at_min = EF._spline_matrix, []

    def checked(t, lo, dx, nfft):
        # checked before the matrix is used: its products do not bounds-check columns
        S = spline(t, lo, dx, nfft)
        n, zc = t.shape
        # row i * zc + k against node k's grid
        local = S.indices.reshape(n, zc, 6) - (np.arange(zc) * nfft)[:, None]
        local = local.transpose(1, 0, 2).reshape(zc, -1)
        assert local.min() >= 1 and local.max() < nfft
        # a point at the node's minimum has its leftmost tap at index 1
        on_min = np.any(t == lo, axis=0)
        assert (local.min(axis=1)[on_min] == 1).all()
        at_min.append(on_min.sum())
        return S

    monkeypatch.setattr(EF, "_spline_matrix", checked)
    EF.energy_and_gradient(net, ev_quarter, rule4)
    EF.pk_force(net, ev_quarter, rule4)
    EF.energy_line(net, ev_quarter, rule4)
    assert sum(at_min) >= 3 * len(ev_quarter.weights)


def test_parseval_sums_equal_gathered_sums(three_loop_net, ev_quarter, rule4):
    points, a9 = EF._gauss_cloud(three_loop_net, rule4)
    ts = points @ ev_quarter.nodes[:16].T
    orders = (0, 1, 2)
    a = np.broadcast_to(a9[:, None], (len(a9), 16, 9))
    sums = EF._correlate(ev_quarter, orders, ts, a, None)
    gathered = EF._correlate(ev_quarter, orders, ts, a, ts)
    for got, corr in zip(sums, gathered):
        want = np.matmul(a9.T, corr.transpose(1, 0, 2))
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


HALF = 72  # the profile's +-12 eps cut in eps/6 grid spacings


def long_grid_correlate(ev, order, src_t, src_a, dst_t):
    """`_correlate`'s gathered sums on a grid of 512 nodes with the kernel
    at its full cut, so no lag that a target meets is dropped."""
    eps, nfft = ev.profile.epsilon, 512
    dx = EF.GRID_STEP * eps
    lo = np.minimum(src_t.min(axis=0), dst_t.min(axis=0))
    zc, n_chan = src_t.shape[1], src_a.shape[2]
    rho = EF._spline_matrix(src_t, lo, dx, nfft).T @ src_a.reshape(-1, n_chan)
    spec = scipy.fft.rfft(rho.reshape(zc, nfft, n_chan), axis=1)
    conv = scipy.fft.irfft(spec * EF._kernel_spectrum(eps, order, nfft, HALF)[:, None], n=nfft, axis=1)
    gathered = EF._spline_matrix(dst_t, lo, dx, nfft) @ conv.reshape(zc * nfft, n_chan)
    return gathered.reshape(-1, zc, n_chan)


@pytest.mark.parametrize("m", [8, 20, 72, 73, 74])
def test_cut_kernel_correlation_matches_long_grid(ev_quarter, m, rng):
    # a chunk of three sphere nodes whose widest projection gives m
    dx = EF.GRID_STEP * ev_quarter.profile.epsilon
    extent = (m - 6.5) * dx
    src_t = (3.7 + extent * rng.uniform(0.0, 1.0, (3, 40)) * np.array([[1.0], [0.9], [0.6]])).T
    src_t[:2, 0] = 3.7, 3.7 + extent
    dst_t = (3.7 + extent * rng.uniform(0.0, 1.0, (3, 25))).T
    src_a = rng.normal(size=(3, 40, 2)).transpose(1, 0, 2)
    orders = (0, 1, 2)
    for targets in (src_t, dst_t, None):
        got = EF._correlate(ev_quarter, orders, src_t, src_a, targets)
        for order, g in zip(orders, got):
            if targets is None:  # the Parseval path: sums over the sources
                corr = long_grid_correlate(ev_quarter, order, src_t, src_a, src_t)
                want = src_a.transpose(1, 2, 0) @ corr.transpose(1, 0, 2)
            else:
                want = long_grid_correlate(ev_quarter, order, src_t, src_a, targets)
            assert np.abs(g - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("nfft", [150, 160, 512])
def test_full_reach_spectrum_is_unchanged(nfft):
    eps = 0.25
    toff = np.arange(-HALF, HALF + 1) * (EF.GRID_STEP * eps)
    prof = KN.MollifierProfile(eps)
    for order in (0, 1, 2):
        ker = np.zeros(nfft)
        ker[: HALF + 1] = KN.eta(prof, toff[HALF:], order)
        ker[-HALF:] = KN.eta(prof, toff[:HALF], order)
        want = scipy.fft.rfft(ker) / np.sinc(np.arange(nfft // 2 + 1) / nfft) ** 12
        assert np.array_equal(EF._kernel_spectrum(eps, order, nfft, HALF), want)


@pytest.mark.parametrize("m", [73, 100, 300])
def test_azimuth_kernel_at_unit_sine_is_the_node_spectrum(m):
    # at s = 1 and no cut (m - 1 >= 72 lags) the row deconvolved on its own
    # grid gives the spectrum deconvolved on the correlation grid
    for order in (0, 1, 2):
        nfft, spec = EF._azimuth_kernels(0.25, order, (1.0,), m)
        want = EF._kernel_spectrum(0.25, order, nfft, HALF)
        want = want.imag if order % 2 else want.real
        assert spec.shape == (nfft // 2 + 1, 1)
        assert np.abs(spec[:, 0] - want).max() <= 1e-13 * np.abs(want).max()


def test_widest_kernel_row_is_cut_after_its_own_deconvolution(iso11):
    eps, m = 0.1, 200
    ev = KN.KernelEvaluator(iso11, KN.MollifierProfile(eps), KN.SphericalQuadrature.product_rule(24, 48))
    _, sines, _ = ev.azimuth_frame
    s = min(sines)
    half = int(HALF / s)
    assert 0.09 < s < 0.1 and 700 < half < 750
    # sample, deconvolve and cut on the row's own grid, then move to the
    # correlation grid of a cloud spanning m - 1 spacings
    n = scipy.fft.next_fast_len(2 * half + 1, real=True)
    lags, kept = np.arange(-half, half + 1), np.arange(1 - m, m)
    for order in (0, 1, 2):
        ker = np.zeros(n)
        ker[lags] = KN.eta(KN.MollifierProfile(eps), s * lags * (EF.GRID_STEP * eps), order)
        full = scipy.fft.irfft(scipy.fft.rfft(ker) / np.sinc(np.arange(n // 2 + 1) / n) ** 12, n)
        nfft, spec = EF._azimuth_kernels(eps, order, sines, m)
        assert nfft == scipy.fft.next_fast_len(2 * m - 1, real=True)
        cut = np.zeros(nfft)
        cut[kept] = full[kept]
        want = scipy.fft.rfft(cut)
        want = want.imag if order % 2 else want.real
        got = spec[:, sines.index(s)]
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _tilted(net, angle=0.3):
    """The network turned by `angle` about the x axis, off the xy plane."""
    c, s = np.cos(angle), np.sin(angle)
    R = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    return GE.DislocationNetwork(net.lattice, [GE.Loop(lp.nodes @ R.T, lp.burgers) for lp in net.loops], net.epsilon)


# chunks: the plan of the loop tilted off the rule's axis, in sphere
# nodes, then of the flat loop, in the 16 pairs of azimuths
@pytest.mark.parametrize("n_nodes, radius, chunks", [(10, 0.1, ([256], [16])), (128, 1.0, ([32] * 8, [16]))])
def test_sweep_sizes_chunks_and_grids_by_the_cloud(lat, iso11, monkeypatch, n_nodes, radius, chunks):
    # the shrink run's rule at its start (R = 10 eps) and near its end (R = eps)
    ev = KN.KernelEvaluator(iso11, KN.MollifierProfile(0.1), KN.SphericalQuadrature.product_rule(16, 32))
    flat = SH.single_loop_network(SH.circle_loop(lat, radius, n_nodes), 0.1)
    sizes, grids = [], []
    spline = EF._spline_matrix

    def spy_spline(t, lo, dx, nfft, merged=False):
        sizes.append(t.shape[1])
        grids.append(nfft)
        return spline(t, lo, dx, nfft, merged)

    monkeypatch.setattr(EF, "_spline_matrix", spy_spline)
    for net, plan in zip((_tilted(flat), flat), chunks):
        sizes.clear()
        grids.clear()
        EF.energy_and_gradient(net, ev, EF.LineQuadratureRule(2))
        assert sizes == plan
        assert (max(grids) < 2 * HALF + 1) == (n_nodes == 10)


def _unpaired(ev):
    """The evaluator on the same rule without its mirror pairs."""
    rule = KN.SphericalQuadrature(ev.nodes, ev.weights)
    return KN.KernelEvaluator(ev.elasticity, ev.profile, rule, ev.fk_scale)


def _line_outputs(net, ev, rule):
    energy, grad = EF.energy_and_gradient(net, ev, rule)
    field = EF.pk_force(net, ev, rule)
    surfaces = [GE.make_planar_surface(lp) for lp in net.loops]
    return {
        "energy": energy,
        "gradient": grad,
        "G": field.G,
        "density": field.density,
        "energy_line": EF.energy_line(net, ev, rule).matrix,
        "energy_surface": EF.energy_surface(surfaces, ev),
    }


def _assert_pairing_exact(net, ev, monkeypatch):
    """A flat network's sums equal the unpaired ones on the same rule
    within 1e-8 relative, each sweep correlating once per pair of
    azimuths and no sphere node on its own."""
    swept, grids, correlate, spline = [], [], EF._correlate, EF._spline_matrix

    def spy(ev, orders, src_t, src_a, dst_t):
        swept.append(src_t.shape[1])
        return correlate(ev, orders, src_t, src_a, dst_t)

    def spy_spline(t, lo, dx, nfft, merged=False):
        grids.append(t.shape[1])
        return spline(t, lo, dx, nfft, merged)

    for order in (2, 4):
        rule = EF.LineQuadratureRule(order)
        with monkeypatch.context() as m:
            m.setattr(EF, "_correlate", spy)
            m.setattr(EF, "_spline_matrix", spy_spline)
            paired = _line_outputs(net, ev, rule)
        # four sweeps, each on one grid per pair of azimuths, and pk_force's
        # targets gathered through a spline matrix of their own
        assert swept == [] and sum(grids) == 5 * len(np.unique(ev.azimuth)) // 2
        grids.clear()
        want = _line_outputs(net, _unpaired(ev), rule)
        for key, value in paired.items():
            err = np.abs(value - want[key]).max() / np.abs(want[key]).max()
            assert err <= 1e-8, (key, order, err)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("burgers", [(0, 0, 1), (1, 0, 0)], ids=["prismatic", "glide"])
@pytest.mark.parametrize("n_nodes", [7, 12, 128, 256])
def test_flat_loop_sweeps_one_node_per_mirror_pair(lat, iso11, monkeypatch, n_nodes, burgers):
    eps = 0.1
    ev = KN.KernelEvaluator(iso11, KN.MollifierProfile(eps), KN.SphericalQuadrature.product_rule(16, 32))
    loop = SH.circle_loop(lat, n_nodes * 0.5 * eps / (2.0 * np.pi), n_nodes, burgers=burgers)
    _assert_pairing_exact(SH.single_loop_network(loop, eps), ev, monkeypatch)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_coplanar_loops_pair_on_their_own_basis(lat, monkeypatch):
    # three Burgers vectors on in-plane tangents span 6 channels, more than
    # the 5 of FK's range: the paired path keeps the densities' own basis
    eps = 0.1
    c = EL.make_isotropic(1.0, 1.0).c.copy()
    for n in range(3):
        c[n, n, n, n] += 0.6  # cubic: C11 - C12 - 2 C44 = 0.6
    ev = KN.KernelEvaluator(EL.ElasticityTensor(c), KN.MollifierProfile(eps), KN.SphericalQuadrature.product_rule(16, 32))
    loops = [
        SH.circle_loop(lat, 0.3, 24, burgers=b, center=(0.8 * k, 0.3 * (k % 2), 0.0))
        for k, b in enumerate([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    ]
    net = GE.DislocationNetwork(lat, loops, eps)
    assert np.linalg.matrix_rank(EF._gauss_cloud(net, EF.LineQuadratureRule(2))[1]) == 6
    assert ev.fk_range.shape[2] == 5
    _assert_pairing_exact(net, ev, monkeypatch)


def test_flat_sweep_memory_at_the_top_rung(lat, iso11):
    # the ladder's 2048-node circle: at most 1.5x the 6.1 MB traced peak of
    # the one-node-per-mirror-pair sweep that the azimuth sweep replaced
    eps = 0.1
    ev = KN.KernelEvaluator(iso11, KN.MollifierProfile(eps), KN.SphericalQuadrature.product_rule(24, 48))
    net = SH.single_loop_network(SH.circle_loop(lat, 2048 * 0.5 * eps / (2.0 * np.pi), 2048), eps)
    rule = EF.LineQuadratureRule(4)
    EF.energy_and_gradient(net, ev, rule)
    tracemalloc.start()
    try:
        EF.energy_and_gradient(net, ev, rule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 6.1e6


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_loop_off_its_plane_takes_the_unpaired_path(lat, iso11):
    eps = 0.1
    ev = KN.KernelEvaluator(iso11, KN.MollifierProfile(eps), KN.SphericalQuadrature.product_rule(16, 32))
    loop = SH.circle_loop(lat, 0.6, 64)
    nodes = loop.nodes.copy()
    nodes[5, 2] += 10 * EF.FLAT * eps
    net = SH.single_loop_network(GE.Loop(nodes, loop.burgers), eps)
    rule = EF.LineQuadratureRule(2)
    got, want = _line_outputs(net, ev, rule), _line_outputs(net, _unpaired(ev), rule)
    assert all(np.array_equal(got[key], want[key]) for key in want)


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
    grad = EF.energy_and_gradient(three_loop_net, ev_quarter, rule4)[1]
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
    fg = -EF.energy_and_gradient(net, ev, rule4)[1] / ff.lumped[:, None]
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
    s2 = GE.make_planar_surface(reversed_loop(loop)).split_radial()
    e1 = EF.energy_surface([s1], ev)
    e2 = EF.energy_surface([s2], ev)
    assert e1 == pytest.approx(e2, rel=1e-12)


def unmerged_surface_cloud(surfaces):
    """The midedge rule with every triangle's three points kept apart."""
    pts, a9 = [], []
    for surf in surfaces:
        tri = surf.triangles
        bn = np.einsum("a,tm->tam", surf.slip.cartesian, surf.normals).reshape(-1, 9)
        for i, j in ((0, 1), (1, 2), (2, 0)):
            pts.append(0.5 * (tri[:, i] + tri[:, j]))
            a9.append(bn * (surf.areas / 3.0)[:, None])
    return np.concatenate(pts), np.concatenate(a9)


@pytest.mark.parametrize("n", [3, 7, 24])
def test_surface_cloud_merges_shared_midpoints(lat, n):
    fan = GE.make_planar_surface(SH.circle_loop(lat, 1.0, n, burgers=(1, 1, 0)))
    P, a9 = EF._surface_cloud([fan])
    # n spokes shared by two triangles each, n boundary edges
    assert P.shape == (2 * n, 3)
    assert len(np.unique(P, axis=0)) == 2 * n
    _, a9_all = unmerged_surface_cloud([fan])
    assert np.abs(a9.sum(axis=0) - a9_all.sum(axis=0)).max() <= 1e-15 * np.abs(a9_all).sum()


def test_surface_energy_matches_unmerged_cloud(lat, monkeypatch):
    ev = KN.KernelEvaluator(EL.make_isotropic(1, 1), KN.MollifierProfile(0.25))
    loop = SH.circle_loop(lat, 1.0, 24)
    disk = GE.make_planar_surface(loop).split_radial()
    cone = GE.make_cone_surface(loop, loop.nodes.mean(axis=0) + [0.1, -0.2, 0.5]).split_radial()
    merged = [EF.energy_surface([s], ev) for s in (disk, cone)]
    monkeypatch.setattr(EF, "_surface_cloud", unmerged_surface_cloud)
    for e, s in zip(merged, (disk, cone)):
        e_all = EF.energy_surface([s], ev)
        assert abs(e - e_all) <= 1e-13 * abs(e_all)


def force_bound_ratios(net, field):
    """pk_linf through the run's monitor, and pk_l2 (which no run monitors):
    |f|_2 <= C_pk_l2 / eps |b|_max sqrt(M) theta log(1 + 2 M / (eps theta))."""
    model = MB.MobilityModel(alpha=1.0, drag=MB.IsotropicDrag(m=1.0))
    vf = EV.solve_velocity(net, field.density, model)
    m, theta, eps = GE.mass(net), GE.mass_ratio(net), net.epsilon
    f_inf = float(np.linalg.norm(field.density, axis=1).max())
    r_linf = EV._bound_ratios(net, model, vf, f_inf, m, theta, 0.0, m)[1]
    f_l2 = float(np.sqrt((field.lumped * (field.density**2).sum(axis=1)).sum()))
    logterm = np.log(1.0 + 2.0 * m / (eps * theta))
    rhs_l2 = BOUND_CONSTANTS["pk_l2"] / eps * net.max_burgers_norm() * np.sqrt(m) * theta * logterm
    return {"pk_linf": r_linf, "pk_l2": f_l2 / rhs_l2}


def test_force_bound_report(lat, rule4):
    eps = 0.1
    ev = KN.KernelEvaluator(EL.make_isotropic(1, 1), KN.MollifierProfile(eps))
    net = SH.single_loop_network(SH.circle_loop(lat, 1.0, 64), eps)
    for ratio in force_bound_ratios(net, EF.pk_force(net, ev, rule4)).values():
        assert ratio < 1.0


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
    layout = net.layout
    field = EF.ForceField(
        density=np.zeros((16, 3)), lumped=layout.lumped, G=np.zeros((16, 3)),
        tangents=layout.tangents, hairpin=np.zeros(16, bool),
    )
    assert force_bound_ratios(net, field) == {"pk_linf": 0.0, "pk_l2": 0.0}


def continuity(net, g, ev, rule):
    """Deformation continuity of the force (which no run monitors), as
    (lhs, rhs) of |f(x + g) - f(x)|_inf
    <= (1 + C M) |d_tau g|_inf + C M |g|_inf; the polyline pullback is
    node correspondence."""
    f0 = EF.pk_force(net, ev, rule).density
    f1 = EF.pk_force(GE.pushforward(net, g), ev, rule).density
    lhs = float(np.linalg.norm(f1 - f0, axis=1).max())
    layout = net.layout
    grad_inf = float((np.linalg.norm(g[layout.succ] - g, axis=1) / layout.seg_len).max())
    cm = BOUND_CONSTANTS["continuity"] * GE.mass(net)
    return lhs, (1.0 + cm) * grad_inf + cm * float(np.linalg.norm(g, axis=1).max())


def test_continuity_check(lat, rule4, rng):
    eps = 0.1
    ev = KN.KernelEvaluator(EL.make_isotropic(1, 1), KN.MollifierProfile(eps))
    net = SH.single_loop_network(SH.circle_loop(lat, 1.0, 48), eps)
    assert continuity(net, np.zeros((48, 3)), ev, rule4)[0] == 0.0
    shift_lhs, shift_rhs = continuity(net, np.tile([0.3, 0.1, -0.2], (48, 1)), ev, rule4)
    f_scale = np.linalg.norm(EF.pk_force(net, ev, rule4).density, axis=1).max()
    assert shift_lhs <= 1e-10 * f_scale and shift_rhs > 0
    g = 1e-3 * eps * rng.normal(size=(48, 3))
    small_lhs, small_rhs = continuity(net, g, ev, rule4)
    assert small_lhs <= small_rhs


def test_empty_network_errors(lat, ev_quarter, rule4):
    empty = GE.DislocationNetwork(lat, [], 0.25)
    for fn in (EF.energy_line, EF.energy_and_gradient, EF.pk_force):
        with pytest.raises(GeometryError):
            fn(empty, ev_quarter, rule4)


def test_oversized_segments_warn(lat, ev_quarter, rule4):
    import warnings as W

    coarse = SH.single_loop_network(SH.circle_loop(lat, 1.0, 8), 0.25)
    with W.catch_warnings(record=True) as rec:
        W.simplefilter("always")
        EF.energy_line(coarse, ev_quarter, rule4)
    assert any("epsilon" in str(r.message) for r in rec)


def test_chunk_sum_independent_of_chunk_size(three_loop_net, iso11, rule4, monkeypatch):
    # every sphere node its own chunk against the default chunking: the
    # in-order sum of per-chunk partials must reproduce every field
    ev = KN.KernelEvaluator(iso11, KN.MollifierProfile(0.25), KN.SphericalQuadrature.product_rule(8, 16))

    def fields():
        energy, grad = EF.energy_and_gradient(three_loop_net, ev, rule4)
        matrix = EF.energy_line(three_loop_net, ev, rule4).matrix
        return [np.array(energy), grad, matrix, EF.pk_force(three_loop_net, ev, rule4).G]

    default = fields()
    for again, ref in zip(fields(), default):
        assert np.array_equal(again, ref)
    monkeypatch.setattr(EF, "CHUNK_BUDGET", 1)
    for single, ref in zip(fields(), default):
        assert np.abs(single - ref).max() <= 1e-12 * np.abs(ref).max()
