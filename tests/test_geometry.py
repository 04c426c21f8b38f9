import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dddflow import geometry as GE
from dddflow import netio
from dddflow import shapes as SH
from dddflow.errors import ConfigError, GeometryError
from geometry_reference import boundary_edges, loop_geometry, midpoint_refined, reversed_loop


def _clip_lengths(starts, vecs, seg_len, centers, radii):
    """Length of each segment inside each ball: shape (n_centers, m, k).

    radii has one row of candidate radii per center.  The (c, m, k)
    arrays are updated in place: fresh temporaries of that size per step
    cost more than the arithmetic.
    """
    rel = starts[None, :, :] - centers[:, None, :]  # (c, m, 3)
    a = np.einsum("md,md->m", vecs, vecs)
    b = 2.0 * np.einsum("cmd,md->cm", rel, vecs)[:, :, None]
    c0 = np.einsum("cmd,cmd->cm", rel, rel)
    # disc = b^2 - 4 a (|rel|^2 - r^2)
    disc = c0[:, :, None] - (radii**2)[:, None, :]
    disc *= 4.0 * a[None, :, None]
    np.subtract(b**2, disc, out=disc)
    ok = disc > 0.0
    sq = np.sqrt(np.where(ok, disc, 0.0), out=disc)
    two_a = 2.0 * a[None, :, None]
    t1 = np.subtract(-b, sq)
    t1 /= two_a
    t2 = np.add(-b, sq, out=sq)
    t2 /= two_a
    frac = np.clip(t2, 0.0, 1.0, out=t2)
    frac -= np.clip(t1, 0.0, 1.0, out=t1)
    np.maximum(frac, 0.0, out=frac)
    frac[~ok] = 0.0
    frac *= seg_len[None, :, None]
    return frac


def mass_ratio_reference(network):
    """The all-segments x all-radii scan that `GE.mass_ratio` replaces,
    O(N^3): the same candidates, every (center, segment, radius) triple
    clipped by the same quadratic."""
    if network.is_empty():
        raise GeometryError("mass ratio of an empty network")
    layout = network.layout
    nodes, vecs, seg_len = layout.nodes, layout.segments, layout.seg_len
    bnorm = np.linalg.norm(layout.burgers, axis=1)
    centers = nodes
    best = 0.0
    # blocks of 2e6 (center, segment, radius) triples, 16 MB per array
    block = max(1, int(2e6 / max(len(nodes) * len(seg_len), 1)))
    for lo in range(0, len(centers), block):
        cb = centers[lo : lo + block]
        d = np.linalg.norm(nodes[None, :, :] - cb[:, None, :], axis=2)  # (c, k)
        radii = np.concatenate([d, np.full((len(cb), 1), 0.5 * network.epsilon)], axis=1)
        radii = np.where(radii > 1e-12, radii, 0.5 * network.epsilon)
        clipped = _clip_lengths(nodes, vecs, seg_len, cb, radii)
        m_of_r = np.einsum("m,cmk->ck", bnorm, clipped, optimize=False)
        best = max(best, float((m_of_r / radii).max()))
    return best


# the sorted-radii estimator against the scan: only the summation order
# and the clip of segments at r = dmax (exactly their length now) differ
MASS_RATIO_RTOL = 1e-14


FCC = 0.5 * np.array([[0.0, 1, 1], [1, 0, 1], [1, 1, 0]])
BCC = 0.5 * np.array([[-1.0, 1, 1], [1, -1, 1], [1, 1, -1]])


def test_lattice_normalization():
    lat = GE.Lattice(2.0 * np.eye(3))
    assert np.allclose(lat.basis, np.eye(3))
    latf = GE.Lattice(3.7 * FCC)
    # shortest vector of the scaled fcc basis must come out at length 1
    shortest = GE.Lattice._shortest_vector_length(latf.basis)
    assert shortest == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(GeometryError):
        GE.Lattice(np.zeros((3, 3)))
    # a cubic lattice in sheared bases: the box scan needed (2 * 402 + 1)^3
    # candidates at s = 400; s = 900 is near the condition number cap
    for s in (400.0, 900.0):
        sheared = [[1.0, s, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        assert np.array_equal(GE.Lattice(sheared).basis, sheared)
    # condition number 2e9: a reduction in floats never settles on it
    near_collinear = [[1.0, 1.0, 0.0], [0.3, 0.3 + 1e-9, 0.0], [0.2, 0.2 - 1e-9, 1.0]]
    with pytest.raises(GeometryError, match="cond"):
        GE.Lattice(near_collinear)
    with pytest.raises(GeometryError, match="finite"):
        GE.Lattice([[1.0, 0.0, 0.0], [0.0, np.nan, 0.0], [0.0, 0.0, 1.0]])


def test_lattice_scale_invariant(rng):
    for b in (np.eye(3), FCC, BCC, rng.normal(size=(3, 3))):
        basis = GE.Lattice(b).basis
        for k in (-700, -1, 1, 700):
            assert np.array_equal(GE.Lattice(2.0**k * b).basis, basis)
    for scale in (1e200, 1e-200):
        data = {"format": "ddd-net/1", "epsilon": 0.1, "lattice": (scale * np.eye(3)).tolist(), "loops": []}
        assert np.array_equal(netio.network_from_dict(data).lattice.basis, np.eye(3))


def box_window(b):
    """Half-width of a coordinate box that holds a shortest vector."""
    return int(np.ceil(np.linalg.norm(np.linalg.inv(b), 2) * np.linalg.norm(b, axis=0).min())) + 1


def shortest_vector_length_box(b):
    """All nonzero coordinate vectors of the box that the reduction's
    unit combinations replaced, at once."""
    bound = box_window(b)
    rng = np.arange(-bound, bound + 1)
    I, J, K = np.meshgrid(rng, rng, rng, indexing="ij")
    coords = np.stack([I.ravel(), J.ravel(), K.ravel()], axis=1)
    coords = coords[np.any(coords != 0, axis=1)]
    return np.linalg.norm(coords @ b.T, axis=1).min()


def test_shortest_vector_slab_scan(rng):
    bases = [np.eye(3), FCC, BCC]
    bases += [np.array([[1.0, s, 0.0], [0.0, 1.0, 0.3 * s], [0.0, 0.0, 1.0]]) for s in (2.5, 6.0, 11.0)]
    bases += [np.linalg.qr(rng.normal(size=(3, 3)))[0] @ b for b in bases[3:]]
    # fcc turned 6 degrees about z: a reduction in floats without a margin
    # on |mu| cycles on its ties
    t = np.radians(6.0)
    bases.append(np.array([[np.cos(t), -np.sin(t), 0.0], [np.sin(t), np.cos(t), 0.0], [0.0, 0.0, 1.0]]) @ FCC)
    # seeded unimodular transforms of turned cubic, fcc and bcc bases
    while len(bases) < 220:
        u = np.eye(3, dtype=np.int64)
        for _ in range(rng.integers(1, 6)):
            i, j = rng.choice(3, 2, replace=False)
            u[:, i] += rng.integers(-3, 4) * u[:, j]
        b = np.linalg.qr(rng.normal(size=(3, 3)))[0] @ (np.eye(3), FCC, BCC)[len(bases) % 3] @ u
        if box_window(b) <= 40:
            bases.append(b)
    for b in bases:
        assert GE.Lattice._shortest_vector_length(b) == shortest_vector_length_box(b)
    # the whole box of this basis (window 64) allocated 229 MB
    tracemalloc.start()
    try:
        GE.Lattice._shortest_vector_length(np.array([[1.0, 62.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2**20


def test_burgers_vector_validation(lat):
    b = GE.BurgersVector(lat, (1, 1, 0))
    assert np.allclose(b.cartesian, [1, 1, 0])
    assert b.norm == pytest.approx(np.sqrt(2))
    with pytest.raises(GeometryError):
        GE.BurgersVector(lat, (0, 0, 0))
    with pytest.raises(GeometryError):
        GE.BurgersVector(lat, (0.5, 0, 0))
    # float64 holds every integer below 2^53; beyond it, the int64 cast wraps
    assert GE.BurgersVector(lat, (2.0**53 - 1, 0, 0)).coords[0] == 2**53 - 1
    for big in (1e20, 2.0**53, -(2**63), 2**70, np.inf, np.nan):
        with pytest.raises(GeometryError, match="2\\^53"):
            GE.BurgersVector(lat, [big, 0, 0])
    data = {"format": "ddd-net/1", "epsilon": 0.1, "lattice": np.eye(3).tolist()}
    data["loops"] = [{"burgers": [1e20, 0, 0], "nodes": [[0, 0, 0], [1, 0, 0], [0, 1, 0]]}]
    with pytest.raises(ConfigError, match="loop 0: Burgers coordinates"):
        netio.network_from_dict(data)


def test_loop_validation(lat):
    b = GE.BurgersVector(lat, (1, 0, 0))
    with pytest.raises(GeometryError):
        GE.Loop(np.array([[0.0, 0, 0], [1, 0, 0]]), b)
    nodes = np.array([[0.0, 0, 0], [1, 0, 0], [1, 0, 0], [0, 1, 0]])
    with pytest.raises(GeometryError):
        GE.Loop(nodes, b)
    for bad in (np.nan, np.inf):
        with pytest.raises(GeometryError, match="finite"):
            GE.Loop(np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, bad]]), b)


def test_mass_polygon(lat):
    lp = SH.circle_loop(lat, 5.0, 64)
    net = GE.DislocationNetwork(lat, [lp], 0.5)
    assert GE.mass(net) == pytest.approx(64 * 2 * 5 * np.sin(np.pi / 64))
    two = GE.DislocationNetwork(
        lat, [lp, SH.circle_loop(lat, 5.0, 64, center=(30.0, 0, 0))], 0.5
    )
    assert GE.mass(two) == pytest.approx(2 * GE.mass(net))
    empty = GE.DislocationNetwork(lat, [], 0.5)
    assert GE.mass(empty) == 0.0
    with pytest.raises(GeometryError):
        GE.mass_ratio(empty)


def test_mass_scaled_by_burgers_norm(lat):
    lp = SH.circle_loop(lat, 5.0, 64, burgers=(1, 1, 0))
    net = GE.DislocationNetwork(lat, [lp], 0.5)
    assert GE.mass(net) == pytest.approx(np.sqrt(2) * 64 * 2 * 5 * np.sin(np.pi / 64))


def test_mass_ratio_circle_window(lat):
    lp = SH.circle_loop(lat, 5.0, 256)
    theta = GE.mass_ratio(GE.DislocationNetwork(lat, [lp], 0.5))
    assert 0.99 * np.pi <= theta <= np.pi


def test_mass_ratio_rigid_motion_invariance(lat, rng):
    from scipy.spatial.transform import Rotation

    lp = SH.random_loop(lat, rng, n_nodes=14)
    net = GE.DislocationNetwork(lat, [lp], 0.2)
    t0 = GE.mass_ratio(net)
    Q = Rotation.random(random_state=3).as_matrix()
    shift = np.array([2.0, -1.0, 0.5])
    moved = GE.Loop(lp.nodes @ Q.T + shift, lp.burgers)
    t1 = GE.mass_ratio(GE.DislocationNetwork(lat, [moved], 0.2))
    assert abs(t1 - t0) <= 1e-10 * t0


def test_mass_ratio_union_monotone(lat, rng):
    l1 = SH.random_loop(lat, rng, n_nodes=12)
    l2 = SH.random_loop(lat, rng, n_nodes=10, center=(1.5, 0.5, 0.0))
    n1 = GE.DislocationNetwork(lat, [l1], 0.2)
    n2 = GE.DislocationNetwork(lat, [l2], 0.2)
    both = GE.DislocationNetwork(lat, [l1, l2], 0.2)
    assert GE.mass_ratio(both) >= max(GE.mass_ratio(n1), GE.mass_ratio(n2)) - 1e-12


def test_mass_ratio_concentric_doubling(lat):
    l1 = SH.circle_loop(lat, 5.0, 256)
    l2 = SH.circle_loop(lat, 5.0 + 1e-7, 256)
    theta = GE.mass_ratio(GE.DislocationNetwork(lat, [l1, l2], 0.5))
    assert theta == pytest.approx(2 * np.pi, rel=2e-4)


@st.composite
def loop_networks(draw):
    """1-3 random loops of 5-60 nodes; with eps in {0.05, 0.2, 1} their
    segments (0.02-2.5 long) fall on both sides of eps."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    lat = SH.cubic_lattice()
    loops = [
        SH.random_loop(
            lat, rng, n_nodes=int(rng.integers(5, 61)), scale=rng.uniform(0.2, 2.0),
            burgers=[(1, 0, 0), (1, 1, 0), (1, 1, 1)][int(rng.integers(3))],
            center=rng.uniform(-1.0, 1.0, size=3) * li,
        )
        for li in range(draw(st.integers(1, 3)))
    ]
    return GE.DislocationNetwork(lat, loops, draw(st.sampled_from([0.05, 0.2, 1.0])))


@settings(max_examples=20, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(loop_networks())
def test_mass_ratio_matches_reference_scan(net):
    want = mass_ratio_reference(net)
    assert abs(GE.mass_ratio(net) - want) <= MASS_RATIO_RTOL * want


def test_mass_ratio_reference_ties(lat, rng):
    """Radii that equal endpoint distances, with a segment tangent to the
    sphere there (the square's sides), repeated radii (two identical
    loops) and nearly repeated ones (the concentric 256-gons)."""
    lp = SH.random_loop(lat, rng, n_nodes=20)
    nets = [
        GE.DislocationNetwork(lat, [SH.square_loop(lat, 2.0, 8)], 0.1),
        GE.DislocationNetwork(lat, [SH.square_loop(lat, 2.0, 3)], 1.0),
        GE.DislocationNetwork(lat, [lp, lp], 0.2),
        GE.DislocationNetwork(
            lat, [SH.circle_loop(lat, 5.0, 256), SH.circle_loop(lat, 5.0 + 1e-7, 256)], 0.5
        ),
    ]
    for net in nets:
        want = mass_ratio_reference(net)
        assert abs(GE.mass_ratio(net) - want) <= MASS_RATIO_RTOL * want


@pytest.mark.parametrize("n", [6, 8, 64])
def test_mass_ratio_regular_polygon_ties(lat, n):
    """A regular polygon's distances from a node come in equal pairs, and
    each is the farther endpoint distance of two segments; two coincident
    polygons repeat every radius and give zero distances (eps/2 radii)."""
    for eps in (0.1, 1.0):
        one = SH.circle_loop(lat, 1.0, n)
        for loops in ([one], [one, SH.circle_loop(lat, 1.0, n)]):
            net = GE.DislocationNetwork(lat, loops, eps)
            want = mass_ratio_reference(net)
            assert abs(GE.mass_ratio(net) - want) <= MASS_RATIO_RTOL * want


def test_mass_ratio_large_circle_window(lat):
    # 2048 nodes: ~150 s for the O(N^3) reference scan
    lp = SH.circle_loop(lat, 2048 * 0.05 / (2 * np.pi), 2048)
    theta = GE.mass_ratio(GE.DislocationNetwork(lat, [lp], 0.1))
    assert 0.99 * np.pi <= theta <= np.pi


def test_mass_ratio_memory(lat):
    # the merged sort of 3n+1 keys per center and the (c, n, 3) offsets peaked at 21.8 MB
    net = GE.DislocationNetwork(lat, [SH.circle_loop(lat, 512 * 0.05 / (2 * np.pi), 512)], 0.1)
    net.layout
    tracemalloc.start()
    try:
        GE.mass_ratio(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6


def test_mass_ratio_lower_bound(lat, rng):
    nets = [
        GE.DislocationNetwork(lat, [SH.circle_loop(lat, 1.0, 16)], 0.1),
        GE.DislocationNetwork(lat, [SH.square_loop(lat, 2.0, 8)], 0.1),
        GE.DislocationNetwork(lat, [SH.random_loop(lat, rng, 12)], 0.2),
    ]
    for n in nets:
        assert GE.mass_ratio(n) >= 1.0 - 1e-6


def test_pushforward_identity_and_translation(lat):
    lp = SH.circle_loop(lat, 1.0, 32)
    net = GE.DislocationNetwork(lat, [lp], 0.1)
    same = GE.pushforward(net, np.zeros((32, 3)))
    assert np.array_equal(same.loops[0].nodes, lp.nodes)
    shifted = GE.pushforward(net, np.tile([0.3, -0.2, 1.0], (32, 1)))
    assert GE.mass(shifted) == pytest.approx(GE.mass(net), rel=1e-14)


def test_pushforward_radial_shrink(lat):
    lp = SH.circle_loop(lat, 1.0, 64)
    net = GE.DislocationNetwork(lat, [lp], 0.1)
    rhat = lp.nodes / np.linalg.norm(lp.nodes, axis=1)[:, None]
    moved = GE.pushforward(net, -0.1 * rhat)
    assert np.linalg.norm(moved.loops[0].nodes, axis=1) == pytest.approx(0.9)
    assert GE.mass(moved) == pytest.approx(0.9 * GE.mass(net))


def test_pushforward_errors(lat):
    lp = SH.circle_loop(lat, 1.0, 8)
    net = GE.DislocationNetwork(lat, [lp], 0.1)
    with pytest.raises(GeometryError):
        GE.pushforward(net, np.zeros((7, 3)))
    collapse = -lp.nodes  # moves every node to the origin
    with pytest.raises(GeometryError):
        GE.pushforward(net, collapse)


def test_remesh_conforming_fixed_point(lat):
    lp = SH.circle_loop(lat, 1.0, 64)  # h ~ 0.098
    coarse = SH.circle_loop(lat, 1.0, 16, center=(3, 0, 0))  # h ~ 0.39
    out = GE.remesh(GE.DislocationNetwork(lat, [lp, coarse], 0.1), 0.05, 0.12)
    # the same object, next to a resampled loop: callers tell them apart by identity
    assert out.loops[0] is lp
    assert out.loops[1] is not coarse
    assert out.layout.seg_len[out.layout.loop_of == 1].max() <= 0.12
    # with nothing to resample the network itself comes back
    net = GE.DislocationNetwork(lat, [lp], 0.1)
    assert GE.remesh(net, 0.05, 0.12) is net


def test_remesh_octagon(lat):
    lp = SH.circle_loop(lat, 5.0, 8)
    net = GE.DislocationNetwork(lat, [lp], 0.5)
    out = GE.remesh(net, 0.25, 0.5)
    assert len(out.loops[0]) >= 63
    assert GE.mass(out) == pytest.approx(GE.mass(net), rel=5e-3)
    lengths = out.layout.seg_len
    assert lengths.min() >= 0.25 - 1e-9 and lengths.max() <= 0.5 + 1e-9
    again = GE.remesh(out, 0.25, 0.5)
    assert np.abs(again.loops[0].nodes - out.loops[0].nodes).max() <= 1e-10


def test_remesh_too_short(lat):
    tiny = SH.circle_loop(lat, 1.0 / (2 * np.pi), 8)  # total length ~ 1
    net = GE.DislocationNetwork(lat, [tiny], 0.5)
    with pytest.raises(GeometryError):
        GE.remesh(net, 0.5, 1.0)


def test_remesh_preconditions(lat):
    net = GE.DislocationNetwork(lat, [SH.circle_loop(lat, 1.0, 16)], 0.1)
    with pytest.raises(GeometryError):
        GE.remesh(net, 0.5, 0.5)


def test_planar_surface_area_and_orientation(lat):
    lp = SH.circle_loop(lat, 5.0, 64)
    surf = GE.make_planar_surface(lp)
    assert surf.areas.sum() == pytest.approx(0.5 * 64 * 25 * np.sin(2 * np.pi / 64))
    assert np.allclose(surf.normals, [0.0, 0.0, 1.0])
    flipped = GE.make_planar_surface(reversed_loop(lp))
    assert np.allclose(flipped.normals, [0.0, 0.0, -1.0])


def test_planar_surface_rejects_bad_loops(lat):
    b = GE.BurgersVector(lat, (0, 0, 1))
    nodes = SH.circle_loop(lat, 1.0, 16).nodes.copy()
    nodes[3, 2] += 1.0
    with pytest.raises(GeometryError):
        GE.make_planar_surface(GE.Loop(nodes, b))
    # planar but not star-shaped about the centroid
    star = SH.circle_loop(lat, 1.0, 16).nodes.copy()
    star[0, :2] = [-0.5, 0.0]  # fold one vertex deep into the polygon
    with pytest.raises(GeometryError):
        GE.make_planar_surface(GE.Loop(star, b))


def test_cone_surface(lat):
    lp = SH.circle_loop(lat, 2.0, 32)
    centroid = lp.nodes.mean(axis=0)
    flat = GE.make_planar_surface(lp)
    cone0 = GE.make_cone_surface(lp, centroid)
    assert np.allclose(flat.triangles, cone0.triangles)
    lifted = GE.make_cone_surface(lp, centroid + [0.0, 0.0, 0.5])
    assert lifted.areas.sum() > flat.areas.sum()
    with pytest.raises(GeometryError):
        GE.make_cone_surface(lp, lp.nodes[4])


def _directed_loop_edges(loop):
    return [
        (tuple(loop.nodes[i]), tuple(loop.nodes[(i + 1) % len(loop)]))
        for i in range(len(loop))
    ]


@pytest.mark.parametrize("refine", ["none", "refined", "split_radial"])
def test_surface_boundary_matches_loop(lat, refine):
    lp = SH.circle_loop(lat, 2.0, 24)
    surf = GE.make_cone_surface(lp, np.array([0.1, -0.2, 1.0]))
    if refine == "refined":
        surf = midpoint_refined(surf)
    elif refine == "split_radial":
        surf = surf.split_radial()
    boundary = boundary_edges(surf)
    if refine == "none":
        assert sorted(boundary) == sorted(_directed_loop_edges(lp))
    else:
        # each original edge is covered by sub-edges, same orientation
        assert len(boundary) == len(lp) * (2 if refine == "refined" else 1)


def test_node_tangents_and_hairpin(lat):
    lp = SH.circle_loop(lat, 1.0, 32)
    layout = GE.DislocationNetwork(lat, [lp], 0.1).layout
    tau = layout.tangents
    assert not layout.hairpin.any()
    assert np.allclose(np.linalg.norm(tau, axis=1), 1.0)
    assert np.abs((tau * lp.nodes).sum(axis=1)).max() < 1e-12  # tangent to the circle
    fold = GE.DislocationNetwork(lat, [_fold_back_loop(lat)], 0.1).layout
    assert fold.hairpin.any()


def _fold_back_loop(lat):
    """Four nodes whose path reverses direction at node 2 (a hairpin)."""
    nodes = np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0], [0.5, 1e-9, 0]])
    return GE.Loop(nodes, GE.BurgersVector(lat, (1, 0, 0)))


def test_layout_matches_per_loop_geometry(lat, rng):
    loops = [
        SH.random_loop(lat, rng, n_nodes=3, burgers=(0, 1, 0)),
        _fold_back_loop(lat),
        SH.random_loop(lat, rng, n_nodes=5, burgers=(1, 1, 0), center=(3.0, 0.0, 0.0)),
        SH.random_loop(lat, rng, n_nodes=7, burgers=(0, 0, 1), center=(0.0, 3.0, 1.0)),
        SH.circle_loop(lat, 1.3, 33, burgers=(1, -1, 2), center=(-2.0, 0.5, 0.0)),
    ]
    layout = GE.DislocationNetwork(lat, loops, 0.1).layout
    refs = [loop_geometry(lp) for lp in loops]
    assert layout.hairpin.any()
    for name in ("segments", "seg_len", "lumped", "tangents", "hairpin"):
        assert np.array_equal(getattr(layout, name), np.concatenate([r[name] for r in refs]))
    assert np.array_equal(layout.loop_length, [r["total"] for r in refs])
    sizes = [len(lp) for lp in loops]
    start = np.cumsum([0] + sizes)
    assert np.array_equal(layout.start, start)
    assert np.array_equal(layout.loop_of, np.repeat(np.arange(5), sizes))
    assert np.array_equal(layout.nodes, np.concatenate([lp.nodes for lp in loops]))
    assert np.array_equal(
        layout.burgers, np.concatenate([np.tile(lp.burgers.cartesian, (len(lp), 1)) for lp in loops])
    )
    index = [np.arange(a, b) for a, b in zip(start[:-1], start[1:])]
    assert np.array_equal(layout.succ, np.concatenate([np.roll(i, -1) for i in index]))
    assert np.array_equal(layout.pred, np.concatenate([np.roll(i, 1) for i in index]))
    assert all(not array.flags.writeable for array in vars(layout).values())


def test_empty_layout_shapes(lat):
    layout = GE.DislocationNetwork(lat, [], 0.1).layout
    for name in ("nodes", "segments", "tangents", "burgers"):
        assert getattr(layout, name).shape == (0, 3) and getattr(layout, name).dtype == float
    for name in ("seg_len", "lumped", "loop_length"):
        assert getattr(layout, name).shape == (0,) and getattr(layout, name).dtype == float
    for name in ("succ", "pred", "loop_of"):
        assert getattr(layout, name).shape == (0,) and getattr(layout, name).dtype == np.int64
    assert layout.hairpin.shape == (0,) and layout.hairpin.dtype == bool
    assert np.array_equal(layout.start, [0]) and layout.start.dtype == np.int64


@settings(max_examples=25, deadline=None)
@given(st.floats(0.3, 3.0), st.integers(8, 40))
def test_mass_positive_property(radius, n_nodes):
    lat = SH.cubic_lattice()
    net = GE.DislocationNetwork(lat, [SH.circle_loop(lat, radius, n_nodes)], 0.1)
    m = GE.mass(net)
    assert 0 < m <= 2 * np.pi * radius


def test_oversized_segment_advisory(lat):
    lp = SH.circle_loop(lat, 1.0, 8)  # h ~ 0.77
    net = GE.DislocationNetwork(lat, [lp], 0.1)
    flags = np.flatnonzero(net.layout.seg_len > net.epsilon)
    assert len(flags) == 8 and flags[0] == 0
    fine = GE.DislocationNetwork(lat, [SH.circle_loop(lat, 1.0, 80)], 0.1)
    assert not (fine.layout.seg_len > fine.epsilon).any()
