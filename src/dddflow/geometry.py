"""Dislocation networks as closed oriented polyline loops on a lattice.

A network is a finite union of closed loops, each with a constant
lattice-valued Burgers vector, so the boundary-of-slip constraint holds
by construction.  A loop holds only its nodes and Burgers vector; the
network's NodeLayout holds all of their geometry (segments, lengths,
tangents, loop lengths) as per-node arrays, which every operation reads.
All values are immutable; operations return new networks.
"""

import fractions
import functools
import itertools

import numpy as np

from .errors import GeometryError

__all__ = [
    "Lattice",
    "BurgersVector",
    "Loop",
    "NodeLayout",
    "DislocationNetwork",
    "SpanningSurface",
    "mass",
    "mass_ratio",
    "pushforward",
    "remesh",
    "make_planar_surface",
    "make_cone_surface",
]

MIN_SEGMENT = 1e-12
# A pairwise-reduced basis has a shortest vector among these 26 combinations.
UNIT_COMBINATIONS = np.array([c for c in itertools.product((-1, 0, 1), repeat=3) if any(c)])
# Floats evaluate a lattice vector to ~3 eps cond of its length, below 1e-9.
MAX_LATTICE_CONDITION = 1e6
# mass_ratio works on blocks of this many (center, segment) pairs, and
# clips at most this many kept (center, segment, radius) triples at once:
# slices of 2^15 clip a 400-node star faster than 2^14 or 2^16.
MASS_RATIO_PAIRS = 1 << 16
MASS_RATIO_TRIPLES = 1 << 15


class Lattice:
    """Invertible basis, rescaled so the shortest lattice vector has length 1."""

    def __init__(self, basis):
        b = np.asarray(basis, dtype=float)
        if b.shape != (3, 3):
            raise GeometryError("lattice basis must be a 3x3 matrix")
        if not np.isfinite(b).all():
            raise GeometryError("lattice basis must be finite")
        # a power-of-two rescale changes only exponents, so the result does not depend on scale
        b = np.ldexp(b, -np.frexp(np.abs(b).max())[1])
        if not np.linalg.cond(b) <= MAX_LATTICE_CONDITION:
            raise GeometryError(f"lattice basis is singular or has cond > {MAX_LATTICE_CONDITION:g}")
        b = b / self._shortest_vector_length(b)
        b.setflags(write=False)
        self.basis = b

    @staticmethod
    def _shortest_vector_length(b):
        """Length of a shortest nonzero vector of the lattice with basis
        columns b, from its pairwise reduction in exact arithmetic."""
        v = [[fractions.Fraction(x) for x in col] for col in b.T.tolist()]
        u = np.eye(3, dtype=np.int64)
        reduced = False
        while not reduced:
            reduced = True
            for i, j in itertools.permutations(range(3), 2):
                mu = sum(p * q for p, q in zip(v[i], v[j])) / sum(q * q for q in v[j])
                if abs(mu) > 0.5:
                    r = round(mu)
                    v[i] = [p - r * q for p, q in zip(v[i], v[j])]
                    u[:, i] -= r * u[:, j]
                    reduced = False
        return np.linalg.norm((UNIT_COMBINATIONS @ u.T) @ b.T, axis=1).min()

    def cartesian(self, coords):
        return self.basis @ np.asarray(coords, dtype=float)

    def __eq__(self, other):
        return isinstance(other, Lattice) and np.array_equal(self.basis, other.basis)

    def __repr__(self):
        return f"Lattice({self.basis.tolist()})"


class BurgersVector:
    """Integer lattice coordinates plus the cartesian vector they map to."""

    def __init__(self, lattice, coords):
        coords = np.asarray(coords)
        # beyond 2^53 floats skip integers and the cast to int64 wraps
        if not np.abs(coords.astype(float)).max() < 2.0**53:
            raise GeometryError("Burgers coordinates must be smaller than 2^53 in magnitude")
        if coords.shape != (3,) or not np.issubdtype(coords.dtype, np.integer):
            coords = np.asarray(coords, dtype=float)
            rounded = np.rint(coords)
            if np.abs(coords - rounded).max() > 1e-9:
                raise GeometryError("Burgers coordinates must be integers")
            coords = rounded
        if not np.any(coords != 0):
            raise GeometryError("Burgers vector must be nonzero")
        self.lattice = lattice
        self.coords = coords.astype(int)
        self.coords.setflags(write=False)
        cart = lattice.cartesian(coords)
        if np.linalg.norm(cart) < 1.0 - 1e-9:
            raise GeometryError("lattice normalization violated: |b| < 1")
        cart.setflags(write=False)
        self.cartesian = cart

    @property
    def norm(self):
        return float(np.linalg.norm(self.cartesian))

    def __repr__(self):
        return f"BurgersVector({self.coords.tolist()})"


class Loop:
    """Closed oriented polyline: segment k runs node_k -> node_{k+1 mod N}."""

    def __init__(self, nodes, burgers):
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 2 or nodes.shape[1] != 3 or len(nodes) < 3:
            raise GeometryError("a loop needs at least 3 nodes of dimension 3")
        if not np.isfinite(nodes).all():
            raise GeometryError("loop nodes must be finite")
        seg = np.roll(nodes, -1, axis=0) - nodes
        lengths = np.linalg.norm(seg, axis=1)
        if lengths.min() <= MIN_SEGMENT:
            raise GeometryError(f"zero-length segment (min {lengths.min():.3e})")
        nodes = nodes.copy()
        nodes.setflags(write=False)
        self.nodes = nodes
        self.burgers = burgers

    def __len__(self):
        return len(self.nodes)


class NodeLayout:
    """Per-node arrays of a network's loops, concatenated in loop order and
    computed in one vectorized pass; every array is read-only.

    Loop l holds nodes start[l]:start[l + 1] (start ends with the node
    count).  Segment i runs from node i to node succ[i] of the same loop,
    loop_of[i], and pred inverts succ.  lumped is half the sum of a node's
    two adjacent segment lengths, and loop_length sums each loop's segment
    lengths over its own slice.  A node's tangent normalizes the sum of
    its two adjacent unit segment tangents; where they are antiparallel (a
    hairpin, flagged) it falls back to the outgoing one.
    """

    def __init__(self, loops):
        sizes = np.array([len(lp) for lp in loops], dtype=np.int64)
        self.start = np.concatenate([[0], np.cumsum(sizes)])
        self.loop_of = np.repeat(np.arange(len(loops)), sizes)
        first, size = self.start[self.loop_of], sizes[self.loop_of]
        pos = np.arange(len(self.loop_of)) - first
        self.succ = first + (pos + 1) % size
        self.pred = first + (pos - 1) % size
        # a leading empty block keeps shape and dtype for a network without loops
        self.nodes = np.concatenate([np.zeros((0, 3))] + [lp.nodes for lp in loops])
        self.segments = self.nodes[self.succ] - self.nodes
        self.seg_len = np.linalg.norm(self.segments, axis=1)
        self.lumped = 0.5 * (self.seg_len + self.seg_len[self.pred])
        self.loop_length = np.array(
            [self.seg_len[a:b].sum() for a, b in zip(self.start[:-1], self.start[1:])], dtype=float
        )
        unit = self.segments / self.seg_len[:, None]
        both = unit + unit[self.pred]
        self.hairpin = np.linalg.norm(both, axis=1) < 1e-8
        safe = np.where(self.hairpin[:, None], unit, both)
        self.tangents = safe / np.linalg.norm(safe, axis=1)[:, None]
        self.burgers = np.reshape([lp.burgers.cartesian for lp in loops], (-1, 3))[self.loop_of]
        for array in vars(self).values():
            array.setflags(write=False)


class DislocationNetwork:
    """Finite union of loops sharing one lattice, with a target core scale."""

    def __init__(self, lattice, loops, epsilon):
        if not 0 < epsilon < np.inf:
            raise GeometryError(f"epsilon must be positive and finite, got {epsilon!r}")
        loops = tuple(loops)
        for lp in loops:
            if lp.burgers.lattice != lattice:
                raise GeometryError("all loops must reference the network lattice")
        self.lattice = lattice
        self.loops = loops
        self.epsilon = float(epsilon)

    @property
    def n_loops(self):
        return len(self.loops)

    @property
    def n_nodes(self):
        return sum(len(lp) for lp in self.loops)

    def is_empty(self):
        return len(self.loops) == 0

    @functools.cached_property
    def layout(self):
        """The network's NodeLayout, built on first use."""
        return NodeLayout(self.loops)

    def with_loops(self, loops):
        return DislocationNetwork(self.lattice, loops, self.epsilon)

    def max_burgers_norm(self):
        if self.is_empty():
            return 0.0
        return max(lp.burgers.norm for lp in self.loops)


def mass(network):
    """Total dislocation length weighted by the Burgers vector norm."""
    lengths = network.layout.loop_length
    return float(sum(lp.burgers.norm * length for lp, length in zip(network.loops, lengths)))


def _prefix_mass(k, seg_mass):
    """Per center row of k, the total seg_mass of the segments m with
    k[:, m] <= j, for each sorted radius index j = 0..n."""
    nc, n = k.shape
    flat = (np.arange(nc)[:, None] * (n + 2) + k).ravel()
    at_k = np.bincount(flat, np.tile(seg_mass, nc), nc * (n + 2))
    return np.cumsum(at_k.reshape(nc, n + 2), axis=1)[:, : n + 1]


def _clipped_lengths(a, b, c0, seg_len, r):
    """Length of each segment inside the ball of radius r about a center,
    from the roots of |rel + t v|^2 = r^2 (a = |v|^2, b = 2 rel.v,
    c0 = |rel|^2) clipped to t in [0, 1]; one value per entry."""
    disc = c0 - r**2
    disc *= 4.0 * a
    np.subtract(b**2, disc, out=disc)
    ok = disc > 0.0
    sq = np.sqrt(np.where(ok, disc, 0.0), out=disc)
    two_a = 2.0 * a
    t1 = np.subtract(-b, sq)
    t1 /= two_a
    t2 = np.add(-b, sq, out=sq)
    t2 /= two_a
    frac = np.clip(t2, 0.0, 1.0, out=t2)
    frac -= np.clip(t1, 0.0, 1.0, out=t1)
    np.maximum(frac, 0.0, out=frac)
    frac[~ok] = 0.0
    frac *= seg_len
    return frac


def mass_ratio(network):
    """Lower-bound estimator of the supremal mass-per-radius density.

    Candidate ball centers are the polyline nodes; candidate radii are
    all center-to-node distances plus eps/2.  Segment-ball intersections
    are clipped exactly, so the result is a true lower bound for the
    supremum over all balls.  (Centers at segment midpoints are
    deliberately not candidates: on an inscribed polygon they push the
    estimate marginally above the smooth-curve supremum, which the
    acceptance gate treats as the reference value.)

    Each center's radii are sorted once, and each segment is ranked in
    them by binary search: k_hi radii lie strictly below its farther
    endpoint distance dmax and k_lo below its distance dmin to the
    center.  A ball is convex, so from rank k_hi on it holds the segment
    whole, and below k_lo it misses it.  The whole-segment mass W and
    the bound U (the |b| * length of every segment that reaches into the
    ball) are built one way: each segment's |b| * length added at its
    rank, k_hi for W and k_lo for U, then summed along the radii.  Only
    the (center, segment, radius) triples with a rank from k_lo up to
    k_hi need clipping.  A radius's value is at most U / r; radii whose
    bound is below the best value of whole segments so far cannot hold
    the maximum, and only the triples of the other radii are clipped, in
    slices of at most MASS_RATIO_TRIPLES.  The cost is O(N^2 log N) for N
    nodes plus the triples, a few per center and segment on a remeshed
    network.
    """
    if network.is_empty():
        raise GeometryError("mass ratio of an empty network")
    layout = network.layout
    nodes, vecs, seg_len = layout.nodes, layout.segments, layout.seg_len
    n = len(nodes)
    bnorm = np.linalg.norm(layout.burgers, axis=1)
    seg_mass = bnorm * seg_len
    a = np.einsum("md,md->m", vecs, vecs)
    vx, vy, vz = vecs.T
    # (3, n) coordinate planes: the offsets from the strided nodes.T took 3x as long
    xyz = np.ascontiguousarray(nodes.T)
    best = 0.0
    block = max(1, MASS_RATIO_PAIRS // n)
    for lo in range(0, n, block):
        rel = xyz[:, None, :] - xyz[:, lo : lo + block, None]  # (3, c, m): segment starts
        nc = rel.shape[1]
        c0 = rel[0] ** 2 + rel[1] ** 2 + rel[2] ** 2
        d = np.sqrt(c0)
        radii = np.concatenate([d, np.full((nc, 1), 0.5 * network.epsilon)], axis=1)
        r_sorted = np.sort(np.where(radii > 1e-12, radii, 0.5 * network.epsilon), axis=1)
        dmax = np.maximum(d, d[:, layout.succ])
        b = 2.0 * (rel[0] * vx + rel[1] * vy + rel[2] * vz)
        foot = np.clip(-b / (2.0 * a), 0.0, 1.0)
        # radii below dmin by this margin clip to exactly 0 despite the
        # quadratic's rounding (~1e-15 dmax^2), so they need no triple
        dlow = np.sqrt(np.maximum(c0 + foot * (b + a * foot) - 1e-12 * dmax**2, 0.0))
        k = np.array([r.searchsorted(key) for r, key in zip(r_sorted, np.concatenate((dmax, dlow), 1))])
        k_hi, k_lo = k[:, :n], k[:, n:]
        # W and, at radius index k, U: the segments with k_lo <= k, a sum
        # of nonnegative terms whose rounding stays within the 1e-12 margin
        m_of_r, upper = _prefix_mass(k.reshape(2 * nc, n), seg_mass).reshape(nc, 2, -1).transpose(1, 0, 2)
        best = max(best, float((m_of_r / r_sorted).max()))
        keep = (upper / r_sorted >= best * (1.0 - 1e-12)).ravel()
        kept = np.flatnonzero(keep)
        # kept radii below each flat radius index, and each (center,
        # segment) pair's first kept radius and count in k_lo <= k < k_hi
        below = np.concatenate([[0], np.cumsum(keep)])
        row0 = np.arange(nc)[:, None] * (n + 1)
        kept_lo = below[(row0 + k_lo).ravel()]
        n_kept = np.maximum(below[(row0 + k_hi).ravel()] - kept_lo, 0)
        kept_end = np.cumsum(n_kept)
        kept_first = kept_end - n_kept
        # (center, segment) pairs in row-major order, in slices of at most
        # MASS_RATIO_TRIPLES kept triples
        p0 = 0
        while p0 < len(n_kept):
            p1 = max(p0 + 1, int(np.searchsorted(kept_end, kept_first[p0] + MASS_RATIO_TRIPLES, "right")))
            pair = p0 + np.repeat(np.arange(p1 - p0), n_kept[p0:p1])
            bins = kept[kept_lo[pair] + kept_first[p0] + np.arange(len(pair)) - kept_first[pair]]
            m = pair % n
            frac = _clipped_lengths(
                a[m], b.ravel()[pair], c0.ravel()[pair], seg_len[m], r_sorted.ravel()[bins]
            )
            clipped = np.bincount(bins, weights=bnorm[m] * frac, minlength=nc * (n + 1))
            m_of_r += clipped.reshape(nc, n + 1)
            p0 = p1
        best = max(best, float((m_of_r / r_sorted).max()))
    return best


def pushforward(network, displacement):
    """Translate nodes by a per-node displacement (stacked in loop order)."""
    displacement = np.asarray(displacement, dtype=float)
    if displacement.shape != (network.n_nodes, 3):
        raise GeometryError(
            f"displacement shape {displacement.shape} != ({network.n_nodes}, 3)"
        )
    moved = network.layout.nodes + displacement
    start = network.layout.start
    new_loops = []
    for lp, a, b in zip(network.loops, start[:-1], start[1:]):
        try:
            new_loops.append(Loop(moved[a:b], lp.burgers))
        except GeometryError as exc:
            raise GeometryError(f"pushforward degenerates a loop: {exc}") from exc
    return network.with_loops(new_loops)


def _resample_closed(nodes, seg_len, n_new):
    """n_new points uniformly by arc length along the closed polyline with
    the given segment lengths."""
    closed = np.vstack([nodes, nodes[:1]])
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    total = cum[-1]
    targets = np.arange(n_new) * total / n_new
    out = np.empty((n_new, 3))
    for d in range(3):
        out[:, d] = np.interp(targets, cum, closed[:, d])
    return out


def remesh(network, h_min, h_max):
    """Arc-length resampling keeping segment lengths inside [h_min, h_max].

    Loops already conforming are kept as the same objects, and a network
    with no loop to resample is returned itself (the operation is a fixed
    point on conforming meshes), so a caller can tell whether anything
    was resampled.  Mass changes are second order in the segment length;
    the caller can diff mass() to log them.
    """
    if not 0 < h_min < h_max:
        raise GeometryError("need 0 < h_min < h_max")
    layout = network.layout
    outside = (layout.seg_len < h_min) | (layout.seg_len > h_max)
    resample = np.bincount(layout.loop_of[outside], minlength=network.n_loops) > 0
    if not resample.any():
        return network
    new_loops = []
    for li, lp in enumerate(network.loops):
        if not resample[li]:
            new_loops.append(lp)
            continue
        total = layout.loop_length[li]
        if total < 3.0 * h_min:
            raise GeometryError(
                f"loop {li} too short to remesh: length {total:.3e} < 3*h_min"
            )
        n_lo = max(3, int(np.ceil(total / (0.98 * h_max))))
        n_hi = int(np.floor(total / min(1.02 * h_min, 0.99 * h_max)))
        n = int(round(total / np.sqrt(h_min * h_max)))
        n = min(max(n, n_lo), max(n_hi, n_lo))
        lengths = layout.seg_len[layout.start[li] : layout.start[li + 1]]
        resampled = _resample_closed(lp.nodes, lengths, n)
        new_loops.append(Loop(resampled, lp.burgers))
    return network.with_loops(new_loops)


class SpanningSurface:
    """Oriented triangulation whose boundary is exactly one network loop."""

    def __init__(self, triangles, slip):
        tri = np.asarray(triangles, dtype=float)
        if tri.ndim != 3 or tri.shape[1:] != (3, 3):
            raise GeometryError("triangles must have shape (T, 3, 3)")
        cross = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        areas2 = np.linalg.norm(cross, axis=1)
        if areas2.min() <= 0.0:
            raise GeometryError("degenerate triangle in surface")
        tri = tri.copy()
        tri.setflags(write=False)
        self.triangles = tri
        self.normals = cross / areas2[:, None]
        self.areas = 0.5 * areas2
        self.slip = slip

    def split_radial(self):
        """Halve each triangle along its two vertex-0 edges.

        For fan-built surfaces vertex 0 is the apex, so this refines the
        long radial direction while leaving the boundary edge (between
        vertices 1 and 2) untouched.
        """
        tri = self.triangles
        a, b, c = tri[:, 0], tri[:, 1], tri[:, 2]
        m1, m2 = 0.5 * (a + b), 0.5 * (a + c)
        parts = np.concatenate(
            [
                np.stack([a, m1, m2], axis=1),
                np.stack([m1, b, c], axis=1),
                np.stack([m1, c, m2], axis=1),
            ],
            axis=0,
        )
        return SpanningSurface(parts, self.slip)


def _fan(loop, apex):
    """Triangles (apex, node k, node k + 1) over every segment of the loop."""
    nodes = loop.nodes
    tris = np.stack([np.broadcast_to(apex, nodes.shape), nodes, np.roll(nodes, -1, axis=0)], axis=1)
    return SpanningSurface(tris, loop.burgers)


def make_planar_surface(loop):
    """Fan triangulation about the centroid of a planar star-shaped loop."""
    nodes = loop.nodes
    centroid = nodes.mean(axis=0)
    rel = nodes - centroid
    area_vec = 0.5 * np.cross(rel, np.roll(rel, -1, axis=0)).sum(axis=0)
    nrm = np.linalg.norm(area_vec)
    if nrm < 1e-14:
        raise GeometryError("loop encloses no area")
    normal = area_vec / nrm
    scale = max(np.linalg.norm(rel, axis=1).max(), 1.0)
    if np.abs(rel @ normal).max() > 1e-8 * scale:
        raise GeometryError("loop is not planar")
    heights = np.cross(rel, np.roll(rel, -1, axis=0)) @ normal
    if heights.min() <= 0.0:
        raise GeometryError("loop is not star-shaped about its centroid")
    return _fan(loop, centroid)


def make_cone_surface(loop, apex):
    """Fan triangulation from an apex point not touching the loop."""
    apex = np.asarray(apex, dtype=float)
    if np.linalg.norm(loop.nodes - apex, axis=1).min() < 1e-12:
        raise GeometryError("apex coincides with a loop node")
    return _fan(loop, apex)
