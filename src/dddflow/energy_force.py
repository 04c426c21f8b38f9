"""Self-energy, Peach-Koehler force, and the discrete energy gradient.

The energy is the double line integral of the K kernel over all ordered
segment pairs, including the self pair (the kernel is smooth at zero and
the self term is the finite core energy).  Segment integrals use
Gauss-Legendre points with the line element absorbed into the weighted
segment vectors.  The discrete energy is smooth in the node positions,
so its gradient is assembled analytically; the per-node force density is
minus that gradient divided by the lumped node length.

Every kernel sum is, per sphere node z, a 1-D correlation in t = z.x of
9-channel densities with eta, eta' or eta''; `_correlate` evaluates it
on a uniform grid by FFT at linear cost in the point count.  Sphere
nodes are processed in fixed chunks reduced in fixed order, so results
do not depend on the worker count.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.fft

from . import parallel
from .calibration import BOUND_CONSTANTS
from .elasticity import ALTERNATING
from .geometry import mass, mass_ratio, pushforward
from .kernels import eta

__all__ = [
    "LineQuadratureRule",
    "EnergyBreakdown",
    "ForceField",
    "BoundCheck",
    "energy_line",
    "energy_surface",
    "energy_and_gradient",
    "discrete_energy_gradient",
    "pk_force",
    "force_bound_report",
    "continuity_check",
]


class LineQuadratureRule:
    """Gauss-Legendre rule on [0, 1]; exact for degree 2*order - 1."""

    def __init__(self, order=4):
        if order < 1:
            raise ValueError("order must be >= 1")
        x, w = np.polynomial.legendre.leggauss(order)
        self.order = order
        self.points = 0.5 * (x + 1.0)
        self.weights = 0.5 * w


@dataclass
class EnergyBreakdown:
    total: float
    matrix: np.ndarray  # (L, L) loop-pair energies, self terms on the diagonal


@dataclass
class ForceField:
    density: np.ndarray  # (n, 3) force per unit length at nodes
    lumped: np.ndarray  # (n,) lumped node lengths
    G: np.ndarray  # (n, 3) auxiliary field before the tangent cross product
    tangents: np.ndarray  # (n, 3) node tangents used for the projection
    hairpin: np.ndarray  # (n,) flags for degenerate-tangent nodes


@dataclass
class BoundCheck:
    name: str
    lhs: float
    rhs: float

    @property
    def ratio(self):
        if self.rhs == 0.0:
            return 0.0 if self.lhs == 0.0 else np.inf
        return self.lhs / self.rhs


class _GaussCloud:
    """Flattened per-Gauss-point source data for one network."""

    def __init__(self, network, rule):
        if network.oversized_segments():
            warnings.warn(
                "segments longer than epsilon: the kernel varies on the core "
                "scale and the line quadrature may be under-resolved",
                stacklevel=3,
            )
        pts, a9, bvec, wxi, xi = [], [], [], [], []
        n0, n1, loop_of = [], [], []
        node_offset = 0
        for li, lp in enumerate(network.loops):
            nodes = lp.nodes
            n = len(nodes)
            dx = lp.segment_vectors()
            b = lp.burgers.cartesian
            for w, x in zip(rule.weights, rule.points):
                pts.append(nodes + x * dx)
                e = w * dx
                a9.append(np.einsum("a,nb->nab", b, e).reshape(n, 9))
                bvec.append(np.broadcast_to(b, (n, 3)))
                wxi.append(np.full(n, w))
                xi.append(np.full(n, x))
                n0.append(node_offset + np.arange(n))
                n1.append(node_offset + (np.arange(n) + 1) % n)
                loop_of.append(np.full(n, li))
            node_offset += n
        self.points = np.concatenate(pts)
        self.a9 = np.concatenate(a9)
        self.bvec = np.ascontiguousarray(np.concatenate(bvec))
        self.wxi = np.concatenate(wxi)
        self.xi = np.concatenate(xi)
        self.node0 = np.concatenate(n0)
        self.node1 = np.concatenate(n1)
        self.loop_of = np.concatenate(loop_of)
        self.n_nodes = node_offset
        self.n_loops = len(network.loops)


def _loop_slices(loop_of, n_loops):
    starts = np.searchsorted(loop_of, np.arange(n_loops))
    return np.append(starts, len(loop_of))


# Correlation grid spacing in units of eps.  Cubic B-spline deposit and
# gather at eps/24 agree with the exact pair sum to ~2e-9 relative on the
# force density; a quadratic spline at eps/32 (3.8e-8) or eps/48 (1.0e-8)
# and a cubic one at eps/16 (1.4e-8) miss the 1e-8 that the rotational
# covariance of pk_force demands.
GRID_STEP = 1.0 / 24.0
# Profile support in units of eps: exp(-12^2 / 4) = 2.3e-16 relative.
KERNEL_CUT = 12.0
# Doubles per chunk for the grid and for the deposit arrays (2 MB each):
# bounds memory on large clouds and on sparse networks, whose grids span
# the empty space.  At 8 MB the slip energy of two 2592-point disks
# peaked 50 MB higher.
CHUNK_BUDGET = 1 << 18
_TAPS = np.arange(-1, 3)[:, None]


def _bspline(t, lo, dx):
    """Cubic B-spline assignment of t (zc, n) onto grids starting at lo
    (zc,): grid indices and weights, both (zc, 4, n)."""
    x = (t - lo[:, None]) / dx
    i0 = x.astype(np.int64)
    f = x - i0
    f2 = f * f
    f3 = f2 * f
    g = 1.0 - f
    w = np.empty((len(t), 4, t.shape[1]))
    w[:, 0] = g * g * g
    w[:, 1] = 3.0 * f3 - 6.0 * f2 + 4.0
    w[:, 2] = 1.0 + 3.0 * (f + f2 - f3)
    w[:, 3] = f3
    w *= 1.0 / 6.0
    return i0[:, None, :] + _TAPS, w


def _correlate(ev, orders, src_t, src_a, dst_t, src_group=None, n_groups=1):
    """sum_j eta^(order)(dst_t[k, i] - src_t[k, j]) src_a[j] for a chunk of
    sphere nodes k, one (zc, n_dst, n_groups * C) array per order.

    Each node's projections are deposited on a uniform grid anchored at
    their minimum (so translations move no point relative to the grid)
    with a cubic B-spline, all nodes and channels in one bincount, then
    convolved by one batched rFFT with the sampled profile derivative,
    deconvolved by the spline's sinc^8 (deposit and gather), and gathered
    with the same spline.  Sources with src_group g land in channels
    g*C .. g*C + C - 1.
    """
    prof = ev.profile
    dx = GRID_STEP * prof.epsilon
    half = int(np.ceil(KERNEL_CUT / GRID_STEP))
    zc = len(src_t)
    n_chan = src_a.shape[1]
    channels = n_groups * n_chan
    # two spacings of margin keep the leftmost tap at index >= 0
    lo = np.minimum(src_t.min(axis=1), dst_t.min(axis=1)) - 2.0 * dx
    hi = np.maximum(src_t.max(axis=1), dst_t.max(axis=1))
    m = int((hi - lo).max() / dx) + 4
    # no wrap-around between the grid's ends, and no overlap of the
    # kernel's two halves (that breaks the antisymmetry of eta')
    nfft = scipy.fft.next_fast_len(max(m + half, 2 * half + 1), real=True)
    # flat (node, channel, grid) index, laid out (zc, channel, tap, point)
    rows = (np.arange(zc)[:, None] * channels + np.arange(channels)) * nfft
    idx, w = _bspline(src_t, lo, dx)
    flat = rows[:, :n_chan, None, None] + idx[:, None]
    if src_group is not None:
        flat += src_group * (n_chan * nfft)
    weights = w[:, None] * src_a.T[:, None, :]
    rho = np.bincount(flat.ravel(), weights=weights.ravel(), minlength=zc * channels * nfft)
    spec = scipy.fft.rfft(rho.reshape(zc, channels, nfft), axis=-1)
    sinc8 = np.sinc(np.arange(nfft // 2 + 1) / nfft) ** 8
    toff = np.arange(-half, half + 1) * dx
    if dst_t is not src_t:
        idx, w = _bspline(dst_t, lo, dx)
    gather = rows[:, :, None, None] + idx[:, None]
    out = []
    for order in orders:
        ker = np.zeros(nfft)
        ker[: half + 1] = eta(prof, toff[half:], order)
        ker[-half:] = eta(prof, toff[:half], order)
        conv = scipy.fft.irfft(spec * (scipy.fft.rfft(ker) / sinc8), n=nfft, axis=-1)
        out.append(np.einsum("ksn,kcsn->knc", w, np.take(conv, gather), optimize=False))
    return out


def _sweep(ev, orders, src, src_a, dst, reduce, workers=None, src_group=None, n_groups=1):
    """map_reduce of reduce(lo, hi, correlations) over chunks of sphere
    nodes.  The chunk size follows from the network's extent and size
    only, so chunk boundaries never depend on the worker count."""
    # b (x) e densities span at most 3 rank{b} of the 9 channels (3 for a
    # single loop): correlate their coordinates, map back after the gather
    _, sv, vt = np.linalg.svd(src_a, full_matrices=False)
    basis = vt[: max(1, int(np.count_nonzero(sv > 1e-13 * sv[0])))]
    coords = src_a @ basis.T
    r = len(basis)
    Ts = src @ ev.nodes.T
    Td = Ts if dst is src else dst @ ev.nodes.T
    span = float(np.max(np.maximum(Ts.max(0), Td.max(0)) - np.minimum(Ts.min(0), Td.min(0))))
    per_node = max(
        n_groups * r * (span / (GRID_STEP * ev.epsilon) + 2 * KERNEL_CUT / GRID_STEP),
        4 * (len(src) + len(dst)) * r,
    )
    chunk = int(max(1, min(32, CHUNK_BUDGET // per_node)))

    def run(lo, hi):
        ts = np.ascontiguousarray(Ts[:, lo:hi].T)
        td = ts if Td is Ts else np.ascontiguousarray(Td[:, lo:hi].T)
        corr = _correlate(ev, orders, ts, coords, td, src_group, n_groups)
        shape = (hi - lo, -1, n_groups * 9)
        return reduce(lo, hi, [(c.reshape(-1, r) @ basis).reshape(shape) for c in corr])

    return parallel.map_reduce(run, len(ev.weights), workers=workers, chunk=chunk)


def energy_line(network, ev, rule, workers=None):
    """Self-energy of the network with a per-loop-pair breakdown."""
    if network.is_empty():
        raise ValueError("energy of an empty network")
    cloud = _GaussCloud(network, rule)
    n_loops = cloud.n_loops
    edges = _loop_slices(cloud.loop_of, n_loops)

    def reduce(lo, hi, corr):
        # phi[k, i, m]: correlation at Gauss point i of loop m's density
        phi = corr[0].reshape(hi - lo, -1, n_loops, 9)
        fa = np.matmul(cloud.a9, ev.fk[lo:hi])
        per_point = np.einsum("k,kic,kimc->im", ev.weights[lo:hi], fa, phi, optimize=True)
        return (0.5 * np.add.reduceat(per_point, edges[:-1], axis=0),)

    (blocks,) = _sweep(
        ev, (0,), cloud.points, cloud.a9, cloud.points, reduce, workers, cloud.loop_of, n_loops
    )
    return EnergyBreakdown(total=float(blocks.sum()), matrix=blocks)


def energy_and_gradient(network, ev, rule, workers=None):
    """Discrete energy and its exact gradient with respect to node positions."""
    cloud = _GaussCloud(network, rule)
    a9 = cloud.a9

    def reduce(lo, hi, corr):
        w, fk = ev.weights[lo:hi], ev.fk[lo:hi]
        phi0, phi1 = corr
        ga = np.tensordot(w, np.matmul(phi0, fk), axes=1)
        u = np.einsum("ic,kic->ki", a9, np.matmul(phi1, fk), optimize=False)
        gp3 = (w[:, None] * u).T @ ev.nodes[lo:hi]
        return ga, gp3

    ga, gp3 = _sweep(ev, (0, 1), cloud.points, a9, cloud.points, reduce, workers)
    energy = 0.5 * float(np.einsum("ic,ic->", a9, ga, optimize=False))
    grad = np.zeros((cloud.n_nodes, 3))
    # positional channel: Gauss point = (1-xi) x0 + xi x1
    np.add.at(grad, cloud.node0, (1.0 - cloud.xi)[:, None] * gp3)
    np.add.at(grad, cloud.node1, cloud.xi[:, None] * gp3)
    # tangent-element channel: A = b outer (wxi * (x1 - x0))
    r = np.einsum("na,nac->nc", cloud.bvec, ga.reshape(-1, 3, 3), optimize=False)
    r = cloud.wxi[:, None] * r
    np.add.at(grad, cloud.node1, r)
    np.add.at(grad, cloud.node0, -r)
    return energy, grad


def discrete_energy_gradient(network, ev, rule, workers=None):
    return energy_and_gradient(network, ev, rule, workers=workers)[1]


def _node_data(network):
    nodes, taus, hair, lumped, bvec = [], [], [], [], []
    for lp in network.loops:
        t, h = lp.node_tangents()
        nodes.append(lp.nodes)
        taus.append(t)
        hair.append(h)
        lumped.append(lp.lumped_lengths())
        bvec.append(np.broadcast_to(lp.burgers.cartesian, (len(lp), 3)))
    return tuple(np.concatenate(x) for x in (nodes, taus, hair, lumped, bvec))


def pk_force(network, ev, rule, workers=None):
    """Peach-Koehler force density at the nodes via the line formula.

    G(s) collects the kernel-gradient pair sum; the density is tau x G,
    so orthogonality to the node tangent is exact by construction.  The
    cross-product order is fixed by requiring agreement with minus the
    discrete energy gradient (the force must shrink an isolated loop).
    """
    if network.is_empty():
        raise ValueError("force on an empty network")
    cloud = _GaussCloud(network, rule)
    xn, taus, hair, lumped, bvec = _node_data(network)

    def reduce(lo, hi, corr):
        # u_l = b_a F_(al)(cd) phi'_cd at each node, with its own loop's b
        fphi = np.matmul(corr[0], ev.fk[lo:hi]).reshape(hi - lo, -1, 3, 3)
        u = np.einsum("kial,ia->kil", fphi, bvec, optimize=False)
        uz = np.cross(u, ev.nodes[lo:hi, None, :])
        return (np.tensordot(ev.weights[lo:hi], uz, axes=1),)

    (G,) = _sweep(ev, (1,), cloud.points, cloud.a9, xn, reduce, workers)
    density = np.cross(taus, G)
    return ForceField(density=density, lumped=lumped, G=G, tangents=taus, hairpin=hair)


def _surface_cloud(surfaces):
    """Midedge 3-point rule: points and weighted b (x) n densities."""
    pts, a9 = [], []
    for surf in surfaces:
        tri = surf.triangles
        bn = np.einsum("a,tm->tam", surf.slip.cartesian, surf.normals).reshape(-1, 9)
        for i, j in ((0, 1), (1, 2), (2, 0)):
            pts.append(0.5 * (tri[:, i] + tri[:, j]))
            a9.append(bn * (surf.areas / 3.0)[:, None])
    return np.concatenate(pts), np.concatenate(a9)


def energy_surface(surfaces, ev, workers=None):
    """Slip energy as the double surface integral of the J kernel.

    `surfaces` span the network's loops; cross terms between surfaces are
    included.  The midedge 3-point rule is exact for quadratic integrands
    per triangle pair; triangles should be comparable to the core scale
    for the kernel to be resolved (see SpanningSurface refinement
    helpers).
    """
    P, a9 = _surface_cloud(surfaces)

    def reduce(lo, hi, corr):
        fphi = np.matmul(corr[0], ev.fj[lo:hi])
        return (0.5 * np.einsum("k,ic,kic->", ev.weights[lo:hi], a9, fphi, optimize=True),)

    (energy,) = _sweep(ev, (2,), P, a9, P, reduce, workers)
    return float(energy)


def pk_force_surface_form(loop, surface, ev):
    """Cross-check variant of the auxiliary field G via the spanning surface.

    Uses the Stokes-transformed pair sum with the second kernel
    derivative; the sign is fixed by agreement with the line formula.
    Returns G at the loop nodes.
    """
    b = loop.burgers.cartesian
    P, a9 = _surface_cloud([surface])

    def reduce(lo, hi, corr):
        z = ev.nodes[lo:hi]
        fkz = ev.fk[lo:hi].reshape(-1, 3, 3, 3, 3)
        # P_kcf = A_def A_klm fk_alcd b_a z_m z_e
        pk = np.einsum(
            "def,klm,nalcd,a,nm,ne->nkcf", ALTERNATING, ALTERNATING, fkz, b, z, z, optimize=True
        )
        return (np.einsum("n,nkx,nsx->sk", ev.weights[lo:hi], pk.reshape(-1, 3, 9), corr[0]),)

    (G,) = _sweep(ev, (2,), P, a9, loop.nodes, reduce)
    return G


def _grad_tau_inf(network, g):
    """Max segment-wise tangential derivative of a node field g."""
    worst = 0.0
    off = 0
    for lp in network.loops:
        n = len(lp)
        gl = g[off : off + n]
        dg = np.roll(gl, -1, axis=0) - gl
        h = lp.segment_lengths()
        worst = max(worst, float((np.linalg.norm(dg, axis=1) / h).max()))
        off += n
    return worst


def force_bound_report(network, field):
    """lhs/rhs rows for the force magnitude bounds, using the calibrated
    prefactors and the lower-bound mass-ratio estimator."""
    m = mass(network)
    theta = mass_ratio(network)
    eps = network.epsilon
    bmax = network.max_burgers_norm()
    logterm = np.log(1.0 + 2.0 * m / (eps * theta))
    f_inf = float(np.linalg.norm(field.density, axis=1).max())
    f_l2 = float(np.sqrt((field.lumped * (field.density**2).sum(axis=1)).sum()))
    return [
        BoundCheck(
            "pk_linf",
            f_inf,
            BOUND_CONSTANTS["pk_linf"] / eps * bmax * theta * logterm,
        ),
        BoundCheck(
            "pk_l2",
            f_l2,
            BOUND_CONSTANTS["pk_l2"] / eps * bmax * np.sqrt(m) * theta * logterm,
        ),
    ]


def continuity_check(network, g, ev, rule):
    """Deformation continuity of the force: compare node forces before and
    after displacing by g (the polyline pullback is node correspondence)."""
    g = np.asarray(g, dtype=float)
    f0 = pk_force(network, ev, rule)
    moved = pushforward(network, g)
    f1 = pk_force(moved, ev, rule)
    lhs = float(np.linalg.norm(f1.density - f0.density, axis=1).max())
    m = mass(network)
    c = BOUND_CONSTANTS["continuity"]
    g_inf = float(np.linalg.norm(g, axis=1).max())
    rhs = (1.0 + c * m) * _grad_tau_inf(network, g) + c * m * g_inf
    return BoundCheck("continuity", lhs, rhs)
