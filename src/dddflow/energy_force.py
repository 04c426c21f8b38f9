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
nodes are processed in fixed chunks, summed in index order.
"""

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .kernels import MollifierProfile, eta

__all__ = [
    "LineQuadratureRule",
    "EnergyBreakdown",
    "ForceField",
    "energy_line",
    "energy_surface",
    "energy_and_gradient",
    "pk_force",
]


class LineQuadratureRule:
    """Gauss-Legendre rule on [0, 1]; exact for degree 2*order - 1."""

    def __init__(self, order=4):
        if order < 1:
            raise ValueError(f"order must be >= 1, got {order}")
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


class _GaussCloud:
    """Flattened per-Gauss-point source data for one network: rule point k
    on node i's segment is point k * n_nodes + i."""

    def __init__(self, network, rule):
        if network.oversized_segments():
            warnings.warn(
                "segments longer than epsilon: the kernel varies on the core "
                "scale and the line quadrature may be under-resolved",
                stacklevel=3,
            )
        layout = network.layout
        n, k = len(layout.nodes), rule.order
        seg = layout.segments
        self.points = (layout.nodes + rule.points[:, None, None] * seg).reshape(-1, 3)
        e = rule.weights[:, None, None] * seg
        self.a9 = np.einsum("na,knb->knab", layout.burgers, e, optimize=False).reshape(-1, 9)
        self.bvec = np.tile(layout.burgers, (k, 1))
        self.wxi = np.repeat(rule.weights, n)
        self.xi = np.repeat(rule.points, n)
        self.node0 = np.tile(np.arange(n), k)
        self.node1 = np.tile(layout.succ, k)
        self.loop_of = np.tile(layout.loop_of, k)
        self.n_nodes = n
        self.n_loops = network.n_loops


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


# Chunks of one sweep share a few grid lengths: building the kernel
# spectrum once per length took 12% off the CPU time of
# energy_and_gradient (six sparse loops, 16x32 rule, 2-core x86 host).
@functools.lru_cache(maxsize=64)
def _kernel_spectrum(epsilon, order, nfft):
    """rFFT of eta^(order) sampled on the grid (cut at +-KERNEL_CUT eps)
    over the spline's sinc^8 (deposit and gather); read-only."""
    half = int(np.ceil(KERNEL_CUT / GRID_STEP))
    toff = np.arange(-half, half + 1) * (GRID_STEP * epsilon)
    prof = MollifierProfile(epsilon)
    ker = np.zeros(nfft)
    ker[: half + 1] = eta(prof, toff[half:], order)
    ker[-half:] = eta(prof, toff[:half], order)
    spec = scipy.fft.rfft(ker) / np.sinc(np.arange(nfft // 2 + 1) / nfft) ** 8
    spec.setflags(write=False)
    return spec


def _buffer(buffers, name, shape, dtype):
    """An uninitialized (shape, dtype) view on the array buffers[name],
    which is replaced by a larger one when it is too small."""
    size = math.prod(shape)
    flat = buffers.get(name)
    if flat is None or flat.size < size:
        flat = buffers[name] = np.empty(size, dtype)
    return flat[:size].reshape(shape)


def _correlate(ev, orders, src_t, src_a, dst_t, src_group, n_groups, buffers):
    """sum_j eta^(order)(dst_t[k, i] - src_t[k, j]) src_a[j] for a chunk of
    sphere nodes k, one (zc, n_dst, n_groups * C) array per order.

    Each node's projections are deposited on a uniform grid anchored at
    their minimum (so translations move no point relative to the grid)
    with a cubic B-spline, all nodes and channels in one bincount, then
    convolved by one batched rFFT with the sampled profile derivative,
    deconvolved by the spline's sinc^8 (deposit and gather), and gathered
    with the same spline.  Sources with src_group g land in channels
    g*C .. g*C + C - 1.  The spectrum product and the gathered values go
    into `buffers` (a dict kept by the caller across chunks).
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
    # grid-sized arrays go as soon as they are dead, so that the next one
    # takes their memory instead of growing the heap
    del rho
    if dst_t is not src_t:
        idx, w = _bspline(dst_t, lo, dx)
    gather = rows[:, :, None, None] + idx[:, None]
    product = _buffer(buffers, "product", spec.shape, spec.dtype)
    gathered = _buffer(buffers, "gathered", gather.shape, np.float64)
    out = []
    for order in orders:
        np.multiply(spec, _kernel_spectrum(prof.epsilon, order, nfft), out=product)
        conv = scipy.fft.irfft(product, n=nfft, axis=-1)
        # every index is in range; mode "raise" would copy through a temporary
        np.take(conv, gather, out=gathered, mode="clip")
        out.append(np.einsum("ksn,kcsn->knc", w, gathered, optimize=False))
        del conv
    return out


def _sweep(ev, orders, src, src_a, dst, reduce, src_group=None, n_groups=1):
    """Sum of reduce(lo, hi, correlations) over chunks of sphere nodes,
    added in index order as each chunk is computed.  The chunk size
    follows from the network's extent and size only.

    With dst None the sources are also the targets and reduce gets, per
    order, the (zc, n_groups * 9, n_groups * 9) sums over the sources of
    src_a[i, (m, d)] times the correlation of channel (n, c) at t_i."""
    # b (x) e densities span at most 3 rank{b} of the 9 channels (3 for a
    # single loop): correlate their coordinates, map back after the gather
    _, sv, vt = np.linalg.svd(src_a, full_matrices=False)
    basis = vt[: max(1, int(np.count_nonzero(sv > 1e-13 * sv[0])))]
    # Fortran order makes the deposit's coords.T contiguous (15% off the
    # CPU time of energy_surface on two 2592-point disks, same host)
    coords = np.asfortranarray(src_a @ basis.T)
    r = len(basis)
    Ts = src @ ev.nodes.T
    Td = Ts if dst is None or dst is src else dst @ ev.nodes.T
    span = float(np.max(np.maximum(Ts.max(0), Td.max(0)) - np.minimum(Ts.min(0), Td.min(0))))
    per_node = max(
        n_groups * r * (span / (GRID_STEP * ev.epsilon) + 2 * KERNEL_CUT / GRID_STEP),
        4 * (len(src) + len(Td)) * r,
    )
    chunk = int(max(1, min(32, CHUNK_BUDGET // per_node)))
    if dst is None:
        # the sum over the targets runs in coordinates, each source in its
        # own group's slot; expand maps every group back to its 9 channels
        dst_a = coords.T
        if src_group is not None:
            dst_a = np.zeros((len(src), n_groups, r))
            dst_a[np.arange(len(src)), src_group] = coords
            dst_a = dst_a.reshape(len(src), -1).T
        expand = np.kron(np.eye(n_groups), basis)
    # a chunk's large temporaries, allocated afresh, were unmapped and
    # faulted in again on every chunk under glibc's default mmap threshold
    # (energy_and_gradient on six sparse loops up to 2x slower, 2-core x86)
    buffers = {}
    total = None
    for lo in range(0, len(ev.weights), chunk):
        hi = min(lo + chunk, len(ev.weights))
        ts = np.ascontiguousarray(Ts[:, lo:hi].T)
        if dst is None:
            corr = _correlate(ev, orders, ts, coords, ts, src_group, n_groups, buffers)
            corr = [expand.T @ np.matmul(dst_a, c) @ expand for c in corr]
        else:
            td = ts if Td is Ts else np.ascontiguousarray(Td[:, lo:hi].T)
            corr = _correlate(ev, orders, ts, coords, td, src_group, n_groups, buffers)
            corr = [(c.reshape(-1, r) @ basis).reshape(hi - lo, -1, n_groups * 9) for c in corr]
        part = reduce(lo, hi, corr)
        total = part if total is None else tuple(a + b for a, b in zip(total, part))
    return total


def energy_line(network, ev, rule):
    """Self-energy of the network with a per-loop-pair breakdown."""
    if network.is_empty():
        raise ValueError("energy of an empty network")
    cloud = _GaussCloud(network, rule)
    n_loops = cloud.n_loops

    def reduce(lo, hi, corr):
        # corr[0][k, (m, d), (n, c)]: loop m's density d against the
        # correlation of loop n's density c
        p = corr[0].reshape(hi - lo, n_loops, 9, n_loops, 9)
        wf = ev.weights[lo:hi, None, None] * ev.fk[lo:hi]
        return (0.5 * np.einsum("kdc,kmdnc->mn", wf, p),)

    (blocks,) = _sweep(ev, (0,), cloud.points, cloud.a9, None, reduce, cloud.loop_of, n_loops)
    return EnergyBreakdown(total=float(blocks.sum()), matrix=blocks)


def energy_and_gradient(network, ev, rule):
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

    ga, gp3 = _sweep(ev, (0, 1), cloud.points, a9, cloud.points, reduce)
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


def pk_force(network, ev, rule):
    """Peach-Koehler force density at the nodes via the line formula.

    G(s) collects the kernel-gradient pair sum; the density is tau x G,
    so orthogonality to the node tangent is exact by construction.  The
    cross-product order is fixed by requiring agreement with minus the
    discrete energy gradient (the force must shrink an isolated loop).
    """
    if network.is_empty():
        raise ValueError("force on an empty network")
    cloud = _GaussCloud(network, rule)
    layout = network.layout

    def reduce(lo, hi, corr):
        # u_l = b_a F_(al)(cd) phi'_cd at each node, with its own loop's b
        fphi = np.matmul(corr[0], ev.fk[lo:hi]).reshape(hi - lo, -1, 3, 3)
        u = np.einsum("kial,ia->kil", fphi, layout.burgers, optimize=False)
        uz = np.cross(u, ev.nodes[lo:hi, None, :])
        return (np.tensordot(ev.weights[lo:hi], uz, axes=1),)

    (G,) = _sweep(ev, (1,), cloud.points, cloud.a9, layout.nodes, reduce)
    return ForceField(
        density=np.cross(layout.tangents, G),
        lumped=layout.lumped,
        G=G,
        tangents=layout.tangents,
        hairpin=layout.hairpin,
    )


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


def energy_surface(surfaces, ev):
    """Slip energy as the double surface integral of the J kernel.

    `surfaces` span the network's loops; cross terms between surfaces are
    included.  The midedge 3-point rule is exact for quadratic integrands
    per triangle pair; triangles should be comparable to the core scale
    for the kernel to be resolved (see SpanningSurface refinement
    helpers).
    """
    P, a9 = _surface_cloud(surfaces)

    def reduce(lo, hi, corr):
        wf = ev.weights[lo:hi, None, None] * ev.fj[lo:hi]
        return (0.5 * np.einsum("kdc,kcd->", wf, corr[0]),)

    (energy,) = _sweep(ev, (2,), P, a9, None, reduce)
    return float(energy)
