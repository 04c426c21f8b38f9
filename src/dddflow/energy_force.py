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
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.sparse

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


# Correlation grid spacing in units of eps.  Quintic B-spline deposit and
# gather at eps/6 agree with the exact pair sum to 2.3e-9 relative on the
# force field over 40 random networks, where a cubic spline at eps/24 gave
# 5.8e-9 on 4x as many grid nodes (at eps/16 it missed the 1e-8 that the
# rotational covariance of pk_force demands).
GRID_STEP = 1.0 / 6.0
# Profile support in units of eps: exp(-12^2 / 4) = 2.3e-16 relative.
KERNEL_CUT = 12.0
# Doubles per chunk for the grid and for the per-point arrays (2 MB
# each): bounds memory on large clouds and on sparse networks, whose
# grids span the empty space.  At 8 MB the slip energy of two 2592-point
# disks peaked 50 MB higher.
CHUNK_BUDGET = 1 << 18
# Quintic B-spline weights on taps i0 - 2 .. i0 + 3 of a point at grid
# coordinate i0 + f: row p holds the coefficients of f^p.
_QUINTIC = np.array([
    [1, 26, 66, 26, 1, 0],
    [-5, -50, 0, 50, 5, 0],
    [10, 20, -60, 20, 10, 0],
    [-10, 20, 0, -20, 10, 0],
    [5, -20, 30, -20, 5, 0],
    [-1, 5, -10, 10, -5, 1],
]) / 120.0


def _spline_matrix(t, lo, dx, nfft):
    """Quintic B-spline assignment of the points t (zc, n) to zc grids of
    nfft nodes, grid k starting 3 spacings below lo[k]: the CSR matrix
    (zc * n, zc * nfft) whose row k * n + i holds point i's six weights on
    grid k.  The margin is added after the subtraction, so a point at lo
    sits exactly at grid coordinate 3 and its leftmost tap at index 1; a
    margin subtracted from lo can round that tap to index -1, outside its
    node's grid."""
    zc, n = t.shape
    x = (t - lo[:, None]) / dx + 3.0
    i0 = x.astype(np.intc)
    powers = np.empty((6, zc * n))
    powers[0] = 1.0
    np.subtract(x.ravel(), i0.ravel(), out=powers[1])
    for p in range(2, 6):
        np.multiply(powers[p - 1], powers[1], out=powers[p])
    i0 += (np.arange(zc, dtype=np.intc) * nfft)[:, None]
    # one column per tap: a broadcast (zc * n, 6) sum was 4x slower
    cols = np.empty((zc * n, 6), np.intc)
    for j in range(6):
        np.add(i0.ravel(), j - 2, out=cols[:, j])
    rows = np.arange(0, 6 * zc * n + 1, 6, dtype=np.intc)
    return scipy.sparse.csr_array(
        ((powers.T @ _QUINTIC).ravel(), cols.ravel(), rows), shape=(zc * n, zc * nfft)
    )


# Chunks of one sweep share a few grid lengths: building the kernel
# spectrum once per length took 12% off the CPU time of
# energy_and_gradient (six sparse loops, 16x32 rule, 2-core x86 host).
@functools.lru_cache(maxsize=64)
def _kernel_spectrum(epsilon, order, nfft):
    """rFFT of eta^(order) sampled on the grid (cut at +-KERNEL_CUT eps)
    over the spline's sinc^12 (deposit and gather); read-only."""
    half = int(np.ceil(KERNEL_CUT / GRID_STEP))
    toff = np.arange(-half, half + 1) * (GRID_STEP * epsilon)
    prof = MollifierProfile(epsilon)
    ker = np.zeros(nfft)
    ker[: half + 1] = eta(prof, toff[half:], order)
    ker[-half:] = eta(prof, toff[:half], order)
    spec = scipy.fft.rfft(ker) / np.sinc(np.arange(nfft // 2 + 1) / nfft) ** 12
    spec.setflags(write=False)
    return spec


def _correlate(ev, orders, src_t, src_a, dst_t):
    """sum_j eta^(order)(dst_t[k, i] - src_t[k, j]) src_a[j] for a chunk of
    sphere nodes k, one (zc, n_dst, C) array per order.  With dst_t None
    the targets are the sources and each order gives instead the (zc, C, C)
    sums over them of src_a[i, c] times the correlation of channel d.

    Each node's projections are deposited on a uniform grid anchored at
    their minimum (so translations move no point relative to the grid)
    through one sparse quintic B-spline matrix for all nodes, convolved by
    one batched rFFT with the sampled profile derivative, deconvolved by
    the spline's sinc^12 (deposit and gather), and gathered with the same
    spline.  Without targets the gather is the deposit transposed, so the
    sums are rho^H K rho over the spectrum (Parseval): no inverse FFT.
    """
    eps = ev.profile.epsilon
    dx = GRID_STEP * eps
    half = int(np.ceil(KERNEL_CUT / GRID_STEP))
    zc, n_chan = len(src_t), src_a.shape[1]
    lo, hi = src_t.min(axis=1), src_t.max(axis=1)
    if dst_t is not None and dst_t is not src_t:
        lo, hi = np.minimum(lo, dst_t.min(axis=1)), np.maximum(hi, dst_t.max(axis=1))
    # taps run from index 1 (a point at lo) to int((hi - lo) / dx) + 6
    m = int((hi - lo).max() / dx) + 7
    # no wrap-around between the grid's ends, and no overlap of the
    # kernel's two halves (that breaks the antisymmetry of eta')
    nfft = scipy.fft.next_fast_len(max(m + half, 2 * half + 1), real=True)
    spline = _spline_matrix(src_t, lo, dx, nfft)
    rho = spline.T @ np.tile(src_a, (zc, 1))
    spec = scipy.fft.rfft(rho.reshape(zc, nfft, n_chan), axis=1)
    del rho
    kernels = [_kernel_spectrum(eps, order, nfft) for order in orders]
    if dst_t is None:
        # bins other than 0 and nfft/2 stand for their conjugates as well
        weight = np.full(nfft // 2 + 1, 2.0 / nfft)
        weight[0] = 1.0 / nfft
        if nfft % 2 == 0:
            weight[-1] = 1.0 / nfft
        spec_h = spec.conj().transpose(0, 2, 1)
        return [np.matmul(spec_h, spec * (weight * k)[:, None]).real for k in kernels]
    if dst_t is not src_t:
        spline = _spline_matrix(dst_t, lo, dx, nfft)
    out = []
    for k in kernels:
        conv = scipy.fft.irfft(spec * k[:, None], n=nfft, axis=1)
        out.append((spline @ conv.reshape(zc * nfft, n_chan)).reshape(zc, -1, n_chan))
        del conv
    return out


def _sweep(ev, orders, src, src_a, dst, reduce, src_group=None, n_groups=1):
    """Sum of reduce(lo, hi, correlations) over chunks of sphere nodes,
    added in index order as each chunk is computed.  The chunk size
    follows from the network's extent and size only.

    With dst None the sources are also the targets and reduce gets, per
    order, the (zc, n_groups * 9, n_groups * 9) sums over the sources of
    src_a[i, (m, d)] times the correlation of channel (n, c) at t_i,
    where source i belongs to group m = src_group[i]."""
    # b (x) e densities span at most 3 rank{b} of the 9 channels (3 for a
    # single loop): correlate their coordinates, map back after the gather
    _, sv, vt = np.linalg.svd(src_a, full_matrices=False)
    basis = vt[: max(1, int(np.count_nonzero(sv > 1e-13 * sv[0])))]
    coords = src_a @ basis.T
    r = len(basis)
    if src_group is not None:
        # each source's coordinates in its own group's slots
        slots = np.zeros((len(src), n_groups, r))
        slots[np.arange(len(src)), src_group] = coords
        coords = slots.reshape(len(src), -1)
    expand = np.kron(np.eye(n_groups), basis)
    # the cloud's diameter bounds its extent along every z, so that the
    # projections are made per chunk: all of them at once held 24 MB for
    # the slip energy of two 2592-point disks on the 24x48 rule
    cloud = src if dst is None or dst is src else np.concatenate((src, dst))
    span = 2.0 * float(np.linalg.norm(cloud - cloud.mean(axis=0), axis=1).max())
    n_points = len(src) + (0 if dst is None else len(dst))
    per_node = max(
        n_groups * r * (span / (GRID_STEP * ev.epsilon) + 2 * KERNEL_CUT / GRID_STEP),
        (12 + n_groups * r) * n_points,
    )
    chunk = int(max(1, min(32, CHUNK_BUDGET // per_node)))
    total = None
    for lo in range(0, len(ev.weights), chunk):
        hi = min(lo + chunk, len(ev.weights))
        ts = ev.nodes[lo:hi] @ src.T
        if dst is None:
            corr = [expand.T @ c @ expand for c in _correlate(ev, orders, ts, coords, None)]
        else:
            td = ts if dst is src else ev.nodes[lo:hi] @ dst.T
            corr = [c @ expand for c in _correlate(ev, orders, ts, coords, td)]
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
