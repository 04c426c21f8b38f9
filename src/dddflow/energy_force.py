"""Self-energy, Peach-Koehler force, and the discrete energy gradient.

The energy is the double line integral of the K kernel over all ordered
segment pairs, including the self pair (the kernel is smooth at zero and
the self term is the finite core energy).  Segment integrals use
Gauss-Legendre points with the line element absorbed into the weighted
segment vectors.  The discrete energy is smooth in the node positions,
so its gradient is assembled analytically; the per-node force density is
minus that gradient divided by the lumped node length.

Every kernel sum is, per sphere node z, a 1-D correlation in t = z.x of
the b (x) e densities with eta, eta' or eta''; `_correlate` evaluates it
on a uniform grid by FFT at linear cost in the point count, and `_sweep`
contracts it with the node's factor into the weighted sphere sum.  The
densities are correlated in the narrower of their own basis and the
range of the node's factor.  Sphere nodes are processed in equal chunks
sized by a memory budget, summed in index order.
"""

import functools
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.sparse

from .elasticity import ALTERNATING
from .errors import GeometryError
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


def _gauss_cloud(network, rule):
    """Gauss points of the network and their weighted b (x) e densities:
    rule point k on node i's segment is point k * n_nodes + i."""
    layout = network.layout
    if (layout.seg_len > network.epsilon).any():
        warnings.warn(
            "segments longer than epsilon: the kernel varies on the core "
            "scale and the line quadrature may be under-resolved",
            stacklevel=3,
        )
    seg = layout.segments
    points = (layout.nodes + rule.points[:, None, None] * seg).reshape(-1, 3)
    e = rule.weights[:, None, None] * seg
    a9 = np.einsum("na,knb->knab", layout.burgers, e, optimize=False).reshape(-1, 9)
    return points, a9


# Correlation grid spacing in units of eps.  Quintic B-spline deposit and
# gather at eps/6 agree with the exact pair sum to 2.3e-9 relative on the
# force field over 40 random networks, where a cubic spline at eps/24 gave
# 5.8e-9 on 4x as many grid nodes (at eps/16 it missed the 1e-8 that the
# rotational covariance of pk_force demands).
GRID_STEP = 1.0 / 6.0
# Profile support in units of eps: exp(-12^2 / 4) = 2.3e-16 relative.
KERNEL_CUT = 12.0
# The same in grid spacings: no kernel reaches more lags than this.
KERNEL_HALF = int(np.ceil(KERNEL_CUT / GRID_STEP))
# Doubles per chunk for the grid and for the per-point arrays (2 MB
# each): bounds memory on large clouds and on sparse networks, whose
# grids span the empty space, and alone sets the number of chunks, so a
# small cloud sweeps every sphere node at once.  At 8 MB the slip energy
# of two 2592-point disks peaked 50 MB higher.
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
    """Quintic B-spline assignment of the points t (n, zc) to zc grids of
    nfft nodes, grid k starting 3 spacings below lo[k]: the CSR matrix
    (n * zc, zc * nfft) whose row i * zc + k holds point i's six weights on
    grid k.  The margin is added after the subtraction, so a point at lo
    sits exactly at grid coordinate 3 and its leftmost tap at index 1; a
    margin subtracted from lo can round that tap to index -1, outside its
    node's grid."""
    n, zc = t.shape
    x = (t - lo) / dx + 3.0
    i0 = x.astype(np.intc)
    powers = np.empty((6, n * zc))
    powers[0] = 1.0
    np.subtract(x.ravel(), i0.ravel(), out=powers[1])
    for p in range(2, 6):
        np.multiply(powers[p - 1], powers[1], out=powers[p])
    i0 += np.arange(zc, dtype=np.intc) * nfft
    # one column per tap: a broadcast (n * zc, 6) sum was 4x slower
    cols = np.empty((n * zc, 6), np.intc)
    for j in range(6):
        np.add(i0.ravel(), j - 2, out=cols[:, j])
    rows = np.arange(0, 6 * n * zc + 1, 6, dtype=np.intc)
    return scipy.sparse.csr_array(
        ((powers.T @ _QUINTIC).ravel(), cols.ravel(), rows), shape=(n * zc, zc * nfft)
    )


# Chunks of one sweep share a few grid lengths: building the kernel
# spectrum once per length took 12% off the CPU time of
# energy_and_gradient (six sparse loops, 16x32 rule, 2-core x86 host).
# A 128-node shrink run meets 126 lengths; 256 spectra take about 0.3 MB.
@functools.lru_cache(maxsize=256)
def _kernel_spectrum(epsilon, order, nfft, reach):
    """rFFT of eta^(order) sampled on the grid (cut at +-KERNEL_CUT eps)
    over the spline's sinc^12 (deposit and gather), then cut at +-reach
    spacings; read-only.  The profile is deconvolved on its shortest grid
    before the cut, since the sinc^-12 filter spreads a cut profile."""
    half = KERNEL_HALF
    n = nfft if reach == half else scipy.fft.next_fast_len(2 * half + 1, real=True)
    toff = np.arange(-half, half + 1) * (GRID_STEP * epsilon)
    prof = MollifierProfile(epsilon)
    ker = np.zeros(n)
    ker[: half + 1] = eta(prof, toff[half:], order)
    ker[-half:] = eta(prof, toff[:half], order)
    spec = scipy.fft.rfft(ker) / np.sinc(np.arange(n // 2 + 1) / n) ** 12
    if reach < half:
        full = scipy.fft.irfft(spec, n)
        ker = np.zeros(nfft)
        ker[: reach + 1] = full[: reach + 1]
        ker[-reach:] = full[-reach:]
        spec = scipy.fft.rfft(ker)
    spec.setflags(write=False)
    return spec


def _correlate(ev, orders, src_t, src_a, dst_t):
    """sum_j eta^(order)(dst_t[i, k] - src_t[j, k]) src_a[j, k] for a chunk
    of sphere nodes k, one (n_dst, zc, C) array per order.  With dst_t None
    the targets are the sources and each order gives instead the (zc, C, C)
    sums over them of src_a[i, k, c] times the correlation of channel d.

    Each node's projections are deposited on a uniform grid anchored at
    their minimum (so translations move no point relative to the grid)
    through one sparse quintic B-spline matrix for all nodes, convolved by
    one batched rFFT with the sampled profile derivative, deconvolved by
    the spline's sinc^12 (deposit and gather), and gathered with the same
    spline.  The profile is cut at KERNEL_CUT or at the chunk's widest
    projection, whichever is shorter; the grid spans the projection and
    that cut.  Without targets the gather is the deposit transposed, so
    the sums are rho^H K rho over the spectrum (Parseval): no inverse FFT.
    """
    eps = ev.epsilon
    dx = GRID_STEP * eps
    (n, zc), n_chan = src_t.shape, src_a.shape[2]
    # per-node extremes of a C-ordered node-major copy: numpy reduces a
    # narrow array along its first axis 8x slower
    both = src_t if dst_t is None or dst_t is src_t else np.concatenate((src_t, dst_t))
    node_t = both.T.copy()
    lo, hi = node_t.min(axis=1), node_t.max(axis=1)
    # taps run from index 1 (a point at lo) to m - 1 = int((hi - lo) / dx) + 6,
    # so targets meet sources only at lags below m - 1 and the kernel is
    # cut there when that is shorter than its own cut: exact, and the grid
    # then has no wrap-around between its ends and no overlap of the
    # kernel's two halves (that breaks the antisymmetry of eta')
    m = int((hi - lo).max() / dx) + 7
    reach = min(m - 1, KERNEL_HALF)
    nfft = scipy.fft.next_fast_len(m + reach, real=True)
    spline = _spline_matrix(src_t, lo, dx, nfft)
    rho = spline.T @ src_a.reshape(n * zc, n_chan)
    spec = scipy.fft.rfft(rho.reshape(zc, nfft, n_chan), axis=1)
    del rho
    kernels = [_kernel_spectrum(eps, order, nfft, reach) for order in orders]
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
    # times the kernel repeated over the channels: a flat product, 2x faster than broadcasting
    flat = spec.reshape(zc, -1)
    for k in kernels:
        conv = scipy.fft.irfft((flat * np.repeat(k, n_chan)).reshape(spec.shape), n=nfft, axis=1)
        out.append((spline @ conv.reshape(zc * nfft, n_chan)).reshape(-1, zc, n_chan))
        del conv
    return out


def _group_slots(coords, group, n_groups):
    """Each source's coordinates (n, ..., c) in its own group's slots of
    (n, ..., n_groups * c), zero elsewhere."""
    slots = np.zeros(coords.shape[:-1] + (n_groups, coords.shape[-1]))
    slots[np.arange(len(group)), ..., group, :] = coords
    return slots.reshape(coords.shape[:-1] + (-1,))


def _sweep(ev, F, V, terms, src, src_a, dst=None, group=None):
    """Weighted sphere sums of the correlations of the densities src_a at
    the points src against one kernel: F is its per-node factor
    (n_sphere, 9, m), and V is None or the bases (n_sphere, 9, q) of the
    ranges of a symmetric F: F = V V^T F = F V V^T.  Each term (order, W)
    holds per-node weights W (n_sphere, p) and gives one array.

    With targets dst a term gives the (p, n_dst, m) sums
    sum_k W[k] (x) corr_k @ F[k], where corr_k[i, c] correlates channel c
    with eta^(order) along sphere node k at dst[i].  Without them the
    sources are the targets, F is 9 x 9, and a term gives the
    (p, n_groups, n_groups) sums sum_k W[k] (x) sum src_a[i, d] F[k, d, c]
    corr_k[i, c] over the sources i of group m = group[i] and the
    correlation of group n's densities only, with n_groups = group.max()
    + 1 (one group without labels).  The sphere nodes are split into as
    few equal chunks as CHUNK_BUDGET allows, added in index order; their
    count follows from the network's extent and size only."""
    # b (x) e densities span at most 3 rank{b} of the 9 channels (3 for a
    # single loop): each node P[k] (9, r) holds that basis, on which they
    # are projected once, or the range of its factor where that is narrower
    _, sv, vt = np.linalg.svd(src_a, full_matrices=False)
    basis = vt[: max(1, int(np.count_nonzero(sv > 1e-13 * sv[0])))]
    n_sphere = len(ev.weights)
    if V is not None and V.shape[2] < len(basis):
        P, own = V, None
    else:
        P, own = np.broadcast_to(basis.T, (n_sphere,) + basis.T.shape), src_a @ basis.T
    r = P.shape[2]
    n_groups = 1 if group is None else int(group.max()) + 1
    # F projected once per call and weighted per term: a chunk's sums are
    # then one product over its nodes and channels together
    if dst is None:
        PtFP = (np.swapaxes(P, 1, 2) @ F @ P)[..., None]
        factors = [(PtFP * W[:, None, None]).reshape(len(W), r * r, -1) for _, W in terms]
        sums = [np.zeros((n_groups, n_groups, W.shape[1])) for _, W in terms]
    else:
        PtF = (np.swapaxes(P, 1, 2) @ F)[:, :, None]
        factors = [(PtF * W[:, None, :, None]).reshape(len(W), r, -1) for _, W in terms]
        sums = [np.zeros((len(dst), W.shape[1], F.shape[2])) for _, W in terms]
    orders = [order for order, _ in terms]
    # the cloud's diameter bounds its extent along every z, so that the
    # projections are made per chunk: all of them at once held 24 MB for
    # the slip energy of two 2592-point disks on the 24x48 rule
    cloud = src if dst is None or dst is src else np.concatenate((src, dst))
    span = 2.0 * float(np.linalg.norm(cloud - cloud.mean(axis=0), axis=1).max())
    n_points = len(src) + (0 if dst is None else len(dst))
    grid = span / (GRID_STEP * ev.epsilon)
    per_node = max(
        n_groups * r * (grid + min(grid, KERNEL_HALF)),
        (12 + n_groups * r) * n_points,
    )
    n_chunks = int(np.ceil(n_sphere / max(1, CHUNK_BUDGET // per_node)))
    for nodes in np.array_split(np.arange(n_sphere), n_chunks):
        lo, hi = nodes[0], nodes[-1] + 1
        ts = src @ ev.nodes[lo:hi].T
        # one gemm per chunk in the ranges; the own-basis projection is
        # repeated per node (copying it broadcast took 10x as long)
        if own is None:
            a = src_a @ P[lo:hi].transpose(1, 0, 2).reshape(9, -1)
        else:
            a = np.repeat(own, hi - lo, axis=0)
        a = a.reshape(len(src), hi - lo, r)
        if group is not None:
            a = _group_slots(a, group, n_groups)
        if dst is None:
            corr = [
                c.reshape(hi - lo, n_groups, r, n_groups, r).transpose(1, 3, 0, 2, 4)
                for c in _correlate(ev, orders, ts, a, None)
            ]
        else:
            td = ts if dst is src else dst @ ev.nodes[lo:hi].T
            corr = _correlate(ev, orders, ts, a, td)
        for acc, c, f in zip(sums, corr, factors):
            rows = c.reshape(-1, (hi - lo) * f.shape[1])
            acc += (rows @ f[lo:hi].reshape(-1, f.shape[2])).reshape(acc.shape)
    return [np.moveaxis(acc, 1 if dst is not None else 2, 0) for acc in sums]


def energy_line(network, ev, rule):
    """Self-energy of the network with a per-loop-pair breakdown."""
    if network.is_empty():
        raise GeometryError("energy of an empty network")
    points, a9 = _gauss_cloud(network, rule)
    loop_of = np.tile(network.layout.loop_of, rule.order)
    (sums,) = _sweep(ev, ev.fk, ev.fk_range, [(0, ev.weights[:, None])], points, a9, group=loop_of)
    blocks = 0.5 * sums[0]
    return EnergyBreakdown(total=float(blocks.sum()), matrix=blocks)


def energy_and_gradient(network, ev, rule):
    """Discrete energy and its exact gradient with respect to node positions."""
    if network.is_empty():
        raise GeometryError("energy gradient of an empty network")
    points, a9 = _gauss_cloud(network, rule)
    w = ev.weights[:, None]
    terms = [(0, w), (1, w * ev.nodes)]
    (ga,), gz = _sweep(ev, ev.fk, ev.fk_range, terms, points, a9, points)
    energy = 0.5 * float(np.einsum("ic,ic->", a9, ga, optimize=False))
    layout = network.layout
    n = len(layout.nodes)
    # sums over rule points: tensordot's own (1, order) x (order, 3n) dots, without its overhead
    # positional channel: Gauss point = (1-xi) x0 + xi x1
    gp3 = np.einsum("ic,qic->iq", a9, gz, optimize=False).reshape(rule.order, -1)
    # tangent-element channel: A = b outer (wxi * (x1 - x0))
    r = np.einsum("na,knac->knc", layout.burgers, ga.reshape(rule.order, n, 3, 3), optimize=False)
    r = np.dot(rule.weights[None], r.reshape(rule.order, -1))
    start = (np.dot((1.0 - rule.points)[None], gp3) - r).reshape(n, 3)
    # every node ends exactly one segment, its predecessor's
    return energy, start + (np.dot(rule.points[None], gp3) + r).reshape(n, 3)[layout.pred]


def pk_force(network, ev, rule):
    """Peach-Koehler force density at the nodes via the line formula.

    G(s) collects the kernel-gradient pair sum; the density is tau x G,
    so orthogonality to the node tangent is exact by construction.  The
    cross-product order is fixed by requiring agreement with minus the
    discrete energy gradient (the force must shrink an isolated loop).
    """
    if network.is_empty():
        raise GeometryError("force on an empty network")
    points, a9 = _gauss_cloud(network, rule)
    layout = network.layout
    term = (1, ev.weights[:, None] * ev.nodes)
    (gz,) = _sweep(ev, ev.fk, ev.fk_range, [term], points, a9, layout.nodes)
    # G = u x z with u_l = b_a F_(al)(cd) phi'_cd, each node with its own b
    gz = gz.reshape(3, -1, 3, 3)
    G = np.einsum("mlq,ia,qial->im", ALTERNATING, layout.burgers, gz, optimize=False)
    return ForceField(
        density=np.cross(layout.tangents, G),
        lumped=layout.lumped,
        G=G,
        tangents=layout.tangents,
        hairpin=layout.hairpin,
    )


def _surface_cloud(surfaces):
    """Midedge 3-point rule: the distinct points and their summed weighted
    b (x) n densities.

    Each interior edge's midpoint comes once from each adjacent triangle.
    Coincident points project alike on every sphere node, so one point
    carrying their summed density gives the same sums up to rounding.
    """
    pts, a9 = [], []
    for surf in surfaces:
        tri = surf.triangles
        bn = np.einsum("a,tm->tam", surf.slip.cartesian, surf.normals).reshape(-1, 9)
        for i, j in ((0, 1), (1, 2), (2, 0)):
            pts.append(0.5 * (tri[:, i] + tri[:, j]))
            a9.append(bn * (surf.areas / 3.0)[:, None])
    points, inverse = np.unique(np.concatenate(pts), axis=0, return_inverse=True)
    dens = np.zeros((len(points), 9))
    np.add.at(dens, inverse.reshape(-1), np.concatenate(a9))
    return points, dens


def energy_surface(surfaces, ev):
    """Slip energy as the double surface integral of the J kernel.

    `surfaces` span the network's loops; cross terms between surfaces are
    included.  The midedge 3-point rule is exact for quadratic integrands
    per triangle pair; triangles should be comparable to the core scale
    for the kernel to be resolved (see SpanningSurface refinement
    helpers).
    """
    P, a9 = _surface_cloud(surfaces)
    (sums,) = _sweep(ev, ev.fj, ev.fj_range, [(2, ev.weights[:, None])], P, a9)
    return 0.5 * float(sums.sum())
