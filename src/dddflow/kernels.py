"""Regularized interaction kernels via spherical quadrature.

The two kernels are surface integrals over the unit sphere of per-node
tensor factors (built from the stiffness and the inverse acoustic
tensor) against a Gaussian line profile eta and its derivatives:

    K(s)      = sum_z w_z FK(z) eta(z.s)
    dK/ds_e   = sum_z w_z FK(z) z_e eta'(z.s)
    J(s)      = sum_z w_z FJ(z) eta''(z.s)

All of them are one weighted sphere sum, `sphere_sum`.  The factors
FK, FJ are independent of s and cached per node; sign and amplitude
conventions are fixed against the real-space convolution definition,
implemented here as `eval_K_direct` (isotropic stiffness only) and used
as the verification oracle.

The integrand's angular bandwidth grows like |s|/eps, so the default
24 x 48 product rule is reliable for |s| up to roughly 10 eps; use
`polar_order_for` to pick an order for larger arguments (the far-field
decay scan builds its own equator-refined rules).
"""

import functools
from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .elasticity import ALTERNATING, _dinv_stack
from .errors import NotIsotropicError
from .calibration import N_PHI
from .geometry import UNIT_COMBINATIONS

__all__ = [
    "MollifierProfile",
    "SphericalQuadrature",
    "KernelEvaluator",
    "DecayCheckReport",
    "eta",
    "sphere_sum",
    "eval_K_direct",
    "decay_bound_scan",
    "polar_order_for",
]


class MollifierProfile:
    """Gaussian slip-smearing profile at length scale epsilon.

    Carries the induced line profile eta^eps(t) = (N_PHI/eps) exp(-t^2/4 eps^2)
    whose amplitude is fixed by oracle calibration (see calibration.py).
    """

    def __init__(self, epsilon):
        if not epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        self.epsilon = float(epsilon)


def eta(profile, t, order=0):
    """eta^eps and its first two t-derivatives, in closed form."""
    e = profile.epsilon
    t = np.asarray(t, dtype=float)
    g = (N_PHI / e) * np.exp(-(t * t) / (4.0 * e * e))
    if order == 0:
        return g
    if order == 1:
        return -t / (2.0 * e * e) * g
    if order == 2:
        return (t * t / (4.0 * e**4) - 1.0 / (2.0 * e * e)) * g
    raise ValueError("derivative order must be 0, 1 or 2")


class SphericalQuadrature:
    """Quadrature nodes and weights on the unit sphere (weights sum to 4 pi).

    The hemisphere variant keeps the z>0 half of a symmetric product rule
    with doubled weights; it integrates even integrands exactly as the
    full rule does, and makes the evenness of the kernels in s exact in
    floating point.  All kernel integrands here are even.

    `mirror` is None or each node's partner under the half turn about
    the unit `axis` (a product rule's node at phi + pi), as an index array;
    `azimuth` is None or each node's azimuth index alongside it.
    """

    def __init__(self, nodes, weights, axis=None, mirror=None, azimuth=None):
        self.nodes = np.ascontiguousarray(nodes, dtype=float)
        self.weights = np.ascontiguousarray(weights, dtype=float)
        self.axis, self.mirror, self.azimuth = axis, mirror, azimuth
        if self.nodes.shape != (len(self.weights), 3):
            raise ValueError("nodes/weights shape mismatch")

    @classmethod
    def product_rule(cls, n_polar=24, n_azimuthal=48, hemisphere=True):
        """Gauss-Legendre in cos(theta) x midpoint rule in phi."""
        if n_polar < 2:
            raise ValueError(f"polar order must be >= 2, got {n_polar}")
        if n_azimuthal < 4:
            raise ValueError(f"azimuthal order must be >= 4, got {n_azimuthal}")
        if hemisphere and n_polar % 2:
            raise ValueError(f"hemisphere rule needs an even polar order, got {n_polar}")
        x, w = np.polynomial.legendre.leggauss(n_polar)
        if hemisphere:
            keep = x > 0
            x, w = x[keep], 2.0 * w[keep]
        k, half = np.arange(len(x) * n_azimuthal), n_azimuthal // 2
        mirror = k - k % n_azimuthal + (k + half) % n_azimuthal if n_azimuthal % 2 == 0 else None
        azimuth = k % n_azimuthal if n_azimuthal % 2 == 0 else None
        return cls(*_azimuthal_product(x, w, n_azimuthal), np.array([0.0, 0.0, 1.0]), mirror, azimuth)

    @classmethod
    def equator_refined(cls, axis, u_core):
        """Panelled rule with nodes concentrated where |z.axis| <= u_core:
        12 Gauss points per panel in z.axis, 32 azimuths.

        Used for far-field kernel arguments, where the integrand is a
        ridge of angular half-width ~ eps/|s| around the great circle
        normal to s.  Only even integrands are integrated exactly.
        """
        u_core = min(max(u_core, 1e-6), 1.0)
        edges = [0.0, u_core]
        while edges[-1] < 1.0:
            edges.append(min(2.0 * edges[-1], 1.0))
        gx, gw = np.polynomial.legendre.leggauss(12)
        us, ws = [], []
        for lo, hi in zip(edges[:-1], edges[1:]):
            us.append(0.5 * (hi + lo) + 0.5 * (hi - lo) * gx)
            ws.append(0.5 * (hi - lo) * gw)
        u = np.concatenate(us)
        w = 2.0 * np.concatenate(ws)  # doubled: u<0 half folded in
        nodes, weights = _azimuthal_product(u, w, 32)
        R = _rotation_to(axis)
        return cls(nodes @ R.T, weights)

    def __len__(self):
        return len(self.weights)


def _azimuthal_product(u, w, n_azimuthal):
    """Nodes and weights of the rule (u, w) in cos(theta) times the
    n_azimuthal-point midpoint rule in phi, u-major."""
    phi = 2.0 * np.pi * (np.arange(n_azimuthal) + 0.5) / n_azimuthal
    wphi = 2.0 * np.pi / n_azimuthal
    st = np.sqrt(np.maximum(1.0 - u * u, 0.0))
    nodes = np.stack(
        [
            np.outer(st, np.cos(phi)).ravel(),
            np.outer(st, np.sin(phi)).ravel(),
            np.outer(u, np.ones_like(phi)).ravel(),
        ],
        axis=1,
    )
    weights = np.outer(w * wphi, np.ones_like(phi)).ravel()
    return nodes, weights


def _rotation_to(axis):
    """Rotation matrix sending e_z to the given unit axis."""
    a = np.asarray(axis, dtype=float)
    a = a / np.linalg.norm(a)
    if abs(a[2]) > 0.9:
        other = np.array([1.0, 0.0, 0.0])
    else:
        other = np.array([0.0, 0.0, 1.0])
    e1 = np.cross(other, a)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(a, e1)
    return np.stack([e1, e2, a], axis=1)


def polar_order_for(s_max_over_eps):
    """Polar order resolving eta(z.s) up to |s| = s_max_over_eps * eps."""
    return max(24, 2 * (int(np.ceil(1.1 * s_max_over_eps)) + 10))


def _k_factor_stack(C, nodes):
    """Per-node K factor, shaped (n, 9, 9) and symmetrized.

    FK(z) = 1/2 C_efgh X_aefb X_cghd with X_aefb = C_aijk z_k Dinv_ej A_fib.
    The overall sign makes K(s) = sum_z w FK eta(z.s) match the
    real-space kernel (oracle-fixed).
    """
    cc = C.c
    n = len(nodes)
    dinv = _dinv_stack(C, nodes)
    t1 = np.einsum("aijk,nk->naij", cc, nodes, optimize=False)
    t2 = np.einsum("naij,nej->naie", t1, dinv, optimize=False)
    x = np.einsum("naie,fib->naefb", t2, ALTERNATING, optimize=False)
    # Z_nabgh = C_efgh X_naefb and F = 1/2 Z_abgh X_cghd, done as 9x9 matmuls
    x_ab_ef = np.ascontiguousarray(x.transpose(0, 1, 4, 2, 3)).reshape(n, 9, 9)
    z9 = np.matmul(x_ab_ef, cc.reshape(9, 9))  # (n, 9_ab, 9_gh)
    x_gh_cd = np.ascontiguousarray(x.transpose(0, 2, 3, 1, 4)).reshape(n, 9, 9)
    f9 = 0.5 * np.matmul(z9, x_gh_cd)  # (n, 9_ab, 9_cd)
    return 0.5 * (f9 + np.transpose(f9, (0, 2, 1)))


def _j_factor_stack(C, nodes):
    """Per-node J factor: FJ(z) = -1/2 [C_kmgr - C_abgr Dinv_ai C_ijkm z_b z_j].

    The leading sign makes the slipped-surface energy computed from J
    agree with the line energy computed from K (boundary-only property).
    """
    cc = C.c
    dinv = _dinv_stack(C, nodes)
    t = np.einsum("abgr,nai,nb->nigr", cc, dinv, nodes, optimize=False)
    t2 = np.einsum("nigr,ijkm,nj->nkmgr", t, cc, nodes, optimize=False)
    f = -0.5 * (cc[None, :, :, :, :] - t2)
    f9 = f.reshape(-1, 9, 9)
    return 0.5 * (f9 + np.transpose(f9, (0, 2, 1)))


def _factor_range(f):
    """Orthonormal bases (n, 9, q) of the ranges of the symmetric per-node
    factors f (n, 9, 9), read-only: the eigenvectors by decreasing
    |eigenvalue|, q the largest count over the nodes of eigenvalues above
    1e-13 of their node's largest.  A node of lower rank keeps its next
    eigenvectors, which still span its range."""
    lam, vec = np.linalg.eigh(f)
    mag = np.abs(lam)
    q = max(1, int(np.count_nonzero(mag > 1e-13 * mag.max(axis=1, keepdims=True), axis=1).max()))
    keep = np.argsort(-mag, axis=1, kind="stable")[:, None, :q]
    out = np.take_along_axis(vec, keep, axis=2)
    out.setflags(write=False)
    return out


class KernelEvaluator:
    """Immutable evaluator of the regularized kernels.

    Holds the rule's nodes and weights and the precontracted per-node
    factors, so each evaluation is one profile sweep and one weighted
    contraction.  `fk_range` and `fj_range` span the factors' ranges per
    node (FK has rank 5 and FJ rank 3 on the stiffnesses in use), so that
    kernel sums correlate fewer than 9 density channels; each is built on
    the first sweep against its factor, not with the evaluator.
    `fk_scale` multiplies the K factor (the checks' `--nphi-scale`).
    `axis`, `mirror` and `azimuth` are the rule's (see SphericalQuadrature).
    """

    def __init__(self, elasticity, profile, quadrature=None, fk_scale=1.0):
        if quadrature is None:
            quadrature = SphericalQuadrature.product_rule()
        self.elasticity = elasticity
        self.profile = profile
        self.nodes = quadrature.nodes
        self.weights = quadrature.weights
        self.axis, self.mirror, self.azimuth = quadrature.axis, quadrature.mirror, quadrature.azimuth
        self.fk_scale = fk_scale
        self.fk = fk_scale * _k_factor_stack(elasticity, self.nodes)
        self.fk.setflags(write=False)

    # built on first use: J only by surface energies, the ranges by sweeps
    @functools.cached_property
    def fk_range(self):
        return _factor_range(self.fk)

    @functools.cached_property
    def fj(self):
        fj = _j_factor_stack(self.elasticity, self.nodes)
        fj.setflags(write=False)
        return fj

    @functools.cached_property
    def fj_range(self):
        return _factor_range(self.fj)

    @functools.cached_property
    def azimuth_frame(self):
        """The node kept of each mirror pair by azimuth, polar order alike
        (n_az, n_polar), the polar sines (a tuple) and each azimuth's unit
        direction normal to the axis (n_az, 3)."""
        keep = np.flatnonzero(np.arange(len(self.mirror)) < self.mirror)
        keep = keep[np.argsort(self.azimuth[keep], kind="stable")]
        keep = keep.reshape(len(np.unique(self.azimuth[keep])), -1)
        inplane = self.nodes[keep] - np.multiply.outer(self.nodes[keep] @ self.axis, self.axis)
        sines = np.linalg.norm(inplane, axis=2)
        return keep, tuple(sines[0].tolist()), inplane[:, 0] / sines[:, :1]

    @property
    def epsilon(self):
        return self.profile.epsilon

    def aligned(self, normal):
        """The same evaluator on its rule turned so that its axis is the
        unit `normal`; the mirror pairs and azimuths turn with it."""
        axis = np.asarray(normal, dtype=float) / np.linalg.norm(normal)
        R = _rotation_to(axis) @ _rotation_to(self.axis).T
        turned = SphericalQuadrature(self.nodes @ R.T, self.weights, axis, self.mirror, self.azimuth)
        return KernelEvaluator(self.elasticity, self.profile, turned, self.fk_scale)


def sphere_sum(ev, S, order=0, factor=None, directions=None):
    """Weighted sphere sum sum_z w_z F(z) eta^(order)(z.s) prod_d (z.d) at a
    batch of points, shape (m, 3, 3, 3, 3).

    `factor` defaults to ev.fk (the K family); pass ev.fj with order 2
    for J.  `directions` (order vectors) contracts the derivative indices
    of D^order K; without them the profile derivative enters bare.
    """
    T = np.atleast_2d(np.asarray(S, dtype=float)) @ ev.nodes.T
    W = eta(ev.profile, T, order) * ev.weights
    if directions is not None:
        if len(directions) != order:
            raise ValueError("need one direction per derivative order")
        for d in directions:
            W = W * (ev.nodes @ np.asarray(d, dtype=float))
    F = ev.fk if factor is None else factor
    return (W @ F.reshape(-1, 81)).reshape(-1, 3, 3, 3, 3)


@dataclass(frozen=True)
class DecayCheckReport:
    """Result of a far-field decay scan for one derivative order."""

    m: int
    j: int
    constant: float
    slope: float


def decay_bound_scan(ev, orders, n_radii=40):
    """Scan |D^m K(s)[v_1..v_j, s_hat..s_hat]| over the far field, one
    DecayCheckReport per (m, j) in `orders`.

    Uses log-spaced radii over [1e-2, 1e3] * eps along 26
    directions, with j random tangential unit vectors per direction, and
    equator-refined quadratures so the angular ridge stays resolved at
    every radius.  Reports the supremum of the decay-bound ratio and the
    fitted log-log slope over |s| >= 10 eps.
    """
    for m, j in orders:
        if m not in (0, 1, 2) or not 0 <= j <= m:
            raise ValueError("need m in {0,1,2} and 0 <= j <= m")
    eps = ev.epsilon
    rngs = [np.random.default_rng(0) for _ in orders]
    radii = np.geomspace(1e-2 * eps, 1e3 * eps, n_radii)
    best_ratio = np.zeros(len(orders))
    by_radius = np.zeros((len(orders), len(radii)))
    for d in UNIT_COMBINATIONS / np.linalg.norm(UNIT_COMBINATIONS, axis=1)[:, None]:
        e1, e2 = _rotation_to(d)[:, :2].T
        dirs = []
        for rng, (m, j) in zip(rngs, orders):
            th = rng.uniform(0.0, 2.0 * np.pi, size=max(j, 1))
            dirs.append([np.cos(a) * e1 + np.sin(a) * e2 for a in th[:j]] + [d] * (m - j))
        # one adapted rule per radius octave; the radii ascend
        octave = None
        for ridx, r in enumerate(radii):
            key = int(np.floor(np.log2(max(r / eps, 1.0))))
            if key != octave:
                octave = key
                u_core = min(1.0, 20.0 * eps / (eps * 2.0**key))
                rule = SphericalQuadrature.equator_refined(d, u_core)
                evr = KernelEvaluator(ev.elasticity, ev.profile, rule, ev.fk_scale)
            for k, (m, j) in enumerate(orders):
                val = np.abs(sphere_sum(evr, r * d, m, directions=dirs[k])).max()
                denom = np.sqrt(eps ** (2 * m + 2) + eps ** (2 * j) * r ** (2 * m + 2 - 2 * j))
                best_ratio[k] = max(best_ratio[k], val * denom)
                by_radius[k, ridx] = max(by_radius[k, ridx], val)
    fit = radii >= 10.0 * eps
    lr = np.log(radii[fit])
    reports = []
    for (m, j), c, v in zip(orders, best_ratio, by_radius):
        slope = float(np.polyfit(lr, np.log(np.maximum(v[fit], 1e-300)), 1)[0])
        reports.append(DecayCheckReport(m, j, float(c), slope))
    return reports


# ----------------------------------------------------------------------
# Real-space convolution oracle (isotropic stiffness only)
# ----------------------------------------------------------------------

_C0 = np.sqrt(2.0 / np.pi)


def _radial_functions(r, a):
    """Radial pieces of the Gaussian-mollified Kelvin solution.

    m(r) is |x| convolved with the Gaussian of per-component std a;
    p(r) = erf(r/(sqrt2 a))/r is 1/|x| convolved with the same Gaussian.
    Near r=0 the closed forms cancel catastrophically, so an even Taylor
    expansion takes over.
    """
    r = np.asarray(r, dtype=float)
    E = erf(r / (np.sqrt(2.0) * a))
    g = np.exp(-(r * r) / (2.0 * a * a))
    small = r < 1e-4 * a
    rs = np.where(small, a, r)
    p = np.where(small, _C0 * (a**4 - a**2 * r**2 / 6.0) / a**5, E / rs)
    p1 = np.where(
        small,
        _C0 * r * (-280.0 * a**4 + 84.0 * a**2 * r**2) / (840.0 * a**7),
        _C0 * g / (a * rs) - E / rs**2,
    )
    m1_over_r = np.where(
        small,
        _C0 * (280.0 * a**4 - 28.0 * a**2 * r**2) / (420.0 * a**5),
        ((1.0 - a**2 / rs**2) * E + _C0 * g * a / rs) / rs,
    )
    m2 = np.where(
        small,
        _C0 * (280.0 * a**4 - 84.0 * a**2 * r**2) / (420.0 * a**5),
        (2.0 * a**2 / rs**3) * E - 2.0 * _C0 * g * a / rs**2,
    )
    m3 = np.where(
        small,
        _C0 * r * (-504.0 * a**4 + 180.0 * a**2 * r**2) / (1260.0 * a**7),
        -(6.0 * a**2 / rs**4) * E + _C0 * g * (6.0 * a / rs**3 + 2.0 / (a * rs)),
    )
    return p, p1, m1_over_r, m2, m3


def _green_gradient_isotropic(X, lam, mu, a):
    """Gradient of the mollified isotropic Green's function, shape (n,3,3,3)."""
    r = np.linalg.norm(X, axis=1)
    r = np.maximum(r, 1e-300)
    xh = X / r[:, None]
    p, p1, m1r, m2, m3 = _radial_functions(r, a)
    kap = (lam + mu) / (lam + 2.0 * mu)
    d = np.eye(3)
    B = (m2 - m1r) / r
    A = m3 - 3.0 * B
    xxx = np.einsum("ni,nj,nk->nijk", xh, xh, xh, optimize=False)
    dsym = (
        np.einsum("ij,nk->nijk", d, xh, optimize=False)
        + np.einsum("ik,nj->nijk", d, xh, optimize=False)
        + np.einsum("jk,ni->nijk", d, xh, optimize=False)
    )
    m_ijk = A[:, None, None, None] * xxx + B[:, None, None, None] * dsym
    return (2.0 * np.einsum("ij,n,nk->nijk", d, p1, xh, optimize=False) - kap * m_ijk) / (
        8.0 * np.pi * mu
    )


def _phi_field(X, C, lam, mu, a):
    """Field Phi_abkp(y) = A_bpl C_ijkl dG_ai/dy_j, reshaped to (n, 9, 9)."""
    gd = _green_gradient_isotropic(X, lam, mu, a)
    t = np.einsum("ijkl,naij->nakl", C.c, gd, optimize=False)
    phi = np.einsum("bpl,nakl->nabkp", ALTERNATING, t, optimize=False)
    return phi.reshape(-1, 9, 9)


def _radial_panels(eps, rmax):
    edges = list(np.arange(0.0, 4.0 * eps + 1e-12, 0.5 * eps))
    r = edges[-1]
    while r < rmax:
        r = min(r * 1.6, rmax)
        edges.append(r)
    return np.array(edges)


def eval_K_direct(C, profile, s):
    """Brute-force real-space evaluation of K(s) for isotropic stiffness.

    Quadratures the defining convolution of two mollified-Green's-function
    gradient fields on a polar grid centered between the two field
    origins, then removes the algebraic 1/R truncation tail by Richardson
    extrapolation over nested ball radii.  This is the convention-free
    definition of the kernel and serves as the oracle for `sphere_sum`.
    """
    if not C.is_isotropic():
        raise NotIsotropicError("real-space oracle implemented for isotropic C only")
    lam, mu = C.lame_parameters()
    eps = profile.epsilon
    s = np.asarray(s, dtype=float)
    center = 0.5 * s
    angular = SphericalQuadrature.product_rule(16, 32, hemisphere=False)
    checkpoints = (32.0, 64.0, 128.0, 256.0)
    edges = _radial_panels(eps, checkpoints[-1] * eps)
    for cp in checkpoints:
        if not np.any(np.isclose(edges, cp * eps)):
            edges = np.sort(np.append(edges, cp * eps))
    gx, gw = np.polynomial.legendre.leggauss(8)
    c99 = C.c.reshape(9, 9)
    acc = np.zeros(81)
    partials = {}
    for lo, hi in zip(edges[:-1], edges[1:]):
        rad = 0.5 * (hi + lo) + 0.5 * (hi - lo) * gx
        wrad = 0.5 * (hi - lo) * gw
        X = (center[None, None, :] + rad[:, None, None] * angular.nodes[None, :, :]).reshape(-1, 3)
        W = (wrad[:, None] * angular.weights[None, :] * (rad**2)[:, None]).ravel()
        p1 = _phi_field(X - s[None, :], C, lam, mu, eps)
        p2 = _phi_field(X, C, lam, mu, eps)
        m = np.einsum("xy,pyk->pxk", c99, p1, optimize=False)
        rkg = np.matmul(np.transpose(m, (0, 2, 1)), p2)
        acc = acc + np.tensordot(W, rkg.reshape(-1, 81), axes=1)
        for cp in checkpoints:
            if np.isclose(hi, cp * eps):
                partials[cp] = acc.copy()
    hs = np.array([1.0 / cp for cp in checkpoints])
    T = [partials[cp] for cp in checkpoints]
    for k in range(1, len(T)):
        T = [T[i + 1] + (T[i + 1] - T[i]) * hs[i + k] / (hs[i] - hs[i + k]) for i in range(len(T) - 1)]
    return T[0].reshape(3, 3, 3, 3)
