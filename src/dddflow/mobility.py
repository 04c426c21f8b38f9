"""Dissipation model: gradient penalty and drag matrices.

The drag matrix Bdag(b, tau) defines the convex velocity potential
psi(b, tau, v) = 1/2 v.Bdag v on the constraint plane v.tau = 0 (+inf
off it).  Its Legendre-Fenchel conjugate is psi*(b, tau, f) = 1/2 f.B f
with the mobility B, Bdag's pseudo-inverse on the normal plane, so
v = B f is the force-velocity relation.  B maps force density to
velocity, so the drag parameters below are mobilities.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "IsotropicDrag",
    "BccDrag",
    "MobilityModel",
    "drag_matrix",
]


@dataclass(frozen=True)
class IsotropicDrag:
    """Single drag coefficient m: velocity = (1/m) * (normal force)."""

    m: float

    def __post_init__(self):
        if not self.m > 0:
            raise ValueError("drag coefficient m must be positive")


@dataclass(frozen=True)
class BccDrag:
    """Edge-glide / edge-climb / screw mobilities for BCC-style drag."""

    B_eg: float
    B_ec: float
    B_s: float

    def __post_init__(self):
        if min(self.B_eg, self.B_ec, self.B_s) <= 0:
            raise ValueError("all BCC mobilities must be positive")


@dataclass(frozen=True)
class MobilityModel:
    """Pair (A, psi): A = alpha*I penalizes bending rate; drag sets psi."""

    alpha: float
    drag: object
    screw_tolerance: float = 1e-6

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")

    def beta(self):
        """Quadratic growth floor of psi: psi(v) >= beta/2 |v|^2.

        For isotropic drag Bdag = m P(tau), so beta = m.  For BCC drag
        the largest mobility eigenvalue of B is at most
        2*max(B_eg, B_ec, B_s) for |b| >= 1 (each term's coefficient is
        1/sqrt(x^2+y^2) <= 2/( |b| * max ) forms), hence
        beta = 1 / (2*max(B_eg, B_ec, B_s)).
        """
        if isinstance(self.drag, IsotropicDrag):
            return self.drag.m
        d = self.drag
        return 1.0 / (2.0 * max(d.B_eg, d.B_ec, d.B_s))


def _projector(tau):
    return np.eye(3) - tau[..., :, None] * tau[..., None, :]


def _check_unit(tau):
    tau = np.asarray(tau, dtype=float)
    if np.any(np.abs(np.sqrt(np.einsum("...i,...i->...", tau, tau)) - 1.0) > 1e-10):
        raise ValueError("tau must be a unit vector")
    return tau


def _bcc_drag(drag, b, tau, P, screw_tol):
    """BCC drag matrix, the pseudo-inverse of the mobility matrix, from
    the normal-plane eigensystem.

    Away from screw orientation the two eigenvectors are the projected
    Burgers direction (glide) and b x tau (climb).  Both terms of the
    closed form degenerate as b x tau -> 0; below the screw tolerance the
    mobility is replaced by its direction-averaged limit (B_s |b.tau|/|b|^2
    times the normal-plane projector), and the drag by its inverse on that
    plane, with a linear blend of the mobility's eigenvalues over
    [tol, 2 tol] to keep tau -> Bdag continuous.
    """
    bn = np.linalg.norm(b, axis=-1)
    cross = np.cross(b, tau)
    cn = np.linalg.norm(cross, axis=-1)
    bt = np.einsum("...i,...i->...", b, tau)
    screw = cn <= screw_tol * bn
    screw_limit = drag.B_s * np.abs(bt) / bn**2
    pb = np.einsum("...ij,...j->...i", P, b)
    u = pb / np.where(screw, 1.0, np.linalg.norm(pb, axis=-1))[..., None]
    w = cross / np.where(screw, 1.0, cn)[..., None]
    c_glide = 1.0 / np.sqrt(cn**2 / drag.B_eg**2 + bt**2 / drag.B_s**2)
    c_climb = np.sqrt(drag.B_ec**2 * cn**2 + drag.B_s**2 * bt**2) / bn**2
    # blend toward the isotropic screw limit for continuity (t = 1 from 2 tol on)
    t = np.clip((cn / bn - screw_tol) / screw_tol, 0.0, 1.0)
    cg = ((1.0 - t) * screw_limit + t * c_glide)[..., None, None]
    cc = ((1.0 - t) * screw_limit + t * c_climb)[..., None, None]
    uu = u[..., :, None] * u[..., None, :]
    ww = w[..., :, None] * w[..., None, :]
    limit = np.where(screw, screw_limit, 1.0)[..., None, None]
    return np.where(screw[..., None, None], P / limit, uu / cg + ww / cc)


def drag_matrix(model, b, tau):
    """Drag matrix Bdag(b, tau): the Moore-Penrose pseudo-inverse of the
    mobility matrix B(b, tau).

    tau is one unit tangent (3,) or a stack (n, 3), b one Burgers vector
    or one per tangent; the matrix is (3, 3) or (n, 3, 3).  It annihilates
    the tangent and is positive definite on the normal plane.
    """
    tau = _check_unit(tau)
    b = np.broadcast_to(np.asarray(b, dtype=float), tau.shape)
    if not b.any(axis=-1).all():
        raise ValueError("Burgers vector must be nonzero")
    P = _projector(tau)
    if isinstance(model.drag, IsotropicDrag):
        return model.drag.m * P
    return _bcc_drag(model.drag, b, tau, P, model.screw_tolerance)
