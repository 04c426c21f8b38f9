"""Rank-4 stiffness tensors, their symmetries, and the inverse acoustic
tensor D(z)^-1 at a stack of directions.

Stiffness is stored as the full 81-entry dense array; Voigt packing is
deliberately avoided because every downstream kernel contraction works on
all four indices.  The library is unit-agnostic; mu = 1 and a shortest
Burgers vector of length 1 are the recommended normalization.
"""

import numpy as np

from .errors import NearSingularError

__all__ = [
    "ALTERNATING",
    "ElasticityTensor",
    "make_isotropic",
    "from_components",
    "validate_symmetries",
    "estimate_lh_constant",
]


def _alternating():
    A = np.zeros((3, 3, 3))
    A[0, 1, 2] = A[1, 2, 0] = A[2, 0, 1] = 1.0
    A[0, 2, 1] = A[2, 1, 0] = A[1, 0, 2] = -1.0
    A.setflags(write=False)
    return A


#: Levi-Civita tensor, used by every kernel and force contraction.
ALTERNATING = _alternating()

NEAR_SINGULAR_FLOOR = 1e-8

#: Directions k of the Legendre-Hadamard estimate of every ElasticityTensor.
LH_SAMPLES = 2048


class ElasticityTensor:
    """Rank-4 stiffness with an estimated Legendre-Hadamard constant.

    The constructor does not reject asymmetric input; use
    :func:`validate_symmetries` to check.  `lh_constant` is exact in v and
    sampled in k: an estimate, not a certificate.
    """

    def __init__(self, components):
        c = np.asarray(components, dtype=float)
        if c.shape != (3, 3, 3, 3):
            raise ValueError("stiffness must have shape (3,3,3,3)")
        c = c.copy()
        c.setflags(write=False)
        self.c = c
        self.lh_constant = estimate_lh_constant(self)

    def max_abs(self):
        return float(np.abs(self.c).max())

    def is_isotropic(self, tol=1e-12):
        """True if the tensor equals the Lame form built from its own
        C_1122 and C_1212 entries."""
        lam = self.c[0, 0, 1, 1]
        mu = self.c[0, 1, 0, 1]
        ref = _lame(lam, mu)
        scale = max(self.max_abs(), 1.0)
        return bool(np.abs(self.c - ref).max() <= tol * scale)

    def lame_parameters(self):
        return float(self.c[0, 0, 1, 1]), float(self.c[0, 1, 0, 1])

    def __repr__(self):
        return f"ElasticityTensor(max|C|={self.max_abs():g}, lh~{self.lh_constant:g})"


def _lame(lam, mu):
    d = np.eye(3)
    return (
        lam * np.einsum("ij,kl->ijkl", d, d)
        + mu * (np.einsum("ik,jl->ijkl", d, d) + np.einsum("il,jk->ijkl", d, d))
    )


def make_isotropic(lam, mu):
    """Isotropic stiffness C_ijkl = lam d_ij d_kl + mu (d_ik d_jl + d_il d_jk)."""
    if not mu > 0:
        raise ValueError(f"mu must be positive, got {mu}")
    if not lam + 2 * mu > 0:
        raise ValueError(f"lambda + 2*mu must be positive, got {lam + 2 * mu}")
    return ElasticityTensor(_lame(lam, mu))


def from_components(values):
    """Build a tensor from 81 row-major values (or a (3,3,3,3) array)."""
    arr = np.asarray(values, dtype=float)
    if arr.size != 81:
        raise ValueError(f"need 81 stiffness values, got {arr.size}")
    return ElasticityTensor(arr.reshape(3, 3, 3, 3))


def validate_symmetries(C):
    """Exact check of the major and both minor index symmetries."""
    c = C.c
    major = np.array_equal(c, np.transpose(c, (2, 3, 0, 1)))
    minor1 = np.array_equal(c, np.transpose(c, (1, 0, 2, 3)))
    minor2 = np.array_equal(c, np.transpose(c, (0, 1, 3, 2)))
    return bool(major and minor1 and minor2)


def _unit_sphere_points(u, v):
    """Area-preserving map of unit-square samples onto the sphere."""
    z = 2.0 * u - 1.0
    phi = 2.0 * np.pi * v
    s = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    return np.stack([s * np.cos(phi), s * np.sin(phi), z], axis=1)


def _acoustic(C, nodes):
    """D(z)_ac = C_abcd z_b z_d at every node."""
    return np.einsum("abcd,nb,nd->nac", C.c, nodes, nodes, optimize=False)


def estimate_lh_constant(C):
    """Min of C_abcd v_a k_b v_c k_d over unit vectors v, and over
    LH_SAMPLES unit vectors k on a Fibonacci sphere.

    For a tensor with the major symmetry, the min over v at one k is the
    smallest eigenvalue of D(k).  A nonpositive value means a violating
    direction was found; a positive value certifies nothing.
    """
    i = np.arange(LH_SAMPLES)
    k = _unit_sphere_points((i + 0.5) / LH_SAMPLES, i * (np.sqrt(5.0) - 1.0) / 2.0 % 1.0)
    return float(np.linalg.eigvalsh(_acoustic(C, k))[:, 0].min())


def _dinv_stack(C, nodes):
    """D(z)^-1 at every node, where D(z)_ac = C_abcd z_b z_d.

    Raises NearSingularError when the smallest eigenvalue of some D(z)
    falls below NEAR_SINGULAR_FLOOR times that matrix's largest entry,
    which indicates a Legendre-Hadamard failure along z.
    """
    D = _acoustic(C, nodes)
    floor = NEAR_SINGULAR_FLOOR * np.maximum(np.abs(D).max(axis=(1, 2)), np.finfo(float).tiny)
    low = np.linalg.eigvalsh(D)[:, 0]
    bad = np.flatnonzero(low <= floor)
    if len(bad):
        k = bad[0]
        raise NearSingularError(
            f"acoustic tensor nearly singular at {len(bad)} sphere node(s): min eigenvalue "
            f"{low[k]:.3e} <= floor {floor[k]:.3e} at z = {nodes[k].round(4).tolist()}"
        )
    return np.linalg.inv(D)
