"""Rank-4 stiffness tensors, their symmetries, and the acoustic tensor D(k).

Stiffness is stored as the full 81-entry dense array; Voigt packing is
deliberately avoided because every downstream kernel contraction works on
all four indices.  The library is unit-agnostic; mu = 1 and a shortest
Burgers vector of length 1 are the recommended normalization.
"""

import numpy as np
from scipy.stats import qmc

from .errors import NearSingularError

__all__ = [
    "ALTERNATING",
    "ElasticityTensor",
    "AcousticTensor",
    "make_isotropic",
    "from_components",
    "validate_symmetries",
    "estimate_lh_constant",
    "acoustic_tensor",
    "acoustic_inverse",
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


class ElasticityTensor:
    """Rank-4 stiffness with an estimated Legendre-Hadamard constant.

    The constructor does not reject asymmetric input; use
    :func:`validate_symmetries` to check.  `lh_constant` is a sampled
    estimate, not a certificate.
    """

    def __init__(self, components, lh_samples=2048):
        c = np.asarray(components, dtype=float)
        if c.shape != (3, 3, 3, 3):
            raise ValueError("stiffness must have shape (3,3,3,3)")
        c = c.copy()
        c.setflags(write=False)
        self.c = c
        self.lh_constant = estimate_lh_constant(self, lh_samples)

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


class AcousticTensor:
    """3x3 matrix C_abcd k_b k_d together with the direction it came from."""

    def __init__(self, matrix, direction):
        self.matrix = np.asarray(matrix, dtype=float)
        self.direction = np.asarray(direction, dtype=float)

    def smallest_eigenvalue(self):
        return float(np.linalg.eigvalsh(self.matrix)[0])


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


def estimate_lh_constant(C, n_samples):
    """Min of C_abcd v_a k_b v_c k_d over a deterministic low-discrepancy
    sample of unit-vector pairs.

    The sequence is prefix-nested, so the estimate is monotone
    nonincreasing in n_samples.  A nonpositive value means a violating
    pair was found; a positive value certifies nothing.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    m = int(n_samples)
    sob = qmc.Sobol(d=4, scramble=False)
    pts = sob.random(m)
    v = _unit_sphere_points(pts[:, 0], pts[:, 1])
    k = _unit_sphere_points(pts[:, 2], pts[:, 3])
    vals = np.einsum("abcd,na,nb,nc,nd->n", C.c, v, k, v, k, optimize=False)
    return float(vals.min())


def acoustic_tensor(C, k):
    """D(k)_ac = C_abcd k_b k_d for a nonzero wavevector k."""
    k = np.asarray(k, dtype=float)
    n = np.linalg.norm(k)
    if n == 0.0:
        raise ValueError("acoustic tensor is undefined at k = 0")
    mat = np.einsum("abcd,b,d->ac", C.c, k, k)
    return AcousticTensor(mat, k / n)


def acoustic_inverse(D, floor_scale=NEAR_SINGULAR_FLOOR):
    """Inverse of an acoustic tensor, guarding against near-singularity.

    Raises NearSingularError when the smallest eigenvalue falls below
    floor_scale times the largest matrix entry, which indicates a
    Legendre-Hadamard failure along this direction.
    """
    mat = D.matrix
    floor = floor_scale * max(np.abs(mat).max(), np.finfo(float).tiny)
    w = np.linalg.eigvalsh(mat)
    if w[0] <= floor:
        raise NearSingularError(
            f"acoustic tensor nearly singular: min eigenvalue {w[0]:.3e} <= floor {floor:.3e}"
        )
    return np.linalg.inv(mat)


def isotropic_acoustic_inverse(lam, mu, z):
    """Closed-form D(z)^-1 for a unit direction z and isotropic (lam, mu)."""
    z = np.asarray(z, dtype=float)
    return (np.eye(3) - (lam + mu) / (lam + 2 * mu) * np.outer(z, z)) / mu
