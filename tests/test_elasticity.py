import subprocess
import sys

import numpy as np
import pytest

from dddflow import elasticity as EL
from dddflow.errors import NearSingularError


def lame_components(lam, mu):
    d = np.eye(3)
    return (
        lam * np.einsum("ij,kl->ijkl", d, d)
        + mu * (np.einsum("ik,jl->ijkl", d, d) + np.einsum("il,jk->ijkl", d, d))
    )


def test_isotropic_entries():
    C = EL.make_isotropic(1.0, 1.0)
    assert C.c[0, 0, 0, 0] == pytest.approx(3.0)
    assert C.c[0, 0, 1, 1] == pytest.approx(1.0)
    assert C.c[0, 1, 0, 1] == pytest.approx(1.0)
    assert EL.validate_symmetries(C)
    C0 = EL.make_isotropic(0.0, 1.0)
    assert C0.c[0, 0, 1, 1] == 0.0


def test_isotropic_preconditions():
    with pytest.raises(ValueError):
        EL.make_isotropic(1.0, 0.0)
    with pytest.raises(ValueError):
        EL.make_isotropic(-3.0, 1.0)  # lambda + 2 mu <= 0


def test_symmetry_validation_catches_single_entry():
    arr = lame_components(1.0, 1.0)
    arr[0, 0, 0, 1] = 0.1
    assert not EL.validate_symmetries(EL.ElasticityTensor(arr))
    zero = EL.ElasticityTensor(np.zeros((3, 3, 3, 3)))
    assert EL.validate_symmetries(zero)
    assert zero.lh_constant == 0.0


def test_lh_estimate_isotropic():
    # the infimum is mu, at v perpendicular to k; the min over v is exact
    for lam, mu in ((1.0, 1.0), (0.0, 1.0), (2.0, 0.5), (-0.5, 3.0)):
        lh = EL.estimate_lh_constant(EL.make_isotropic(lam, mu))
        assert abs(lh - mu) <= 1e-12 * mu
    # cubic (c11, c12, c44) = (2.4, 1.4, 1.0): infimum (c11 - c12) / 2 along <110>
    cubic = lame_components(1.4, 1.0)
    for n in range(3):
        cubic[n, n, n, n] -= 1.0
    assert 0.5 <= EL.ElasticityTensor(cubic).lh_constant <= 0.501


def test_lh_estimate_detects_violation():
    # lambda = -3, mu = 1 violates lambda + 2 mu > 0 at v parallel to k
    bad = EL.ElasticityTensor(lame_components(-3.0, 1.0))
    assert EL.estimate_lh_constant(bad) < 0.0


def test_import_leaves_out_scipy_stats():
    code = "import sys, dddflow; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def isotropic_acoustic_inverse(lam, mu, z):
    """Closed-form D(z)^-1 for a unit direction z and isotropic (lam, mu)."""
    return (np.eye(3) - (lam + mu) / (lam + 2 * mu) * np.outer(z, z)) / mu


def test_acoustic_tensor_isotropic_axis():
    lam, mu = 2.0, 0.5
    C = EL.make_isotropic(lam, mu)
    dinv = EL._dinv_stack(C, np.array([[1.0, 0.0, 0.0]]))[0]
    assert np.allclose(dinv, np.diag([1 / (lam + 2 * mu), 1 / mu, 1 / mu]))
    with pytest.raises(NearSingularError):
        EL._dinv_stack(C, np.zeros((1, 3)))


def test_acoustic_tensor_two_homogeneous(rng):
    C = EL.make_isotropic(1.3, 0.7)
    k = rng.normal(size=3)
    d1, d2 = EL._dinv_stack(C, np.stack([k, 2 * k]))
    assert np.allclose(d2, d1 / 4, rtol=1e-13)


def test_acoustic_eigenvalues_rotation_invariant():
    C = EL.make_isotropic(1.0, 1.0)
    dinv = EL._dinv_stack(C, np.array([[1.0, 1.0, 0.0]]) / np.sqrt(2))[0]
    assert np.allclose(np.sort(np.linalg.eigvalsh(dinv)), [1 / 3, 1.0, 1.0])


def test_acoustic_inverse_diagonal():
    # isotropic (1, 1) has D(e_x) = diag(3, 1, 1)
    dinv = EL._dinv_stack(EL.make_isotropic(1.0, 1.0), np.array([[1.0, 0, 0]]))[0]
    assert np.allclose(dinv, np.diag([1 / 3, 1.0, 1.0]))


def test_acoustic_inverse_closed_form(rng):
    lam, mu = 1.7, 0.6
    C = EL.make_isotropic(lam, mu)
    z = rng.normal(size=(1000, 3))
    z /= np.linalg.norm(z, axis=1)[:, None]
    for zi, got in zip(z, EL._dinv_stack(C, z)):
        want = isotropic_acoustic_inverse(lam, mu, zi)
        assert np.abs(got - want).max() < 1e-12


def test_acoustic_inverse_near_singular():
    bad = EL.ElasticityTensor(lame_components(-3.0, 1.0))
    # v parallel to k direction makes D indefinite
    with pytest.raises(NearSingularError):
        EL._dinv_stack(bad, np.array([[1.0, 0.0, 0.0]]))


def test_acoustic_inverse_many_directions(rng):
    C = EL.make_isotropic(0.8, 1.2)
    assert EL.validate_symmetries(C) and C.lh_constant > 0
    z = rng.normal(size=(10000, 3))
    z /= np.linalg.norm(z, axis=1)[:, None]
    assert np.isfinite(EL._dinv_stack(C, z)).all()


def test_inverse_minus_one_homogeneity(rng):
    C = EL.make_isotropic(1.0, 2.0)
    for s in (-2.0, 0.5, 10.0):
        k = rng.normal(size=3)
        dinv_sk, dinv_k = EL._dinv_stack(C, np.stack([s * k, k]))
        a = dinv_sk * (s * k)[None, :]
        b = dinv_k * k[None, :] / s
        assert np.abs(a - b).max() <= 1e-10 * np.abs(b).max()


def test_from_components_roundtrip():
    vals = lame_components(1.0, 1.0).ravel()
    C = EL.from_components(vals.tolist())
    assert EL.validate_symmetries(C)
    with pytest.raises(ValueError):
        EL.from_components([1.0] * 80)
