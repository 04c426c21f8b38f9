import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dddflow import mobility as MB
from mobility_reference import drag_pair

ISO = MB.MobilityModel(alpha=0.5, drag=MB.IsotropicDrag(m=2.0))
BCC = MB.MobilityModel(alpha=0.5, drag=MB.BccDrag(B_eg=2.0, B_ec=0.5, B_s=1.0))


# The velocity potential and its conjugate, from the drag pair D of
# (b, tau): the velocity solve uses D.pseudo_inverse, these define what it
# means.
def psi(D, tau, v):
    """psi = 1/2 v.Bdag v on the constraint plane v.tau = 0, +inf off it."""
    if abs(v @ tau) > 1e-10 * max(math.sqrt(v @ v), 1e-300):
        return math.inf
    return 0.5 * float(v @ D.pseudo_inverse @ v)


def psi_star(D, f):
    """Conjugate potential 1/2 f.B f; finite for every force."""
    return 0.5 * float(f @ D.matrix @ f)


def dpsi_perp(D, tau, v):
    """Gradient of psi in the directions perpendicular to tau."""
    return (np.eye(3) - np.outer(tau, tau)) @ (D.pseudo_inverse @ v)


def _random_b_tau(rng):
    b = rng.choice([-1, 0, 1], size=3)
    while not b.any():
        b = rng.choice([-1, 0, 1], size=3)
    tau = rng.normal(size=3)
    tau /= np.linalg.norm(tau)
    return b.astype(float), tau


def test_isotropic_drag_eigenvalues():
    tau = np.array([0.0, 0.0, 1.0])
    D = drag_pair(ISO, np.array([1.0, 0, 0]), tau)
    w = np.sort(np.linalg.eigvalsh(D.matrix))
    assert np.allclose(w, [0.0, 0.5, 0.5])
    assert np.abs(D.matrix @ tau).max() == 0.0


def test_bcc_pure_edge_eigenvalues():
    b = np.array([1.0, 0.0, 0.0])
    tau = np.array([0.0, 1.0, 0.0])
    D = drag_pair(BCC, b, tau)
    glide = b @ D.matrix @ b
    climb = np.cross(b, tau) @ D.matrix @ np.cross(b, tau)
    assert glide == pytest.approx(2.0)  # B_eg
    assert climb == pytest.approx(0.5)  # B_ec
    assert np.abs(D.matrix @ tau).max() <= 1e-15


def test_drag_annihilates_tangent(rng):
    for model in (ISO, BCC):
        for _ in range(200):
            b, tau = _random_b_tau(rng)
            D = drag_pair(model, b, tau)
            assert np.abs(D.matrix @ tau).max() <= 1e-12
            assert np.abs(D.pseudo_inverse @ tau).max() <= 1e-12


def test_drag_psd_and_moore_penrose(rng):
    # symmetric PSD with shared kernel; pseudo-inverse identities on the
    # normal plane, for every tangent of one stack
    b, tau = map(np.array, zip(*[_random_b_tau(rng) for _ in range(10000)]))
    D = drag_pair(BCC, b, tau)
    B, Bd = D.matrix, D.pseudo_inverse
    P = np.eye(3) - tau[:, :, None] * tau[:, None, :]
    assert np.abs(B - B.transpose(0, 2, 1)).max(axis=(1, 2)).max() <= 1e-14
    assert np.linalg.eigvalsh(B)[:, 0].min() >= -1e-12
    assert np.abs(B @ Bd - P).max(axis=(1, 2)).max() <= 1e-10
    assert np.abs(Bd @ B - P).max(axis=(1, 2)).max() <= 1e-10


def test_psi_branches():
    tau = np.array([0.0, 0.0, 1.0])
    D = drag_pair(ISO, np.array([1.0, 0.0, 0.0]), tau)
    assert psi(D, tau, np.zeros(3)) == 0.0
    assert psi(D, tau, np.array([0.1, 0.0, 0.5])) == math.inf
    v = np.array([0.3, -0.4, 0.0])
    assert psi(D, tau, v) == pytest.approx(0.5 * 2.0 * (v @ v))


def test_psi_star_annihilates_tangent_force():
    tau = np.array([0.0, 0.0, 1.0])
    assert psi_star(drag_pair(BCC, np.array([1.0, 0, 0]), tau), tau) == 0.0


def test_numeric_conjugacy(rng):
    b = np.array([1.0, 0.0, 0.0])
    tau = np.array([0.0, 1.0, 0.0])
    for model in (ISO, BCC):
        D = drag_pair(model, b, tau)
        f = rng.normal(size=3)
        star = psi_star(D, f)
        # numeric sup over a grid in the normal plane, plus the maximizer v = Bf
        e1 = np.array([1.0, 0, 0])
        e2 = np.array([0.0, 0, 1.0])
        vstar = D.matrix @ f
        best = vstar @ f - psi(D, tau, vstar)
        vmax = 4.0 * (np.abs(vstar).max() + 1.0)
        grid = np.linspace(-vmax, vmax, 161)
        for v in (grid[:, None, None] * e1 + grid[None, :, None] * e2).reshape(-1, 3):
            best = max(best, v @ f - psi(D, tau, v))
        assert star == pytest.approx(best, abs=1e-6 * max(star, 1.0))
        # Fenchel-Young equality at the maximizer v = B f
        assert f @ vstar == pytest.approx(psi(D, tau, vstar) + star, abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_fenchel_young_inequality(seed):
    rng = np.random.default_rng(seed)
    b, tau = _random_b_tau(rng)
    f = rng.normal(size=3)
    v3 = rng.normal(size=3)
    v = v3 - (v3 @ tau) * tau  # admissible velocity
    lhs = f @ v
    D = drag_pair(BCC, b, tau)
    rhs = psi(D, tau, v) + psi_star(D, f)
    assert lhs <= rhs + 1e-10 * (1.0 + abs(rhs))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.01, 0.99))
def test_psi_convex_on_constraint_plane(seed, theta):
    rng = np.random.default_rng(seed)
    b, tau = _random_b_tau(rng)
    P = np.eye(3) - np.outer(tau, tau)
    v1, v2 = P @ rng.normal(size=3), P @ rng.normal(size=3)
    D = drag_pair(BCC, b, tau)
    mid = psi(D, tau, theta * v1 + (1 - theta) * v2)
    assert mid <= theta * psi(D, tau, v1) + (1 - theta) * psi(D, tau, v2) + 1e-12


def test_dpsi_perp():
    tau = np.array([0.0, 0.0, 1.0])
    D = drag_pair(ISO, np.array([1.0, 0.0, 0.0]), tau)
    assert np.abs(dpsi_perp(D, tau, np.zeros(3))).max() == 0.0
    v = np.array([0.2, -0.7, 0.0])
    assert np.allclose(dpsi_perp(D, tau, v), 2.0 * v)


def test_dpsi_perp_finite_differences(rng):
    b = np.array([1.0, 1.0, 0.0])
    tau = np.array([0.0, 0.0, 1.0])
    v = np.array([0.4, 0.1, 0.0])
    D = drag_pair(BCC, b, tau)
    g = dpsi_perp(D, tau, v)
    delta = 1e-6
    for w3 in (np.array([1.0, 0, 0]), np.array([0.0, 1, 0]), rng.normal(size=3)):
        w = w3 - (w3 @ tau) * tau
        fd = (psi(D, tau, v + delta * w) - psi(D, tau, v - delta * w)) / (2 * delta)
        assert fd == pytest.approx(g @ w, rel=1e-5, abs=1e-8)


def test_screw_limit_continuity():
    b = np.array([1.0, 0.0, 0.0])
    prev = None
    for ang in np.geomspace(1e-9, 1e-3, 25):
        tau = np.array([np.cos(ang), np.sin(ang), 0.0])
        B = drag_pair(BCC, b, tau).matrix
        if prev is not None:
            assert np.abs(B - prev).max() < 0.01
        prev = B
    # exact screw: direction-independent normal-plane matrix
    D = drag_pair(BCC, b, np.array([1.0, 0.0, 0.0]))
    P = np.eye(3) - np.diag([1.0, 0, 0])
    assert np.allclose(D.matrix, BCC.drag.B_s * P)


def test_tau_lipschitz_away_from_screw(rng):
    # assumption-style regularity: finite Lipschitz estimate on |b^tau| >= 0.1
    b = np.array([1.0, 0.0, 0.0])
    pairs = []
    for _ in range(500):
        t1 = rng.normal(size=3)
        t1 /= np.linalg.norm(t1)
        dt = 1e-4 * rng.normal(size=3)
        t2 = t1 + dt
        t2 /= np.linalg.norm(t2)
        if min(np.linalg.norm(np.cross(b, t1)), np.linalg.norm(np.cross(b, t2))) >= 0.1:
            pairs.append((t1, t2))
    t1, t2 = map(np.array, zip(*pairs))
    dB = np.abs(drag_pair(BCC, b, t1).matrix - drag_pair(BCC, b, t2).matrix).max(axis=(1, 2))
    worst = (dB / np.linalg.norm(t1 - t2, axis=1)).max()
    assert np.isfinite(worst) and worst < 100.0


def test_growth_floor(rng):
    for model in (ISO, BCC):
        beta = model.beta()
        assert beta > 0
        for _ in range(300):
            b, tau = _random_b_tau(rng)
            P = np.eye(3) - np.outer(tau, tau)
            v = P @ rng.normal(size=3)
            assert psi(drag_pair(model, b, tau), tau, v) >= 0.5 * beta * (v @ v) - 1e-12


def test_model_validation():
    with pytest.raises(ValueError):
        MB.MobilityModel(alpha=0.0, drag=MB.IsotropicDrag(m=1.0))
    with pytest.raises(ValueError):
        MB.IsotropicDrag(m=-1.0)
    with pytest.raises(ValueError):
        MB.BccDrag(B_eg=1.0, B_ec=0.0, B_s=1.0)
    with pytest.raises(ValueError):
        MB.drag_matrix(ISO, np.zeros(3), np.array([0.0, 0, 1.0]))
    with pytest.raises(ValueError):
        MB.drag_matrix(ISO, np.array([1.0, 0, 0]), np.array([0.0, 0, 1.1]))
