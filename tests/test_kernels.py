import dataclasses

import numpy as np
import pytest

from dddflow import elasticity as EL
from dddflow import energy_force as EF
from dddflow import geometry as GE
from dddflow import kernels as KN
from dddflow import shapes as SH
from dddflow.calibration import N_PHI
from dddflow.elasticity import ALTERNATING
from dddflow.errors import NearSingularError, NotIsotropicError


def spherical_factor_reference(C, z):
    """From-scratch loop evaluation of the K factor at one node (slow):
    FK(z) = 1/2 C_efgh X_aefb X_cghd with X_aefb = C_aijk z_k Dinv_ej A_fib."""
    cc = C.c
    D = np.zeros((3, 3))
    for a in range(3):
        for c in range(3):
            D[a, c] = sum(cc[a, b, c, d] * z[b] * z[d] for b in range(3) for d in range(3))
    dinv = np.linalg.inv(D)
    A = ALTERNATING
    X = np.zeros((3, 3, 3, 3))
    for a in range(3):
        for e in range(3):
            for f in range(3):
                for b in range(3):
                    acc = 0.0
                    for i in range(3):
                        for j in range(3):
                            for k in range(3):
                                acc += cc[a, i, j, k] * z[k] * dinv[e, j] * A[f, i, b]
                    X[a, e, f, b] = acc
    F = np.zeros((3, 3, 3, 3))
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    acc = 0.0
                    for e in range(3):
                        for f in range(3):
                            for g in range(3):
                                for h in range(3):
                                    acc += cc[e, f, g, h] * X[a, e, f, b] * X[c, g, h, d]
                    F[a, b, c, d] = 0.5 * acc
    return F


def grad_k(ev, S):
    """dK_abcd/ds_e at a batch of points, derivative index last."""
    return np.stack([KN.sphere_sum(ev, S, 1, directions=[e]) for e in np.eye(3)], axis=-1)


def test_eta_closed_form():
    prof = KN.MollifierProfile(0.5)
    assert KN.eta(prof, 0.0) == pytest.approx(N_PHI / 0.5)
    t = 0.73
    assert KN.eta(prof, t) / KN.eta(prof, 0.0) == pytest.approx(np.exp(-t**2 / (4 * 0.25)))
    assert KN.eta(prof, 0.0, 1) == 0.0


def test_eta_derivatives_match_finite_differences():
    prof = KN.MollifierProfile(0.8)
    h = 1e-6
    for t in (-1.3, 0.2, 2.4):
        d1 = (KN.eta(prof, t + h) - KN.eta(prof, t - h)) / (2 * h)
        d2 = (KN.eta(prof, t + h, 1) - KN.eta(prof, t - h, 1)) / (2 * h)
        assert d1 == pytest.approx(KN.eta(prof, t, 1), rel=1e-8)
        assert d2 == pytest.approx(KN.eta(prof, t, 2), rel=1e-8)
    with pytest.raises(ValueError):
        KN.eta(prof, 0.0, 3)


def _sphere_monomial_exact(a, b, c):
    # integral over S^2 of x^a y^b z^c; zero unless all exponents even
    if a % 2 or b % 2 or c % 2:
        return 0.0
    from math import gamma

    return 2.0 * gamma((a + 1) / 2) * gamma((b + 1) / 2) * gamma((c + 1) / 2) / gamma(
        (a + b + c + 3) / 2
    )


def test_product_rule_exactness():
    q = KN.SphericalQuadrature.product_rule(12, 24, hemisphere=False)
    assert q.weights.sum() == pytest.approx(4 * np.pi, rel=1e-14)
    for a in range(0, 7):
        for b in range(0, 7 - a):
            for c in range(0, 7 - a - b):
                got = (q.weights * q.nodes[:, 0] ** a * q.nodes[:, 1] ** b * q.nodes[:, 2] ** c).sum()
                want = _sphere_monomial_exact(a, b, c)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_hemisphere_matches_full_rule_on_even_integrands(rng):
    full = KN.SphericalQuadrature.product_rule(16, 32, hemisphere=False)
    hemi = KN.SphericalQuadrature.product_rule(16, 32, hemisphere=True)
    assert hemi.weights.sum() == pytest.approx(4 * np.pi, rel=1e-14)
    v = rng.normal(size=3)

    def even(nodes):
        t = nodes @ v
        return np.exp(-(t**2)) * (nodes[:, 0] ** 2 + 0.3)

    a = (full.weights * even(full.nodes)).sum()
    b = (hemi.weights * even(hemi.nodes)).sum()
    assert a == pytest.approx(b, rel=1e-13)


def test_cached_factors_match_reference(iso11, ev_unit):
    for idx in (0, 17, len(ev_unit.nodes) - 1):
        z = ev_unit.nodes[idx]
        ref = spherical_factor_reference(iso11, z).reshape(9, 9)
        got = ev_unit.fk[idx]
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def _random_stiffness(rng):
    """Isotropic plus sum_k S_k (x) S_k over random symmetric S_k: all index
    symmetries, and strongly elliptic."""
    S = rng.normal(size=(4, 3, 3))
    S = S + S.transpose(0, 2, 1)
    return EL.ElasticityTensor(EL.make_isotropic(1.0, 1.0).c + 0.3 * np.einsum("kij,klm->ijlm", S, S))


def test_densities_correlate_in_the_narrower_basis(iso11, rule4, rng, monkeypatch):
    """A planar loop's b (x) e densities span 2 channels, fewer than FK's
    rank 5; three loops with b = x, y, z span all 9, so the sweep
    correlates them in FK's range."""
    lat = SH.cubic_lattice()
    ev = KN.KernelEvaluator(iso11, KN.MollifierProfile(0.25), KN.SphericalQuadrature.product_rule(8, 16))
    channels = []
    correlate = EF._correlate

    def spy(ev, orders, src_t, src_a, dst_t):
        channels.append(src_a.shape[2])
        return correlate(ev, orders, src_t, src_a, dst_t)

    monkeypatch.setattr(EF, "_correlate", spy)
    single = SH.single_loop_network(SH.circle_loop(lat, 1.0, 16), 0.25)
    EF.energy_and_gradient(single, ev, rule4)
    assert set(channels) == {2}
    channels.clear()
    loops = [
        SH.random_loop(lat, rng, n_nodes=8, scale=0.5, burgers=b, center=(1.5 * k, 0.0, 0.0))
        for k, b in enumerate([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    ]
    EF.energy_and_gradient(GE.DislocationNetwork(lat, loops, 0.25), ev, rule4)
    assert set(channels) == {5}


def test_factor_ranges_orthonormal_and_rebuild_factors(iso11, rng):
    cubic = EL.make_isotropic(1.4, 1.0).c.copy()
    for n in range(3):
        cubic[n, n, n, n] -= 1.0  # (c11, c12, c44) = (2.4, 1.4, 1.0), as in loop_ensemble
    rule = KN.SphericalQuadrature.product_rule(16, 32)
    cases = [(iso11, 5, 3), (EL.ElasticityTensor(cubic), 5, 3), (_random_stiffness(rng), None, None)]
    for C, q_k, q_j in cases:
        ev = KN.KernelEvaluator(C, KN.MollifierProfile(1.0), rule)
        for F, V, q in ((ev.fk, ev.fk_range, q_k), (ev.fj, ev.fj_range, q_j)):
            if q is not None:
                assert V.shape == (len(ev.nodes), 9, q)
            Vt = V.transpose(0, 2, 1)
            assert np.abs(Vt @ V - np.eye(V.shape[2])).max() <= 1e-14
            assert np.abs(V @ (Vt @ F @ V) @ Vt - F).max() <= 1e-14 * np.abs(F).max()
            assert not V.flags.writeable


def test_kernel_symmetries_bit_exact(ev_unit, rng):
    S = np.array([rng.normal(size=3) * rng.uniform(0, 40) for _ in range(10)])
    K, K_neg = KN.sphere_sum(ev_unit, S), KN.sphere_sum(ev_unit, -S)
    J, J_neg = KN.sphere_sum(ev_unit, S, 2, ev_unit.fj), KN.sphere_sum(ev_unit, -S, 2, ev_unit.fj)
    for k, k_neg, j, j_neg in zip(K, K_neg, J, J_neg):
        assert np.array_equal(k, k.transpose(2, 3, 0, 1))
        assert np.array_equal(k, k_neg)
        assert np.array_equal(j, j_neg)


def test_gradK_matches_finite_differences(ev_unit, rng):
    h = 1e-5
    S = np.array([rng.normal(size=3) * rng.uniform(0.1, 5.0) for _ in range(50)])
    G = grad_k(ev_unit, S)
    FD = np.stack(
        [(KN.sphere_sum(ev_unit, S + h * e) - KN.sphere_sum(ev_unit, S - h * e)) / (2 * h) for e in np.eye(3)],
        axis=-1,
    )
    worst = max(np.abs(g - fd).max() / np.abs(g).max() for g, fd in zip(G, FD))
    assert worst < 1e-6


def test_gradK_zero_at_origin(ev_unit):
    assert np.abs(grad_k(ev_unit, np.zeros(3))).max() == 0.0


def test_d2K_matches_finite_differences(ev_unit, rng):
    s = rng.normal(size=3)
    h = 1e-5
    E = np.eye(3)
    d2 = np.stack(
        [np.stack([KN.sphere_sum(ev_unit, s, 2, directions=[a, b])[0] for b in E], -1) for a in E], -1
    )  # (3,3,3,3, f, e)
    for e in range(3):
        step = h * E[e]
        fd = (grad_k(ev_unit, s + step)[0] - grad_k(ev_unit, s - step)[0]) / (2 * h)
        assert np.abs(fd - d2[..., e]).max() <= 1e-6 * np.abs(d2).max()
    with pytest.raises(ValueError):
        KN.sphere_sum(ev_unit, s, 2, directions=[E[0]])


def test_J_uniform_bound(ev_unit, rng):
    eps = ev_unit.epsilon
    j0 = np.abs(KN.sphere_sum(ev_unit, np.zeros(3), 2, ev_unit.fj)).max()
    S = np.array([rng.normal(size=3) * rng.uniform(0, 30) for _ in range(30)])
    for j in KN.sphere_sum(ev_unit, S, 2, ev_unit.fj):
        assert np.abs(j).max() <= 2.0 * j0
    assert j0 * eps**3 < np.inf


def test_batched_evaluations_match_single(ev_unit, rng):
    S = rng.normal(size=(7, 3))
    Km = KN.sphere_sum(ev_unit, S)
    Jm = KN.sphere_sum(ev_unit, S, 2, ev_unit.fj)
    Gm = grad_k(ev_unit, S)
    for i, s in enumerate(S):
        assert np.allclose(Km[i], KN.sphere_sum(ev_unit, s)[0], rtol=1e-13, atol=1e-300)
        assert np.allclose(Jm[i], KN.sphere_sum(ev_unit, s, 2, ev_unit.fj)[0], rtol=1e-13, atol=1e-300)
        assert np.allclose(Gm[i], grad_k(ev_unit, s)[0], rtol=1e-12, atol=1e-300)


def test_oracle_agreement_two_probes(iso11, ev_unit):
    S = np.array([[0.7, -0.3, 1.2], [0.2, 0.1, -0.4]])
    for s, kf in zip(S, KN.sphere_sum(ev_unit, S)):
        kd = KN.eval_K_direct(iso11, ev_unit.profile, s)
        assert np.abs(kf - kd).max() <= 1e-6 * np.abs(kd).max()


def test_oracle_evenness(iso11, ev_unit):
    s = np.array([0.9, 0.2, -0.5])
    kp = KN.eval_K_direct(iso11, ev_unit.profile, s)
    km = KN.eval_K_direct(iso11, ev_unit.profile, -s)
    assert np.abs(kp - km).max() <= 1e-10 * np.abs(kp).max()


def test_oracle_rejects_anisotropic(ev_unit):
    arr = EL.make_isotropic(1.0, 1.0).c.copy()
    arr[0, 0, 0, 0] += 0.5
    aniso = EL.ElasticityTensor(arr)
    with pytest.raises(NotIsotropicError):
        KN.eval_K_direct(aniso, ev_unit.profile, np.array([1.0, 0, 0]))


def test_far_field_decay_factor(iso11):
    # |K| at 40 eps decays roughly like 1/|s| relative to the origin value
    prof = KN.MollifierProfile(1.0)
    rule = KN.SphericalQuadrature.equator_refined(np.array([0.0, 0.0, 1.0]), u_core=0.5)
    ev0 = KN.KernelEvaluator(iso11, prof, rule)
    k0 = np.abs(KN.sphere_sum(ev0, np.zeros(3))).max()
    far = KN.SphericalQuadrature.equator_refined(np.array([0.0, 0.0, 1.0]), u_core=20.0 / 40.0)
    evf = KN.KernelEvaluator(iso11, prof, far)
    k40 = np.abs(KN.sphere_sum(evf, np.array([0.0, 0.0, 40.0]))).max()
    ratio = k0 / k40
    assert 40.0 / 3.0 <= ratio <= 40.0 * 3.0


def test_decay_scan_smoke(iso11, ev_unit):
    orders = [(0, 0), (1, 1)]
    reps = KN.decay_bound_scan(ev_unit, orders, n_radii=12)
    assert [(rep.m, rep.j) for rep in reps] == orders
    rep = reps[0]
    assert np.isfinite(rep.constant)
    assert rep.slope <= -0.9
    assert repr(rep).startswith("DecayCheckReport")
    assert [f.name for f in dataclasses.fields(rep)] == ["m", "j", "constant", "slope"]
    # the K factor's scale reaches every evaluator the scan builds, and an
    # order scanned alone draws the same tangentials as among others
    doubled = KN.KernelEvaluator(iso11, ev_unit.profile, fk_scale=2.0)
    (rep2,) = KN.decay_bound_scan(doubled, orders[1:], n_radii=12)
    assert rep2.constant == pytest.approx(2.0 * reps[1].constant, rel=1e-12)
    assert rep2.slope == pytest.approx(reps[1].slope, rel=1e-12)


def test_self_convergence_rule(iso11):
    # the order rule keeps order-doubling changes below 1e-9 out to 20 eps
    prof = KN.MollifierProfile(1.0)
    n = KN.polar_order_for(20.0)
    ev1 = KN.KernelEvaluator(iso11, prof, KN.SphericalQuadrature.product_rule(n, 2 * n))
    ev2 = KN.KernelEvaluator(iso11, prof, KN.SphericalQuadrature.product_rule(2 * n, 4 * n))
    s = np.array([3.0, -19.0, 4.0])  # |s| ~ 19.8 eps
    k1, k2 = KN.sphere_sum(ev1, s), KN.sphere_sum(ev2, s)
    assert np.abs(k1 - k2).max() <= 1e-9 * np.abs(k2).max()


def test_profile_scaling_relation():
    # eta^eps(t) = eta^1(t/eps) / eps
    p1 = KN.MollifierProfile(1.0)
    pe = KN.MollifierProfile(0.4)
    for t in (0.0, 0.3, -1.7):
        assert KN.eta(pe, t) == pytest.approx(KN.eta(p1, t / 0.4) / 0.4, rel=1e-14)
    with pytest.raises(ValueError):
        KN.MollifierProfile(0.0)


def test_evaluator_rejects_legendre_hadamard_violation(lh_violating_cubic):
    C = EL.from_components(lh_violating_cubic)
    assert EL.validate_symmetries(C) and C.lh_constant < 0
    with pytest.raises(NearSingularError, match="nearly singular"):
        KN.KernelEvaluator(C, KN.MollifierProfile(1.0), KN.SphericalQuadrature.product_rule(8, 16))
