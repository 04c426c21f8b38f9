import numpy as np
import pytest

from dddflow import elasticity as EL
from dddflow import kernels as KN
from dddflow.calibration import N_PHI
from dddflow.errors import NotIsotropicError


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
        ref = KN.spherical_factor_reference(iso11, z).reshape(9, 9)
        got = ev_unit.fk[idx]
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_kernel_symmetries_bit_exact(ev_unit, rng):
    for _ in range(10):
        s = rng.normal(size=3) * rng.uniform(0, 40)
        K = KN.eval_K(ev_unit, s)
        assert np.array_equal(K, K.transpose(2, 3, 0, 1))
        assert np.array_equal(K, KN.eval_K(ev_unit, -s))
        J = KN.eval_J(ev_unit, s)
        assert np.array_equal(J, KN.eval_J(ev_unit, -s))


def test_gradK_matches_finite_differences(ev_unit, rng):
    h = 1e-5
    worst = 0.0
    for _ in range(50):
        s = rng.normal(size=3) * rng.uniform(0.1, 5.0)
        g = KN.eval_gradK(ev_unit, s)
        fd = np.stack(
            [(KN.eval_K(ev_unit, s + h * e) - KN.eval_K(ev_unit, s - h * e)) / (2 * h) for e in np.eye(3)],
            axis=-1,
        )
        worst = max(worst, np.abs(g - fd).max() / np.abs(g).max())
    assert worst < 1e-6


def test_gradK_zero_at_origin(ev_unit):
    assert np.abs(KN.eval_gradK(ev_unit, np.zeros(3))).max() == 0.0


def test_d2K_matches_finite_differences(ev_unit, rng):
    s = rng.normal(size=3)
    h = 1e-5
    E = np.eye(3)
    d2 = np.stack(
        [np.stack([KN.sphere_sum(ev_unit, s, 2, directions=[a, b])[0] for b in E], -1) for a in E], -1
    )  # (3,3,3,3, f, e)
    for e in range(3):
        step = h * E[e]
        fd = (KN.eval_gradK(ev_unit, s + step) - KN.eval_gradK(ev_unit, s - step)) / (2 * h)
        assert np.abs(fd - d2[..., e]).max() <= 1e-6 * np.abs(d2).max()
    with pytest.raises(ValueError):
        KN.sphere_sum(ev_unit, s, 2, directions=[E[0]])


def test_J_uniform_bound(ev_unit, rng):
    eps = ev_unit.epsilon
    j0 = np.abs(KN.eval_J(ev_unit, np.zeros(3))).max()
    for _ in range(30):
        s = rng.normal(size=3) * rng.uniform(0, 30)
        assert np.abs(KN.eval_J(ev_unit, s)).max() <= 2.0 * j0
    assert j0 * eps**3 < np.inf


def test_batched_evaluations_match_single(ev_unit, rng):
    S = rng.normal(size=(7, 3))
    Km = KN.sphere_sum(ev_unit, S)
    Jm = KN.sphere_sum(ev_unit, S, 2, ev_unit.fj)
    Gm = np.stack([KN.sphere_sum(ev_unit, S, 1, directions=[e]) for e in np.eye(3)], axis=-1)
    for i, s in enumerate(S):
        assert np.allclose(Km[i], KN.eval_K(ev_unit, s), rtol=1e-13, atol=1e-300)
        assert np.allclose(Jm[i], KN.eval_J(ev_unit, s), rtol=1e-13, atol=1e-300)
        assert np.allclose(Gm[i], KN.eval_gradK(ev_unit, s), rtol=1e-12, atol=1e-300)


def test_oracle_agreement_two_probes(iso11, ev_unit):
    for s in (np.array([0.7, -0.3, 1.2]), np.array([0.2, 0.1, -0.4])):
        kd = KN.eval_K_direct(iso11, ev_unit.profile, s)
        kf = KN.eval_K(ev_unit, s)
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
    k0 = np.abs(KN.eval_K(ev0, np.zeros(3))).max()
    far = KN.SphericalQuadrature.equator_refined(np.array([0.0, 0.0, 1.0]), u_core=20.0 / 40.0)
    evf = KN.KernelEvaluator(iso11, prof, far)
    k40 = np.abs(KN.eval_K(evf, np.array([0.0, 0.0, 40.0]))).max()
    ratio = k0 / k40
    assert 40.0 / 3.0 <= ratio <= 40.0 * 3.0


def test_decay_scan_smoke(ev_unit):
    rep = KN.decay_bound_scan(ev_unit, 0, 0, n_radii=12)
    assert np.isfinite(rep.constant)
    assert rep.slope <= -0.9
    assert repr(rep).startswith("DecayCheckReport")


def test_self_convergence_rule(iso11):
    # the order rule keeps order-doubling changes below 1e-9 out to 20 eps
    prof = KN.MollifierProfile(1.0)
    n = KN.polar_order_for(20.0)
    ev1 = KN.KernelEvaluator(iso11, prof, KN.SphericalQuadrature.product_rule(n, 2 * n))
    ev2 = KN.KernelEvaluator(iso11, prof, KN.SphericalQuadrature.product_rule(2 * n, 4 * n))
    s = np.array([3.0, -19.0, 4.0])  # |s| ~ 19.8 eps
    k1, k2 = KN.eval_K(ev1, s), KN.eval_K(ev2, s)
    assert np.abs(k1 - k2).max() <= 1e-9 * np.abs(k2).max()


def test_profile_scaling_relation():
    # eta^eps(t) = eta^1(t/eps) / eps
    p1 = KN.MollifierProfile(1.0)
    pe = KN.MollifierProfile(0.4)
    for t in (0.0, 0.3, -1.7):
        assert KN.eta(pe, t) == pytest.approx(KN.eta(p1, t / 0.4) / 0.4, rel=1e-14)
    with pytest.raises(ValueError):
        KN.MollifierProfile(0.0)
    with pytest.raises(ValueError):
        KN.MollifierProfile(1.0, kind="bump")
