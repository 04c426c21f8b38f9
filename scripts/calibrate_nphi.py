"""Calibrate the line-profile amplitude N_PHI against the real-space kernel.

The spherical representation of K is linear in the profile amplitude, so
the amplitude is fixed by a least-squares fit of the unit-amplitude
spherical evaluation against the real-space convolution oracle at five
probe points (isotropic stiffness lambda=mu=1, eps=1).  The fit
reproduces the closed form sqrt(pi)/(2 pi)^3 of the 1-D inverse
transform of |phi_hat|^2; the package hard-codes that closed form.

Usage: python scripts/calibrate_nphi.py
"""

import numpy as np

from dddflow import calibration
from dddflow import elasticity as EL
from dddflow import kernels as KN

PROBES = [
    (0.7, -0.3, 1.2),
    (0.2, 0.1, -0.4),
    (1.5, 0.9, 0.3),
    (-0.8, 1.1, 0.6),
    (0.05, -1.3, -0.9),
]


def main():
    C = EL.make_isotropic(1.0, 1.0)
    profile = KN.MollifierProfile(1.0)
    ev = KN.KernelEvaluator(C, profile)
    k_unit = KN.sphere_sum(ev, PROBES) / calibration.N_PHI  # unit-amplitude evaluation
    k_direct = [KN.eval_K_direct(C, profile, np.asarray(s)) for s in PROBES]
    num = sum(float((ku * kd).sum()) for ku, kd in zip(k_unit, k_direct))
    den = sum(float((ku * ku).sum()) for ku in k_unit)
    fitted = num / den
    closed = np.sqrt(np.pi) / (8.0 * np.pi**3)
    worst = max(
        np.abs(ku * fitted - kd).max() / np.abs(kd).max() for ku, kd in zip(k_unit, k_direct)
    )
    print(f"fitted N_PHI      = {fitted:.12e}")
    print(f"closed form       = {closed:.12e}   (sqrt(pi)/(8 pi^3))")
    print(f"fit / closed form = {fitted / closed:.10f}")
    print(f"max relative residual over probes = {worst:.3e}")
    print(f"value in calibration.py           = {calibration.N_PHI:.12e}")


if __name__ == "__main__":
    main()
