"""Calibrated constants.

N_PHI fixes the amplitude of the sphere-line profile eta so that the
spherical-quadrature kernel matches the real-space convolution kernel
(the convention-free definition).  eta is the 1-D inverse transform of
|phi_hat|^2 and therefore carries the (2pi)^-3 of the inverse transform;
for the Gaussian mollifier the closed form is sqrt(pi)/(2pi)^3.  The
value is reproduced to 8 digits by scripts/calibrate_nphi.py, which
least-squares fits the spherical representation against the real-space
oracle at five probe points.

BOUND_CONSTANTS are the prefactors of the monitored analytic bounds,
fixed once on the reference circle family R/eps in {5, 10, 20, 40} with
isotropic(1,1) stiffness and isotropic drag (m=1, alpha=1) as twice the
observed supremum ratio; see scripts/calibrate_bounds.py.  Violations on
later runs are regressions, not tuning opportunities.
"""

import math

#: Amplitude of eta^eps(t) = (N_PHI / eps) * exp(-t^2 / (4 eps^2)).
N_PHI = math.sqrt(math.pi) / (8.0 * math.pi**3)

#: Prefactors C for the monitored inequalities, keyed by bound name.
#: Values produced by scripts/calibrate_bounds.py (twice the observed sup).
BOUND_CONSTANTS = {
    "pk_linf": 0.0291476,
    "pk_l2": 0.0290775,
    "ap_vel": 0.00578784,
    "length_rate": 0.00554712,
    "mass": 0.00554712,
    "continuity": 0.002,
}
