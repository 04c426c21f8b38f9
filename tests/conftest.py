import numpy as np
import pytest

from dddflow import elasticity as EL
from dddflow import kernels as KN
from dddflow import shapes as SH
from dddflow.energy_force import LineQuadratureRule


@pytest.fixture(scope="session")
def lat():
    return SH.cubic_lattice()


@pytest.fixture(scope="session")
def iso11():
    return EL.make_isotropic(1.0, 1.0)


@pytest.fixture(scope="session")
def ev_unit(iso11):
    """Default evaluator at eps = 1."""
    return KN.KernelEvaluator(iso11, KN.MollifierProfile(1.0))


@pytest.fixture(scope="session")
def ev_quarter(iso11):
    """Default evaluator at eps = 0.25."""
    return KN.KernelEvaluator(iso11, KN.MollifierProfile(0.25))


@pytest.fixture(scope="session")
def rule4():
    return LineQuadratureRule(4)


@pytest.fixture(scope="session")
def lh_violating_cubic():
    """81 row-major entries of cubic stiffness (c11, c12, c44) = (2.4, 1.4, -0.3):
    all index symmetries hold, but D(z) has negative eigenvalues."""
    c11, c12, c44 = 2.4, 1.4, -0.3
    c = np.zeros((3, 3, 3, 3))
    for i in range(3):
        for j in range(3):
            c[i, i, j, j] = c11 if i == j else c12
            if i != j:
                c[i, j, i, j] = c[i, j, j, i] = c44
    return c.ravel().tolist()


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
