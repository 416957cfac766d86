import pytest

import oracles
from dipolemirror import ApertureSpec, RadialMode, optimize_waist
from dipolemirror.geometry import _gauss_legendre


@pytest.fixture(scope="session")
def aperture():
    return ApertureSpec()


@pytest.fixture(scope="session")
def dipole_field(aperture):
    return oracles.sphere_nodes(RadialMode.dipole(), aperture, _gauss_legendre(32), 64)


@pytest.fixture(scope="session")
def waist_optimum(aperture):
    return optimize_waist(aperture)


@pytest.fixture(scope="session")
def doughnut(waist_optimum):
    return RadialMode.doughnut(waist_optimum.waist)


@pytest.fixture(scope="session")
def doughnut_field(aperture, doughnut):
    return oracles.sphere_nodes(doughnut, aperture, _gauss_legendre(32), 64)
