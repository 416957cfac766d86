import pytest

from dipolemirror import ApertureSpec, RadialMode, optimize_waist, plane_to_sphere


@pytest.fixture(scope="session")
def aperture():
    return ApertureSpec()


@pytest.fixture(scope="session")
def dipole_field(aperture):
    return plane_to_sphere(RadialMode.dipole(), aperture, n_theta=32, n_phi=64)


@pytest.fixture(scope="session")
def waist_optimum(aperture):
    return optimize_waist(aperture)


@pytest.fixture(scope="session")
def doughnut(waist_optimum):
    return RadialMode.doughnut(waist_optimum.waist)


@pytest.fixture(scope="session")
def doughnut_field(aperture, doughnut):
    return plane_to_sphere(doughnut, aperture, n_theta=32, n_phi=64)
