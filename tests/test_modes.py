import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import annulus_overlap

from dipolemirror import (
    ApertureSpec,
    ConvergenceError,
    CouplingFigures,
    DomainError,
    RadialMode,
    UndefinedOverlapError,
    WeightedMode,
    absorption_probability,
    coupling_strength,
    dipole_profile,
    doughnut_profile,
    optimize_waist,
    spatial_overlap,
)
from dipolemirror.modes import load_sampled_mode, save_sampled_mode


def test_profile_peak_positions():
    rho = np.linspace(0.0, 8.0, 200_001)
    assert rho[np.argmax(dipole_profile(rho))] == pytest.approx(2.0 / math.sqrt(3.0), abs=1e-3)
    assert rho[np.argmax(doughnut_profile(rho, 2.0))] == pytest.approx(2.0 / math.sqrt(2.0), abs=1e-3)
    assert dipole_profile(0.0) == 0.0
    assert doughnut_profile(0.0, 1.0) == 0.0


def test_profile_validation():
    with pytest.raises(DomainError):
        doughnut_profile(1.0, 0.0)
    with pytest.raises(DomainError):
        RadialMode.doughnut(-1.0)


def test_self_overlap_is_unity(aperture):
    assert spatial_overlap(RadialMode.dipole(), RadialMode.dipole(), aperture) == pytest.approx(
        1.0, abs=1e-12
    )
    dn = RadialMode.doughnut(2.0)
    assert spatial_overlap(dn, dn, aperture) == pytest.approx(1.0, abs=1e-12)


def test_overlap_is_symmetric_and_scale_invariant(aperture):
    a = RadialMode.doughnut(1.7)
    b = RadialMode.dipole()
    eta_ab = spatial_overlap(a, b, aperture)
    eta_ba = spatial_overlap(b, a, aperture)
    assert eta_ab == pytest.approx(eta_ba, abs=1e-12)
    scaled = RadialMode.doughnut(1.7, scale=17.0)
    assert spatial_overlap(scaled, b, aperture) == pytest.approx(eta_ab, abs=1e-12)


def test_overlap_reference_value(aperture):
    # frozen value for the fiber-friendly waist of the instrument example
    eta = spatial_overlap(RadialMode.doughnut(1.13), RadialMode.dipole(), aperture)
    assert eta == pytest.approx(0.7196760007, abs=1e-8)


def test_overlap_agrees_with_brute_force(aperture):
    eta = spatial_overlap(RadialMode.doughnut(1.13), RadialMode.dipole(), aperture)
    brute = annulus_overlap(
        lambda r: doughnut_profile(r, 1.13),
        dipole_profile,
        aperture.rho_bore,
        aperture.rho_max,
    )
    assert eta == pytest.approx(brute, abs=1e-7)


def test_waist_optimum_reference(waist_optimum):
    assert waist_optimum.waist == pytest.approx(2.2636247507, abs=1e-6)
    assert waist_optimum.eta == pytest.approx(0.9824258842, abs=1e-9)


def test_waist_optimum_is_a_maximum(aperture, waist_optimum):
    for dw in (-0.05, 0.05):
        eta = spatial_overlap(
            RadialMode.doughnut(waist_optimum.waist + dw), RadialMode.dipole(), aperture
        )
        assert eta < waist_optimum.eta


def test_optimize_waist_identity_transform(aperture, waist_optimum):
    opt = optimize_waist(aperture, transform=lambda mode: mode)
    assert opt.waist == pytest.approx(waist_optimum.waist, abs=1e-7)
    assert opt.eta == pytest.approx(waist_optimum.eta, abs=1e-10)


def test_optimize_waist_bad_bracket(aperture):
    with pytest.raises(DomainError):
        optimize_waist(aperture, bracket=(0.0, 1.0))
    with pytest.raises(DomainError):
        optimize_waist(aperture, bracket=(2.0, 1.0))


def test_optimize_waist_refuses_a_bracket_edge(aperture):
    # the optimum near 2.26 f lies above this bracket
    with pytest.raises(ConvergenceError, match=r"edge of the search window \[0.1, 0.5\]"):
        optimize_waist(aperture, bracket=(0.1, 0.5))


@settings(max_examples=50, deadline=None)
@given(amplitudes=st.lists(st.floats(0.0, 10.0), min_size=2, max_size=12),
       reach=st.floats(0.2, 1.2))
def test_overlap_of_nonnegative_sampled_modes_is_a_fraction(aperture, amplitudes, reach):
    # samples from the axis out to reach * rho_max, zero beyond
    rho = np.linspace(0.0, reach * aperture.rho_max, len(amplitudes))
    mode = RadialMode.sampled(rho, amplitudes)
    try:
        eta = spatial_overlap(mode, RadialMode.dipole(), aperture)
    except UndefinedOverlapError:
        return  # no amplitude on the annulus
    assert 0.0 <= eta <= 1.0


def test_weighted_mode_constant_weight_cancels(aperture):
    mode = RadialMode.doughnut(2.0)
    weighted = WeightedMode(mode, lambda rho: 0.7 * np.ones_like(rho))
    eta = spatial_overlap(weighted, RadialMode.dipole(), aperture)
    plain = spatial_overlap(mode, RadialMode.dipole(), aperture)
    assert eta == pytest.approx(plain, abs=1e-12)


def test_weighted_mode_ramp_weight_against_brute_force(aperture):
    # smooth ramp from 1.0 down to 0.6 beyond the annulus midpoint, the
    # shape of a reflectivity roll-off toward grazing rim angles
    cut = 0.5 * (aperture.rho_bore + aperture.rho_max)

    def ramp(rho):
        return 0.8 - 0.2 * np.tanh(2.0 * (np.asarray(rho) - cut))

    weighted = WeightedMode(RadialMode.doughnut(2.0), ramp)
    eta = spatial_overlap(weighted, RadialMode.dipole(), aperture)
    brute = annulus_overlap(
        lambda r: ramp(r) * doughnut_profile(r, 2.0),
        dipole_profile,
        aperture.rho_bore,
        aperture.rho_max,
        n=2_000_001,
    )
    assert eta == pytest.approx(brute, abs=1e-6)


def test_zero_mode_overlap_is_undefined(aperture):
    zero = RadialMode.sampled([0.0, 10.0], [0.0, 0.0])
    with pytest.raises(UndefinedOverlapError):
        spatial_overlap(zero, RadialMode.dipole(), aperture)


def test_sampled_mode_interpolates_and_vanishes_outside():
    mode = RadialMode.sampled([1.0, 2.0, 3.0], [0.0, 1.0, 0.0])
    assert mode.amplitude(1.5) == pytest.approx(0.5)
    assert mode.amplitude(0.5) == 0.0
    assert mode.amplitude(3.5) == 0.0


def test_sampled_mode_validation():
    with pytest.raises(DomainError):
        RadialMode.sampled([1.0], [1.0])
    with pytest.raises(DomainError):
        RadialMode.sampled([2.0, 1.0], [0.0, 1.0])
    with pytest.raises(DomainError):
        RadialMode.sampled([1.0, 2.0], [0.0, math.inf])


def test_sampled_mode_file_roundtrip(tmp_path, aperture):
    mode = RadialMode.doughnut(2.2636247507)
    path = tmp_path / "mode.txt"
    save_sampled_mode(mode, path, aperture=aperture, n=4096)
    back = load_sampled_mode(path)
    eta = spatial_overlap(back, RadialMode.dipole(), aperture)
    direct = spatial_overlap(mode, RadialMode.dipole(), aperture)
    assert eta == pytest.approx(direct, abs=1e-6)


def test_sampled_mode_file_rejects_bad_rows(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0.0 1.0 2.0\n")
    with pytest.raises(DomainError):
        load_sampled_mode(path)


def test_coupling_arithmetic():
    g = coupling_strength(0.94, 0.982, 1.0)
    assert g == pytest.approx(0.94 * 0.982**2, rel=1e-12)
    assert absorption_probability(g, 0.99, 0.5) == pytest.approx(g * 0.99**2 * 0.5, rel=1e-12)


def test_coupling_arguments_must_be_fractions():
    with pytest.raises(DomainError):
        coupling_strength(1.2, 0.9, 1.0)
    with pytest.raises(DomainError):
        coupling_strength(0.9, -0.1, 1.0)
    with pytest.raises(DomainError):
        absorption_probability(0.9, 1.01)


def test_coupling_figures_consistency():
    fig = CouplingFigures.from_factors(0.94, 0.975, 0.99, 0.99)
    assert fig.g == pytest.approx(0.94 * 0.975**2 * 0.99, rel=1e-12)
    assert fig.p_absorb == pytest.approx(fig.g * 0.99**2, rel=1e-12)
    with pytest.raises(DomainError):
        CouplingFigures(
            omega_fraction=0.94, eta=0.975, strehl=0.99, eta_t=0.99,
            branching=1.0, g=0.5, p_absorb=0.5,
        )
