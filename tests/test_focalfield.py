import math

import numpy as np
import pytest

import oracles
from dipolemirror import (
    ApertureSpec,
    ConvergenceError,
    CoverageError,
    DomainError,
    FrameStack,
    PhaseMap,
    ProvenanceError,
    RadialMode,
    WeightedMode,
    ZernikeExpansion,
    aluminum,
    aluminum_rp,
    ellipse_angles,
    focal_field,
    plane_to_sphere,
    reflectivity_weighted_optimum,
    reflectivity_weighted_overlap,
    spatial_overlap,
    sphere_overlap,
    stokes_from_frames,
    strehl,
)
from dipolemirror.focalfield import (
    OpticalConstants,
    reflection_phase_waves,
    reflectivity_weight,
)
from dipolemirror.geometry import rho_from_theta


@pytest.fixture(scope="module")
def small_doughnut(aperture, waist_optimum):
    return plane_to_sphere(
        RadialMode.doughnut(waist_optimum.waist), aperture, n_theta=96, n_phi=96
    )


def test_sphere_field_geometry(doughnut_field):
    s = doughnut_field.propagation()
    assert np.allclose(np.linalg.norm(s, axis=1), 1.0, atol=1e-13)
    assert np.allclose(s[:, 2], np.cos(doughnut_field.theta), atol=1e-13)
    # quadrature weights integrate the annulus solid angle
    interval = doughnut_field.aperture.angle_interval()
    omega = 2.0 * math.pi * (math.cos(interval.theta_min) - math.cos(interval.theta_max))
    assert doughnut_field.weight.sum() == pytest.approx(omega, rel=1e-12)


def test_sphere_overlap_matches_plane_overlap(doughnut_field, dipole_field, waist_optimum):
    eta = sphere_overlap(doughnut_field, dipole_field)
    assert eta == pytest.approx(waist_optimum.eta, abs=1e-10)


def test_sphere_overlap_needs_common_grid(doughnut_field, aperture):
    coarse = doughnut_field.with_resolution(64, 32)
    assert coarse.n_theta == 64 and coarse.n_phi == 32
    with pytest.raises(DomainError):
        sphere_overlap(doughnut_field, coarse)


def test_plane_to_sphere_validation(aperture):
    with pytest.raises(DomainError):
        plane_to_sphere(RadialMode.dipole(), aperture, n_theta=1)
    with pytest.raises(DomainError):
        plane_to_sphere("beam", aperture)


def test_focal_field_matches_direct_sum(aperture):
    field = plane_to_sphere(RadialMode.dipole(), aperture, n_theta=32, n_phi=16)
    rng = np.random.default_rng(9)
    pos = rng.uniform(-1.0, 1.0, (7, 3))
    got = focal_field(field, pos)
    s = field.propagation()
    amp = field.efield * field.weight[:, None]
    want = np.empty_like(got)
    for i, x in enumerate(pos):
        phase = np.exp(2j * math.pi * (s @ x))
        want[i] = phase @ amp
    assert np.allclose(got, want, atol=1e-12 * np.abs(want).max())
    single = focal_field(field, pos[0])
    assert single.shape == (3,)
    assert np.allclose(single, want[0])
    with pytest.raises(DomainError):
        focal_field(field, np.zeros((2, 2)))


def test_tilt_aberration_translates_the_focus(small_doughnut):
    # W = -c sin(theta) cos(phi) equals c * s_x, so the aberrated field is
    # the unaberrated one translated by -c along x
    c = 0.7
    origin = focal_field(small_doughnut, np.zeros(3))
    tilted = focal_field(
        small_doughnut, np.array([-c, 0.0, 0.0]),
        aberration=lambda th, ph: -c * np.sin(th) * np.cos(ph),
    )
    assert np.allclose(tilted, origin, atol=1e-9 * np.abs(origin).max())


def test_defocus_shifts_the_axial_peak(small_doughnut):
    delta = 0.5
    res = strehl(small_doughnut, lambda th, ph: delta * np.cos(th))
    assert res.peak_offset_lambda == pytest.approx(-delta, abs=1e-3)
    assert res.ratio == pytest.approx(1.0, abs=1e-6)
    assert res.nominal < 1.0


def test_strehl_of_perfect_focus(small_doughnut):
    res = strehl(small_doughnut)
    assert abs(res.ratio - 1.0) < 1e-9
    assert abs(res.nominal - 1.0) < 1e-9
    assert abs(res.peak_offset_lambda) < 1e-3
    assert res.rms_waves == 0.0


def test_small_aberration_follows_marechal(small_doughnut):
    exp = ZernikeExpansion(terms=((2, 2, 0.02),), wavelength_nm=369.5)
    res = strehl(small_doughnut, exp)
    marechal = math.exp(-((2.0 * math.pi * res.rms_waves) ** 2))
    assert res.nominal == pytest.approx(marechal, abs=1e-3)
    assert res.ratio >= res.nominal - 1e-12


def test_strehl_decreases_with_aberration_strength(small_doughnut):
    ratios = []
    for scale in (0.03, 0.06, 0.09):
        exp = ZernikeExpansion(terms=((3, 1, scale),), wavelength_nm=369.5)
        ratios.append(strehl(small_doughnut, exp).ratio)
    assert ratios[0] > ratios[1] > ratios[2]


def test_strehl_convergence_guard(small_doughnut):
    with pytest.raises(ConvergenceError):
        strehl(small_doughnut, max_doublings=0)


def _axial_ratio(field, aberration, z):
    # brute-force node sum: on-axis intensity at z over the unaberrated focus
    on_axis = focal_field(field, np.array([0.0, 0.0, z]), aberration=aberration)
    focus = focal_field(field, np.zeros(3))
    return float(np.sum(np.abs(on_axis) ** 2) / np.sum(np.abs(focus) ** 2))


@pytest.mark.parametrize("aberration", [
    ZernikeExpansion(terms=((2, 2, 0.05), (3, 1, 0.03), (4, 0, -0.04)), wavelength_nm=369.5),
    lambda th, ph: 0.3 * np.cos(th) + 0.05 * np.sin(th) ** 2 * np.cos(2.0 * ph),
], ids=["zernike", "callable"])
def test_strehl_matches_node_sums(small_doughnut, aberration):
    res = strehl(small_doughnut, aberration)
    field = small_doughnut.with_resolution(res.n_theta, res.n_phi)
    z = res.peak_offset_lambda
    assert res.ratio == pytest.approx(_axial_ratio(field, aberration, z), abs=1e-10)
    assert res.nominal == pytest.approx(_axial_ratio(field, aberration, 0.0), abs=1e-10)
    if callable(aberration):
        w = aberration(field.theta, field.phi)
    else:
        w = oracles.zernike_sum(aberration, field.rho_unit, field.phi)
    ratio, nominal, z_peak = oracles.axial_strehl(field, w)
    assert res.ratio == pytest.approx(ratio, abs=1e-10)
    assert res.nominal == pytest.approx(nominal, abs=1e-10)
    assert z == pytest.approx(z_peak, abs=1e-5)


def test_strehl_widens_a_window_that_cuts_the_peak(aperture, waist_optimum):
    # 6 waves of Zernike defocus move the axial maximum to about +2.53
    # lambda, outside the default +-2 lambda window
    field = plane_to_sphere(RadialMode.doughnut(waist_optimum.waist), aperture,
                            n_theta=64, n_phi=16)
    defocus = ZernikeExpansion(terms=((2, 0, 6.0),), wavelength_nm=369.5)
    res = strehl(field, defocus)
    assert res.peak_offset_lambda == pytest.approx(2.53, abs=0.01)
    fine = field.with_resolution(res.n_theta, res.n_phi)
    assert res.ratio == pytest.approx(_axial_ratio(fine, defocus, res.peak_offset_lambda),
                                      abs=1e-10)
    zs = np.linspace(-4.0, 4.0, 321)
    scan = [_axial_ratio(fine, defocus, z) for z in zs]
    assert res.ratio >= max(scan) - 1e-12
    assert res.ratio > 0.14


def test_strehl_edge_of_widest_window_raises(small_doughnut):
    # the peak at -0.5 lambda lies outside +-0.05 lambda doubled three times
    with pytest.raises(ConvergenceError, match="edge of the search window"):
        strehl(small_doughnut, lambda th, ph: 0.5 * np.cos(th), search_halfwidth_lambda=0.05)


def test_strehl_convergence_covers_the_peak_offset(small_doughnut, monkeypatch):
    import dipolemirror.focalfield as ff

    real = ff._strehl_once

    def drifting(field, aberration, halfwidth):
        res = real(field, aberration, halfwidth)
        # ratio and nominal converged; only the peak moves with the grid
        return ff.StrehlResult(res.ratio, res.nominal, 1e-2 * field.n_theta / 96.0,
                               res.rms_waves, res.n_theta, res.n_phi)

    monkeypatch.setattr(ff, "_strehl_once", drifting)
    with pytest.raises(ConvergenceError, match="peak"):
        strehl(small_doughnut)


def test_callable_aberration_must_broadcast(small_doughnut):
    def flat(theta, phi):
        # written for flat node vectors: one value per node, not per axis
        return np.ravel(np.cos(theta) * np.cos(phi))

    with pytest.raises(DomainError, match="broadcast"):
        strehl(small_doughnut, flat)
    with pytest.raises(DomainError, match="broadcast"):
        focal_field(small_doughnut, np.zeros(3), aberration=flat)


def test_aberration_input_forms_agree(small_doughnut, aperture):
    exp = ZernikeExpansion(terms=((2, 2, 0.05), (3, 1, 0.03)), wavelength_nm=369.5)
    from dipolemirror.wavefront import zernike_eval

    def func(theta, phi):
        return zernike_eval(exp, rho_from_theta(theta) / aperture.rho_max, phi)

    flat = func(small_doughnut.theta, small_doughnut.phi)
    grid = flat.reshape(small_doughnut.n_theta, small_doughnut.n_phi)
    pos = np.array([[0.0, 0.0, 0.0], [0.3, -0.2, 0.1]])
    reference = focal_field(small_doughnut, pos, aberration=exp)
    for form in (func, flat, grid):
        assert np.allclose(focal_field(small_doughnut, pos, aberration=form),
                           reference, atol=1e-12 * np.abs(reference).max())
    with pytest.raises(DomainError):
        focal_field(small_doughnut, pos, aberration=flat[:-1])
    with pytest.raises(DomainError):
        focal_field(small_doughnut, pos, aberration="coma")


def test_phase_map_aberration_matches_expansion(small_doughnut):
    exp = ZernikeExpansion(terms=((2, 2, 0.06), (4, 0, -0.04)), wavelength_nm=369.5)
    # render slightly past the pupil rim, as a detector map that sees the
    # whole beam would; a mask cropped exactly at the rim under-covers the
    # outermost quadrature ring and trips the coverage guard
    pmap = PhaseMap.from_expansion(exp, size=512, annulus=(0.0, 1.02))
    pos = np.array([[0.0, 0.0, 0.0], [0.2, 0.1, -0.3]])
    want = focal_field(small_doughnut, pos, aberration=exp)
    got = focal_field(small_doughnut, pos, aberration=pmap)
    assert np.allclose(got, want, atol=2e-3 * np.abs(want).max())


def test_phase_map_coverage_guard(small_doughnut):
    exp = ZernikeExpansion(terms=((2, 2, 0.06),), wavelength_nm=369.5)
    cropped = PhaseMap.from_expansion(exp, size=64, annulus=(0.0, 0.3))
    with pytest.raises(CoverageError):
        focal_field(small_doughnut, np.zeros(3), aberration=cropped)


@pytest.fixture(scope="module")
def measured_map(aperture, waist_optimum):
    angles, frames, pixel_scale, center, _ = oracles.radial_doughnut_stack(
        aperture, waist_optimum.waist, size=256
    )
    stack = FrameStack(angles_rad=angles, frames=frames,
                       pixel_scale=pixel_scale, center=center)
    return ellipse_angles(stokes_from_frames(stack), noise_floor=0.0)


def test_measured_map_on_sphere(measured_map, aperture, dipole_field, waist_optimum):
    field = plane_to_sphere(measured_map, aperture)
    eta = sphere_overlap(field, dipole_field)
    assert eta == pytest.approx(waist_optimum.eta, abs=1e-3)


def test_measured_map_coverage_guard(aperture, waist_optimum):
    angles, frames, pixel_scale, center, _ = oracles.radial_doughnut_stack(
        aperture, waist_optimum.waist, size=128, margin=0.5
    )
    stack = FrameStack(angles_rad=angles, frames=frames,
                       pixel_scale=pixel_scale, center=center)
    pmap = ellipse_angles(stokes_from_frames(stack), noise_floor=0.0)
    with pytest.raises(CoverageError) as err:
        plane_to_sphere(pmap, aperture)
    assert err.value.missing_fraction > 0.0


def test_aluminum_table_provenance_and_range():
    table = aluminum()
    assert table.source
    n = table.index(369.5)
    assert 0.0 < n.real < n.imag  # UV aluminum is a good metal: k > n
    with pytest.raises(DomainError):
        table.index(1.0)


def test_aluminum_rp_normal_incidence_limit():
    table = aluminum()
    for wavelength in (251.8, 369.5, 632.8):
        n = table.index(wavelength)
        expected = (n - 1.0) / (n + 1.0)
        assert aluminum_rp(0.0, wavelength) == pytest.approx(expected, abs=1e-12)
    theta = np.linspace(0.0, math.radians(134.0), 200)
    assert np.all(np.abs(aluminum_rp(theta, 369.5)) <= 1.0)


def test_reflection_phase_reference_points():
    assert reflection_phase_waves(0.0, 251.8) == 0.0
    phases = reflection_phase_waves(np.linspace(0.0, 2.3, 100), 251.8)
    assert np.all(np.isfinite(phases))
    assert isinstance(reflection_phase_waves(1.0, 251.8), float)
    with pytest.raises(DomainError):
        reflection_phase_waves(math.pi, 251.8)
    with pytest.raises(DomainError):
        reflection_phase_waves(-0.1, 251.8)


def test_reflectivity_weighted_overlap_consistency(aperture, waist_optimum):
    mode = RadialMode.doughnut(waist_optimum.waist)
    direct = spatial_overlap(
        WeightedMode(mode, reflectivity_weight(369.5)), RadialMode.dipole(), aperture
    )
    assert reflectivity_weighted_overlap(mode, aperture) == pytest.approx(direct, abs=1e-12)


def test_reflectivity_weighted_optimum(aperture, waist_optimum):
    opt = reflectivity_weighted_optimum(aperture)
    assert opt.waist_unweighted == pytest.approx(waist_optimum.waist, abs=1e-9)
    assert opt.eta_unweighted == pytest.approx(waist_optimum.eta, abs=1e-12)
    # the reflectivity dip at grazing rim angles favors a slightly larger waist
    assert opt.waist == pytest.approx(2.278148, abs=1e-4)
    assert opt.eta == pytest.approx(0.982757, abs=1e-5)
    assert opt.delta_eta == pytest.approx(0.000331, abs=2e-5)


def test_optical_constants_file_validation(tmp_path):
    good = "# source: somebody 1998\n200 0.1 2.0\n400 0.4 4.0\n800 1.5 7.0\n"
    path = tmp_path / "nk.txt"
    path.write_text(good)
    table = OpticalConstants.from_file(path)
    assert table.index(400.0) == pytest.approx(0.4 + 4.0j)
    assert table.index(300.0) == pytest.approx(0.25 + 3.0j)  # linear interpolation
    (tmp_path / "unsourced.txt").write_text("200 0.1 2.0\n400 0.4 4.0\n")
    with pytest.raises(ProvenanceError):
        OpticalConstants.from_file(tmp_path / "unsourced.txt")
    (tmp_path / "short.txt").write_text("# source: x\n200 0.1 2.0\n")
    with pytest.raises(DomainError):
        OpticalConstants.from_file(tmp_path / "short.txt")
    (tmp_path / "disorder.txt").write_text("# source: x\n400 0.4 4.0\n200 0.1 2.0\n")
    with pytest.raises(DomainError):
        OpticalConstants.from_file(tmp_path / "disorder.txt")
    (tmp_path / "ragged.txt").write_text("# source: x\n200 0.1\n400 0.4 4.0\n")
    with pytest.raises(DomainError):
        OpticalConstants.from_file(tmp_path / "ragged.txt")

