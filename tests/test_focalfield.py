import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dipolemirror
import dipolemirror.focalfield as ff
import oracles
from oracles import focal_field, sphere_overlap
from dipolemirror import (
    ApertureSpec,
    ConvergenceError,
    DomainError,
    FormatError,
    PhaseMap,
    ProvenanceError,
    RadialMode,
    WeightedMode,
    ZernikeExpansion,
    aluminum,
    aluminum_rp,
    optimize_waist,
    spatial_overlap,
    strehl,
    weighted_fraction,
)
from dipolemirror.cli import main
from dipolemirror.focalfield import (
    OpticalConstants,
    reflection_phase_waves,
    reflectivity_weight,
)
from dipolemirror.geometry import _gauss_kronrod, _gauss_legendre, rho_from_theta
from dipolemirror.polarimetry import PolarizationMap


@pytest.fixture(scope="module")
def small_doughnut(aperture, doughnut):
    return oracles.sphere_nodes(doughnut, aperture, _gauss_legendre(96), 96)


def _gauss_field(mode, aperture, n, m):
    # the n-point Gauss rule in cos(theta) times m azimuths
    return oracles.sphere_nodes(mode, aperture, _gauss_legendre(n), m)


def _level_field(mode, aperture, n, m):
    # strehl's nested level n x m: Kronrod 2n + 1 in cos(theta) times trapezoid 2m
    return oracles.sphere_nodes(mode, aperture, _gauss_kronrod(n), 2 * m)


def _level_pass(field, aperture, aberration, coating=None):
    # one nested Strehl pass on the nodes of a level field
    return ff._strehl_level(field.theta[:, 0], field.weight[:, 0], field.amp_theta[:, 0],
                            field.rho_unit[:, 0], field.n_phi, *ff._cos_interval(aperture),
                            aberration, coating)


def test_sphere_field_geometry(doughnut_field, aperture):
    s = oracles.propagation(doughnut_field)
    assert np.allclose(np.linalg.norm(s, axis=-1), 1.0, atol=1e-13)
    assert np.allclose(s[..., 2], np.cos(doughnut_field.theta), atol=1e-13)
    # quadrature weights integrate the annulus solid angle
    interval = aperture.angle_interval()
    omega = 2.0 * math.pi * (math.cos(interval.theta_min) - math.cos(interval.theta_max))
    weight = np.broadcast_to(doughnut_field.weight, s.shape[:2])
    assert weight.sum() == pytest.approx(omega, rel=1e-12)


def test_sphere_overlap_matches_plane_overlap(doughnut_field, dipole_field, waist_optimum):
    eta = sphere_overlap(doughnut_field, dipole_field)
    assert eta == pytest.approx(waist_optimum.eta, abs=1e-10)


def test_sphere_overlap_needs_common_grid(doughnut_field, doughnut, aperture):
    coarse = _gauss_field(doughnut, aperture, 64, 32)
    assert coarse.n_theta == 64 and coarse.n_phi == 32
    with pytest.raises(DomainError):
        sphere_overlap(doughnut_field, coarse)


def test_gauss_legendre_rule_is_cached_read_only():
    u, w = _gauss_legendre(40)
    again = _gauss_legendre(40)
    assert again[0] is u and again[1] is w
    for arr in (u, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_each_aperture_maps_the_rule_onto_its_own_nodes():
    apertures = (ApertureSpec(), ApertureSpec(focal_length_mm=2.0, bore_radius_mm=1.0))
    fields = [_gauss_field(RadialMode.dipole(), ap, 48, 8) for ap in apertures]
    assert not np.allclose(fields[0].theta, fields[1].theta)
    for field, ap in zip(fields, apertures):
        interval = ap.angle_interval()
        omega = 2.0 * math.pi * (math.cos(interval.theta_min) - math.cos(interval.theta_max))
        assert field.weight.sum() * field.n_phi == pytest.approx(omega, rel=1e-12)
    assert np.array_equal(_gauss_legendre(48)[0], np.polynomial.legendre.leggauss(48)[0])


def test_e_theta_is_the_oracle_field(small_doughnut, doughnut):
    # the amplitude strehl sums is the oracle's Cartesian field along e_theta
    vector = oracles.sphere_vector_field(doughnut, small_doughnut)
    theta, phi = small_doughnut.theta, small_doughnut.phi
    e_theta = np.stack(np.broadcast_arrays(np.cos(theta) * np.cos(phi),
                                           np.cos(theta) * np.sin(phi), np.sin(theta)), axis=-1)
    want = np.sum(vector * e_theta, axis=-1)
    got = ff._e_theta(doughnut, theta[:, 0])[:, None]
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_strehl_refuses_a_non_mode(aperture):
    with pytest.raises(DomainError, match="cannot map str onto the sphere"):
        strehl("beam", aperture)


def test_measured_maps_are_not_sphere_inputs(aperture, doughnut):
    # the sphere takes modes and the Strehl takes expansions or callables;
    # measured maps reach the coupling figures through stokes and zernike
    ones = np.ones((8, 8))
    pmap = PolarizationMap(s0=ones, psi=0 * ones, chi=0 * ones, mask=ones > 0,
                           pixel_scale=1.0, center=(3.5, 3.5))
    with pytest.raises(DomainError, match="cannot map PolarizationMap onto the sphere"):
        strehl(pmap, aperture)
    exp = ZernikeExpansion(terms=((2, 2, 0.06),), wavelength_nm=369.5)
    with pytest.raises(DomainError, match=r"callable W\(theta, phi\)"):
        strehl(doughnut, aperture, PhaseMap.from_expansion(exp, size=64))


def test_focal_field_matches_direct_sum(aperture):
    mode = RadialMode.dipole()
    field = _gauss_field(mode, aperture, 32, 16)
    rng = np.random.default_rng(9)
    pos = rng.uniform(-1.0, 1.0, (7, 3))
    got = focal_field(mode, field, pos)
    s = oracles.propagation(field).reshape(-1, 3)
    vector = oracles.sphere_vector_field(mode, field)
    amp = (vector * field.weight[..., None]).reshape(-1, 3)
    want = np.empty_like(got)
    for i, x in enumerate(pos):
        phase = np.exp(2j * math.pi * (s @ x))
        want[i] = phase @ amp
    assert np.allclose(got, want, atol=1e-12 * np.abs(want).max())
    single = focal_field(mode, field, pos[0])
    assert single.shape == (3,)
    assert np.allclose(single, want[0])
    with pytest.raises(DomainError):
        focal_field(mode, field, np.zeros((2, 2)))


def test_tilt_aberration_translates_the_focus(small_doughnut, doughnut):
    # W = -c sin(theta) cos(phi) equals c * s_x, so the aberrated field is
    # the unaberrated one translated by -c along x
    c = 0.7
    origin = focal_field(doughnut, small_doughnut, np.zeros(3))
    tilted = focal_field(
        doughnut, small_doughnut, np.array([-c, 0.0, 0.0]),
        aberration=lambda th, ph: -c * np.sin(th) * np.cos(ph),
    )
    assert np.allclose(tilted, origin, atol=1e-9 * np.abs(origin).max())


def test_defocus_shifts_the_axial_peak(doughnut, aperture):
    delta = 0.5
    res = strehl(doughnut, aperture, lambda th, ph: delta * np.cos(th))
    assert res.peak_offset_lambda == pytest.approx(-delta, abs=1e-3)
    assert res.ratio == pytest.approx(1.0, abs=1e-6)
    assert res.nominal < 1.0


def test_strehl_of_perfect_focus(doughnut, aperture):
    res = strehl(doughnut, aperture)
    assert 1.0 - 1e-9 < res.ratio <= 1.0
    assert res.nominal == 1.0
    assert abs(res.peak_offset_lambda) < 1e-3
    assert res.rms_waves == 0.0


@pytest.mark.parametrize("aperture", [
    ApertureSpec(outer_radius_mm=1.0, bore_radius_mm=0.0),
    ApertureSpec(outer_radius_mm=10.0, bore_radius_mm=9.0),
], ids=["shallow", "thin-annulus"])
def test_strehl_of_a_mirror_whose_lobe_is_wider_than_the_window(aperture):
    # the main lobe, 1/(cos theta_min - cos theta_max) lambda, is 9.3 and
    # 17.3 lambda wide here: two lobes exceed even +-16 lambda, and the
    # margin keeps the middle third of the window instead
    mode = RadialMode.doughnut(0.3)
    res = strehl(mode, aperture)
    assert (res.ratio, res.nominal, res.peak_offset_lambda) == (1.0, 1.0, 0.0)
    shifted = strehl(mode, aperture, lambda th, ph: np.cos(th))
    assert shifted.ratio == pytest.approx(1.0, abs=1e-12)
    assert shifted.peak_offset_lambda == pytest.approx(-1.0, abs=1e-9)


def test_small_aberration_follows_marechal(doughnut, aperture):
    exp = ZernikeExpansion(terms=((2, 2, 0.02),), wavelength_nm=369.5)
    res = strehl(doughnut, aperture, exp)
    marechal = math.exp(-((2.0 * math.pi * res.rms_waves) ** 2))
    assert res.nominal == pytest.approx(marechal, abs=1e-3)
    assert res.ratio >= res.nominal - 1e-12


def test_strehl_decreases_with_aberration_strength(doughnut, aperture):
    ratios = []
    for scale in (0.03, 0.06, 0.09):
        exp = ZernikeExpansion(terms=((3, 1, scale),), wavelength_nm=369.5)
        ratios.append(strehl(doughnut, aperture, exp).ratio)
    assert ratios[0] > ratios[1] > ratios[2]


def test_default_strehl_certifies_on_the_first_doubling(doughnut, aperture):
    # a smooth figure settles at once: the first level 32 x 64 is Kronrod
    # 65 x trapezoid 128, certified by its Gauss 32 x 64 subset
    exp = ZernikeExpansion(terms=((2, 2, 0.05), (3, 1, 0.03), (4, 0, -0.04)),
                           wavelength_nm=369.5)
    res = strehl(doughnut, aperture, exp)
    assert ff._FIRST_LEVEL == (32, 64)
    assert (res.n_theta, res.n_phi) == (65, 128)


def test_unsettled_figure_is_refused_at_512x1024_nodes(doughnut, aperture):
    # a phase that oscillates faster than any grid resolves aliases differently
    # on each rule; the ladder's last level is Kronrod 513 x trapezoid 1024
    with pytest.raises(ConvergenceError, match="at 513x1024 quadrature nodes"):
        strehl(doughnut, aperture, lambda th, ph: 0.2 * np.sin(1e4 * th))


def _own_field(mode, aperture, res):
    # the Kronrod x trapezoid nodes a Strehl result was certified on
    return _level_field(mode, aperture, res.n_theta // 2, res.n_phi // 2)


def _axial_ratio(mode, field, aberration, z):
    # brute-force node sum: on-axis |E_z|^2 at z over the unaberrated focus
    on_axis = focal_field(mode, field, np.array([0.0, 0.0, z]), aberration=aberration)
    focus = focal_field(mode, field, np.zeros(3))
    return float(abs(on_axis[2]) ** 2 / abs(focus[2]) ** 2)


@pytest.mark.parametrize("aberration", [
    ZernikeExpansion(terms=((2, 2, 0.05), (3, 1, 0.03), (4, 0, -0.04)), wavelength_nm=369.5),
    lambda th, ph: 0.3 * np.cos(th) + 0.05 * np.sin(th) ** 2 * np.cos(2.0 * ph),
], ids=["zernike", "callable"])
def test_strehl_matches_node_sums(doughnut, aperture, aberration):
    res = strehl(doughnut, aperture, aberration)
    field = _own_field(doughnut, aperture, res)
    z = res.peak_offset_lambda
    assert res.ratio == pytest.approx(_axial_ratio(doughnut, field, aberration, z), abs=1e-10)
    assert res.nominal == pytest.approx(_axial_ratio(doughnut, field, aberration, 0.0),
                                        abs=1e-10)
    if callable(aberration):
        w = aberration(field.theta, field.phi)
    else:
        w = oracles.zernike_sum(aberration, field.rho_unit, field.phi)
    ratio, nominal, z_peak = oracles.axial_strehl(doughnut, field, w)
    assert res.ratio == pytest.approx(ratio, abs=1e-10)
    assert res.nominal == pytest.approx(nominal, abs=1e-10)
    assert z == pytest.approx(z_peak, abs=1e-5)


@pytest.fixture(scope="module")
def ring_sum_modes(doughnut):
    return {"radial": doughnut,
            "weighted": WeightedMode(doughnut, reflectivity_weight(369.5, aluminum()))}


@st.composite
def _expansions(draw, bound=0.04, max_degree=6):
    degree = draw(st.integers(1, max_degree))
    indices = [(n, m) for n in range(degree + 1) for m in range(-n, n + 1, 2)]
    values = draw(st.lists(st.floats(-bound, bound), min_size=len(indices),
                           max_size=len(indices)))
    return ZernikeExpansion(terms=tuple((n, m, v) for (n, m), v in zip(indices, values)),
                            wavelength_nm=369.5)


@pytest.mark.parametrize("source", ["radial", "weighted"])
@settings(max_examples=25, deadline=None)
@given(exp=_expansions())
def test_strehl_ring_sums_match_the_oracle(ring_sum_modes, aperture, source, exp):
    # both kinds of mode the sphere takes
    mode = ring_sum_modes[source]
    res = strehl(mode, aperture, exp)
    field = _own_field(mode, aperture, res)
    w = oracles.zernike_sum(exp, field.rho_unit, field.phi)
    ratio, nominal, z_peak = oracles.axial_strehl(mode, field, w)
    assert res.ratio == pytest.approx(ratio, abs=1e-9)
    assert res.nominal == pytest.approx(nominal, abs=1e-9)
    assert res.peak_offset_lambda == pytest.approx(z_peak, abs=1e-9)


@settings(max_examples=20, deadline=None)
@given(exp=_expansions(0.05), waist=st.floats(1.0, 4.0))
def test_coupling_budget_is_the_direct_dipole_coupling(aperture, exp, waist):
    # omega eta^2 S is the overlap |E_z|^2 / (P 8 pi / 3) of the aberrated
    # wave with an axial dipole at the Strehl's own focus, on its own nodes
    mode = RadialMode.doughnut(waist)
    res = strehl(mode, aperture, exp)
    omega = weighted_fraction(aperture.angle_interval())
    eta = spatial_overlap(mode, RadialMode.dipole(), aperture)
    field = _own_field(mode, aperture, res)
    want = oracles.direct_coupling(mode, field, exp, res.peak_offset_lambda)
    assert omega * eta**2 * res.ratio == pytest.approx(want, abs=1e-10)


@pytest.fixture(scope="module")
def gauss_256x512(aperture, doughnut):
    return _gauss_field(doughnut, aperture, 256, 512)


@settings(max_examples=12, deadline=None)
@given(exp=_expansions(0.05, 10))
def test_certified_strehl_is_gauss_256x512_to_rounding(doughnut, aperture, gauss_256x512, exp):
    # the nested rule returns its fine Kronrod estimate, which the coarse Gauss
    # one certifies only to 1e-4: the estimate itself is far closer
    res = strehl(doughnut, aperture, exp)
    w = oracles.zernike_sum(exp, gauss_256x512.rho_unit, gauss_256x512.phi)
    ratio, nominal, z_peak = oracles.axial_strehl(doughnut, gauss_256x512, w)
    assert res.ratio == pytest.approx(ratio, abs=1e-10)
    assert res.nominal == pytest.approx(nominal, abs=1e-10)
    assert res.peak_offset_lambda == pytest.approx(z_peak, abs=1e-9)


# a warm loop of 50 Strehl calls as a report job makes them, in a fresh
# interpreter: no earlier test's threaded product is still spinning there.
# OpenBLAS's threads also spin for about 0.1 s after numpy loads, so the
# loop starts after a pause
_WARM_LOOP = """
import time
from dipolemirror import ApertureSpec, RadialMode, ZernikeExpansion, strehl
from dipolemirror.focalfield import aluminum
mode, aperture = RadialMode.doughnut(2.2636), ApertureSpec()
figure = ZernikeExpansion(terms=tuple((n, m, 0.01) for n in range(11)
                                      for m in range(-n, n + 1, 2)), wavelength_nm=369.5)
coating = (369.5, aluminum())
for _ in range(5):
    strehl(mode, aperture, figure, coating)
time.sleep(0.5)
wall, cpu = time.perf_counter(), time.process_time()
for _ in range(50):
    strehl(mode, aperture, figure, coating)
print(time.perf_counter() - wall, time.process_time() - cpu)
"""


def test_warm_strehl_loop_runs_on_one_core():
    # OpenBLAS threads even small products; its idle thread then spins on the
    # other core, so a BLAS-threaded product in the per-job Strehl path shows
    # as process CPU time beyond wall time
    src = str(Path(dipolemirror.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run([sys.executable, "-c", _WARM_LOOP], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    wall, cpu = map(float, run.stdout.split())
    assert cpu <= 1.5 * wall


# levels (n, m) whose (2n + 1) x 2m passes sit at the edges of the ring blocks
_BLOCK_SHAPES = {"ragged": (50, 48), "sub-block": (12, 8), "single-ring": (3, 2250)}
_BLOCK_FIGURE = ZernikeExpansion(terms=((2, 2, 0.05), (3, 1, 0.03), (4, 0, -0.04)),
                                 wavelength_nm=369.5)
# each case's aberration and the wavelength of its aluminum coating, if any
_BLOCK_ABERRATIONS = {
    "zernike": (_BLOCK_FIGURE, None),
    # the reflection phase is one phase per ring, beside the figure's nodes
    "aluminum": (_BLOCK_FIGURE, 369.5),
    "constant": (lambda th, ph: 0.1, None),
}


@pytest.mark.parametrize("aberration", list(_BLOCK_ABERRATIONS))
@pytest.mark.parametrize("shape", list(_BLOCK_SHAPES))
def test_strehl_pass_matches_the_oracle_across_ring_blocks(aperture, doughnut, shape,
                                                          aberration):
    n, m = _BLOCK_SHAPES[shape]
    rows = max(1, ff._BLOCK // (2 * m))
    assert {"ragged": 2 * n + 1 > rows and (2 * n + 1) % rows != 0,
            "sub-block": 2 * n + 1 < rows, "single-ring": rows == 1}[shape]
    gauss = _gauss_field(doughnut, aperture, n, m)
    field = _level_field(doughnut, aperture, n, m)
    ab, coating_nm = _BLOCK_ABERRATIONS[aberration]
    coating = None if coating_nm is None else (coating_nm, aluminum())
    res, coarse = _level_pass(field, aperture, ab, coating)
    # the fine estimate sums every node, the coarse one the Gauss n x m subset
    for grid, got in ((field, (res.ratio, res.nominal, res.peak_offset_lambda)),
                      (gauss, coarse)):
        w = _figure_on(grid, ab, coating)
        ratio, nominal, z_peak = oracles.axial_strehl(doughnut, grid, w)
        assert got[0] == pytest.approx(ratio, abs=1e-10)
        assert got[1] == pytest.approx(nominal, abs=1e-10)
        assert got[2] == pytest.approx(z_peak, abs=1e-9)
    # node weight times the on-axis (z) component of the field
    w = _figure_on(field, ab, coating)
    vector = oracles.sphere_vector_field(doughnut, field)
    q = np.abs(vector[..., 2]) * field.weight
    mean = np.sum(q * w) / np.sum(q)
    rms = math.sqrt(np.sum(q * (w - mean) ** 2) / np.sum(q))
    assert res.rms_waves == pytest.approx(rms, rel=1e-12, abs=1e-15)


def _figure_on(field, aberration, coating):
    # the aberration plus the coating's phase on every node, summed by the oracles
    shape = (field.n_theta, field.n_phi)
    if callable(aberration):
        w = np.broadcast_to(aberration(field.theta, field.phi), shape)
    else:
        w = oracles.zernike_sum(aberration, field.rho_unit, field.phi)
    if coating is not None:
        w = w + reflection_phase_waves(field.theta, *coating)
    return w


def test_axial_scan_is_the_fields_own_phasor(doughnut, aperture):
    # cached per rule, yet bit-equal to the expression on the nested field's
    # nodes, and on its odd columns to that on the Gauss field's nodes
    lo, hi = ff._cos_interval(aperture)
    scan = ff._axial_scan(48, lo, hi, -4.0, 4.0, 161)
    assert scan is ff._axial_scan(48, lo, hi, -4.0, 4.0, 161)
    assert not scan.flags.writeable
    z = np.linspace(-4.0, 4.0, 161)
    for field, columns in ((_level_field(doughnut, aperture, 48, 48), slice(None)),
                           (_gauss_field(doughnut, aperture, 48, 48), slice(1, None, 2))):
        cos_theta = np.cos(field.theta)[:, 0]
        direct = np.exp(2j * math.pi * np.multiply.outer(z, cos_theta))
        assert np.array_equal(scan[:, columns], direct)


def test_strehl_pass_allocates_blocks_not_grids(aperture, doughnut):
    # structural, not wall time: beside the 2 MiB aberration grid a 513 x 512
    # pass holds only ring-block buffers and per-ring vectors
    field = _level_field(doughnut, aperture, 256, 256)
    exp = ZernikeExpansion(terms=tuple((n, m, 0.01) for n in range(11)
                                       for m in range(-n, n + 1, 2)), wavelength_nm=633.0)
    _level_pass(field, aperture, exp)  # the scan phasors are cached once per rule
    tracemalloc.start()
    try:
        _level_pass(field, aperture, exp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < field.n_theta * field.n_phi * 8 + (1 << 20)


def test_strehl_widens_a_window_that_cuts_the_peak(aperture, doughnut):
    # 6 waves of Zernike defocus move the axial maximum to about +2.53
    # lambda, outside the default +-2 lambda window
    defocus = ZernikeExpansion(terms=((2, 0, 6.0),), wavelength_nm=369.5)
    res = strehl(doughnut, aperture, defocus)
    assert res.peak_offset_lambda == pytest.approx(2.53, abs=0.01)
    fine = _own_field(doughnut, aperture, res)
    assert res.ratio == pytest.approx(
        _axial_ratio(doughnut, fine, defocus, res.peak_offset_lambda), abs=1e-10)
    zs = np.linspace(-4.0, 4.0, 321)
    scan = [_axial_ratio(doughnut, fine, defocus, z) for z in zs]
    assert res.ratio >= max(scan) - 1e-12
    assert res.ratio > 0.14


def test_strehl_edge_of_widest_window_raises(doughnut, aperture):
    # 40 cos(theta) waves shift the focus to -40 lambda, outside +-2 lambda
    # doubled three times; the scan there peaks on a sidelobe at the edge
    with pytest.raises(ConvergenceError, match=r"within 1.22 lambda of the edge of the search "
                                               r"window \[-16, 16\] lambda"):
        strehl(doughnut, aperture, lambda th, ph: 40.0 * np.cos(th))


@pytest.mark.parametrize("aberration, ratio, offset", [
    (ZernikeExpansion(terms=((4, 0, 3.0),), wavelength_nm=369.5), 0.4037424, -3.867015),
    (ZernikeExpansion(terms=((6, 0, 4.0),), wavelength_nm=369.5), 0.3263798, 5.283710),
    # an exact axial shift of the focus: its peak is the unaberrated one
    (lambda th, ph: 10.0 * np.cos(th), 1.0, -10.0),
], ids=["spherical-4", "spherical-6", "shift-10"])
def test_strehl_finds_a_focus_outside_the_first_window(doughnut, aperture, aberration, ratio,
                                                       offset):
    # each focus lies beyond +-2 lambda, where the first scan peaks on a
    # sidelobe near its edge: the window doubles until the maximum lies two
    # main lobes inside it, and a brute-force scan over +-40 lambda agrees
    res = strehl(doughnut, aperture, aberration)
    field = _own_field(doughnut, aperture, res)
    if callable(aberration):
        w = aberration(field.theta, field.phi)
    else:
        w = oracles.zernike_sum(aberration, field.rho_unit, field.phi)
    want_ratio, want_nominal, want_offset = oracles.wide_axial_strehl(doughnut, field, w)
    assert res.ratio == pytest.approx(want_ratio, abs=1e-6)
    assert res.nominal == pytest.approx(want_nominal, abs=1e-6)
    assert res.peak_offset_lambda == pytest.approx(want_offset, abs=1e-3)
    assert res.ratio == pytest.approx(ratio, abs=1e-6)
    assert res.peak_offset_lambda == pytest.approx(offset, abs=1e-5)


def test_strehl_convergence_covers_the_peak_offset(doughnut, aperture, monkeypatch):
    real = ff._strehl_level

    def drifting(*args):
        res, (ratio, nominal, offset) = real(*args)
        # ratio and nominal certified; only the coarse peak stands apart
        return res, (ratio, nominal, offset + 2e-3)

    monkeypatch.setattr(ff, "_strehl_level", drifting)
    with pytest.raises(ConvergenceError, match="peak"):
        strehl(doughnut, aperture)


def test_callable_aberration_must_broadcast(small_doughnut, doughnut, aperture):
    def per_node(theta, phi):
        # written for flat node vectors: one value per node, not per axis
        return np.ravel(np.cos(theta) * np.cos(phi))

    def per_ring(theta, phi):
        # one value per ring; on a square grid it would broadcast along phi
        return np.ravel(0.05 * np.cos(theta) ** 2)

    for func in (per_node, per_ring):
        with pytest.raises(DomainError, match="broadcast"):
            strehl(doughnut, aperture, func)
        with pytest.raises(DomainError, match="broadcast"):
            focal_field(doughnut, small_doughnut, np.zeros(3), aberration=func)


def test_aberration_input_forms_agree(small_doughnut, doughnut, aperture):
    exp = ZernikeExpansion(terms=((2, 2, 0.05), (3, 1, 0.03)), wavelength_nm=369.5)
    from dipolemirror.wavefront import zernike_eval

    def func(theta, phi):
        return zernike_eval(exp, rho_from_theta(theta) / aperture.rho_max, phi)

    grid = func(small_doughnut.theta, small_doughnut.phi)
    pos = np.array([[0.0, 0.0, 0.0], [0.3, -0.2, 0.1]])
    reference = focal_field(doughnut, small_doughnut, pos, aberration=exp)
    assert np.allclose(focal_field(doughnut, small_doughnut, pos, aberration=func),
                       reference, atol=1e-12 * np.abs(reference).max())
    # node samples fit one grid only, so no array is an aberration
    for bad in (grid, grid[:-1], grid.ravel()):
        with pytest.raises(DomainError):
            focal_field(doughnut, small_doughnut, pos, aberration=bad)
    with pytest.raises(DomainError):
        focal_field(doughnut, small_doughnut, pos, aberration="coma")


def test_strehl_refuses_node_samples(doughnut, aperture):
    # samples on the nodes of the first level's fine grid, K65 x T128
    field = _level_field(doughnut, aperture, *ff._FIRST_LEVEL)
    grid = 0.05 * np.cos(field.theta) ** 2 * np.ones((1, field.n_phi))
    with pytest.raises(DomainError, match=r"callable W\(theta, phi\)"):
        strehl(doughnut, aperture, grid)


def _rotated(expansion, alpha):
    # W(rho, phi - alpha): the cos and sin terms of one (n, |m|) mix by the
    # angle |m| alpha; an m = 0 term keeps its value
    coef = {(n, m): v for n, m, v in expansion.terms}
    terms = []
    for n, m, _ in expansion.terms:
        c, s = coef.get((n, abs(m)), 0.0), coef.get((n, -abs(m)), 0.0)
        ca, sa = math.cos(abs(m) * alpha), math.sin(abs(m) * alpha)
        terms.append((n, m, c * sa + s * ca if m < 0 else c * ca - s * sa))
    return ZernikeExpansion(terms=tuple(terms), wavelength_nm=expansion.wavelength_nm)


_INDICES = [(n, m) for n in range(5) for m in range(-n, n + 1, 2)]


@settings(max_examples=25, deadline=None)
@given(values=st.lists(st.floats(-0.04, 0.04), min_size=len(_INDICES),
                       max_size=len(_INDICES)),
       k=st.integers(1, 31))
def test_strehl_is_invariant_under_pupil_rotation(doughnut, aperture, values, k):
    exp = ZernikeExpansion(terms=tuple((n, m, v) for (n, m), v in zip(_INDICES, values)),
                           wavelength_nm=369.5)
    # a multiple of 2 pi / 32 maps every level's azimuths, and their even
    # subset, onto themselves
    turned = _rotated(exp, 2.0 * math.pi * k / 32)
    base, rot = strehl(doughnut, aperture, exp), strehl(doughnut, aperture, turned)
    assert rot.ratio == pytest.approx(base.ratio, abs=1e-9)
    assert rot.nominal == pytest.approx(base.nominal, abs=1e-9)
    assert rot.peak_offset_lambda == pytest.approx(base.peak_offset_lambda, abs=1e-5)


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
        assert aluminum_rp(0.0, wavelength, table) == pytest.approx(expected, abs=1e-12)
    theta = np.linspace(0.0, math.radians(134.0), 200)
    assert np.all(np.abs(aluminum_rp(theta, 369.5, table)) <= 1.0)


def _dense_unwrapped_phase(theta, wavelength_nm, table):
    # arg(r_p) unwrapped from the vertex, in waves, on 2^16 points and the
    # angles themselves: a steep phase near a critical angle is read at
    # each angle, not interpolated between its neighbours
    grid = np.union1d(np.linspace(0.0, max(float(np.max(theta)), 1e-6), 1 << 16), theta)
    phase = np.unwrap(np.angle(aluminum_rp(grid, wavelength_nm, table)))
    return (phase - phase[0])[np.searchsorted(grid, theta)] / (2.0 * math.pi)


@st.composite
def _metals(draw):
    # an absorbing medium of constant n + i k over a table's wavelengths
    n, k = draw(st.floats(0.01, 20.0)), draw(st.floats(1e-4, 30.0))
    return OpticalConstants(wavelength_nm=np.array([100.0, 2000.0]), n=np.array([n, n]),
                            k=np.array([k, k]), source="synthetic")


@settings(max_examples=50, deadline=None)
@given(fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=16),
       wavelength=st.floats(150.0, 1000.0),
       table=st.one_of(st.builds(aluminum), _metals()))
def test_reflection_phase_is_exact_at_each_angle(aperture, fractions, wavelength, table):
    interval = aperture.angle_interval()
    theta = interval.theta_min + np.array(fractions) * (interval.theta_max
                                                        - interval.theta_min)
    phase = reflection_phase_waves(theta, wavelength, table)
    vertex = np.conj(aluminum_rp(0.0, wavelength, table))
    exact = np.angle(aluminum_rp(theta, wavelength, table) * vertex) / (2.0 * math.pi)
    assert np.allclose(phase, exact, rtol=0.0, atol=1e-15)
    # on an absorbing medium the principal value needs no 2 pi branch: it
    # is the phase unwrapped from the vertex
    assert np.allclose(phase, _dense_unwrapped_phase(theta, wavelength, table),
                       rtol=0.0, atol=1e-6)


_FIGURE = ZernikeExpansion(
    terms=tuple((n, m, 0.02 * math.sin(1.0 + 7.0 * n + m)) for n in range(11)
                for m in range(-n, n + 1, 2)),
    wavelength_nm=369.5)


@pytest.mark.parametrize("figure", [False, True], ids=["alone", "with-figure"])
@pytest.mark.parametrize("wavelength", [369.5, 251.8])
def test_aluminum_phase_strehl_is_grid_independent(aperture, doughnut, wavelength, figure):
    aberration, coating = (_FIGURE if figure else None), (wavelength, aluminum())
    results = [_level_pass(_level_field(doughnut, aperture, n, n), aperture, aberration,
                           coating)[0]
               for n in (64, 128, 256)]
    for res in results[1:]:
        assert res.ratio == pytest.approx(results[0].ratio, abs=1e-13)
        assert res.nominal == pytest.approx(results[0].nominal, abs=1e-13)
        assert res.peak_offset_lambda == pytest.approx(results[0].peak_offset_lambda,
                                                       abs=1e-13)


@settings(max_examples=60, deadline=None)
@given(figure=_expansions(0.05, 10), wavelength=st.floats(150.0, 1000.0),
       grid=st.sampled_from([(32, 64), (64, 128)]))
def test_coating_phase_per_ring_matches_the_phase_on_every_node(aperture, doughnut, figure,
                                                                wavelength, grid):
    coating = (wavelength, aluminum())
    field = _level_field(doughnut, aperture, *grid)

    def on_every_node(theta, phi):
        return (reflection_phase_waves(theta, *coating)
                + oracles.zernike_sum(figure, rho_from_theta(theta) / aperture.rho_max, phi))

    (ring, ring_coarse), (node, node_coarse) = (_level_pass(field, aperture, figure, coating),
                                                _level_pass(field, aperture, on_every_node))
    for name in ("ratio", "nominal", "peak_offset_lambda", "rms_waves"):
        assert getattr(ring, name) == pytest.approx(getattr(node, name), rel=0.0, abs=1e-12)
    assert ring_coarse == pytest.approx(node_coarse, rel=0.0, abs=1e-12)


def test_reflection_phase_reference_points():
    table = aluminum()
    assert reflection_phase_waves(0.0, 251.8, table) == 0.0
    phases = reflection_phase_waves(np.linspace(0.0, 2.3, 100), 251.8, table)
    assert np.all(np.isfinite(phases))
    assert isinstance(reflection_phase_waves(1.0, 251.8, table), float)
    with pytest.raises(DomainError):
        reflection_phase_waves(math.pi, 251.8, table)
    with pytest.raises(DomainError):
        reflection_phase_waves(-0.1, 251.8, table)


def test_reflectivity_weighted_overlap_consistency(aperture, tmp_path, capsys):
    # the weighted eta of the overlap command against a brute-force
    # trapezoid of the doughnut times |r_p| with the dipole mode
    config = tmp_path / "toolkit.ini"
    config.write_text("[overlap]\nwaist = 1.13\nweighted = true\n")
    assert main(["overlap", "--config", str(config)]) == 0
    eta = float(capsys.readouterr().out.split("overlap.eta = ")[1].split()[0])
    mode, weight = RadialMode.doughnut(1.13), reflectivity_weight(369.5, aluminum())
    want = oracles.annulus_overlap(lambda rho: mode.amplitude(rho) * weight(rho),
                                   RadialMode.dipole().amplitude,
                                   aperture.rho_bore, aperture.rho_max)
    assert eta == pytest.approx(want, abs=1e-8)


def test_reflectivity_weighted_optimum(aperture, waist_optimum):
    plain = optimize_waist(aperture)
    opt = optimize_waist(aperture, weight=reflectivity_weight(369.5, aluminum()))
    assert plain.waist == pytest.approx(waist_optimum.waist, abs=1e-9)
    assert plain.eta == pytest.approx(waist_optimum.eta, abs=1e-12)
    # the reflectivity dip at grazing rim angles favors a slightly larger waist
    assert opt.waist == pytest.approx(2.278148, abs=1e-4)
    assert opt.eta == pytest.approx(0.982757, abs=1e-5)
    assert opt.eta - plain.eta == pytest.approx(0.000331, abs=2e-5)


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
    with pytest.raises(FormatError):
        OpticalConstants.from_file(tmp_path / "ragged.txt")

