import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from dipolemirror import (
    ApertureSpec,
    CoverageError,
    DeterminacyError,
    DomainError,
    FrameStack,
    RadialMode,
    StokesMap,
    ellipse_angles,
    measured_overlap,
    stokes_from_frames,
)
from dipolemirror.polarimetry import (
    export_polarization,
    load_frame_stack,
    qwp_intensity,
    radial_projection,
    read_pgm,
    save_frame_stack,
    write_pgm,
)
from dipolemirror.gridio import read_grid

ANGLES_OK = tuple(math.radians(22.5 * k) for k in range(9))


@pytest.fixture(scope="module")
def doughnut_stack(aperture, waist_optimum):
    angles, frames, pixel_scale, center, stokes_true = oracles.radial_doughnut_stack(
        aperture, waist_optimum.waist, size=256
    )
    stack = FrameStack(angles_rad=angles, frames=frames,
                       pixel_scale=pixel_scale, center=center)
    return stack, stokes_true


def test_qwp_intensity_matches_mueller_calculus():
    rng = np.random.default_rng(11)
    for _ in range(20):
        stokes = rng.uniform(-1.0, 1.0, 4)
        stokes[0] = abs(stokes[0]) + 1.0
        theta = rng.uniform(0.0, 2.0 * math.pi)
        assert qwp_intensity(stokes, theta) == pytest.approx(
            oracles.polarimeter_frame(stokes, theta), abs=1e-12
        )


def test_qwp_intensity_shape_check():
    with pytest.raises(DomainError):
        qwp_intensity(np.ones(3), 0.1)


def test_stokes_inversion_roundtrip():
    rng = np.random.default_rng(3)
    s_true = rng.uniform(-1.0, 1.0, (4, 6, 5))
    s_true[0] = np.abs(s_true[0]) + 1.5
    frames = np.stack([qwp_intensity(s_true, a) for a in ANGLES_OK])
    frames = np.maximum(frames, 0.0)
    stack = FrameStack(angles_rad=ANGLES_OK, frames=frames,
                       pixel_scale=0.01, center=(2.5, 2.0))
    recovered = stokes_from_frames(stack)
    for got, want in zip((recovered.s0, recovered.s1, recovered.s2, recovered.s3), s_true):
        assert np.allclose(got, want, atol=1e-10)
    assert recovered.pixel_scale == 0.01
    assert recovered.center == (2.5, 2.0)


@settings(max_examples=100, deadline=None)
@given(angles=st.lists(st.floats(0.0, 2.0 * math.pi), min_size=5, max_size=12),
       seed=st.integers(0, 2**32 - 1))
def test_stokes_inversion_is_exact_for_valid_angle_sets(angles, seed):
    """Exact up to rounding amplified by the design's condition number."""
    rng = np.random.default_rng(seed)
    s_true = rng.uniform(-1.0, 1.0, (4, 3, 2))
    s_true[0] = np.abs(s_true[0]) + 2.0  # S0 >= |(S1, S2, S3)|: frames are non-negative
    frames = np.stack([oracles.polarimeter_frame(s_true, t) for t in angles])
    try:
        stack = FrameStack(angles_rad=angles, frames=frames, pixel_scale=1.0, center=(1, 1))
    except DeterminacyError:
        assume(False)
    design = oracles.polarimeter_design(angles)
    if np.linalg.matrix_rank(design) < 4:
        with pytest.raises(DeterminacyError):
            stokes_from_frames(stack)
        return
    got = stokes_from_frames(stack)
    got = np.stack([got.s0, got.s1, got.s2, got.s3])
    tol = 1e-12 * np.linalg.cond(design) * np.abs(s_true).max()
    assert np.abs(got - s_true).max() < tol
    assert np.abs(got - oracles.stokes_lstsq(angles, frames)).max() < tol


def test_frame_stack_needs_five_distinct_angles():
    frames = np.ones((4, 3, 3))
    angles = tuple(math.radians(45.0 * k) for k in range(4))
    with pytest.raises(DeterminacyError):
        FrameStack(angles_rad=angles, frames=frames, pixel_scale=1.0, center=(1, 1))
    # five frames with only three distinct angles are just as underdetermined
    repeated = (0.0, 0.0, math.pi / 2, math.pi / 2, math.pi)
    with pytest.raises(DeterminacyError):
        FrameStack(angles_rad=repeated, frames=np.ones((5, 3, 3)),
                   pixel_scale=1.0, center=(1, 1))


def test_frame_stack_needs_pi_span():
    angles = tuple(math.radians(20.0 * k) for k in range(5))  # spans 80 degrees
    with pytest.raises(DeterminacyError):
        FrameStack(angles_rad=angles, frames=np.ones((5, 3, 3)),
                   pixel_scale=1.0, center=(1, 1))


def test_frame_stack_validation():
    frames = np.ones((9, 3, 3))
    with pytest.raises(DomainError):
        FrameStack(angles_rad=ANGLES_OK[:8], frames=frames, pixel_scale=1.0, center=(1, 1))
    with pytest.raises(DomainError):
        FrameStack(angles_rad=ANGLES_OK, frames=-frames, pixel_scale=1.0, center=(1, 1))
    with pytest.raises(DomainError):
        FrameStack(angles_rad=ANGLES_OK, frames=frames, pixel_scale=0.0, center=(1, 1))
    with pytest.raises(DomainError):
        FrameStack(angles_rad=ANGLES_OK, frames=np.ones((9, 9)), pixel_scale=1.0, center=(1, 1))


def _single_state_map(stokes):
    s = np.asarray(stokes, dtype=float).reshape(4, 1, 1)
    frames = np.stack([qwp_intensity(s, a) for a in ANGLES_OK])
    stack = FrameStack(angles_rad=ANGLES_OK, frames=np.maximum(frames, 0.0),
                       pixel_scale=1.0, center=(0.0, 0.0))
    return stokes_from_frames(stack)


@pytest.mark.parametrize(
    "stokes, psi, chi",
    [
        (oracles.linear_stokes(1.0, 0.0), 0.0, 0.0),
        (oracles.linear_stokes(1.0, math.radians(30.0)), math.radians(30.0), 0.0),
        (oracles.linear_stokes(1.0, math.radians(-10.0)), math.radians(170.0), 0.0),
        ((1.0, 0.0, 0.0, 1.0), None, math.pi / 4.0),
        (
            oracles.elliptical_stokes(2.0, math.radians(30.0), math.radians(15.0)),
            math.radians(30.0),
            math.radians(15.0),
        ),
    ],
)
def test_ellipse_angles_known_states(stokes, psi, chi):
    pmap = ellipse_angles(_single_state_map(stokes))
    assert pmap.mask[0, 0]
    if psi is not None:
        assert pmap.psi[0, 0] == pytest.approx(psi, abs=1e-9)
    assert pmap.chi[0, 0] == pytest.approx(chi, abs=1e-9)


def test_orientation_stays_below_pi():
    # S2 a rounding error below zero: psi is -1e-17/2, which is 0 modulo pi
    s1 = np.ones((1, 2))
    s2 = np.array([[-1e-17, 1e-17]])
    smap = StokesMap(s0=s1, s1=s1, s2=s2, s3=np.zeros((1, 2)), pixel_scale=1.0, center=(0, 0))
    psi = ellipse_angles(smap).psi
    assert np.all((psi >= 0.0) & (psi < math.pi))
    assert psi[0, 0] == 0.0


def test_ellipse_angles_noise_floor():
    s = np.zeros((4, 1, 3))
    s[0] = [[1.0, 0.005, 0.5]]
    s[1] = s[0]
    frames = np.stack([qwp_intensity(s, a) for a in ANGLES_OK])
    smap = stokes_from_frames(FrameStack(
        angles_rad=ANGLES_OK, frames=np.maximum(frames, 0.0),
        pixel_scale=1.0, center=(0.0, 1.0)))
    pmap = ellipse_angles(smap, noise_floor=0.01)
    assert list(pmap.mask[0]) == [True, False, True]
    assert np.isnan(pmap.psi[0, 1])
    keep_all = ellipse_angles(smap, noise_floor=0.0)
    assert keep_all.mask.all()
    with pytest.raises(DomainError):
        ellipse_angles(smap, noise_floor=1.0)
    dark = stokes_from_frames(FrameStack(
        angles_rad=ANGLES_OK, frames=np.zeros((9, 2, 2)),
        pixel_scale=1.0, center=(0.0, 0.0)))
    with pytest.raises(DomainError):
        ellipse_angles(dark)


def test_radial_projection_of_radial_beam(doughnut_stack):
    stack, _ = doughnut_stack
    pmap = ellipse_angles(stokes_from_frames(stack), noise_floor=0.0)
    proj = radial_projection(pmap)
    assert np.nanmax(np.abs(proj[pmap.mask] - 1.0)) < 1e-8
    assert np.all(np.isnan(proj[~pmap.mask]))


def test_radial_projection_of_azimuthal_beam(aperture, waist_optimum):
    angles, frames, pixel_scale, center, _ = oracles.radial_doughnut_stack(
        aperture, waist_optimum.waist, size=128, orientation_noise=math.pi / 2.0
    )
    stack = FrameStack(angles_rad=angles, frames=frames,
                       pixel_scale=pixel_scale, center=center)
    pmap = ellipse_angles(stokes_from_frames(stack), noise_floor=0.0)
    proj = radial_projection(pmap)
    assert np.nanmax(np.abs(proj[pmap.mask])) < 1e-8


def test_measured_overlap_of_ideal_doughnut(doughnut_stack, aperture, waist_optimum):
    stack, _ = doughnut_stack
    pmap = ellipse_angles(stokes_from_frames(stack), noise_floor=0.0)
    result = measured_overlap(pmap, aperture)
    assert result.eta == pytest.approx(waist_optimum.eta, abs=2e-3)
    assert result.coverage == pytest.approx(1.0, abs=1e-6)
    assert result.eta_rectified == pytest.approx(result.eta, abs=1e-8)
    # against its own profile the pixelized beam is a perfect match
    self_ref = measured_overlap(
        pmap, aperture, reference=RadialMode.doughnut(waist_optimum.waist))
    assert self_ref.eta == pytest.approx(1.0, abs=1e-4)


def test_measured_overlap_trim_and_validation(doughnut_stack, aperture):
    stack, _ = doughnut_stack
    pmap = ellipse_angles(stokes_from_frames(stack), noise_floor=0.0)
    trimmed = measured_overlap(pmap, aperture, trim_outer=0.05)
    assert trimmed.n_pixels < measured_overlap(pmap, aperture).n_pixels
    assert trimmed.eta == pytest.approx(0.982, abs=5e-3)
    with pytest.raises(DomainError):
        measured_overlap(pmap, aperture, trim_outer=1.0)


def test_measured_overlap_refuses_poor_coverage(doughnut_stack, aperture):
    stack, _ = doughnut_stack
    # the default noise floor masks the dim doughnut rim inside the annulus
    pmap = ellipse_angles(stokes_from_frames(stack), noise_floor=0.01)
    with pytest.raises(CoverageError) as err:
        measured_overlap(pmap, aperture)
    assert 0.0 < err.value.missing_fraction < 1.0
    relaxed = measured_overlap(pmap, aperture, max_missing=0.5)
    assert relaxed.coverage == pytest.approx(1.0 - err.value.missing_fraction, abs=1e-9)


def test_pgm_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    values = rng.uniform(0.0, 1.0, (17, 23))
    path = tmp_path / "frame.pgm"
    write_pgm(path, values)
    back = read_pgm(path)
    assert back.shape == values.shape
    assert np.abs(back - values).max() < 1.5e-5  # 16-bit quantization
    with pytest.raises(DomainError):
        write_pgm(tmp_path / "bad.pgm", values * 2.0)
    with pytest.raises(DomainError):
        write_pgm(tmp_path / "bad.pgm", values[0])
    (tmp_path / "not_pgm.pgm").write_bytes(b"P6\n2 2\n255\nxxxx")
    with pytest.raises(DomainError):
        read_pgm(tmp_path / "not_pgm.pgm")


def test_frame_stack_file_roundtrip(tmp_path, doughnut_stack):
    stack, _ = doughnut_stack
    save_frame_stack(stack, tmp_path / "stack")
    back = load_frame_stack(tmp_path / "stack")
    assert back.angles_rad == pytest.approx(stack.angles_rad, abs=1e-9)
    assert back.pixel_scale == pytest.approx(stack.pixel_scale, rel=1e-9)
    assert back.center == pytest.approx(stack.center, abs=1e-3)
    scale = stack.frames.max()
    assert np.abs(back.frames - stack.frames).max() < 1.5e-5 * scale
    # loading through the manifest path and with threads changes nothing
    threaded = load_frame_stack(tmp_path / "stack" / "manifest.txt", threads=4)
    assert np.array_equal(threaded.frames, back.frames)
    assert threaded.angles_rad == back.angles_rad


def test_frame_stack_manifest_errors(tmp_path):
    missing_meta = tmp_path / "a"
    missing_meta.mkdir()
    (missing_meta / "manifest.txt").write_text("frame_000.pgm 0.0\n")
    with pytest.raises(DomainError):
        load_frame_stack(missing_meta)
    no_frames = tmp_path / "b"
    no_frames.mkdir()
    (no_frames / "manifest.txt").write_text(
        "# pixel_scale: 0.01\n# center: 1.0 1.0\n")
    with pytest.raises(DomainError):
        load_frame_stack(no_frames)


def test_export_polarization(tmp_path, doughnut_stack):
    stack, _ = doughnut_stack
    pmap = ellipse_angles(stokes_from_frames(stack), noise_floor=0.0)
    export_polarization(pmap, tmp_path / "beam")
    for suffix, reference in ((".s0.txt", pmap.s0), (".psi.txt", pmap.psi),
                              (".chi.txt", pmap.chi)):
        values, header = read_grid(tmp_path / ("beam" + suffix))
        assert values.shape == pmap.s0.shape
        assert float(header["pixel_scale"]) == pytest.approx(pmap.pixel_scale)
        finite = np.isfinite(reference)
        assert np.allclose(values[finite], reference[finite], atol=1e-9)
