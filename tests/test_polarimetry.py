import contextlib
import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import oracles
from oracles import qwp_intensity, save_frame_stack, write_pgm
from dipolemirror import (
    ApertureSpec,
    CoverageError,
    DeterminacyError,
    DomainError,
    FormatError,
    FrameStack,
    StokesMap,
    doughnut_profile,
    ellipse_angles,
    measured_overlap,
    polarimetry,
    stokes_from_frames,
)
from dipolemirror.cli import main
from dipolemirror.polarimetry import (
    _project,
    load_stokes,
    scan_annulus,
    score_annulus,
)

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


def test_polarization_map_s0_owns_its_data(doughnut_stack):
    # S0-S3 are rows of one coefficient block; the map's s0 must not keep
    # that block alive once the Stokes map is dropped
    stack, _ = doughnut_stack
    smap = stokes_from_frames(stack)
    pmap = ellipse_angles(smap, noise_floor=0.0)
    assert smap.s0.base is not None
    assert pmap.s0.base is None
    assert np.array_equal(pmap.s0, smap.s0)


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
    pmap = ellipse_angles(_single_state_map(stokes), 0.01)
    assert pmap.mask[0, 0]
    if psi is not None:
        assert pmap.psi[0, 0] == pytest.approx(psi, abs=1e-9)
    assert pmap.chi[0, 0] == pytest.approx(chi, abs=1e-9)


def test_orientation_stays_below_pi():
    # S2 a rounding error below zero: psi is -1e-17/2, which is 0 modulo pi
    s1 = np.ones((1, 2))
    s2 = np.array([[-1e-17, 1e-17]])
    smap = StokesMap(s0=s1, s1=s1, s2=s2, s3=np.zeros((1, 2)), pixel_scale=1.0, center=(0, 0))
    psi = ellipse_angles(smap, 0.01).psi
    assert np.all((psi >= 0.0) & (psi < math.pi))
    assert psi[0, 0] == 0.0


def test_orientation_fold_is_np_mod_bit_for_bit():
    # the fold adds pi below zero and 0.0 elsewhere, as np.mod(psi, pi)
    # does on [-pi/2, pi/2], down to the sign of a zero
    rng = np.random.default_rng(9)
    s1 = np.concatenate([rng.normal(size=2000), [1.0, 1.0, -1.0, -1.0, 0.0, -0.0, 1.0]])
    s2 = np.concatenate([rng.normal(size=2000), [0.0, -0.0, 0.0, -0.0, -0.0, -0.0, -1e-17]])
    ones = np.ones((1, s1.size))
    psi = ellipse_angles(StokesMap(s0=ones, s1=s1[None], s2=s2[None], s3=0 * ones,
                                   pixel_scale=1.0, center=(0, 0)), 0.0).psi[0]
    expected = np.mod(0.5 * np.arctan2(s2, s1), math.pi)
    expected[expected >= math.pi] = 0.0
    assert np.array_equal(psi, expected)
    assert np.array_equal(np.signbit(psi), np.signbit(expected))


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
        ellipse_angles(dark, 0.01)


def test_radial_projection_of_radial_beam(doughnut_stack):
    stack, _ = doughnut_stack
    pmap = ellipse_angles(stokes_from_frames(stack), noise_floor=0.0)
    proj = oracles.radial_projection(pmap)
    assert np.nanmax(np.abs(proj[pmap.mask] - 1.0)) < 1e-8
    assert np.all(np.isnan(proj[~pmap.mask]))


def test_radial_projection_of_azimuthal_beam(aperture, waist_optimum):
    angles, frames, pixel_scale, center, _ = oracles.radial_doughnut_stack(
        aperture, waist_optimum.waist, size=128, orientation_noise=math.pi / 2.0
    )
    stack = FrameStack(angles_rad=angles, frames=frames,
                       pixel_scale=pixel_scale, center=center)
    pmap = ellipse_angles(stokes_from_frames(stack), noise_floor=0.0)
    proj = oracles.radial_projection(pmap)
    assert np.nanmax(np.abs(proj[pmap.mask])) < 1e-8


def test_projection_sign_follows_the_half_plane_of_arctan2():
    # the azimuths arctan2 returns at and beside the edges of the half planes
    tiny = 5e-324
    phi = np.array([-math.pi, np.nextafter(-math.pi, 0.0), -tiny, -0.0, 0.0, tiny,
                    np.nextafter(math.pi, 0.0), math.pi, -math.pi / 2.0, math.pi / 2.0])
    edges = np.arctan2(np.array([0.0, -0.0, 0.0, -0.0, tiny, -tiny, tiny, -tiny]),
                       np.array([1.0, 1.0, -1.0, -1.0, 1.0, 1.0, -1.0, -1.0]))
    phi = np.concatenate((phi, edges))
    psi = np.linspace(0.1, 3.0, phi.size)
    chi = np.linspace(-0.7, 0.7, phi.size)
    sgn = np.where(np.sin(phi) >= 0.0, 1.0, -1.0)
    assert np.array_equal(_project(psi, chi, phi), sgn * np.cos(chi) * np.cos(psi - phi))


def test_measured_overlap_of_ideal_doughnut(doughnut_stack, aperture, waist_optimum):
    stack, _ = doughnut_stack
    pmap = ellipse_angles(stokes_from_frames(stack), noise_floor=0.0)
    result = measured_overlap(pmap, aperture)
    assert result.eta == pytest.approx(waist_optimum.eta, abs=2e-3)
    assert result.coverage == pytest.approx(1.0, abs=1e-6)
    assert result.eta_rectified == pytest.approx(result.eta, abs=1e-8)
    # the same pixel sums written out: sqrt(s0) times the radial
    # projection against the dipole profile, over the annulus pixels
    rows, cols = pmap.s0.shape
    y = (np.arange(rows)[:, None] - pmap.center[0]) * pmap.pixel_scale
    x = (np.arange(cols)[None, :] - pmap.center[1]) * pmap.pixel_scale
    rho = np.hypot(x, y)
    sel = (rho >= aperture.rho_bore) & (rho <= aperture.rho_max) & pmap.mask
    a, p = np.sqrt(pmap.s0[sel]), oracles.radial_projection(pmap)[sel]

    def overlap(b):
        return np.sum(a * p * b) / math.sqrt(np.sum(a * a) * np.sum(b * b))

    assert result.n_pixels == np.count_nonzero(sel)
    assert result.eta == pytest.approx(overlap(rho[sel] / ((rho[sel] / 2.0) ** 2 + 1.0) ** 2),
                                       abs=1e-12)
    # against its own profile the pixelized beam is a perfect match
    assert overlap(doughnut_profile(rho[sel], waist_optimum.waist)) == pytest.approx(1.0, abs=1e-4)


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
    smap = stokes_from_frames(stack)
    # the CLI's noise floor masks the dim doughnut rim inside the annulus
    with pytest.raises(CoverageError) as err:
        measured_overlap(ellipse_angles(smap, 0.01), aperture)
    assert 0.05 < err.value.missing_fraction < 1.0
    # a sector masked out of the full map: 4 % of the annulus passes, 6 % not
    full = ellipse_angles(smap, 0.0)
    y = (np.arange(full.s0.shape[0])[:, None] - full.center[0]) * full.pixel_scale
    x = (np.arange(full.s0.shape[1])[None, :] - full.center[1]) * full.pixel_scale
    rho, phi = np.hypot(x, y), np.arctan2(y, x)
    annulus = (rho >= aperture.rho_bore) & (rho <= aperture.rho_max)
    narrow = annulus & (np.abs(phi) < 0.04 * math.pi)
    result = measured_overlap(dataclasses.replace(full, mask=full.mask & ~narrow), aperture)
    missing = np.count_nonzero(narrow) / np.count_nonzero(annulus)
    assert 0.03 < missing < 0.05
    assert result.coverage == pytest.approx(1.0 - missing, abs=1e-12)
    assert result.n_pixels == np.count_nonzero(annulus) - np.count_nonzero(narrow)
    wide = annulus & (np.abs(phi) < 0.06 * math.pi)
    with pytest.raises(CoverageError, match="limit 5.0%") as err:
        measured_overlap(dataclasses.replace(full, mask=full.mask & ~wide), aperture)
    assert err.value.missing_fraction == pytest.approx(
        np.count_nonzero(wide) / np.count_nonzero(annulus), abs=1e-12)


def test_pgm_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    values = rng.uniform(0.0, 1.0, (17, 23))
    path = tmp_path / "frame.pgm"
    write_pgm(path, values)
    back = oracles.read_pgm(path)
    assert back.shape == values.shape
    assert np.abs(back - values).max() < 1.5e-5  # 16-bit quantization
    with pytest.raises(DomainError):
        write_pgm(tmp_path / "bad.pgm", values * 2.0)
    with pytest.raises(DomainError):
        write_pgm(tmp_path / "bad.pgm", values[0])
    (tmp_path / "not_pgm.pgm").write_bytes(b"P6\n2 2\n255\nxxxx")
    with pytest.raises(DomainError):
        oracles.read_pgm(tmp_path / "not_pgm.pgm")


def test_frame_stack_file_roundtrip(tmp_path, doughnut_stack):
    stack, _ = doughnut_stack
    save_frame_stack(stack, tmp_path / "stack")
    back = oracles.load_frame_stack(tmp_path / "stack")
    assert back.angles_rad == pytest.approx(stack.angles_rad, abs=1e-9)
    assert back.pixel_scale == pytest.approx(stack.pixel_scale, rel=1e-9)
    assert back.center == pytest.approx(stack.center, abs=1e-3)
    scale = stack.frames.max()
    assert np.abs(back.frames - stack.frames).max() < 1.5e-5 * scale
    # the row-block decode and inversion is bit for bit the whole stack's,
    # read one frame at a time, through the directory or its manifest
    whole = stokes_from_frames(back)
    for path in (tmp_path / "stack", tmp_path / "stack" / "manifest.txt"):
        stokes, n_frames = load_stokes(path)
        assert n_frames == len(stack.angles_rad)
        for name in ("s0", "s1", "s2", "s3"):
            assert np.array_equal(getattr(stokes, name), getattr(whole, name))
        assert (stokes.pixel_scale, stokes.center) == (whole.pixel_scale, whole.center)


def test_frame_stack_manifest_errors(tmp_path):
    missing_meta = tmp_path / "a"
    missing_meta.mkdir()
    (missing_meta / "manifest.txt").write_text("frame_000.pgm 0.0\n")
    with pytest.raises(FormatError):
        load_stokes(missing_meta)
    no_frames = tmp_path / "b"
    no_frames.mkdir()
    (no_frames / "manifest.txt").write_text(
        "# pixel_scale: 0.01\n# center: 1.0 1.0\n")
    with pytest.raises(FormatError):
        load_stokes(no_frames)
    ragged = tmp_path / "c"
    ragged.mkdir()
    write_pgm(ragged / "frame_000.pgm", np.zeros((4, 5)))
    write_pgm(ragged / "frame_001.pgm", np.zeros((5, 4)))
    (ragged / "manifest.txt").write_text(
        "# pixel_scale: 0.01\n# center: 1.0 1.0\nframe_000.pgm 0.0\nframe_001.pgm 90.0\n")
    with pytest.raises(FormatError, match="frame_001.pgm: frame shape"):
        load_stokes(ragged)


@pytest.mark.parametrize("header", [
    "# pixel_scale: x\n# center: 1 1\n",
    "# pixel_scale: 0.01\n# center: 1 x\n",
    "# pixel_scale: 0.01\n# center: 1 1\n# intensity_scale: x\n",
], ids=["pixel-scale", "center", "intensity-scale"])
def test_frame_stack_manifest_word_for_number_names_the_file(tmp_path, header):
    write_pgm(tmp_path / "frame_000.pgm", np.zeros((4, 4)))
    manifest = tmp_path / "manifest.txt"
    manifest.write_text(header + "frame_000.pgm 0.0\n")
    with pytest.raises(FormatError) as err:
        load_stokes(tmp_path)
    assert str(err.value) == f"{manifest}: could not convert string to float: 'x'"


def test_frame_stack_refuses_truncated_frames_and_bad_maxval(tmp_path, doughnut_stack):
    stack, _ = doughnut_stack
    save_frame_stack(stack, tmp_path)
    frame = tmp_path / "frame_004.pgm"
    raw = frame.read_bytes()
    rows, cols = stack.frames.shape[1:]
    payload = 2 * rows * cols
    frame.write_bytes(raw[:len(raw) - payload // 2])
    with pytest.raises(FormatError, match="truncated") as err:
        load_stokes(tmp_path)
    message = str(err.value)
    assert message.startswith(str(frame))
    assert f"{payload} bytes, found {payload - payload // 2}" in message
    for maxval in (0, 65536):
        frame.write_bytes(raw.replace(b"\n65535\n", f"\n{maxval}\n".encode(), 1))
        with pytest.raises(FormatError, match=f"maxval {maxval} outside 1-65535"):
            load_stokes(tmp_path)


def test_score_annulus_writes_the_map_grids(tmp_path, doughnut_stack, aperture):
    stack, _ = doughnut_stack
    smap = stokes_from_frames(stack)
    pmap = ellipse_angles(smap, 0.01)
    # psi carries nan outside the mask and chi takes both signs
    assert np.isnan(pmap.psi).any() and (pmap.chi < 0).any()
    # trimmed, so that the noise floor leaves the annulus covered
    score_annulus(scan_annulus(smap, aperture, 0.01, 0.3), tmp_path / "beam")
    meta = {"pixel_scale": pmap.pixel_scale, "center_row": pmap.center[0],
            "center_col": pmap.center[1]}
    for suffix, values, kind in ((".s0.txt", pmap.s0, "intensity"),
                                 (".psi.txt", pmap.psi, "orientation_rad"),
                                 (".chi.txt", pmap.chi, "ellipticity_rad")):
        expected = oracles.grid_text(values, {**meta, "kind": kind})
        assert (tmp_path / ("beam" + suffix)).read_bytes() == expected.encode("ascii")


# angle sets for the property test below: a good one, then one refusal each
# of FrameStack (four distinct angles, a span short of pi) and of
# stokes_from_frames (five distinct angles that give two distinct rows)
_ANGLE_SETS = {
    "ok": [22.5 * k for k in range(9)],
    "four": [0.0, 45.0, 90.0, 180.0, 180.0],
    "narrow": [20.0 * k for k in range(6)],
    "rank": [0.0, 90.0, 180.0, 270.0, 360.0],
}


@st.composite
def frame_files(draw):
    """A small frame stack, as its manifest and PGM files would hold it.

    Heights straddle the block boundaries of a drawn block height, whole
    blocks of rows may be dark, and the manifest may carry a fault.
    """
    block = draw(st.integers(1, 4))
    rows = draw(st.sampled_from(sorted({1, max(block - 1, 1), block + 1, 2 * block + 3})))
    cols = draw(st.sampled_from([1, 1, 2, 3, 5, 7]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    intensity = rng.uniform(0.3, 1.0, (rows, cols))
    n_blocks = (rows - 1) // block + 1
    for k in draw(st.sets(st.integers(0, n_blocks - 1), max_size=n_blocks - 1)):
        intensity[k * block:(k + 1) * block] = 0.0
    if draw(st.sampled_from([False] * 16 + [True])):
        intensity[:] = 0.0
    if draw(st.booleans()):
        intensity[rng.random((rows, cols)) < 0.05] = 0.0
    center = (draw(st.floats(-1.0, rows)), draw(st.floats(-1.0, cols)))
    pixel_scale = 10.0 * draw(st.floats(0.3, 3.0)) / max(rows, cols)
    y = (np.arange(rows)[:, None] - center[0]) * pixel_scale
    x = (np.arange(cols)[None, :] - center[1]) * pixel_scale
    psi = np.arctan2(y, x) + rng.normal(0.0, 0.3, (rows, cols))
    chi = rng.normal(0.0, 0.1, (rows, cols))
    dop = rng.uniform(0.8, 1.0, (rows, cols))
    stokes = intensity * np.stack([np.ones_like(psi),
                                   dop * np.cos(2 * chi) * np.cos(2 * psi),
                                   dop * np.cos(2 * chi) * np.sin(2 * psi),
                                   dop * np.sin(2 * chi)])
    angles = _ANGLE_SETS[draw(st.sampled_from(["ok"] * 16 + sorted(_ANGLE_SETS)))]
    frames = np.maximum(np.stack([oracles.polarimeter_frame(stokes, math.radians(t))
                                  for t in angles]), 0.0)
    scale = float(frames.max()) or 1.0
    return {
        "block": block, "frames": frames / scale, "angles": angles,
        "scale": draw(st.sampled_from([scale] * 16 + [-1.0, math.nan, math.inf])),
        "pixel_scale": draw(st.sampled_from([pixel_scale] * 16 + [-pixel_scale])),
        "center": center,
        "noise_floor": draw(st.one_of(st.just(0.0), st.floats(0.0, 0.1), st.floats(0.0, 1.2))),
        "trim_outer": draw(st.one_of(st.just(0.0), st.floats(0.0, 0.5), st.floats(0.0, 1.2))),
    }


def _write_frame_files(directory, case):
    directory.mkdir()
    lines = [f"# intensity_scale: {case['scale']!r}", f"# pixel_scale: {case['pixel_scale']!r}",
             f"# center: {case['center'][0]!r} {case['center'][1]!r}"]
    for k, (angle, frame) in enumerate(zip(case["angles"], case["frames"])):
        write_pgm(directory / f"frame_{k:03d}.pgm", frame)
        lines.append(f"frame_{k:03d}.pgm {angle!r}")
    (directory / "manifest.txt").write_text("\n".join(lines) + "\n")


def _outcome(run):
    try:
        return run(), None
    except (CoverageError, DeterminacyError, DomainError) as exc:
        return None, exc


@settings(max_examples=150, deadline=None)
@given(case=frame_files())
def test_row_block_pass_is_the_whole_array_reduction(tmp_path_factory, aperture, case):
    """The CLI's two passes over blocks of rows give the whole-array functions'
    figures and grids bit for bit, and refuse what they refuse, before any
    --out directory exists."""
    base = tmp_path_factory.mktemp("stack")
    _write_frame_files(base / "frames", case)
    noise_floor, trim = case["noise_floor"], case["trim_outer"]

    def whole(stokes):
        pmap = ellipse_angles(stokes, noise_floor)
        return pmap, measured_overlap(pmap, aperture, trim)

    def row_blocks():
        stokes = load_stokes(base / "frames")[0]
        loaded.append(stokes)
        return score_annulus(scan_annulus(stokes, aperture, noise_floor, trim), None)

    loaded = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(polarimetry, "_BLOCK_PIXELS", case["block"] * case["frames"].shape[2])
        blocked, refusal = _outcome(row_blocks)
        config = base / "stokes.ini"
        config.write_text(f"[stokes]\nmanifest = {base / 'frames'}\n"
                          f"noise_floor = {noise_floor!r}\ntrim_outer = {trim!r}\n")
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["stokes", "--config", str(config), "--out", str(base / "out")])
    stokes, expected_refusal = _outcome(
        lambda: stokes_from_frames(oracles.load_frame_stack(base / "frames")))
    if stokes is not None:
        # the Stokes maps themselves, whether or not the scoring refuses them
        for name in ("s0", "s1", "s2", "s3"):
            assert np.array_equal(getattr(loaded[0], name), getattr(stokes, name))
        expected, expected_refusal = _outcome(lambda: whole(stokes))
    event(type(expected_refusal).__name__ if expected_refusal else "scored")
    if expected_refusal is not None:
        assert type(refusal) is type(expected_refusal)
        assert str(refusal) == str(expected_refusal)
        if isinstance(expected_refusal, CoverageError):
            assert refusal.missing_fraction == expected_refusal.missing_fraction
        assert code == 2 and not (base / "out").exists()
        assert stderr.getvalue().endswith(f"{expected_refusal}\n")
        return
    pmap, scored = expected
    assert refusal is None and code == 0
    assert blocked == scored  # eta, eta_rectified, coverage and pixel count, bit for bit
    meta = {"pixel_scale": pmap.pixel_scale, "center_row": pmap.center[0],
            "center_col": pmap.center[1]}
    for suffix, values, kind in ((".s0.txt", pmap.s0, "intensity"),
                                 (".psi.txt", pmap.psi, "orientation_rad"),
                                 (".chi.txt", pmap.chi, "ellipticity_rad")):
        expected_text = oracles.grid_text(values, {**meta, "kind": kind})
        assert (base / "out" / f"stokes{suffix}").read_text() == expected_text


def test_load_stokes_refuses_a_frame_without_pixels(tmp_path):
    (tmp_path / "frame_000.pgm").write_bytes(b"P5\n0 4\n65535\n")
    (tmp_path / "manifest.txt").write_text(
        "# pixel_scale: 0.01\n# center: 1 1\nframe_000.pgm 0.0\n")
    with pytest.raises(FormatError) as err:
        load_stokes(tmp_path)
    assert str(err.value) == f"{tmp_path / 'frame_000.pgm'}: PGM of 4 x 0 pixels holds no image"
