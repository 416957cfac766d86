"""Imaging Stokes polarimetry of radially polarized beams.

A rotating quarter-wave plate in front of a fixed horizontal polarizer and
a camera yields a stack of intensity frames I(theta). Per pixel,

    I(theta) = (S0 + S1 c^2 + S2 s c - S3 s) / 2,
    c = cos(2 theta), s = sin(2 theta),

which this module inverts by least squares to recover the Stokes vector,
converts to ellipse parameters, and scores against the ideal radially
polarized target mode.

Conventions
-----------
Angles are radians. The orientation angle psi = atan2(S2, S1)/2 is folded
into [0, pi); the ellipticity angle chi = asin(S3/S0)/2 lies in
[-pi/4, pi/4], with chi = 0 for linear polarization. Pixel coordinates map
to the transverse plane through a PolarizationMap's center (row, col) and
pixel_scale, giving the radius in the same focal-length-normalized units
the radial mode profiles use.

The projection of the measured polarization onto the radial direction at
azimuth phi is

    p = sgn * cos(chi) * cos(psi - phi),

where sgn is +1 in the upper half plane and -1 in the lower. Because psi
is only defined modulo pi, this canonicalization makes a perfect radial
pattern score +1 at every pixel; genuine orientation errors still show up
as p < 1, and pixels whose linear component is closer to the azimuthal
direction go negative. ``measured_overlap`` also scores |p|, the pattern a
segmented half-wave corrector would produce.

Frames are read from binary PGM files and a manifest that lists each
file's wave-plate angle below its pixel_scale, center and optional
intensity_scale headers; 16-bit quantization limits the intensities to
about 1e-5 relative.

Two passes over blocks of rows
------------------------------
The CLI reduces a stack without ever holding its frames as floats.
``load_stokes`` is the first pass: it decodes one block of rows of every
frame into a reused (n_angles, block) buffer, checks the block as
``FrameStack`` checks its frames, and writes the block's least-squares
solutions into its columns of one 4 x pixels Stokes array.

``scan_annulus`` and ``score_annulus`` are the second. The scan takes
the mask from the s0 peak, builds each block's annulus from the hypot of
its row and column axes, and keeps the annulus pixels the mask passes.
It decides the coverage and the field energies before anything is
written, so a refused overlap writes nothing. The score then converts
each block to ellipse angles, projects the block's valid pixels on the
radial direction (arctan2 is taken at those pixels only) and appends the
block to the s0, psi and chi grids. The overlap sums run over the valid
pixels in row-major order, as they do over the whole array.

``stokes_from_frames``, ``ellipse_angles`` and ``measured_overlap`` take
whole arrays and run the same per-block code on them as one block, so
both routes give the same numbers bit for bit.
"""

from __future__ import annotations

import contextlib
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CoverageError, DeterminacyError, DomainError, FormatError
from .geometry import ApertureSpec
from .gridio import GridWriter, read_table
from .modes import dipole_profile

__all__ = [
    "FrameStack",
    "StokesMap",
    "PolarizationMap",
    "stokes_from_frames",
    "ellipse_angles",
    "measured_overlap",
    "OverlapResult",
    "load_stokes",
    "AnnulusScan",
    "scan_annulus",
    "score_annulus",
]

MIN_FRAMES = 5
PGM_MAXVAL = 65535
# the largest fraction of the aperture annulus that may be masked out
# before an overlap is refused as an extrapolation
_MAX_MISSING = 0.05
# pixels in one block of rows of the two passes
_BLOCK_PIXELS = 1 << 14


def _blocks(rows: int, cols: int):
    """(start, stop) of the blocks of rows the passes take, top to bottom.

    No block is a single pixel unless the image is: numpy inverts one
    pixel by a matrix-vector product, whose bits need not be those of the
    matrix product the whole array gets.
    """
    step = max(2 if cols == 1 else 1, _BLOCK_PIXELS // max(cols, 1))
    starts = list(range(0, rows, step))
    if len(starts) > 1 and (rows - starts[-1]) * cols == 1:
        del starts[-1]
    return list(zip(starts, starts[1:] + [rows]))


def _check_frames(frames: np.ndarray):
    # a nan fails both comparisons
    if not (frames.min() >= 0 and frames.max() < math.inf):
        raise DomainError("frame intensities must be finite and non-negative")


def _check_geometry(angles_rad: tuple, pixel_scale: float):
    if pixel_scale <= 0:
        raise DomainError("pixel_scale must be positive")
    distinct = sorted(set(angles_rad))
    if len(distinct) < MIN_FRAMES:
        raise DeterminacyError(
            f"{len(distinct)} distinct wave-plate angles; "
            f"at least {MIN_FRAMES} needed to separate four Stokes parameters"
        )
    if distinct[-1] - distinct[0] < math.pi * (1.0 - 1e-9):
        raise DeterminacyError(
            "wave-plate angles must span at least pi for a well-conditioned inversion"
        )


@dataclass(frozen=True)
class FrameStack:
    """Polarimeter frames with their wave-plate angles.

    frames has shape (n_angles, rows, cols); angles_rad matches the first
    axis. center is the (row, col) of the optical axis in pixel
    coordinates and pixel_scale converts pixels to focal-length units.
    """

    angles_rad: tuple
    frames: np.ndarray
    pixel_scale: float
    center: tuple

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=float)
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "angles_rad", tuple(float(a) for a in self.angles_rad))
        object.__setattr__(self, "center", (float(self.center[0]), float(self.center[1])))
        if frames.ndim != 3:
            raise DomainError("frames must be a (n_angles, rows, cols) array")
        if frames.shape[0] != len(self.angles_rad):
            raise DomainError("one angle per frame required")
        _check_frames(frames)
        _check_geometry(self.angles_rad, self.pixel_scale)


@dataclass(frozen=True)
class StokesMap:
    """Per-pixel Stokes parameters recovered from a frame stack."""

    s0: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    s3: np.ndarray
    pixel_scale: float
    center: tuple


def _inverse(angles_rad: tuple) -> np.ndarray:
    """Pseudo-inverse (4 x n_angles) of the frame model's design matrix."""
    thetas = np.asarray(angles_rad)
    c = np.cos(2.0 * thetas)
    s = np.sin(2.0 * thetas)
    design = 0.5 * np.column_stack([np.ones_like(c), c * c, s * c, -s])
    if np.linalg.matrix_rank(design) < 4:
        raise DeterminacyError("wave-plate angle set leaves the Stokes vector underdetermined")
    return np.linalg.pinv(design)


def _stokes_map(coef: np.ndarray, shape: tuple, pixel_scale: float, center) -> StokesMap:
    s0, s1, s2, s3 = (coef[i].reshape(shape) for i in range(4))
    return StokesMap(s0=s0, s1=s1, s2=s2, s3=s3, pixel_scale=pixel_scale, center=center)


def stokes_from_frames(stack: FrameStack) -> StokesMap:
    """Invert the frame stack to Stokes parameters, pixel by pixel.

    Every pixel shares the design matrix, so its pseudo-inverse (4 x
    n_angles) applied to the frame block gives all least-squares solutions
    in one matrix product.
    """
    n, rows, cols = stack.frames.shape
    coef = np.matmul(_inverse(stack.angles_rad), stack.frames.reshape(n, rows * cols))
    return _stokes_map(coef, (rows, cols), stack.pixel_scale, stack.center)


@dataclass(frozen=True)
class PolarizationMap:
    """Intensity and ellipse angles per pixel, with a validity mask.

    psi and chi are NaN outside the mask. center/pixel_scale place the
    pixel grid in the transverse plane.
    """

    s0: np.ndarray
    psi: np.ndarray
    chi: np.ndarray
    mask: np.ndarray
    pixel_scale: float
    center: tuple


def _mask(s0: np.ndarray, noise_floor: float) -> np.ndarray:
    """The pixels whose s0 exceeds noise_floor times the peak."""
    if not 0.0 <= noise_floor < 1.0:
        raise DomainError("noise_floor must be in [0, 1)")
    peak = float(s0.max()) if s0.size else 0.0
    if peak <= 0:
        raise DomainError("no positive intensity in Stokes map")
    return s0 > noise_floor * peak


def _ellipse(s0, s1, s2, s3, mask):
    """Orientation and ellipticity angles, NaN outside the mask."""
    with np.errstate(invalid="ignore", divide="ignore"):
        psi = 0.5 * np.arctan2(s2, s1)
        # psi modulo pi, bit for bit as np.mod takes it on [-pi/2, pi/2] but
        # at a fraction of its cost: pi is added below zero and 0.0 elsewhere,
        # which turns -0.0 into 0.0
        psi += np.where(psi < 0.0, math.pi, 0.0)
        # the sum rounds a tiny negative angle up to pi itself, outside [0, pi)
        psi[psi >= math.pi] = 0.0
        chi = 0.5 * np.arcsin(np.clip(s3 / s0, -1.0, 1.0))
    return np.where(mask, psi, np.nan), np.where(mask, chi, np.nan)


def ellipse_angles(stokes: StokesMap, noise_floor: float) -> PolarizationMap:
    """Convert Stokes parameters to orientation and ellipticity angles.

    Pixels with s0 below noise_floor times the peak are masked out; pass
    noise_floor=0 to keep everything with positive intensity. S3/S0 is
    clamped to [-1, 1] so noise cannot push chi out of range.
    """
    mask = _mask(stokes.s0, noise_floor)
    psi, chi = _ellipse(stokes.s0, stokes.s1, stokes.s2, stokes.s3, mask)
    # s0 may be a row of the inversion's coefficient block; a copy keeps
    # the map from holding S1-S3 alive with it
    return PolarizationMap(s0=stokes.s0.copy(), psi=psi, chi=chi, mask=mask,
                           pixel_scale=stokes.pixel_scale, center=stokes.center)


def _project(psi, chi, phi):
    # sgn of the module docstring: +1 in the upper half plane, -1 in the lower.
    # phi comes from arctan2, in [-pi, pi], where the float sin(phi) >= 0
    # exactly when phi >= 0 (sin(+-pi) rounds to +-1.2e-16), so no sine is taken
    return np.where(phi >= 0.0, 1.0, -1.0) * np.cos(chi) * np.cos(psi - phi)


@dataclass(frozen=True)
class OverlapResult:
    """Field overlap of a measured map with the target mode.

    eta scores the measured orientation, eta_rectified its absolute
    projection; both come from the same pixels.
    """

    eta: float
    eta_rectified: float
    coverage: float
    n_pixels: int


def _axes(grid, start: int, stop: int):
    """Transverse y of the rows start:stop and x of every column, in focal-length units."""
    y = (np.arange(start, stop) - grid.center[0]) * grid.pixel_scale
    x = (np.arange(grid.s0.shape[1]) - grid.center[1]) * grid.pixel_scale
    return y, x


def _outer_radius(aperture: ApertureSpec, trim_outer: float) -> float:
    if not 0.0 <= trim_outer < 1.0:
        raise DomainError("trim_outer must be in [0, 1)")
    return aperture.rho_max * (1.0 - trim_outer)


def _annulus_block(mask, y, x, aperture: ApertureSpec, outer: float, valid):
    """Count a block's annulus pixels and write its valid ones into ``valid``.

    Returns the count and the dipole mode at the valid pixels, row by row.
    """
    rho = np.hypot(x[None, :], y[:, None])
    annulus = (rho >= aperture.rho_bore) & (rho <= outer)
    np.logical_and(annulus, mask, out=valid)
    return int(np.count_nonzero(annulus)), dipole_profile(rho[valid])


def _coverage(n_annulus: int, valid: np.ndarray) -> float:
    if n_annulus == 0:
        raise CoverageError("no pixels fall inside the aperture annulus", missing_fraction=1.0)
    missing = 1.0 - valid.sum() / n_annulus
    if missing > _MAX_MISSING:
        raise CoverageError(
            f"{missing:.1%} of the aperture annulus is masked out "
            f"(limit {_MAX_MISSING:.1%}); refusing an extrapolated overlap",
            missing_fraction=float(missing),
        )
    return 1.0 - float(missing)


def _amplitude(s0: np.ndarray, valid: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(s0[valid], 0.0))


def _norm(a: np.ndarray, b: np.ndarray) -> float:
    denom = math.sqrt(float(np.sum(a * a)) * float(np.sum(b * b)))
    if denom == 0.0:
        raise DomainError("zero-energy field in overlap")
    return denom


def _projection_block(psi, chi, valid, y, x):
    """The radial projection p at a block's valid pixels, row by row."""
    phi = np.arctan2(np.repeat(y, np.count_nonzero(valid, axis=1)),
                     np.broadcast_to(x, valid.shape)[valid])
    return _project(psi[valid], chi[valid], phi)


def _overlap(a, p, b, norm: float, coverage: float) -> OverlapResult:
    return OverlapResult(eta=float(np.sum(a * p * b)) / norm,
                         eta_rectified=float(np.sum(a * np.abs(p) * b)) / norm,
                         coverage=coverage, n_pixels=int(a.size))


def measured_overlap(pmap: PolarizationMap, aperture: ApertureSpec,
                     trim_outer: float = 0.0) -> OverlapResult:
    """Overlap of the measured beam with the ideal mode over the aperture.

    The measured field amplitude is sqrt(s0) times the radial projection
    of its polarization; the reference b is the mode a linear dipole
    radiates into the mirror. All three sums run over the annulus pixels
    that survive the validity mask:

        eta = sum(a p b) / sqrt(sum(a^2) sum(b^2)),

    and eta_rectified is the same sum with |p| in place of p.

    trim_outer shrinks the outer annulus radius by that fraction to drop
    rim artifacts. If more than 5 % of the annulus is masked out the
    estimate is refused (CoverageError carries the missing fraction).
    """
    outer = _outer_radius(aperture, trim_outer)
    y, x = _axes(pmap, 0, pmap.s0.shape[0])
    valid = np.empty(pmap.s0.shape, dtype=bool)
    n_annulus, b = _annulus_block(pmap.mask, y, x, aperture, outer, valid)
    coverage = _coverage(n_annulus, valid)
    a = _amplitude(pmap.s0, valid)
    norm = _norm(a, b)
    return _overlap(a, _projection_block(pmap.psi, pmap.chi, valid, y, x), b, norm, coverage)


def _pgm_pixels(path):
    """The (rows, cols) integer pixels of a binary PGM and its maxval."""
    raw = Path(path).read_bytes()
    m = re.match(rb"P5\s+(?:#[^\n]*\n\s*)*(\d+)\s+(\d+)\s+(\d+)\s", raw)
    if not m:
        raise FormatError(f"{path}: not a binary PGM")
    cols, rows, maxval = (int(m.group(i)) for i in (1, 2, 3))
    if not 1 <= maxval <= PGM_MAXVAL:
        raise FormatError(f"{path}: PGM maxval {maxval} outside 1-{PGM_MAXVAL}")
    if rows * cols == 0:
        raise FormatError(f"{path}: PGM of {rows} x {cols} pixels holds no image")
    dtype = np.dtype(">u2" if maxval > 255 else "u1")
    expected, found = rows * cols * dtype.itemsize, len(raw) - m.end()
    if found < expected:
        raise FormatError(f"{path}: truncated PGM: {rows} x {cols} pixels need "
                          f"{expected} bytes, found {found}")
    pixels = np.frombuffer(raw, dtype=dtype, count=rows * cols, offset=m.end())
    return pixels.reshape(rows, cols), maxval


def load_stokes(directory) -> tuple:
    """Read a frame stack and invert it, a block of rows at a time.

    The manifest (the directory's manifest.txt, or the file given) lists
    one 'filename angle_deg' per line. Returns the StokesMap and the
    number of frames. Each block of rows of every frame is decoded into
    one reused buffer, scaled, checked and inverted into its columns of
    the map, so the frames are never held as floats. The refusals are
    FrameStack's, in its order, then the rank check of
    ``stokes_from_frames``.
    """
    directory = Path(directory)
    manifest = directory / "manifest.txt" if directory.is_dir() else directory
    directory = manifest.parent
    header, rows = read_table(manifest, "filename angle_deg", lambda name, deg: (name, float(deg)))
    center = header.get("center", "").split()
    if "pixel_scale" not in header or len(center) != 2:
        raise FormatError(f"{manifest}: manifest lacks pixel_scale or center")
    if not rows:
        raise FormatError(f"{manifest}: manifest lists no frames")
    try:
        pixel_scale, scale = float(header["pixel_scale"]), float(header.get("intensity_scale", 1))
        center = float(center[0]), float(center[1])
    except ValueError as exc:
        raise FormatError(f"{manifest}: {exc}") from None
    angles = tuple(math.radians(angle) for _, angle in rows)
    frames = [_pgm_pixels(directory / name) for name, _ in rows]
    shape = frames[0][0].shape
    for (pixels, _), (name, _) in zip(frames, rows):
        if pixels.shape != shape:
            raise FormatError(f"{directory / name}: frame shape {pixels.shape} differs "
                              f"from the first frame's {shape}")
    try:
        _check_geometry(angles, pixel_scale)
        inverse = _inverse(angles)
    except (DomainError, DeterminacyError) as exc:
        # raised once every block has passed the frame check, as FrameStack
        # checks the frames first
        inverse, refusal = None, exc
    cols, blocks = shape[1], _blocks(*shape)
    coef = np.empty((4, shape[0] * cols))
    buffer = np.empty((len(frames), max(stop - start for start, stop in blocks) * cols))
    for start, stop in blocks:
        block = buffer[:, :(stop - start) * cols]
        for decoded, (pixels, maxval) in zip(block, frames):
            np.divide(pixels[start:stop], maxval, out=decoded.reshape(stop - start, cols))
        with np.errstate(invalid="ignore"):  # inf times a dark pixel: nan, refused next
            block *= scale
        _check_frames(block)
        if inverse is not None:
            np.matmul(inverse, block, out=coef[:, start * cols:stop * cols])
    if inverse is None:
        raise refusal
    return _stokes_map(coef, shape, pixel_scale, center), len(frames)


@dataclass(frozen=True)
class AnnulusScan:
    """A Stokes map cleared for scoring: its mask, annulus and field energies.

    valid marks the annulus pixels the mask keeps; a and b hold the
    measured amplitude and the dipole mode there, row by row, and norm is
    sqrt(sum(a^2) sum(b^2)).
    """

    stokes: StokesMap
    mask: np.ndarray
    valid: np.ndarray
    a: np.ndarray
    b: np.ndarray
    norm: float
    coverage: float


def scan_annulus(stokes: StokesMap, aperture: ApertureSpec, noise_floor: float,
                 trim_outer: float) -> AnnulusScan:
    """Mask a Stokes map and count its annulus, a block of rows at a time.

    Makes every refusal of ``ellipse_angles`` and ``measured_overlap``, in
    their order, without converting a pixel to ellipse angles.
    """
    mask = _mask(stokes.s0, noise_floor)
    outer = _outer_radius(aperture, trim_outer)
    valid = np.empty_like(mask)
    n_annulus, b = 0, []
    for start, stop in _blocks(*mask.shape):
        count, b_block = _annulus_block(mask[start:stop], *_axes(stokes, start, stop),
                                        aperture, outer, valid[start:stop])
        n_annulus += count
        b.append(b_block)
    coverage = _coverage(n_annulus, valid)
    a, b = _amplitude(stokes.s0, valid), np.concatenate(b)
    return AnnulusScan(stokes=stokes, mask=mask, valid=valid, a=a, b=b, norm=_norm(a, b),
                       coverage=coverage)


def score_annulus(scan: AnnulusScan, basepath) -> OverlapResult:
    """The overlap of a scanned map, a block of rows at a time.

    Each block's ellipse angles give the radial projection at its valid
    pixels. Unless basepath is None, the blocks' s0, psi and chi (NaN
    outside the mask) are appended to the grids basepath.s0.txt,
    basepath.psi.txt and basepath.chi.txt as they go.
    """
    stokes = scan.stokes
    p, filled = np.empty(scan.a.size), 0
    with contextlib.ExitStack() as files:
        grids = []
        if basepath is not None:
            meta = {"pixel_scale": stokes.pixel_scale, "center_row": stokes.center[0],
                    "center_col": stokes.center[1]}
            grids = [files.enter_context(GridWriter(Path(basepath).with_suffix(suffix),
                                                    scan.mask.shape, {**meta, "kind": kind}))
                     for suffix, kind in ((".s0.txt", "intensity"),
                                          (".psi.txt", "orientation_rad"),
                                          (".chi.txt", "ellipticity_rad"))]
        for start, stop in _blocks(*scan.mask.shape):
            s0, s1, s2, s3 = (s[start:stop] for s in (stokes.s0, stokes.s1, stokes.s2, stokes.s3))
            psi, chi = _ellipse(s0, s1, s2, s3, scan.mask[start:stop])
            p_block = _projection_block(psi, chi, scan.valid[start:stop],
                                        *_axes(stokes, start, stop))
            p[filled:filled + p_block.size] = p_block
            filled += p_block.size
            for grid, values in zip(grids, (s0, psi, chi)):
                grid.write(values)
    return _overlap(scan.a, p, scan.b, scan.norm, scan.coverage)
