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

Frames are stored on disk as 16-bit binary PGM plus a manifest listing
each file's wave-plate angle; the 16-bit quantization limits round-trip
fidelity to about 1e-5 in relative intensity.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import CoverageError, DeterminacyError, DomainError, FormatError
from .geometry import ApertureSpec
from .gridio import read_table, write_grid
from .modes import dipole_profile

__all__ = [
    "FrameStack",
    "StokesMap",
    "PolarizationMap",
    "qwp_intensity",
    "stokes_from_frames",
    "ellipse_angles",
    "measured_overlap",
    "OverlapResult",
    "write_pgm",
    "save_frame_stack",
    "load_frame_stack",
    "export_polarization",
]

MIN_FRAMES = 5
PGM_MAXVAL = 65535
# the largest fraction of the aperture annulus that may be masked out
# before an overlap is refused as an extrapolation
_MAX_MISSING = 0.05


def qwp_intensity(stokes, theta):
    """Detected intensity for Stokes vector(s) behind the polarimeter.

    stokes has shape (4,) or (4, ...); theta is scalar. Used to model the
    instrument; the inverse problem is ``stokes_from_frames``.
    """
    stokes = np.asarray(stokes, dtype=float)
    if stokes.shape[0] != 4:
        raise DomainError("stokes must have leading dimension 4")
    c = math.cos(2.0 * theta)
    s = math.sin(2.0 * theta)
    return 0.5 * (stokes[0] + stokes[1] * c * c + stokes[2] * s * c - stokes[3] * s)


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
        if not np.all(np.isfinite(frames)) or frames.min() < 0:
            raise DomainError("frame intensities must be finite and non-negative")
        if self.pixel_scale <= 0:
            raise DomainError("pixel_scale must be positive")
        distinct = sorted(set(self.angles_rad))
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
class StokesMap:
    """Per-pixel Stokes parameters recovered from a frame stack."""

    s0: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    s3: np.ndarray
    pixel_scale: float
    center: tuple


def stokes_from_frames(stack: FrameStack) -> StokesMap:
    """Invert the frame stack to Stokes parameters, pixel by pixel.

    Every pixel shares the design matrix, so its pseudo-inverse (4 x
    n_angles) applied to the frame block gives all least-squares solutions
    in one matrix product.
    """
    thetas = np.asarray(stack.angles_rad)
    c = np.cos(2.0 * thetas)
    s = np.sin(2.0 * thetas)
    design = 0.5 * np.column_stack([np.ones_like(c), c * c, s * c, -s])
    if np.linalg.matrix_rank(design) < 4:
        raise DeterminacyError("wave-plate angle set leaves the Stokes vector underdetermined")
    n, rows, cols = stack.frames.shape
    coef = np.linalg.pinv(design) @ stack.frames.reshape(n, rows * cols)
    s0, s1, s2, s3 = (coef[i].reshape(rows, cols) for i in range(4))
    return StokesMap(s0=s0, s1=s1, s2=s2, s3=s3,
                     pixel_scale=stack.pixel_scale, center=stack.center)


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

    def grid_polar(self):
        """(rho, phi) of every pixel center in focal-length units."""
        rows, cols = self.s0.shape
        y = (np.arange(rows) - self.center[0]) * self.pixel_scale
        x = (np.arange(cols) - self.center[1]) * self.pixel_scale
        xx, yy = np.meshgrid(x, y)
        return np.hypot(xx, yy), np.arctan2(yy, xx)


def ellipse_angles(stokes: StokesMap, noise_floor: float) -> PolarizationMap:
    """Convert Stokes parameters to orientation and ellipticity angles.

    Pixels with s0 below noise_floor times the peak are masked out; pass
    noise_floor=0 to keep everything with positive intensity. S3/S0 is
    clamped to [-1, 1] so noise cannot push chi out of range.
    """
    if not 0.0 <= noise_floor < 1.0:
        raise DomainError("noise_floor must be in [0, 1)")
    peak = float(stokes.s0.max()) if stokes.s0.size else 0.0
    if peak <= 0:
        raise DomainError("no positive intensity in Stokes map")
    mask = stokes.s0 > noise_floor * peak
    with np.errstate(invalid="ignore", divide="ignore"):
        psi = 0.5 * np.arctan2(stokes.s2, stokes.s1)
        psi = np.mod(psi, math.pi)
        # mod rounds a tiny negative angle up to pi itself, outside [0, pi)
        psi[psi >= math.pi] = 0.0
        chi = 0.5 * np.arcsin(np.clip(stokes.s3 / stokes.s0, -1.0, 1.0))
    psi = np.where(mask, psi, np.nan)
    chi = np.where(mask, chi, np.nan)
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
    if not 0.0 <= trim_outer < 1.0:
        raise DomainError("trim_outer must be in [0, 1)")
    rho, phi = pmap.grid_polar()
    outer = aperture.rho_max * (1.0 - trim_outer)
    annulus = (rho >= aperture.rho_bore) & (rho <= outer)
    n_annulus = int(annulus.sum())
    if n_annulus == 0:
        raise CoverageError("no pixels fall inside the aperture annulus", missing_fraction=1.0)
    valid = annulus & pmap.mask
    missing = 1.0 - valid.sum() / n_annulus
    if missing > _MAX_MISSING:
        raise CoverageError(
            f"{missing:.1%} of the aperture annulus is masked out "
            f"(limit {_MAX_MISSING:.1%}); refusing an extrapolated overlap",
            missing_fraction=float(missing),
        )
    a = np.sqrt(np.maximum(pmap.s0[valid], 0.0))
    p = _project(pmap.psi[valid], pmap.chi[valid], phi[valid])
    b = dipole_profile(rho[valid])
    denom = math.sqrt(float(np.sum(a * a)) * float(np.sum(b * b)))
    if denom == 0.0:
        raise DomainError("zero-energy field in overlap")
    return OverlapResult(eta=float(np.sum(a * p * b)) / denom,
                         eta_rectified=float(np.sum(a * np.abs(p) * b)) / denom,
                         coverage=1.0 - float(missing), n_pixels=int(valid.sum()))


def write_pgm(path, values):
    """Write a 2-d array scaled to [0, 1] as 16-bit binary PGM."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise DomainError("PGM frames are 2-d")
    if values.min() < 0 or values.max() > 1.0 + 1e-12:
        raise DomainError("PGM values must be pre-scaled to [0, 1]")
    rows, cols = values.shape
    data = np.round(values * PGM_MAXVAL).astype(">u2")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{cols} {rows}\n{PGM_MAXVAL}\n".encode("ascii"))
        fh.write(data.tobytes())


def _pgm_pixels(path):
    """The (rows, cols) integer pixels of a binary PGM and its maxval."""
    raw = Path(path).read_bytes()
    m = re.match(rb"P5\s+(?:#[^\n]*\n\s*)*(\d+)\s+(\d+)\s+(\d+)\s", raw)
    if not m:
        raise FormatError(f"{path}: not a binary PGM")
    cols, rows, maxval = (int(m.group(i)) for i in (1, 2, 3))
    if not 1 <= maxval <= PGM_MAXVAL:
        raise FormatError(f"{path}: PGM maxval {maxval} outside 1-{PGM_MAXVAL}")
    dtype = np.dtype(">u2" if maxval > 255 else "u1")
    expected, found = rows * cols * dtype.itemsize, len(raw) - m.end()
    if found < expected:
        raise FormatError(f"{path}: truncated PGM: {rows} x {cols} pixels need "
                          f"{expected} bytes, found {found}")
    pixels = np.frombuffer(raw, dtype=dtype, count=rows * cols, offset=m.end())
    return pixels.reshape(rows, cols), maxval


def save_frame_stack(stack: FrameStack, directory):
    """Write the frames as PGM files plus a manifest in ``directory``.

    One global intensity scale is applied to every frame so the relative
    intensities the Stokes inversion needs survive the trip.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    scale = float(stack.frames.max())
    if scale <= 0:
        raise DomainError("cannot save an all-dark frame stack")
    lines = [
        "# polarimeter frame manifest: filename angle_deg",
        f"# intensity_scale: {scale:.9e}",
        f"# pixel_scale: {stack.pixel_scale:.9e}",
        f"# center: {stack.center[0]:.3f} {stack.center[1]:.3f}",
    ]
    for k, (angle, frame) in enumerate(zip(stack.angles_rad, stack.frames)):
        name = f"frame_{k:03d}.pgm"
        write_pgm(directory / name, frame / scale)
        lines.append(f"{name} {math.degrees(angle):.6f}")
    (directory / "manifest.txt").write_text("\n".join(lines) + "\n")


def load_frame_stack(directory) -> FrameStack:
    """Read back a frame stack saved by ``save_frame_stack``."""
    directory = Path(directory)
    manifest = directory / "manifest.txt" if directory.is_dir() else directory
    directory = manifest.parent
    header, rows = read_table(manifest, "filename angle_deg", lambda name, deg: (name, float(deg)))
    center = header.get("center", "").split()
    if "pixel_scale" not in header or len(center) != 2:
        raise FormatError(f"{manifest}: manifest lacks pixel_scale or center")
    if not rows:
        raise FormatError(f"{manifest}: manifest lists no frames")
    angles = [math.radians(angle) for _, angle in rows]
    # each frame is decoded straight into its slot of one array, scaled in place
    frames = None
    for k, (name, _) in enumerate(rows):
        pixels, maxval = _pgm_pixels(directory / name)
        if frames is None:
            frames = np.empty((len(rows),) + pixels.shape)
        elif pixels.shape != frames.shape[1:]:
            raise FormatError(f"{directory / name}: frame shape {pixels.shape} differs "
                              f"from the first frame's {frames.shape[1:]}")
        np.divide(pixels, maxval, out=frames[k])
    frames *= float(header.get("intensity_scale", 1.0))
    return FrameStack(angles_rad=tuple(angles), frames=frames,
                      pixel_scale=float(header["pixel_scale"]), center=center)


def export_polarization(pmap: PolarizationMap, basepath):
    """Write s0/psi/chi grids next to each other for external plotting."""
    base = Path(basepath)
    meta = {
        "pixel_scale": pmap.pixel_scale,
        "center_row": pmap.center[0],
        "center_col": pmap.center[1],
    }
    write_grid(base.with_suffix(".s0.txt"), pmap.s0, {**meta, "kind": "intensity"})
    # psi and chi are already NaN outside the mask
    write_grid(base.with_suffix(".psi.txt"), pmap.psi, {**meta, "kind": "orientation_rad"})
    write_grid(base.with_suffix(".chi.txt"), pmap.chi, {**meta, "kind": "ellipticity_rad"})
