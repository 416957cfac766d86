"""Wavefront maps, Zernike expansions, and phase-plate design.

Interferometric testing of the mirror yields a phase map over the aperture
disk; this module fits it with Zernike polynomials, separates alignment
artifacts from genuine figure error, quantifies PV/RMS, and designs the
compensating phase plate, including its behavior at wavelengths other than
the testing wavelength.

Conventions
-----------
Zernike terms are indexed (n, m) with radial degree n and azimuthal order
m; m > 0 means cos(m*phi), m < 0 means sin(|m|*phi). The polynomials are
unnormalized: a coefficient a on (2,2) means a wavefront a*rho^2*cos(2phi)
with peak-to-valley 2a over the unit disk. Coefficients and maps are in
waves at the wavelength they are tagged with.

Phase maps live on a square grid of pixel centers spanning [-1, 1] in
aperture-normalized coordinates (rho_unit = rho/rho_max), with a boolean
validity mask. Fitting uses plain least squares on the valid pixels; no
annular re-orthogonalization is applied, so coefficients are reported in
the standard disk basis regardless of the mask.

Interferometer maps measure the mirror in double pass; ``single_pass``
halves a measured map. The misalignment set {piston, tip, tilt, defocus}
is removed after fitting by default: tilts and defocus are alignment
freedoms of the test cavity (a displaced reference sphere shows up as
defocus), not mirror figure error.

Phase plates are etched for a design wavelength. At another wavelength the
plate's optical path scales with the material dispersion n(lambda) - 1
while the mirror's figure error is achromatic optical path; the residual
of the compensated system in waves at the new wavelength is

    residual(l1) = plate * (l0/l1) * ((n(l1)-1)/(n(l0)-1) - 1).

Material dispersion comes from a Sellmeier model whose coefficients ship
as a provenance-tagged data file.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import DomainError, ProvenanceError
from .gridio import read_grid, read_table, write_grid

__all__ = [
    "ZernikeExpansion",
    "PhaseMap",
    "zernike_term",
    "zernike_eval",
    "zernike_fit",
    "remove_misalignment",
    "MISALIGNMENT_TERMS",
    "pv_rms",
    "make_phase_plate",
    "single_pass",
    "SellmeierModel",
    "fused_silica",
    "rescale_wavelength",
    "load_expansion",
    "save_expansion",
    "load_phase_map",
    "save_phase_map",
]

MISALIGNMENT_TERMS = ((0, 0), (1, 1), (1, -1), (2, 0))

_DEFAULT_GRID = 512
_DEFAULT_DEGREE = 10


@lru_cache(maxsize=None)
def _radial_coeffs(n: int, m: int) -> tuple:
    # R_n^m(rho) = rho^m * sum_j c_j * rho^(2j), m = |m|; returns (c_0, c_1, ...)
    half = (n - m) // 2
    return tuple(
        (-1) ** (half - j) * math.factorial(n - half + j)
        / (math.factorial(half - j) * math.factorial(m + j) * math.factorial(j))
        for j in range(half + 1)
    )


def _sum_orders(orders: dict, rho, phi):
    """Sum of rho^|m| * P_m(rho^2) * (cos(m phi) | 1 | sin(|m| phi)) over m.

    orders maps each azimuthal order m to the coefficients of P_m in
    ascending powers of rho^2. Each order costs one Horner evaluation on
    rho and one product with its angular factor on phi; both stay on their
    own (possibly broadcast) axes until that product.
    """
    rho = np.asarray(rho, dtype=float)
    phi = np.asarray(phi, dtype=float)
    out = np.zeros(np.broadcast_shapes(rho.shape, phi.shape))
    u = rho * rho
    for m, coeffs in orders.items():
        radial = np.full(rho.shape, coeffs[-1])
        for c in reversed(coeffs[:-1]):
            radial *= u
            radial += c
        if m:
            radial *= rho ** abs(m)
        if m > 0:
            out += radial * np.cos(m * phi)
        elif m < 0:
            out += radial * np.sin(-m * phi)
        else:
            out += radial
    return out


def zernike_term(n: int, m: int, rho, phi):
    """Evaluate the unnormalized Zernike polynomial (n, m).

    rho is the unit-disk radius, phi the azimuth; arrays broadcast.
    """
    if n < 0 or abs(m) > n or (n - abs(m)) % 2:
        raise DomainError(f"invalid Zernike index (n={n}, m={m})")
    return _sum_orders({m: _radial_coeffs(n, abs(m))}, rho, phi)


@dataclass(frozen=True)
class ZernikeExpansion:
    """A wavefront as Zernike coefficients, in waves at wavelength_nm.

    terms is a tuple of (n, m, value) triples; annulus optionally records
    the (inner, outer) unit-disk radii the coefficients were fitted on.
    """

    terms: tuple
    wavelength_nm: float
    annulus: tuple | None = None

    def __post_init__(self):
        seen = set()
        for n, m, _ in self.terms:
            if n < 0 or abs(m) > n or (n - abs(m)) % 2:
                raise DomainError(f"invalid Zernike index (n={n}, m={m})")
            if (n, m) in seen:
                raise DomainError(f"duplicate Zernike index (n={n}, m={m})")
            seen.add((n, m))
        if self.wavelength_nm <= 0:
            raise DomainError("wavelength must be positive")

    def coefficient(self, n: int, m: int) -> float:
        for nn, mm, v in self.terms:
            if (nn, mm) == (n, m):
                return v
        return 0.0

    def scaled(self, factor: float, wavelength_nm: float | None = None) -> "ZernikeExpansion":
        wl = self.wavelength_nm if wavelength_nm is None else wavelength_nm
        return ZernikeExpansion(
            tuple((n, m, v * factor) for n, m, v in self.terms), wl, self.annulus
        )

    def without(self, indices) -> "ZernikeExpansion":
        drop = set(indices)
        return ZernikeExpansion(
            tuple(t for t in self.terms if (t[0], t[1]) not in drop),
            self.wavelength_nm,
            self.annulus,
        )


def zernike_eval(expansion: ZernikeExpansion, rho, phi):
    """Evaluate an expansion at unit-disk polar coordinates; arrays broadcast.

    Terms of one azimuthal order share their angular factor, so their
    radial polynomials are summed into one before evaluation. Passing the
    axes of a tensor-product grid, rho of shape (n, 1) and phi of shape
    (1, k), evaluates each radial and angular factor on its axis only.
    """
    orders = {}
    for n, m, v in expansion.terms:
        if v != 0.0:
            coeffs = _radial_coeffs(n, abs(m))
            poly = orders.setdefault(m, [])
            poly.extend([0.0] * (len(coeffs) - len(poly)))
            for j, c in enumerate(coeffs):
                poly[j] += v * c
    return _sum_orders(orders, rho, phi)


@dataclass(frozen=True)
class PhaseMap:
    """Gridded wavefront in waves on the aperture-normalized unit square.

    values[row, col] sits at x = -1 + (col + 0.5)*2/cols,
    y = -1 + (row + 0.5)*2/rows. mask marks valid pixels.
    """

    values: np.ndarray
    mask: np.ndarray
    wavelength_nm: float

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        mask = np.asarray(self.mask, dtype=bool)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "mask", mask)
        if values.ndim != 2 or values.shape != mask.shape:
            raise DomainError("values and mask must be matching 2-d arrays")
        if self.wavelength_nm <= 0:
            raise DomainError("wavelength must be positive")
        if not np.all(np.isfinite(values[mask])):
            raise DomainError("masked-in phase values must be finite")

    def grid_polar(self):
        """(rho_unit, phi) arrays for every pixel center."""
        rows, cols = self.values.shape
        y = -1.0 + (np.arange(rows) + 0.5) * 2.0 / rows
        x = -1.0 + (np.arange(cols) + 0.5) * 2.0 / cols
        xx, yy = np.meshgrid(x, y)
        return np.hypot(xx, yy), np.arctan2(yy, xx)

    @classmethod
    def from_expansion(
        cls,
        expansion: ZernikeExpansion,
        size: int = _DEFAULT_GRID,
        annulus: tuple | None = None,
    ) -> "PhaseMap":
        """Render an expansion on a size x size grid.

        annulus=(inner, outer) limits the mask; default is the full unit
        disk (or the expansion's recorded annulus if it has one).
        """
        ann = annulus if annulus is not None else (expansion.annulus or (0.0, 1.0))
        inner, outer = ann
        y = -1.0 + (np.arange(size) + 0.5) * 2.0 / size
        xx, yy = np.meshgrid(y, y)
        rho = np.hypot(xx, yy)
        phi = np.arctan2(yy, xx)
        mask = (rho >= inner) & (rho <= outer)
        values = np.where(mask, zernike_eval(expansion, rho, phi), np.nan)
        return cls(values=values, mask=mask, wavelength_nm=expansion.wavelength_nm)


def _design_matrix(rho, phi, degree):
    """Zernike design matrix on 1-d pixel coordinates, terms in (n, m) order.

    Terms of one |m| share rho^|m| (by recurrence) and cos/sin(|m| phi);
    the cos and sin columns of one (n, |m|) share their radial polynomial,
    evaluated once by Horner in rho^2.
    """
    index = [(n, m) for n in range(degree + 1) for m in range(-n, n + 1, 2)]
    column = {nm: j for j, nm in enumerate(index)}
    a = np.empty((rho.size, len(index)), order="F")
    u = rho * rho
    rho_m = np.ones_like(rho)
    for m in range(degree + 1):
        if m:
            rho_m *= rho
            cos_m, sin_m = np.cos(m * phi), np.sin(m * phi)
        for n in range(m, degree + 1, 2):
            coeffs = _radial_coeffs(n, m)
            radial = a[:, column[(n, m)]]
            radial.fill(coeffs[-1])
            for c in reversed(coeffs[:-1]):
                radial *= u
                radial += c
            if m:
                radial *= rho_m
                np.multiply(radial, sin_m, out=a[:, column[(n, -m)]])
                radial *= cos_m
    return a, index


# condition number of the unit-diagonal Gram matrix, cond(A)^2, beyond
# which the terms count as dependent on the mask: a Cholesky solve there
# keeps fewer than four significant digits
_MAX_GRAM_CONDITION = 1e12


def zernike_fit(phase_map: PhaseMap, degree: int = _DEFAULT_DEGREE) -> ZernikeExpansion:
    """Least-squares Zernike fit of the valid pixels.

    All (n, m) with n <= degree are fitted simultaneously. The valid-pixel
    count must comfortably exceed the number of terms. The fit solves the
    normal equations by Cholesky after scaling the Gram matrix to a unit
    diagonal. A mask on which the terms are (nearly) linearly dependent,
    such as a thin ring, raises DomainError rather than returning one of
    many equally good coefficient sets.
    """
    if degree < 0:
        raise DomainError("degree must be >= 0")
    rho, phi = phase_map.grid_polar()
    sel = phase_map.mask & (rho <= 1.0)
    nterms = (degree + 1) * (degree + 2) // 2
    if sel.sum() < 2 * nterms:
        raise DomainError(
            f"only {int(sel.sum())} valid pixels for {nterms} terms; mask too small"
        )
    rr = rho[sel]
    a, index = _design_matrix(rr, phi[sel], degree)
    gram = a.T @ a
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = 1.0 / np.sqrt(np.diag(gram))
        gram *= np.outer(scale, scale)
    annulus = (float(rr.min()), float(rr.max()))
    singular = DomainError(
        f"degree-{degree} Zernike terms are not independent on the mask "
        f"({int(sel.sum())} pixels, rho {annulus[0]:.4f} to {annulus[1]:.4f})"
    )
    if not np.all(np.isfinite(gram)) or np.linalg.cond(gram) > _MAX_GRAM_CONDITION:
        raise singular
    try:
        lower = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise singular from exc

    def solve(y):
        return scale * np.linalg.solve(lower.T, np.linalg.solve(lower, scale * (a.T @ y)))

    # one refinement step on the residual brings the error from cond(a)^2
    # down to about cond(a) times the rounding of the data
    values = phase_map.values[sel]
    coef = solve(values)
    coef += solve(values - a @ coef)
    terms = tuple((n, m, float(c)) for (n, m), c in zip(index, coef))
    return ZernikeExpansion(terms=terms, wavelength_nm=phase_map.wavelength_nm, annulus=annulus)


def remove_misalignment(expansion: ZernikeExpansion, terms=MISALIGNMENT_TERMS) -> ZernikeExpansion:
    """Zero the alignment terms (piston, tip, tilt, defocus by default)."""
    drop = set(terms)
    return ZernikeExpansion(
        tuple((n, m, 0.0 if (n, m) in drop else v) for n, m, v in expansion.terms),
        expansion.wavelength_nm,
        expansion.annulus,
    )


def _expansion_sample_grid(annulus, n_rho=512, n_phi=1024):
    inner, outer = annulus
    rho = np.linspace(inner, outer, n_rho)
    phi = np.arange(n_phi) * 2.0 * math.pi / n_phi
    return np.meshgrid(rho, phi, indexing="ij", sparse=True)


def _expansion_moments(expansion, annulus):
    # area-weighted mean and mean square over the annulus, exact for the
    # polynomial basis: Gauss-Legendre in u = rho^2 (the azimuthal average
    # leaves only integer powers of u), uniform trapezoid in phi
    inner, outer = annulus
    degree = max((n for n, _, _ in expansion.terms), default=0)
    u, wu = np.polynomial.legendre.leggauss(max(degree + 1, 4))
    lo, hi = inner**2, outer**2
    u = 0.5 * (hi - lo) * u + 0.5 * (hi + lo)
    wu = 0.5 * (hi - lo) * wu
    n_phi = max(4 * degree + 4, 16)
    phi = np.arange(n_phi) * 2.0 * math.pi / n_phi
    rr, pp = np.meshgrid(np.sqrt(u), phi, indexing="ij")
    vals = zernike_eval(expansion, rr, pp)
    w = wu[:, None] / n_phi  # du/2 * dphi/(2 pi), normalized measure
    mean = float(np.sum(vals * w)) / (hi - lo)
    meansq = float(np.sum(vals**2 * w)) / (hi - lo)
    return mean, meansq


def pv_rms(obj, annulus: tuple | None = None) -> tuple[float, float]:
    """Peak-to-valley and RMS (about the mean) of a wavefront, in waves.

    Accepts a PhaseMap (statistics over the mask) or a ZernikeExpansion.
    For expansions the RMS quadrature is exact for the polynomial basis;
    the PV comes from a dense polar sampling that includes the annulus
    boundaries, where the extremes of low-order modes sit.
    """
    if isinstance(obj, PhaseMap):
        vals = obj.values[obj.mask]
        if vals.size == 0:
            raise DomainError("empty mask")
        return float(vals.max() - vals.min()), float(vals.std())
    if isinstance(obj, ZernikeExpansion):
        ann = annulus if annulus is not None else (obj.annulus or (0.0, 1.0))
        rho, phi = _expansion_sample_grid(ann)
        vals = zernike_eval(obj, rho, phi)
        pv = float(vals.max() - vals.min())
        mean, meansq = _expansion_moments(obj, ann)
        rms = math.sqrt(max(meansq - mean**2, 0.0))
        return pv, rms
    raise DomainError(f"cannot compute PV/RMS of {type(obj).__name__}")


def _scale_phase(obj, factor: float, wavelength_nm: float | None = None):
    if isinstance(obj, ZernikeExpansion):
        return obj.scaled(factor, wavelength_nm)
    if isinstance(obj, PhaseMap):
        wl = obj.wavelength_nm if wavelength_nm is None else wavelength_nm
        return PhaseMap(values=obj.values * factor, mask=obj.mask, wavelength_nm=wl)
    raise DomainError(f"cannot scale {type(obj).__name__}")


def make_phase_plate(aberration):
    """Phase profile a plate must imprint to cancel an aberration."""
    return _scale_phase(aberration, -1.0)


def single_pass(measured):
    """Halve a double-pass interferometer measurement."""
    return _scale_phase(measured, 0.5)


_SELLMEIER_KEYS = ("b1", "b2", "b3", "c1_um2", "c2_um2", "c3_um2")


@dataclass(frozen=True)
class SellmeierModel:
    """Three-term Sellmeier dispersion n^2 - 1 = sum b_i L^2/(L^2 - c_i).

    L is the wavelength in micrometers; c_i are in um^2. Evaluation outside
    [lambda_min_nm, lambda_max_nm] is a domain error.
    """

    b: tuple
    c_um2: tuple
    lambda_min_nm: float
    lambda_max_nm: float
    source: str

    def index(self, wavelength_nm: float) -> float:
        if not self.lambda_min_nm <= wavelength_nm <= self.lambda_max_nm:
            raise DomainError(
                f"{wavelength_nm} nm outside dispersion model validity "
                f"[{self.lambda_min_nm}, {self.lambda_max_nm}] nm"
            )
        l2 = (wavelength_nm / 1000.0) ** 2
        acc = 1.0
        for bi, ci in zip(self.b, self.c_um2):
            acc += bi * l2 / (l2 - ci)
        return math.sqrt(acc)

    @classmethod
    def from_file(cls, path) -> "SellmeierModel":
        """Read a key=value Sellmeier file; requires a '# source:' header."""
        text = Path(path).read_text()
        source = None
        fields = {}
        for raw in text.splitlines():
            line = raw.strip()
            if line.startswith("#"):
                m = re.match(r"#\s*source:\s*(.+)", line)
                if m:
                    source = m.group(1).strip()
                continue
            if not line:
                continue
            key, _, val = line.partition("=")
            fields[key.strip()] = float(val)
        if not source:
            raise ProvenanceError(f"{path}: no '# source:' line; refusing unattributed data")
        missing = [k for k in _SELLMEIER_KEYS + ("lambda_min_nm", "lambda_max_nm") if k not in fields]
        if missing:
            raise DomainError(f"{path}: missing keys {missing}")
        return cls(
            b=(fields["b1"], fields["b2"], fields["b3"]),
            c_um2=(fields["c1_um2"], fields["c2_um2"], fields["c3_um2"]),
            lambda_min_nm=fields["lambda_min_nm"],
            lambda_max_nm=fields["lambda_max_nm"],
            source=source,
        )


def fused_silica() -> SellmeierModel:
    """Sellmeier model for fused silica from the shipped data table."""
    with resources.as_file(resources.files("dipolemirror.data") / "fused_silica_sellmeier.txt") as p:
        return SellmeierModel.from_file(p)


def rescale_wavelength(plate, target_nm: float, model: SellmeierModel):
    """Residual wavefront of a compensated system at another wavelength.

    ``plate`` is the phase profile (waves) the plate imprints at its design
    wavelength, assumed to exactly cancel an achromatic-OPD aberration
    there. Returns the residual wavefront of plate plus aberration at
    ``target_nm``, in waves at ``target_nm``: the plate OPD scales with
    n(lambda) - 1 while the aberration OPD is fixed, leaving

        residual = plate * (l0/l1) * ((n(l1)-1)/(n(l0)-1) - 1).
    """
    if isinstance(plate, ZernikeExpansion):
        l0 = plate.wavelength_nm
    elif isinstance(plate, PhaseMap):
        l0 = plate.wavelength_nm
    else:
        raise DomainError(f"cannot rescale {type(plate).__name__}")
    n0 = model.index(l0)
    n1 = model.index(target_nm)
    factor = (l0 / target_nm) * ((n1 - 1.0) / (n0 - 1.0) - 1.0)
    return _scale_phase(plate, factor, wavelength_nm=target_nm)


def save_expansion(expansion: ZernikeExpansion, path):
    lines = [
        "# Zernike expansion: n m value_waves",
        f"# wavelength_nm: {expansion.wavelength_nm}",
    ]
    if expansion.annulus is not None:
        lines.append(f"# annulus: {expansion.annulus[0]} {expansion.annulus[1]}")
    lines += [f"{n} {m} {v:.12e}" for n, m, v in expansion.terms]
    Path(path).write_text("\n".join(lines) + "\n")


def load_expansion(path) -> ZernikeExpansion:
    header, rows = read_table(path, "n m value")
    if "wavelength_nm" not in header:
        raise DomainError(f"{path}: missing '# wavelength_nm:' header")
    annulus = tuple(float(v) for v in header["annulus"].split()) if "annulus" in header else None
    return ZernikeExpansion(terms=tuple((int(n), int(m), float(v)) for n, m, v in rows),
                            wavelength_nm=float(header["wavelength_nm"]), annulus=annulus)


def save_phase_map(phase_map: PhaseMap, path):
    values = np.where(phase_map.mask, phase_map.values, np.nan)
    write_grid(path, values, {"wavelength_nm": phase_map.wavelength_nm, "kind": "phase_waves"})


def load_phase_map(path) -> PhaseMap:
    values, header = read_grid(path)
    if "wavelength_nm" not in header:
        raise DomainError(f"{path}: header lacks wavelength_nm")
    mask = np.isfinite(values)
    return PhaseMap(values=np.where(mask, values, np.nan), mask=mask,
                    wavelength_nm=float(header["wavelength_nm"]))
