"""Command-line front end assembling the toolkit into coupling reports.

Each subcommand maps onto one module operation: ``solid-angle`` and
``optimize-waist`` onto geometry and mode optimization, ``overlap`` onto
the spatial overlap, ``stokes`` onto the polarimetric pipeline,
``zernike`` onto wavefront fitting and phase-plate design, ``strehl``
onto the focal-field Strehl evaluation, ``pulse`` onto the temporal
model, and ``report`` onto the assembled coupling figures.

The layers are bound as modules and called as ``modes.optimize_waist``,
``focalfield.strehl`` and so on. The package registers them lazily, so a
subcommand loads only the layers it runs: ``solid-angle`` loads
``geometry``, and ``pulse`` loads ``temporal`` and ``gridio``.

Two results are computed once per process and then reused: the
unweighted optimal waist of an aperture, and the overlap eta_t (with its
shift) of the modeled pulse of a transition and its [pulse] settings.
That is sound because each is a function of configuration values only,
never of a mirror figure or an input file, and it is keyed on all of
them. So a process that runs many reports, one figure each, pays for the
waist and the pulse once; ``pulse`` itself still models and exports the
whole pulse on every call.

Configuration is a line-oriented key=value file with [section] headers;
built-in defaults fill the rest, so commands that only need the default
mirror run without any config. The one flag that changes a figure,
``stokes --rectify``, sets no config value, so the config digest does
not cover it.

Reports are deterministic: identical configuration and inputs give
byte-identical output. Every report carries the toolkit version, a sha256
digest of the canonicalized configuration, and a provenance string per
factor saying whether it was supplied or computed. There are no
timestamps. Each subcommand returns its title, body lines, machine-readable
values and file name; one emitter adds the shared header and machine
block, prints the report and mirrors it into --out.

Exit codes, which ``main`` picks by the error's class: 0 success; 2
configuration problems, missing factors, or values that fail validation,
in a file or not; 3 missing or malformed files; 4 non-convergence.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import hashlib
import math
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path

from . import __version__, focalfield, geometry, gridio, modes, polarimetry, temporal, wavefront
from .errors import (
    ConfigError,
    ConvergenceError,
    CoverageError,
    DeterminacyError,
    DomainError,
    FormatError,
    UndefinedOverlapError,
)

# Published factor sets reproduced for comparison in reports. When a report's
# factors match a row, the reference absorption probability is quoted next to
# the recomputed one instead of being silently substituted.
_PUBLISHED_ROWS = (
    {"factors": (0.94, 0.979, 0.99, 0.96), "p_a": 0.812},
    {"factors": (0.94, 0.975, 0.99, 0.99), "p_a": 0.867},
)
_NOTE_THRESHOLD = 0.005

_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}

_CONFIG_ERRORS = (
    ConfigError,
    DomainError,
    DeterminacyError,
    CoverageError,
    UndefinedOverlapError,
)


@dataclass(frozen=True)
class ToolkitConfig:
    """Parsed configuration: sections of key=value strings plus a digest."""

    sections: dict

    @classmethod
    def load(cls, path) -> "ToolkitConfig":
        parser = configparser.ConfigParser(interpolation=None)
        try:
            parser.read_string(Path(path).read_text(encoding="utf-8"), source=str(path))
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start})") from exc
        except configparser.Error as exc:
            raise ConfigError(f"{path}: {exc}") from exc
        sections = {s: dict(parser.items(s)) for s in parser.sections()}
        return cls(sections=sections)

    @classmethod
    def empty(cls) -> "ToolkitConfig":
        return cls(sections={})

    def get(self, section: str, key: str, default=None) -> str | None:
        return self.sections.get(section, {}).get(key, default)

    def _parsed(self, section: str, key: str, default, parse, kind: str):
        raw = self.get(section, key)
        if raw is None:
            return default
        try:
            value = parse(raw)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(raw)
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"[{section}] {key} = {raw!r} is not {kind}") from exc
        return value

    def get_float(self, section: str, key: str, default: float | None = None):
        return self._parsed(section, key, default, float, "a finite number")

    def get_int(self, section: str, key: str, default: int | None = None):
        return self._parsed(section, key, default, int, "an integer")

    def get_bool(self, section: str, key: str, default: bool = False) -> bool:
        return self._parsed(section, key, default,
                            lambda raw: _BOOLEANS[raw.strip().lower()], "a boolean")

    def digest(self) -> str:
        lines = sorted(
            f"{section}.{key}={value}"
            for section, pairs in self.sections.items()
            for key, value in pairs.items()
        )
        return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()

    def aperture(self) -> geometry.ApertureSpec:
        return geometry.ApertureSpec(
            focal_length_mm=self.get_float("aperture", "focal_length_mm", 2.1),
            outer_radius_mm=self.get_float("aperture", "outer_radius_mm", 10.0),
            bore_radius_mm=self.get_float("aperture", "bore_radius_mm", 0.75),
        )

    def transition(self) -> temporal.TransitionSpec:
        label = self.get("transition", "label", "T1")
        base = {spec.label: spec for spec in (temporal.T1, temporal.T2)}.get(label)
        wavelength = self.get_float(
            "transition", "wavelength_nm", base.wavelength_nm if base else None
        )
        lifetime = self.get_float(
            "transition", "lifetime_ns", base.lifetime_ns if base else None
        )
        if wavelength is None or lifetime is None:
            raise ConfigError(
                f"transition {label!r} is not a preset; "
                "set [transition] wavelength_nm and lifetime_ns"
            )
        return temporal.TransitionSpec(label, wavelength, lifetime)


def _read_input(label: str, loader):
    """Run a file loader; an error it raises names the file.

    A toolkit error keeps its class, so a refused value exits as it would
    anywhere else. Python's own parse errors (``int()``, ``float()``,
    ``json``, numpy) say that the text does not follow its format: they
    become a FormatError.
    """
    try:
        return loader()
    except (OSError, ValueError) as exc:
        message = str(exc)
        if not message.startswith(str(label)):
            message = f"{label}: {message}"
        if type(exc).__module__ == FormatError.__module__:  # a toolkit error
            exc.args = (message,)
            raise
        raise (OSError if isinstance(exc, OSError) else FormatError)(message) from exc


def _out_dir(args) -> Path | None:
    if args.out is None:
        return None
    path = Path(args.out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _emit(args, config: ToolkitConfig, title: str, body: list, machine: dict,
          filename: str):
    """Print a report and mirror it byte-identically into --out.

    Adds the title and version line, the config digest, the
    ``# machine-readable`` marker and the ``report.*`` keys; the machine
    block is sorted by key.
    """
    digest = f"sha256:{config.digest()}"
    machine = {**machine, "report.version": __version__, "report.digest": digest}
    lines = [
        f"{title} (dipolemirror {__version__})",
        f"config digest: {digest}",
        "",
        *body,
        "",
        "# machine-readable",
        *(f"{key} = {value}" for key, value in sorted(machine.items())),
    ]
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    out = _out_dir(args)
    if out is not None:
        (out / filename).write_text(text)


def _fmt(value: float) -> str:
    return f"{value:.10g}"


# ------------------------------------------------- once-per-process results
#
# Bounded, filled on first use, and holding two floats per entry: a pulse
# of millions of bins pins no memory. A refused input raises and is not
# kept, so it is refused again on every call.


@functools.lru_cache(maxsize=16)
def _optimal_waist(aperture: geometry.ApertureSpec) -> modes.WaistOptimum:
    """The unweighted optimal doughnut waist of an aperture."""
    return modes.optimize_waist(aperture)


@functools.lru_cache(maxsize=16)
def _pulse_overlap(transition: temporal.TransitionSpec, duration_ns: float,
                   bin_width_ns: float, buildup_ns: float) -> temporal.TemporalOverlapResult:
    """eta_t and the shift of the modeled pulse; ``pulse`` exports the whole pulse."""
    return _model_pulse(transition, duration_ns, bin_width_ns, buildup_ns).overlap


# ---------------------------------------------------------------- factors


@dataclass(frozen=True)
class _Factor:
    name: str
    value: float
    provenance: str


def _resolve_factor(name: str, config: ToolkitConfig, aperture: geometry.ApertureSpec) -> _Factor:
    """A coupling factor from the [report] section: a number or 'compute'."""
    raw = config.get("report", name)
    if raw is None:
        if name == "omega_fraction" or name == "eta":
            raw = "compute"
        elif name == "branching":
            return _Factor(name, 1.0, "default (single return channel)")
        else:
            return _Factor(name, 1.0, "default (ideal)")
    raw = raw.strip()
    if raw.lower() != "compute":
        try:
            value = float(raw)
        except ValueError as exc:
            raise ConfigError(f"missing factor {name}: [report] {name} = {raw!r} "
                              "is neither a number nor 'compute'") from exc
        return _Factor(name, value, f"config [report] {name}")

    if name == "omega_fraction":
        value = geometry.weighted_fraction(aperture.angle_interval())
        return _Factor(name, value, "computed: dipole-weighted solid angle of the mirror annulus")
    if name == "eta":
        opt = _optimal_waist(aperture)
        return _Factor(name, opt.eta,
                       f"computed: optimal doughnut waist w = {opt.waist:.6f} f")
    if name == "strehl":
        result = _strehl_from_config(config, aperture)
        if result is None:
            raise ConfigError("missing factor strehl: 'compute' needs a [strehl] section")
        return _Factor(name, result.ratio, "computed: on-axis E_z Strehl of [strehl] inputs")
    if name == "eta_t":
        if "pulse" not in config.sections:
            raise ConfigError(
                "missing factor eta_t: 'compute' needs a [pulse] section"
            )
        eta_t = _pulse_overlap(*_pulse_settings(config)).eta_t
        return _Factor(name, eta_t, "computed: modeled pulse overlap from [pulse] inputs")
    if name == "branching":
        raise ConfigError("missing factor branching: must be a number")
    raise ConfigError(f"unknown factor {name}")


# ------------------------------------------------------------- subcommands


def cmd_solid_angle(args, config: ToolkitConfig):
    aperture = config.aperture()
    annulus = aperture.angle_interval()
    full = aperture.angle_interval(include_bore=True)
    frac_annulus = geometry.weighted_fraction(annulus)
    frac_full = geometry.weighted_fraction(full)
    body = [
        f"  aperture: f = {aperture.focal_length_mm} mm, rim {aperture.outer_radius_mm} mm, "
        f"bore {aperture.bore_radius_mm} mm",
        f"  polar interval: {math.degrees(annulus.theta_min):.2f} to "
        f"{math.degrees(annulus.theta_max):.2f} deg",
        "",
        f"  weighted fraction (annulus)      = {frac_annulus:.5f}",
        f"  weighted fraction (bore filled)  = {frac_full:.5f}",
        f"  bore cost                        = {frac_full - frac_annulus:.5f}",
    ]
    machine = {
        "solid_angle.fraction": _fmt(frac_annulus),
        "solid_angle.fraction_bore_filled": _fmt(frac_full),
        "solid_angle.bore_cost": _fmt(frac_full - frac_annulus),
        "solid_angle.omega_sr": _fmt(geometry.weighted_solid_angle(annulus)),
    }
    return "dipole-weighted solid angle", body, machine, "solid_angle.txt"


def cmd_optimize_waist(args, config: ToolkitConfig):
    aperture = config.aperture()
    reflectivity = _reflectivity_from_config(config)
    if reflectivity is not None:
        wavelength, constants = reflectivity
        plain = _optimal_waist(aperture)
        weight = focalfield.reflectivity_weight(wavelength, constants)
        opt = modes.optimize_waist(aperture, weight=weight)
        delta_eta = opt.eta - plain.eta
        extra = {
            "waist.eta_unweighted": _fmt(plain.eta),
            "waist.waist_unweighted": _fmt(plain.waist),
            "waist.delta_eta": _fmt(delta_eta),
        }
        body = [
            f"  optimal waist (reflectivity weighted at {wavelength} nm)",
            f"  w_opt = {opt.waist:.6f} f",
            f"  eta   = {opt.eta:.6f}",
            f"  unweighted: w_opt = {plain.waist:.6f} f, eta = {plain.eta:.6f}",
            f"  delta eta = {delta_eta:+.6f}",
        ]
    else:
        opt = _optimal_waist(aperture)
        extra = {}
        body = [
            f"  w_opt = {opt.waist:.6f} f",
            f"  eta   = {opt.eta:.6f}",
            f"  eta^2 = {opt.eta**2:.6f}",
        ]
    machine = {"waist.w_opt": _fmt(opt.waist), "waist.eta": _fmt(opt.eta), **extra}
    return "doughnut waist optimization", body, machine, "optimize_waist.txt"


def _mode_from_config(config: ToolkitConfig, aperture: geometry.ApertureSpec):
    mode_file = config.get("overlap", "mode_file")
    if mode_file is not None:
        mode = _read_input(mode_file, lambda: modes.load_sampled_mode(mode_file))
        return mode, f"sampled mode from {mode_file}"
    waist = config.get_float("overlap", "waist")
    if waist is None:
        opt = _optimal_waist(aperture)
        return modes.RadialMode.doughnut(opt.waist), f"optimal doughnut w = {opt.waist:.6f} f"
    return modes.RadialMode.doughnut(waist), f"doughnut w = {waist} f"


def _constants_from_config(config: ToolkitConfig):
    path = config.get("optics", "constants_file")
    if path is None:
        return focalfield.aluminum()
    return _read_input(path, lambda: focalfield.OpticalConstants.from_file(path))


def _reflectivity_from_config(config: ToolkitConfig):
    """(wavelength_nm, constants) of the |r_p| weighting; None unless [overlap] weighted."""
    if not config.get_bool("overlap", "weighted", False):
        return None
    return config.get_float("overlap", "wavelength_nm", 369.5), _constants_from_config(config)


def cmd_overlap(args, config: ToolkitConfig):
    aperture = config.aperture()
    mode, provenance = _mode_from_config(config, aperture)
    reflectivity = _reflectivity_from_config(config)
    if reflectivity is not None:
        wavelength, constants = reflectivity
        # a constant reflectivity would cancel in the normalization
        mode = modes.WeightedMode(mode, focalfield.reflectivity_weight(wavelength, constants))
        provenance += f", |r_p| weighted at {wavelength} nm"
    eta = modes.spatial_overlap(mode, modes.RadialMode.dipole(), aperture)
    body = [
        f"  mode:  {provenance}",
        f"  eta   = {eta:.6f}",
        f"  eta^2 = {eta**2:.6f}",
    ]
    machine = {"overlap.eta": _fmt(eta), "overlap.eta_squared": _fmt(eta**2)}
    return "spatial overlap with the dipole mode", body, machine, "overlap.txt"


def cmd_stokes(args, config: ToolkitConfig):
    aperture = config.aperture()
    manifest = config.get("stokes", "manifest")
    if manifest is None:
        raise ConfigError("[stokes] manifest is required")
    stokes, n_frames = _read_input(manifest, lambda: polarimetry.load_stokes(manifest))
    noise_floor = config.get_float("stokes", "noise_floor", 0.01)
    trim = config.get_float("stokes", "trim_outer", 0.0)
    frame_info = f"{n_frames} at {stokes.s0.shape[0]}x{stokes.s0.shape[1]} px"
    scan = polarimetry.scan_annulus(stokes, aperture, noise_floor, trim)
    # every refusal is made by now, so a refused run makes no --out directory
    out = _out_dir(args)
    scored = polarimetry.score_annulus(scan, None if out is None else out / "stokes")
    body = [
        f"  frames: {frame_info}, manifest {manifest}",
        f"  annulus coverage: {scored.coverage:.4f} ({scored.n_pixels} px), outer trim {trim}",
        f"  scoring: {'rectified |projection|' if args.rectify else 'measured orientation'}",
        "",
        f"  eta (measured orientation)   = {scored.eta:.6f}",
        f"  eta (rectified |projection|) = {scored.eta_rectified:.6f}",
    ]
    machine = {
        "stokes.eta": _fmt(scored.eta_rectified if args.rectify else scored.eta),
        "stokes.eta_plain": _fmt(scored.eta),
        "stokes.eta_rectified": _fmt(scored.eta_rectified),
        "stokes.coverage": _fmt(scored.coverage),
        "stokes.pixels": str(scored.n_pixels),
    }
    return "imaging polarimetry", body, machine, "stokes.txt"


def cmd_zernike(args, config: ToolkitConfig):
    map_file = config.get("zernike", "map_file")
    if map_file is None:
        raise ConfigError("[zernike] map_file is required")
    phase_map = _read_input(map_file, lambda: wavefront.load_phase_map(map_file))
    degree = config.get_int("zernike", "degree", 10)
    halve = config.get_bool("zernike", "double_pass", False)
    fit = wavefront.zernike_fit(phase_map, degree)
    if halve:
        fit = wavefront.single_pass(fit)
    pv_fit, rms_fit = wavefront.pv_rms(fit)
    drop_misalignment = config.get_bool("zernike", "remove_misalignment", True)
    cleaned = wavefront.remove_misalignment(fit) if drop_misalignment else fit
    pv_cln, rms_cln = wavefront.pv_rms(cleaned)
    plate = wavefront.make_phase_plate(cleaned)
    out = _out_dir(args)
    if out is not None:
        wavefront.save_expansion(fit, out / "zernike_fit.txt")
        wavefront.save_expansion(cleaned, out / "zernike_figure.txt")
        wavefront.save_expansion(plate, out / "phase_plate.txt")
    body = [
        f"  map: {map_file} at {phase_map.wavelength_nm} nm"
        + (" (double pass halved)" if halve else ""),
        f"  fit degree {degree}: PV = {pv_fit:.4f}, RMS = {rms_fit:.4f} waves",
        f"  figure error{' (misalignment removed)' if drop_misalignment else ''}: "
        f"PV = {pv_cln:.4f}, RMS = {rms_cln:.4f} waves",
    ]
    machine = {
        "zernike.pv_fit": _fmt(pv_fit),
        "zernike.rms_fit": _fmt(rms_fit),
        "zernike.pv_figure": _fmt(pv_cln),
        "zernike.rms_figure": _fmt(rms_cln),
        "zernike.degree": str(degree),
    }
    return "wavefront fit", body, machine, "zernike.txt"


def _strehl_from_config(config: ToolkitConfig, aperture: geometry.ApertureSpec):
    """Strehl result from the [strehl] section, or None without inputs.

    The mode is the doughnut of the waist key, or the optimal one without
    it; strehl sums it on its own nodes.
    """
    section = config.sections.get("strehl")
    if section is None:
        return None
    zfile = config.get("strehl", "zernike_file")
    aberration = None
    if zfile is not None:
        aberration = _read_input(zfile, lambda: wavefront.load_expansion(zfile))
    evaluate_nm = config.get_float("strehl", "evaluate_nm")
    if evaluate_nm is not None and evaluate_nm <= 0.0:
        raise ConfigError(f"[strehl] evaluate_nm = {evaluate_nm:g} is not a positive wavelength")
    if aberration is not None and evaluate_nm is not None \
            and evaluate_nm != aberration.wavelength_nm:
        if config.get_bool("strehl", "compensate", True):
            plate = wavefront.make_phase_plate(aberration)
            aberration = wavefront.rescale_wavelength(plate, evaluate_nm, wavefront.fused_silica())
        else:
            factor = aberration.wavelength_nm / evaluate_nm
            aberration = aberration.scaled(factor, evaluate_nm)
    waist = config.get_float("strehl", "waist")
    if waist is None:
        waist = _optimal_waist(aperture).waist
    mode = modes.RadialMode.doughnut(waist)
    coating = None
    if config.get_bool("strehl", "aluminum_phase", False):
        wl = evaluate_nm
        if wl is None and aberration is not None:
            wl = aberration.wavelength_nm
        if wl is None:
            raise ConfigError("[strehl] aluminum_phase needs evaluate_nm")
        coating = (wl, _constants_from_config(config))
    return focalfield.strehl(mode, aperture, aberration, coating)


def cmd_strehl(args, config: ToolkitConfig):
    aperture = config.aperture()
    result = _strehl_from_config(config, aperture)
    if result is None:
        raise ConfigError("a [strehl] section is required")
    # the offset prints to 1e-6 lambda; below that it is 0, never -0
    offset = round(result.peak_offset_lambda, 6) + 0.0
    body = [
        f"  Strehl (axial maximum)  = {result.ratio:.6f}",
        f"  Strehl (nominal focus)  = {result.nominal:.6f}",
        f"  axial peak offset       = {offset:+.4f} lambda",
        f"  weighted aberration RMS = {result.rms_waves:.6f} waves",
        f"  quadrature              = {result.n_theta} x {result.n_phi}",
    ]
    machine = {
        "strehl.ratio": _fmt(result.ratio),
        "strehl.nominal": _fmt(result.nominal),
        "strehl.peak_offset_lambda": _fmt(offset),
        "strehl.rms_waves": _fmt(result.rms_waves),
    }
    return "focal-field Strehl ratio", body, machine, "strehl.txt"


@dataclass(frozen=True)
class _Pulse:
    """The modeled excitation pulse of the [transition] and [pulse] sections."""

    transition: temporal.TransitionSpec
    buildup_ns: float
    drive: temporal.DriveWaveform
    envelope: temporal.PulseEnvelope
    overlap: temporal.TemporalOverlapResult


def _pulse_settings(config: ToolkitConfig) -> tuple:
    """(transition, duration_ns, bin_width_ns, buildup_ns) of the modeled pulse."""
    transition = config.transition()
    duration = config.get_float("pulse", "duration_lifetimes", 5.0)
    default_bin = min(0.02, transition.lifetime_ns / 2000.0)
    bin_width = config.get_float("pulse", "bin_width_ns", default_bin)
    buildup = config.get_float("pulse", "buildup_ns", 5.0)
    return transition, duration * transition.lifetime_ns, bin_width, buildup


def _model_pulse(transition: temporal.TransitionSpec, duration_ns: float,
                 bin_width_ns: float, buildup_ns: float) -> _Pulse:
    drive = temporal.aom_drive(transition, duration_ns, bin_width_ns)
    envelope = temporal.aom_response(drive.field_envelope(), buildup_ns)
    overlap = temporal.temporal_overlap(envelope, transition)
    return _Pulse(transition, buildup_ns, drive, envelope, overlap)


def cmd_pulse(args, config: ToolkitConfig):
    pulse = _model_pulse(*_pulse_settings(config))
    transition, overlap = pulse.transition, pulse.overlap
    out = _out_dir(args)
    if out is not None:
        gridio.write_table(out / "aom_drive.txt", "AOM drive envelope: t_ns U0_rad",
                           pulse.drive.times_ns, pulse.drive.u0_rad)
        gridio.write_table(out / "envelope.txt",
                           "modeled post-modulator field envelope: t_ns amplitude",
                           pulse.envelope.times(), pulse.envelope.samples)
    body = [
        f"  transition: {transition.label} ({transition.wavelength_nm} nm, "
        f"lifetime {transition.lifetime_ns} ns)",
        f"  modulator build-up: {pulse.buildup_ns} ns",
        "",
        f"  eta_t   = {overlap.eta_t:.6f}",
        f"  eta_t^2 = {overlap.eta_t**2:.6f}",
        f"  optimal shift = {overlap.shift_ns:+.4f} ns",
    ]
    machine = {
        "pulse.eta_t": _fmt(overlap.eta_t),
        "pulse.eta_t_squared": _fmt(overlap.eta_t**2),
        "pulse.shift_ns": _fmt(overlap.shift_ns),
        "pulse.transition": transition.label,
    }
    return "pulse shaping", body, machine, "pulse.txt"


def cmd_report(args, config: ToolkitConfig):
    aperture = config.aperture()
    transition = config.transition()
    factors = {
        name: _resolve_factor(name, config, aperture)
        for name in ("omega_fraction", "eta", "strehl", "eta_t", "branching")
    }
    figures = modes.CouplingFigures(**{name: f.value for name, f in factors.items()})
    note = None
    matched = None
    probe = (figures.omega_fraction, figures.eta, figures.strehl, figures.eta_t)
    for row in _PUBLISHED_ROWS:
        if all(abs(a - b) < 5e-4 for a, b in zip(probe, row["factors"])) \
                and abs(figures.branching - 1.0) < 5e-4 \
                and abs(figures.p_absorb - row["p_a"]) > _NOTE_THRESHOLD:
            matched = row
            note = (
                f"note: a published reference lists P_a = {row['p_a']:.3f} for this "
                f"factor set; the product of the factors above gives "
                f"{figures.p_absorb:.3f}."
            )
            break
    body = [
        f"  transition: {transition.label} ({transition.wavelength_nm} nm, "
        f"lifetime {transition.lifetime_ns} ns)",
        "",
        "  factor           value      source",
    ]
    for name in ("omega_fraction", "eta", "strehl", "eta_t", "branching"):
        f = factors[name]
        body.append(f"  {name:<15}  {f.value:<9.5f}  {f.provenance}")
    body += [
        "",
        f"  G   = omega_fraction * eta^2 * strehl  = {figures.g:.5f}",
        f"  P_a = G * eta_t^2 * branching          = {figures.p_absorb:.5f}",
    ]
    if note is not None:
        body += ["", note]
    machine = {
        "factor.omega_fraction": _fmt(figures.omega_fraction),
        "factor.eta": _fmt(figures.eta),
        "factor.strehl": _fmt(figures.strehl),
        "factor.eta_t": _fmt(figures.eta_t),
        "factor.branching": _fmt(figures.branching),
        "result.g": _fmt(figures.g),
        "result.p_a": _fmt(figures.p_absorb),
        "report.transition": transition.label,
    }
    for name, f in factors.items():
        machine[f"provenance.{name}"] = f.provenance
    if matched is not None:
        machine["note.published_p_a"] = _fmt(matched["p_a"])
    return "coupling report", body, machine, "report.txt"


# -------------------------------------------------------------- entry point


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process; each call of main parses its own argv
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="key=value config file")
    common.add_argument("--out", metavar="DIR", help="directory for output files")
    common.add_argument("--verbose", action="store_true", help="chattier stderr")

    parser = argparse.ArgumentParser(
        prog="dipolemirror",
        description="mode design and scoring for free-space dipole coupling",
    )
    parser.add_argument("--version", action="version", version=f"dipolemirror {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text in (
        ("report", cmd_report, "assemble coupling strength and absorption probability"),
        ("stokes", cmd_stokes, "reduce polarimeter frames to Stokes maps and eta"),
        ("overlap", cmd_overlap, "spatial overlap of a mode with the dipole wave"),
        ("optimize-waist", cmd_optimize_waist, "find the doughnut waist maximizing eta"),
        ("zernike", cmd_zernike, "fit a phase map and design the phase plate"),
        ("strehl", cmd_strehl, "evaluate the focal-field Strehl ratio"),
        ("pulse", cmd_pulse, "model the shaped excitation pulse and eta_t"),
        ("solid-angle", cmd_solid_angle, "dipole-weighted solid angle of the mirror"),
    ):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.set_defaults(func=func)
    stokes = sub.choices["stokes"]
    stokes.add_argument("--rectify", action="store_true",
                        help="score |projection| as a segmented corrector would")
    return parser


def _fail(args, exc, code: int) -> int:
    if getattr(args, "verbose", False):
        traceback.print_exc(file=sys.stderr)
    print(f"error: {exc}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.verbose:
        print(f"dipolemirror {__version__}: {args.command}", file=sys.stderr)
    try:
        config = ToolkitConfig.empty() if args.config is None else ToolkitConfig.load(args.config)
        _emit(args, config, *args.func(args, config))
    except _CONFIG_ERRORS as exc:
        return _fail(args, exc, 2)
    except (FormatError, OSError) as exc:
        return _fail(args, exc, 3)
    except ConvergenceError as exc:
        return _fail(args, exc, 4)
    return 0


if __name__ == "__main__":
    sys.exit(main())
