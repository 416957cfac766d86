"""Optical-mode design and scoring for free-space coupling of light to a
single atomic dipole through a deep parabolic mirror.

The subpackages split along the experiment's own seams: mirror geometry
and solid angle (``geometry``), entrance-plane mode profiles and overlap
(``modes``), imaging Stokes polarimetry (``polarimetry``), Zernike
wavefront analysis and phase-plate design (``wavefront``), vectorial
focal fields and metal-mirror effects (``focalfield``), pulse shaping in
time (``temporal``), and the command-line assembly of coupling reports
(``cli``). The bracketed maximum search behind the optimal waist and the
axial Strehl focus lives in ``search``.

Every module but ``cli`` is registered lazily: importing the package runs
no module body, and a module's body runs on the first access to one of
its attributes. So each CLI subcommand loads only the layers it runs.
``from dipolemirror import X`` works for every name in ``__all__``; the
name's module loads then. Before Python 3.12 the stdlib ``LazyLoader``
takes no lock, so two threads that touch an unloaded module at the same
moment may see it half run.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# The public names of the package root, by the module that defines them.
# Reading the table loads no module.
_EXPORTS = {
    "errors": (
        "ConfigError", "ConvergenceError", "CoverageError", "DeterminacyError",
        "DomainError", "FormatError", "ProvenanceError", "UndefinedOverlapError",
    ),
    "geometry": (
        "OMEGA_MAX", "AngleInterval", "ApertureSpec", "incidence_angle",
        "rho_from_theta", "theta_from_rho", "weighted_fraction", "weighted_solid_angle",
    ),
    "modes": (
        "CouplingFigures", "RadialMode", "WaistOptimum", "WeightedMode",
        "absorption_probability", "coupling_strength", "dipole_profile",
        "doughnut_profile", "optimize_waist", "spatial_overlap",
    ),
    "polarimetry": (
        "FrameStack", "OverlapResult", "PolarizationMap", "StokesMap",
        "ellipse_angles", "measured_overlap", "stokes_from_frames",
    ),
    "wavefront": (
        "PhaseMap", "SellmeierModel", "ZernikeExpansion", "fused_silica",
        "make_phase_plate", "pv_rms", "remove_misalignment", "rescale_wavelength",
        "single_pass", "zernike_fit",
    ),
    "focalfield": (
        "OpticalConstants", "StrehlResult", "aluminum", "aluminum_rp", "strehl",
    ),
    "temporal": (
        "PulseEnvelope", "TransitionSpec", "aom_drive", "aom_response", "ideal_envelope",
        "temporal_overlap",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def _register_lazy(name: str):
    """Put the submodule ``name`` into sys.modules without running its body."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# `cli` stays out: `python -m dipolemirror.cli` must find it unloaded
globals().update({name: _register_lazy(name) for name in (
    "errors", "search", "gridio", "geometry", "modes", "polarimetry", "wavefront",
    "focalfield", "temporal")})


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[module], name)


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
