"""Optical-mode design and scoring for free-space coupling of light to a
single atomic dipole through a deep parabolic mirror.

The subpackages split along the experiment's own seams: mirror geometry
and solid angle (``geometry``), entrance-plane mode profiles and overlap
(``modes``), imaging Stokes polarimetry (``polarimetry``), Zernike
wavefront analysis and phase-plate design (``wavefront``), vectorial
focal fields and metal-mirror effects (``focalfield``), pulse shaping in
time (``temporal``), and the command-line assembly of coupling reports
(``cli``). The bracketed maximum search behind the optimal waist, the
axial Strehl focus and the pulse shift lives in ``search``.
"""

from .errors import (
    ConfigError,
    ConvergenceError,
    CoverageError,
    DeterminacyError,
    DomainError,
    ProvenanceError,
    UndefinedOverlapError,
)
from .geometry import (
    OMEGA_MAX,
    AngleInterval,
    ApertureSpec,
    incidence_angle,
    rho_from_theta,
    theta_from_rho,
    weighted_fraction,
    weighted_solid_angle,
)
from .modes import (
    CouplingFigures,
    RadialMode,
    WaistOptimum,
    WeightedMode,
    absorption_probability,
    coupling_strength,
    dipole_profile,
    doughnut_profile,
    optimize_waist,
    spatial_overlap,
)
from .polarimetry import (
    FrameStack,
    OverlapResult,
    PolarizationMap,
    StokesMap,
    ellipse_angles,
    measured_overlap,
    stokes_from_frames,
)
from .wavefront import (
    PhaseMap,
    SellmeierModel,
    ZernikeExpansion,
    fused_silica,
    make_phase_plate,
    pv_rms,
    remove_misalignment,
    rescale_wavelength,
    single_pass,
    zernike_fit,
)
from .focalfield import (
    OpticalConstants,
    SphereField,
    StrehlResult,
    aluminum,
    aluminum_phase_study,
    aluminum_rp,
    focal_field,
    plane_to_sphere,
    reflectivity_weighted_optimum,
    reflectivity_weighted_overlap,
    sphere_overlap,
    strehl,
)
from .temporal import (
    AomModel,
    PulseEnvelope,
    TransitionSpec,
    aom_drive,
    aom_response,
    ideal_envelope,
    temporal_overlap,
)

__version__ = "0.1.0"
