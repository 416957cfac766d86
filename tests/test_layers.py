import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import dipolemirror

# every module but the command-line front end and the exception classes is
# a layer that declares its public interface in __all__
LAYERS = sorted(info.name for info in pkgutil.iter_modules(dipolemirror.__path__)
                if info.name not in ("cli", "errors"))


def test_layers_are_found():
    assert {"focalfield", "modes", "polarimetry", "wavefront"} <= set(LAYERS)


@pytest.mark.parametrize("name", LAYERS)
def test_public_functions_and_classes_are_exactly_all(name):
    module = importlib.import_module(f"dipolemirror.{name}")
    exported = set(module.__all__)
    assert all(hasattr(module, attr) for attr in exported)
    defined = {attr for attr, value in vars(module).items()
               if not attr.startswith("_") and callable(value)
               and getattr(value, "__module__", None) == module.__name__}
    assert defined == {attr for attr in exported if callable(getattr(module, attr))}


# Every name the package root exports, by the module that defines it. The
# root loads a module on the first use of one of its names.
ROOT_EXPORTS = {
    "errors": ["ConfigError", "ConvergenceError", "CoverageError", "DeterminacyError",
               "DomainError", "FormatError", "ProvenanceError", "UndefinedOverlapError"],
    "geometry": ["AngleInterval", "ApertureSpec", "OMEGA_MAX", "incidence_angle",
                 "rho_from_theta", "theta_from_rho", "weighted_fraction",
                 "weighted_solid_angle"],
    "modes": ["CouplingFigures", "RadialMode", "WaistOptimum", "WeightedMode",
              "absorption_probability", "coupling_strength", "dipole_profile",
              "doughnut_profile", "optimize_waist", "spatial_overlap"],
    "polarimetry": ["FrameStack", "OverlapResult", "PolarizationMap", "StokesMap",
                    "ellipse_angles", "measured_overlap", "stokes_from_frames"],
    "wavefront": ["PhaseMap", "SellmeierModel", "ZernikeExpansion", "fused_silica",
                  "make_phase_plate", "pv_rms", "remove_misalignment",
                  "rescale_wavelength", "single_pass", "zernike_fit"],
    "focalfield": ["OpticalConstants", "StrehlResult", "aluminum", "aluminum_rp", "strehl"],
    "temporal": ["PulseEnvelope", "TransitionSpec", "aom_drive", "aom_response",
                 "ideal_envelope", "temporal_overlap"],
}


def test_root_exports_are_pinned():
    names = [name for group in ROOT_EXPORTS.values() for name in group]
    assert len(names) == 54
    assert sorted(dipolemirror.__all__) == sorted(names)
    assert set(names) | set(ROOT_EXPORTS) <= set(dir(dipolemirror))
    for module, group in ROOT_EXPORTS.items():
        for name in group:
            namespace = {}
            exec(f"from dipolemirror import {name}", namespace)
            defining = importlib.import_module(f"dipolemirror.{module}")
            assert namespace[name] is getattr(defining, name), name


def test_errors_defines_no_private_names():
    # a private class shared across modules would decide an exit code
    # where no reader of the exit-code table looks
    from dipolemirror import errors

    private = [name for name in vars(errors) if name.startswith("_")
               and not (name.startswith("__") and name.endswith("__"))]
    assert private == []


def test_unknown_root_name_is_refused():
    with pytest.raises(AttributeError, match="'dipolemirror' has no attribute 'no_such_name'"):
        dipolemirror.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from dipolemirror import no_such_name", {})


# Public functions that only tests reach: in a layer's __all__, yet named
# by no other module of the package, the CLI included, and by no acceptance
# criterion. Each of these is called inside its own module, on a path the
# CLI takes. A new one is added here on purpose or not at all.
TEST_ONLY = {
    "focalfield.aluminum_rp",
    "focalfield.reflection_phase_waves",
    "modes.absorption_probability",
    "modes.doughnut_profile",
}


def _identifiers(path) -> set:
    # every name, attribute and imported name in the source; a string or a
    # comment names nothing
    names = set()
    for node in ast.walk(ast.parse(Path(path).read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_public_functions_that_only_tests_reach_are_pinned():
    package = Path(dipolemirror.__file__).parent
    named = {path.stem: _identifiers(path) for path in package.glob("*.py")}
    criteria = _identifiers(Path(__file__).with_name("test_acceptance.py"))
    found = set()
    for name in LAYERS:
        module = importlib.import_module(f"dipolemirror.{name}")
        elsewhere = criteria.union(*(ids for stem, ids in named.items() if stem != name))
        found |= {f"{name}.{attr}" for attr in module.__all__
                  if inspect.isfunction(getattr(module, attr)) and attr not in elsewhere}
    assert found == TEST_ONLY


# Defaulted parameters of public functions and of the methods of public
# classes, across every module of the package; a name with a leading
# underscore is not public, and dataclass fields are not counted. A new
# default is added here on purpose or not at all.
DEFAULTED = {
    "cli.ToolkitConfig.get(default)",
    "cli.ToolkitConfig.get_bool(default)",
    "cli.ToolkitConfig.get_float(default)",
    "cli.ToolkitConfig.get_int(default)",
    "cli.main(argv)",
    "focalfield.strehl(aberration)",
    "focalfield.strehl(coating)",
    "geometry.ApertureSpec.angle_interval(include_bore)",
    "modes.optimize_waist(weight)",
    "polarimetry.measured_overlap(trim_outer)",
    "wavefront.PhaseMap.from_expansion(annulus)",
    "wavefront.PhaseMap.from_expansion(size)",
    "wavefront.ZernikeExpansion.scaled(wavelength_nm)",
}


def _defaulted(function) -> list:
    args = function.args
    positional = args.posonlyargs + args.args
    names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    names += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return names


def test_defaulted_public_parameters_are_pinned():
    assert len(DEFAULTED) == 13
    found = set()
    for path in sorted(Path(dipolemirror.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                owners = [(node.name, node)]
            elif isinstance(node, ast.ClassDef):
                owners = [(f"{node.name}.{m.name}", m) for m in node.body
                          if isinstance(m, ast.FunctionDef)]
            else:
                continue
            found |= {f"{path.stem}.{name}({arg})" for name, fn in owners
                      if not any(part.startswith("_") for part in name.split("."))
                      for arg in _defaulted(fn)}
    assert found == DEFAULTED


# The package modules each module imports from, by its relative imports
# anywhere in its source. A name of `from . import` that is no module of
# the package (`__version__`) comes from the package root, `__init__`.
IMPORT_GRAPH = {
    "__init__": [],
    "cli": ["__init__", "errors", "focalfield", "geometry", "gridio", "modes",
            "polarimetry", "temporal", "wavefront"],
    "errors": [],
    "focalfield": ["errors", "geometry", "gridio", "search", "wavefront"],
    "geometry": ["errors"],
    "gridio": ["errors"],
    "modes": ["errors", "geometry", "gridio", "search"],
    "polarimetry": ["errors", "geometry", "gridio", "modes"],
    "search": ["errors"],
    "temporal": ["errors"],
    "wavefront": ["errors", "geometry", "gridio"],
}


def test_import_graph_is_pinned():
    package = Path(dipolemirror.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}
    graph = {}
    for name in modules:
        edges = set()
        for node in ast.walk(ast.parse((package / f"{name}.py").read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module is not None:
                    edges.add(node.module)
                else:
                    edges |= {a.name if a.name in modules else "__init__" for a in node.names}
        graph[name] = sorted(edges)
    assert graph == IMPORT_GRAPH
