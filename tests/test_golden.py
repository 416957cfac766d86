"""Full stdout of every subcommand on small fixed inputs, pinned byte for byte.

The expected reports live in ``tests/golden/<case>.txt``: the CLI's
output on the inputs built below, so any change to a byte of a report
shows here and must update them on purpose. Inputs are written
to a scratch directory and named by relative paths, so the configuration
digests in the reports do not depend on where the tests run. Each report
is also checked against its ``--out`` mirror.
"""

from pathlib import Path

import numpy as np
import pytest

import oracles
from dipolemirror import ApertureSpec, FrameStack, PhaseMap, ZernikeExpansion, focalfield
from dipolemirror.cli import main
from dipolemirror.polarimetry import save_frame_stack
from dipolemirror.wavefront import save_expansion, save_phase_map

GOLDEN = Path(__file__).with_name("golden")
WAIST = 2.2636

CASES = {
    "solid_angle": (["solid-angle"], "solid_angle.txt",
                    "[aperture]\nfocal_length_mm = 2.0\nbore_radius_mm = 1.0\n"),
    "optimize_waist": (["optimize-waist"], "optimize_waist.txt", ""),
    "optimize_waist_weighted": (["optimize-waist"], "optimize_waist.txt",
                                "[overlap]\nweighted = true\nwavelength_nm = 251.8\n"),
    "overlap": (["overlap"], "overlap.txt",
                "[overlap]\nwaist = 1.13\nweighted = true\n"),
    "stokes": (["stokes"], "stokes.txt",
               "[stokes]\nmanifest = frames/manifest.txt\nnoise_floor = 0\n"),
    "stokes_rectified": (["stokes", "--rectify", "--trim-outer", "0.02"], "stokes.txt",
                         "[stokes]\nmanifest = frames/manifest.txt\nnoise_floor = 0\n"),
    "zernike": (["zernike"], "zernike.txt",
                "[zernike]\nmap_file = map.txt\ndegree = 6\ndouble_pass = true\n"),
    "strehl": (["strehl"], "strehl.txt",
               f"[strehl]\nzernike_file = figure.txt\nwaist = {WAIST}\nevaluate_nm = 369.5\n"),
    "strehl_aluminum": (["strehl"], "strehl.txt",
                        f"[strehl]\nzernike_file = figure.txt\nwaist = {WAIST}\n"
                        "evaluate_nm = 369.5\naluminum_phase = true\n"),
    "pulse": (["pulse"], "pulse.txt",
              "[transition]\nlabel = T2\n[pulse]\nbin_width_ns = 0.1\nbuildup_ns = 8\n"),
    "report": (["report"], "report.txt",
               "[report]\nomega_fraction = compute\neta = compute\nstrehl = compute\n"
               "eta_t = compute\nbranching = 0.5\n"
               "[strehl]\nzernike_file = figure.txt\n[pulse]\nbuildup_ns = 2\n"),
    "report_published": (["report"], "report.txt",
                         "[report]\nomega_fraction = 0.94\neta = 0.979\n"
                         "strehl = 0.99\neta_t = 0.96\n"),
}


def write_inputs(base: Path) -> Path:
    """The frame stack, phase map, expansion and configs the cases read."""
    rng = np.random.default_rng(7)
    angles, frames, pixel_scale, center, _ = oracles.radial_doughnut_stack(
        ApertureSpec(), WAIST, size=64, orientation_noise=rng.normal(0.0, 0.2, (64, 64)))
    save_frame_stack(FrameStack(angles_rad=angles, frames=frames,
                                pixel_scale=pixel_scale, center=center), base / "frames")
    figure = ZernikeExpansion(terms=((1, 1, 0.1), (2, 0, 0.08), (2, 2, 0.03), (3, -1, 0.02),
                                     (4, 0, -0.01)), wavelength_nm=632.8)
    save_phase_map(PhaseMap.from_expansion(figure, size=64), base / "map.txt")
    save_expansion(ZernikeExpansion(terms=((2, 2, 0.03), (3, 1, 0.02)), wavelength_nm=632.8),
                   base / "figure.txt")
    for name, (_, _, config) in CASES.items():
        (base / f"{name}.ini").write_text(config)
    return base


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("golden_inputs"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_text_is_unchanged(name, inputs, capsys, monkeypatch):
    argv, filename, _ = CASES[name]
    monkeypatch.chdir(inputs)
    out_dir = inputs / f"out_{name}"
    code = main([*argv, "--config", f"{name}.ini", "--out", str(out_dir)])
    stdout = capsys.readouterr().out
    assert code == 0
    assert stdout == (GOLDEN / f"{name}.txt").read_text()
    assert (out_dir / filename).read_text() == stdout


@pytest.mark.parametrize("name", ["report", "strehl", "strehl_aluminum"])
def test_strehl_reports_build_no_sphere_field(name, inputs, capsys, monkeypatch):
    # strehl sums the mode on its own nodes: no report maps a field first
    def refuse(*args, **kwargs):
        raise AssertionError("plane_to_sphere is not on the report path")

    monkeypatch.setattr(focalfield, "plane_to_sphere", refuse)
    monkeypatch.chdir(inputs)
    argv, _, _ = CASES[name]
    code = main([*argv, "--config", f"{name}.ini"])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.txt").read_text()


def test_golden_files_have_cases():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(CASES)
