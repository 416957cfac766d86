"""Full stdout of every subcommand on small fixed inputs, pinned byte for byte.

The expected reports live in ``tests/golden/<case>.txt``: the CLI's
output on the inputs built below, so any change to a byte of a report
shows here and must update them on purpose. Inputs are written
to a scratch directory and named by relative paths, so the configuration
digests in the reports do not depend on where the tests run. Each report
is also checked against its ``--out`` mirror.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

import oracles
from dipolemirror import ApertureSpec, FrameStack, PhaseMap, ZernikeExpansion
from dipolemirror.cli import main
from dipolemirror.wavefront import save_expansion

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
    "stokes_rectified": (["stokes", "--rectify"], "stokes.txt",
                         "[stokes]\nmanifest = frames/manifest.txt\nnoise_floor = 0\n"
                         "trim_outer = 0.02\n"),
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
    oracles.save_frame_stack(FrameStack(angles_rad=angles, frames=frames,
                                        pixel_scale=pixel_scale, center=center), base / "frames")
    figure = ZernikeExpansion(terms=((1, 1, 0.1), (2, 0, 0.08), (2, 2, 0.03), (3, -1, 0.02),
                                     (4, 0, -0.01)), wavelength_nm=632.8)
    oracles.save_phase_map(PhaseMap.from_expansion(figure, size=64), base / "map.txt")
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


def test_golden_files_have_cases():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(CASES)


# sha256 of the grids the stokes cases write to --out, as the reduction
# of the whole stack at once wrote them; the CLI now reduces it a block of
# rows at a time and must write the same bytes
STOKES_EXPORTS = {
    "stokes.s0.txt": "854908038e41c954ee7b74c4f2b0e48b8cbf8c0fda64331ddf9eea086143826f",
    "stokes.psi.txt": "bd7d9efd00a23067b19f36b3ad6b24f9e86db6ee1439b8ec9036846ca4ddb715",
    "stokes.chi.txt": "7082a7f1cd0262c7c4430a59f39a8da505d4bc5fd11e250f3fd3988eeab303d0",
}


@pytest.mark.parametrize("name", ["stokes", "stokes_rectified"])
def test_stokes_exports_are_unchanged(name, inputs, capsys, monkeypatch):
    argv, _, _ = CASES[name]
    monkeypatch.chdir(inputs)
    out_dir = inputs / f"exports_{name}"
    assert main([*argv, "--config", f"{name}.ini", "--out", str(out_dir)]) == 0
    capsys.readouterr()
    for filename, digest in STOKES_EXPORTS.items():
        assert hashlib.sha256((out_dir / filename).read_bytes()).hexdigest() == digest
