import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dipolemirror
import oracles
from dipolemirror import (
    FrameStack,
    PhaseMap,
    TransitionSpec,
    ZernikeExpansion,
    aom_drive,
    aom_response,
    errors,
    temporal_overlap,
)
from dipolemirror.cli import _fmt, main
from dipolemirror.polarimetry import ellipse_angles, stokes_from_frames
from dipolemirror.temporal import _TAIL_BUILDUPS, T1, T2
from dipolemirror.wavefront import load_expansion

EMPTY_DIGEST = "sha256:" + hashlib.sha256(b"").hexdigest()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def machine_pairs(stdout: str) -> dict:
    lines = stdout.splitlines()
    marker = lines.index("# machine-readable")
    pairs = {}
    for line in lines[marker + 1:]:
        if " = " in line:
            key, _, value = line.partition(" = ")
            pairs[key] = value
    return pairs


def write_config(tmp_path, text, name="toolkit.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def assert_pulse_exports(out_dir, spec, bin_width_ns):
    """Check the drive and envelope exports of a default 5-lifetime pulse
    byte for byte against the same pulse written one value at a time."""
    drive = aom_drive(spec, 5.0 * spec.lifetime_ns, bin_width_ns)
    envelope = aom_response(drive.field_envelope(), 5.0)
    text = (out_dir / "aom_drive.txt").read_bytes()
    assert text == oracles.table_text("AOM drive envelope: t_ns U0_rad",
                                      drive.times_ns, drive.u0_rad).encode("ascii")
    rows = [line.split() for line in text.decode().splitlines() if not line.startswith("#")]
    assert len(rows) == drive.times_ns.size
    assert float(rows[0][0]) == pytest.approx(drive.times_ns[0])
    assert float(rows[-1][1]) == pytest.approx(drive.u0_rad[-1])
    assert (out_dir / "envelope.txt").read_bytes() == oracles.table_text(
        "modeled post-modulator field envelope: t_ns amplitude",
        envelope.times(), envelope.samples).encode("ascii")
    return drive


@pytest.fixture(scope="module")
def stack_dir(tmp_path_factory, aperture, waist_optimum):
    angles, frames, pixel_scale, center, _ = oracles.radial_doughnut_stack(
        aperture, waist_optimum.waist, size=256
    )
    stack = FrameStack(angles_rad=angles, frames=frames,
                       pixel_scale=pixel_scale, center=center)
    directory = tmp_path_factory.mktemp("frames")
    oracles.save_frame_stack(stack, directory)
    return directory


def test_version(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert "dipolemirror" in capsys.readouterr().out


def test_cli_import_loads_no_scipy():
    # structure, not wall time: a fresh process that imports the CLI pays
    # for no scipy module, nor for numpy.polynomial
    src = str(Path(dipolemirror.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = ("import sys, dipolemirror.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
            " or m.startswith('numpy.polynomial')))")
    run = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"


def fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this package."""
    src = str(Path(dipolemirror.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


# The package modules whose body runs in a process that runs one
# subcommand, besides cli: each loads on its first attribute access.
@pytest.mark.parametrize("argv, config, loaded", [
    (["solid-angle"], "", ["errors", "geometry"]),
    (["pulse"], "[transition]\nlabel = T2\n", ["errors", "temporal"]),
    (["optimize-waist"], "", ["errors", "geometry", "gridio", "modes", "search"]),
    (["overlap"], "", ["errors", "geometry", "gridio", "modes", "search"]),
    (["optimize-waist"], "[overlap]\nweighted = true\n",
     ["data", "errors", "focalfield", "geometry", "gridio", "modes", "search", "wavefront"]),
], ids=["solid-angle", "pulse", "optimize-waist", "overlap", "weighted-waist"])
def test_a_subcommand_runs_only_its_layers(tmp_path, argv, config, loaded):
    argv = [*argv, "--config", write_config(tmp_path, config)]
    # a lazy module keeps its placeholder class until its body runs
    code = ("import contextlib, io, sys, types\n"
            "import dipolemirror.cli as cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert cli.main({argv!r}) == 0\n"
            "print(sorted(name for name, m in sys.modules.items()\n"
            "             if name.startswith('dipolemirror.') and type(m) is types.ModuleType))")
    run = subprocess.run([sys.executable, "-c", code], env=fresh_env(),
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == str([f"dipolemirror.{name}" for name in ["cli", *loaded]])


def test_traced_pulse_wraps_the_lazy_layers(tmp_path):
    # the benchmark's tracer finds the layers in sys.modules and reads their
    # namespaces, which runs their bodies; its spans must still see the calls
    child = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    spans = tmp_path / "spans.json"
    config = write_config(tmp_path, "[transition]\nlabel = T1\n[pulse]\nbuildup_ns = 3\n")
    run = subprocess.run([sys.executable, str(child), "--spans", str(spans), "--",
                          "pulse", "--config", config],
                         env=fresh_env(), capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert "pulse.eta_t = " in run.stdout
    names = {span[0] for span in json.loads(spans.read_text())["spans"]}
    assert {"cli.main", "temporal.temporal_overlap"} <= names


def test_subcommand_required():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_solid_angle_defaults(capsys):
    code, out, _ = run(capsys, "solid-angle")
    assert code == 0
    pairs = machine_pairs(out)
    assert float(pairs["solid_angle.fraction"]) == pytest.approx(0.9364831671, abs=1e-9)
    assert float(pairs["solid_angle.fraction_bore_filled"]) == pytest.approx(
        0.9392890119, abs=1e-9)
    assert float(pairs["solid_angle.bore_cost"]) == pytest.approx(0.0028058447, abs=1e-9)
    assert float(pairs["solid_angle.omega_sr"]) == pytest.approx(7.845463035, abs=1e-8)
    assert pairs["report.digest"] == EMPTY_DIGEST


def test_optimize_waist_defaults(capsys):
    code, out, _ = run(capsys, "optimize-waist")
    assert code == 0
    pairs = machine_pairs(out)
    assert float(pairs["waist.w_opt"]) == pytest.approx(2.2636247507, abs=1e-6)
    assert float(pairs["waist.eta"]) == pytest.approx(0.9824258842, abs=1e-8)


def test_optimize_waist_weighted(tmp_path, capsys):
    config = write_config(tmp_path, "[overlap]\nweighted = true\n")
    code, out, _ = run(capsys, "optimize-waist", "--config", config)
    assert code == 0
    pairs = machine_pairs(out)
    assert float(pairs["waist.w_opt"]) == pytest.approx(2.278148, abs=1e-4)
    assert float(pairs["waist.delta_eta"]) == pytest.approx(0.000331, abs=2e-5)
    assert float(pairs["waist.waist_unweighted"]) == pytest.approx(2.2636248, abs=1e-6)


def test_overlap_with_configured_waist(tmp_path, capsys):
    config = write_config(tmp_path, "[overlap]\nwaist = 1.13\n")
    code, out, _ = run(capsys, "overlap", "--config", config)
    assert code == 0
    pairs = machine_pairs(out)
    assert float(pairs["overlap.eta"]) == pytest.approx(0.7196760007, abs=1e-8)


def test_overlap_with_mode_file(tmp_path, capsys, aperture, waist_optimum):
    from dipolemirror import RadialMode

    mode_file = tmp_path / "mode.txt"
    oracles.save_sampled_mode(RadialMode.doughnut(waist_optimum.waist), mode_file, aperture, 4096)
    config = write_config(tmp_path, f"[overlap]\nmode_file = {mode_file}\n")
    code, out, _ = run(capsys, "overlap", "--config", config)
    assert code == 0
    assert float(machine_pairs(out)["overlap.eta"]) == pytest.approx(
        waist_optimum.eta, abs=1e-4)


def test_overlap_missing_mode_file(tmp_path, capsys):
    config = write_config(tmp_path, "[overlap]\nmode_file = absent.txt\n")
    code, _, err = run(capsys, "overlap", "--config", config)
    assert code == 3
    assert "error:" in err and "absent.txt" in err


def test_report_flags_published_discrepancy(tmp_path, capsys):
    config = write_config(tmp_path, (
        "[report]\nomega_fraction = 0.94\neta = 0.979\n"
        "strehl = 0.99\neta_t = 0.96\n"
    ))
    code, out, _ = run(capsys, "report", "--config", config)
    assert code == 0
    pairs = machine_pairs(out)
    assert float(pairs["result.g"]) == pytest.approx(0.892, abs=1e-3)
    assert float(pairs["result.p_a"]) == pytest.approx(0.822, abs=2e-3)
    assert pairs["note.published_p_a"] == "0.812"
    assert "a published reference lists P_a = 0.812" in out


def test_report_matching_published_row_is_silent(tmp_path, capsys):
    config = write_config(tmp_path, (
        "[report]\nomega_fraction = 0.94\neta = 0.975\n"
        "strehl = 0.99\neta_t = 0.99\n"
    ))
    code, out, _ = run(capsys, "report", "--config", config)
    assert code == 0
    pairs = machine_pairs(out)
    assert float(pairs["result.g"]) == pytest.approx(0.885, abs=1e-3)
    assert float(pairs["result.p_a"]) == pytest.approx(0.867, abs=1e-3)
    assert "note.published_p_a" not in pairs
    assert "published" not in out


def test_report_branching_factor(tmp_path, capsys):
    config = write_config(tmp_path, (
        "[report]\nomega_fraction = 0.94\neta = 0.979\n"
        "strehl = 0.99\neta_t = 0.96\nbranching = 0.333333333333\n"
    ))
    code, out, _ = run(capsys, "report", "--config", config)
    assert code == 0
    pairs = machine_pairs(out)
    g = float(pairs["result.g"])
    p_a = float(pairs["result.p_a"])
    assert p_a == pytest.approx(g * 0.96**2 / 3.0, abs=1e-9)
    assert pairs["provenance.eta"] == "config [report] eta"
    # branching != 1 is a different physical situation; no published row applies
    assert "note.published_p_a" not in pairs


def test_report_computes_defaults(capsys):
    code, out, _ = run(capsys, "report")
    assert code == 0
    pairs = machine_pairs(out)
    assert float(pairs["factor.omega_fraction"]) == pytest.approx(0.93648, abs=1e-4)
    assert float(pairs["factor.eta"]) == pytest.approx(0.98243, abs=1e-4)
    assert float(pairs["factor.strehl"]) == 1.0
    assert float(pairs["result.g"]) == pytest.approx(0.90387, abs=2e-4)
    assert pairs["provenance.omega_fraction"].startswith("computed:")
    assert pairs["provenance.strehl"] == "default (ideal)"
    assert pairs["provenance.branching"] == "default (single return channel)"


def test_report_rejects_bad_factor(tmp_path, capsys):
    config = write_config(tmp_path, "[report]\neta = abc\n")
    code, _, err = run(capsys, "report", "--config", config)
    assert code == 2
    assert "error:" in err and "eta" in err
    config = write_config(tmp_path, "[report]\neta = 1.5\n", name="range.ini")
    code, out, err = run(capsys, "report", "--config", config)
    assert code == 2 and out == ""
    assert "eta must lie in [0, 1], got 1.5" in err


def test_report_strehl_compute_needs_inputs(tmp_path, capsys):
    config = write_config(tmp_path, "[report]\nstrehl = compute\n")
    code, out, err = run(capsys, "report", "--config", config)
    assert code == 2 and out == ""
    assert err == "error: missing factor strehl: 'compute' needs a [strehl] section\n"
    # a section without a zernike_file is enough: the unaberrated focus
    config = write_config(tmp_path, "[report]\nstrehl = compute\n[strehl]\n", name="bare.ini")
    code, out, _ = run(capsys, "report", "--config", config)
    assert code == 0
    assert machine_pairs(out)["factor.strehl"] == "1"


def test_aluminum_phase_needs_a_wavelength(tmp_path, capsys):
    # without evaluate_nm or a figure, nothing names the wavelength of r_p
    config = write_config(tmp_path, "[strehl]\naluminum_phase = true\n")
    code, out, err = run(capsys, "strehl", "--config", config)
    assert code == 2 and out == ""
    assert err == "error: [strehl] aluminum_phase needs evaluate_nm\n"


def _lossless_strehl(tmp_path, capsys, n):
    # a k = 0 table: arg(r_p) kinks at the critical angle 2 asin(n)
    (tmp_path / "lossless.txt").write_text(
        f"# source: synthetic lossless medium\n400 {n} 0\n600 {n} 0\n")
    config = write_config(tmp_path, "[strehl]\nevaluate_nm = 500\naluminum_phase = true\n"
                                    "[optics]\nconstants_file = lossless.txt\n")
    return run(capsys, "strehl", "--config", config)


def test_lossless_coating_with_a_kink_in_the_annulus_is_refused(tmp_path, capsys,
                                                                 monkeypatch):
    # theta_c = 34.9 deg lies inside the 20.3-134.4 deg annulus: refused up
    # front, before any quadrature
    monkeypatch.chdir(tmp_path)
    code, out, err = _lossless_strehl(tmp_path, capsys, 0.3)
    assert code == 2 and out == ""
    assert err.startswith("error: lossless optical constants (n = 0.3, k = 0 at 500 nm): "
                          "arg(r_p) kinks at the critical angle theta_c = 34.92 deg")
    assert err.count("\n") == 1


def test_lossless_coating_with_its_kink_in_the_bore_is_computed(tmp_path, capsys, monkeypatch):
    # theta_c = 4.6 deg lies inside the bore: the figures printed before the
    # refusal existed
    monkeypatch.chdir(tmp_path)
    code, out, _ = _lossless_strehl(tmp_path, capsys, 0.04)
    assert code == 0
    pairs = machine_pairs(out)
    assert (pairs["strehl.ratio"], pairs["strehl.nominal"], pairs["strehl.peak_offset_lambda"],
            pairs["strehl.rms_waves"]) == ("0.9999993084", "0.9999962335", "-0.000748",
                                           "0.0003088794187")


def test_pulse_defaults(tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    code, out, _ = run(capsys, "pulse", "--out", str(out_dir))
    assert code == 0
    pairs = machine_pairs(out)
    assert pairs["pulse.transition"] == "T1"
    assert float(pairs["pulse.eta_t"]) == pytest.approx(0.9434455741, abs=1e-8)
    assert float(pairs["pulse.shift_ns"]) < 0.0
    assert (out_dir / "pulse.txt").read_text() == out
    drive = assert_pulse_exports(out_dir, T1, T1.lifetime_ns / 2000.0)
    assert drive.times_ns.size > 1000


def test_pulse_slow_transition(tmp_path, capsys):
    config = write_config(tmp_path, (
        "[transition]\nlabel = T2\n[pulse]\nbin_width_ns = 0.02\n"
    ))
    out_dir = tmp_path / "artifacts"
    code, out, _ = run(capsys, "pulse", "--config", config, "--out", str(out_dir))
    assert code == 0
    pairs = machine_pairs(out)
    assert pairs["pulse.transition"] == "T2"
    # 5 ns build-up barely dents a 230 ns lifetime pulse
    assert float(pairs["pulse.eta_t"]) > 0.99
    assert_pulse_exports(out_dir, T2, 0.02)


def test_custom_transition(tmp_path, capsys):
    config = write_config(tmp_path, (
        "[transition]\nlabel = X\nwavelength_nm = 500\nlifetime_ns = 10\n"
    ))
    code, out, _ = run(capsys, "pulse", "--config", config)
    assert code == 0
    assert machine_pairs(out)["pulse.transition"] == "X"
    incomplete = write_config(tmp_path, "[transition]\nlabel = X\n", name="bad.ini")
    code, _, err = run(capsys, "pulse", "--config", incomplete)
    assert code == 2
    assert "not a preset" in err


def test_stokes_pipeline(tmp_path, capsys, stack_dir, waist_optimum):
    config = write_config(tmp_path, (
        f"[stokes]\nmanifest = {stack_dir / 'manifest.txt'}\nnoise_floor = 0\n"
    ))
    out_dir = tmp_path / "artifacts"
    code, out, _ = run(capsys, "stokes", "--config", config, "--out", str(out_dir))
    assert code == 0
    pairs = machine_pairs(out)
    assert float(pairs["stokes.eta"]) == pytest.approx(waist_optimum.eta, abs=2e-3)
    assert pairs["stokes.eta"] == pairs["stokes.eta_plain"]
    assert float(pairs["stokes.coverage"]) == pytest.approx(1.0, abs=1e-6)
    for suffix in (".s0.txt", ".psi.txt", ".chi.txt"):
        assert (out_dir / ("stokes" + suffix)).exists()

    code, rectified_out, _ = run(capsys, "stokes", "--config", config, "--rectify")
    rect_pairs = machine_pairs(rectified_out)
    assert rect_pairs["stokes.eta"] == rect_pairs["stokes.eta_rectified"]


def test_stokes_trim_outer_key(tmp_path, capsys, stack_dir):
    # the trim is a config value only, so the digest covers it
    base = f"[stokes]\nmanifest = {stack_dir / 'manifest.txt'}\nnoise_floor = 0\n"
    full = write_config(tmp_path, base, name="full.ini")
    trimmed = write_config(tmp_path, base + "trim_outer = 0.05\n", name="trim.ini")
    full_pairs = machine_pairs(run(capsys, "stokes", "--config", full)[1])
    trim_pairs = machine_pairs(run(capsys, "stokes", "--config", trimmed)[1])
    assert int(trim_pairs["stokes.pixels"]) < int(full_pairs["stokes.pixels"])
    assert trim_pairs["report.digest"] != full_pairs["report.digest"]


@pytest.mark.parametrize("argv", [
    ["report", "--threads", "2"],
    ["zernike", "--rectify"],
    ["stokes", "--trim-outer", "0.05"],
    ["stokes", "--threads", "2"],
])
def test_stokes_flags_belong_to_stokes(capsys, argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_stokes_output_is_unchanged(tmp_path, capsys, stack_dir):
    base = f"[stokes]\nmanifest = {stack_dir / 'manifest.txt'}\nnoise_floor = 0\n"
    config = write_config(tmp_path, base)
    trimmed = write_config(tmp_path, base + "trim_outer = 0.05\n", name="trim.ini")
    out_dir = tmp_path / "artifacts"
    _, plain, _ = run(capsys, "stokes", "--config", config)
    code, flagged, _ = run(capsys, "stokes", "--config", trimmed, "--rectify",
                           "--out", str(out_dir))
    assert code == 0
    # figures printed for this stack, drawn at the certified optimal waist
    keys = ("stokes.eta", "stokes.eta_plain", "stokes.eta_rectified",
            "stokes.coverage", "stokes.pixels")
    assert [machine_pairs(plain)[k] for k in keys] == [
        "0.9824404208", "0.9824404208", "0.9824404208", "1", "49160"]
    assert [machine_pairs(flagged)[k] for k in keys] == [
        "0.9845613981", "0.9845613981", "0.9845613981", "1", "44372"]
    # the exported grids are the per-value text of the polarization map
    stack = oracles.load_frame_stack(stack_dir)
    pmap = ellipse_angles(stokes_from_frames(stack), noise_floor=0.0)
    meta = {"pixel_scale": pmap.pixel_scale, "center_row": pmap.center[0],
            "center_col": pmap.center[1]}
    for suffix, values, kind in (
        (".s0.txt", pmap.s0, "intensity"),
        (".psi.txt", np.where(pmap.mask, pmap.psi, np.nan), "orientation_rad"),
        (".chi.txt", np.where(pmap.mask, pmap.chi, np.nan), "ellipticity_rad"),
    ):
        expected = oracles.grid_text(values, {**meta, "kind": kind})
        assert (out_dir / ("stokes" + suffix)).read_text() == expected


def test_stokes_requires_manifest(capsys):
    code, _, err = run(capsys, "stokes")
    assert code == 2
    assert "manifest is required" in err


def test_stokes_malformed_manifest(tmp_path, capsys):
    broken = tmp_path / "broken"
    broken.mkdir()
    (broken / "manifest.txt").write_text("# pixel_scale: 0.01\n# center: 1 1\n")
    config = write_config(tmp_path, f"[stokes]\nmanifest = {broken / 'manifest.txt'}\n")
    code, _, err = run(capsys, "stokes", "--config", config)
    assert code == 3
    assert "no frames" in err


def test_stokes_truncated_frame(tmp_path, capsys, stack_dir):
    broken = tmp_path / "stack"
    broken.mkdir()
    for path in stack_dir.iterdir():
        (broken / path.name).write_bytes(path.read_bytes())
    frame = broken / "frame_004.pgm"
    raw = frame.read_bytes()
    frame.write_bytes(raw[:len(raw) // 2])
    config = write_config(tmp_path, f"[stokes]\nmanifest = {broken / 'manifest.txt'}\n")
    code, _, err = run(capsys, "stokes", "--config", config)
    assert code == 3
    assert f"{frame}: truncated PGM: 256 x 256 pixels need 131072 bytes, found" in err
    assert "buffer is smaller" not in err


def test_missing_config_file(capsys):
    code, _, err = run(capsys, "solid-angle", "--config", "/nonexistent/toolkit.ini")
    assert code == 3
    assert "error:" in err


@pytest.mark.parametrize("text, message", [
    ("[pulse]\nbin_width_ns = 0\n", "bin width must be positive, got 0.0"),
    ("[pulse]\nbin_width_ns = -0.1\n", "bin width must be positive, got -0.1"),
    ("[pulse]\nbin_width_ns = nan\n", "[pulse] bin_width_ns = 'nan' is not a finite number"),
    ("[pulse]\nbuildup_ns = nan\n", "[pulse] buildup_ns = 'nan' is not a finite number"),
    ("[pulse]\nduration_lifetimes = inf\n",
     "[pulse] duration_lifetimes = 'inf' is not a finite number"),
    (b"[pulse]\nbuildup_ns = 5 # \xb5s\n", "not UTF-8 text (byte 25)"),
    # bin counts past the limit are refused before anything is allocated
    ("[pulse]\nduration_lifetimes = 1e300\n",
     "a pulse of 2e+303 bins exceeds the limit of 10,000,000 bins"),
    ("[pulse]\nbin_width_ns = 1e-300\n",
     "a pulse of 4.05e+301 bins exceeds the limit of 10,000,000 bins"),
    ("[pulse]\nbuildup_ns = 1e300\n",
     "a pulse of 1.23e+303 bins exceeds the limit of 10,000,000 bins"),
    # rescaled without compensation, the figure would be divided by zero
    ("[strehl]\nevaluate_nm = 0\ncompensate = false\n",
     "[strehl] evaluate_nm = 0 is not a positive wavelength"),
], ids=["zero-bin", "negative-bin", "nan-bin", "nan-buildup", "inf-duration", "latin-1",
        "huge-duration", "tiny-bin", "huge-buildup", "zero-wavelength"])
def test_malformed_numbers_exit_2_with_one_error_line(tmp_path, capsys, text, message):
    path = tmp_path / "toolkit.ini"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    command = "strehl" if "[strehl]" in str(text) else "pulse"
    code, out, err = run(capsys, command, "--config", str(path))
    assert code == 2 and out == ""
    [line] = err.splitlines()  # one line, no traceback
    assert line.startswith("error: ") and message in line


@pytest.fixture(scope="module")
def zernike_artifacts(tmp_path_factory):
    base = tmp_path_factory.mktemp("wavefront")
    truth = ZernikeExpansion(
        terms=((1, 1, 0.20), (2, 0, 0.15), (2, 2, 0.05), (3, 1, 0.03), (4, 0, -0.02)),
        wavelength_nm=632.8,
    )
    map_file = base / "measured_map.txt"
    oracles.save_phase_map(PhaseMap.from_expansion(truth, size=256), map_file)
    config = base / "toolkit.ini"
    config.write_text(f"[zernike]\nmap_file = {map_file}\ndegree = 6\n")
    return base, truth


def test_zernike_fit_pipeline(capsys, zernike_artifacts):
    base, truth = zernike_artifacts
    out_dir = base / "artifacts"
    code, out, _ = run(capsys, "zernike", "--config", str(base / "toolkit.ini"),
                       "--out", str(out_dir))
    assert code == 0
    pairs = machine_pairs(out)
    assert float(pairs["zernike.rms_figure"]) < float(pairs["zernike.rms_fit"])
    fit = load_expansion(out_dir / "zernike_fit.txt")
    figure = load_expansion(out_dir / "zernike_figure.txt")
    plate = load_expansion(out_dir / "phase_plate.txt")
    assert fit.coefficient(2, 2) == pytest.approx(0.05, abs=1e-6)
    assert figure.coefficient(2, 0) == 0.0  # misalignment removed
    assert figure.coefficient(1, 1) == 0.0
    assert plate.coefficient(2, 2) == pytest.approx(-0.05, abs=1e-6)
    assert plate.coefficient(3, 1) == pytest.approx(-0.03, abs=1e-6)


def test_zernike_double_pass_halves(tmp_path, capsys, zernike_artifacts):
    base, _ = zernike_artifacts
    map_file = base / "measured_map.txt"
    single = write_config(tmp_path, f"[zernike]\nmap_file = {map_file}\ndegree = 6\n")
    double = write_config(
        tmp_path, f"[zernike]\nmap_file = {map_file}\ndegree = 6\ndouble_pass = true\n",
        name="double.ini")
    _, out_single, _ = run(capsys, "zernike", "--config", single)
    _, out_double, _ = run(capsys, "zernike", "--config", double)
    rms_single = float(machine_pairs(out_single)["zernike.rms_fit"])
    rms_double = float(machine_pairs(out_double)["zernike.rms_fit"])
    assert rms_double == pytest.approx(0.5 * rms_single, rel=1e-6)


def test_zernike_malformed_map_file(tmp_path, capsys):
    ragged = tmp_path / "ragged.txt"
    ragged.write_text('# {"cols": 2, "rows": 2, "wavelength_nm": 633.0}\n0.1 0.2\n0.3\n')
    config = write_config(tmp_path, f"[zernike]\nmap_file = {ragged}\n")
    code, _, err = run(capsys, "zernike", "--config", config)
    assert code == 3
    assert str(ragged) in err


def test_zernike_requires_map_file(capsys):
    code, _, err = run(capsys, "zernike")
    assert code == 2
    assert "map_file is required" in err


def test_strehl_cli_marechal_consistency(tmp_path, capsys):
    from dipolemirror.wavefront import save_expansion

    exp = ZernikeExpansion(terms=((2, 2, 0.04),), wavelength_nm=632.8)
    zfile = tmp_path / "figure.txt"
    save_expansion(exp, zfile)
    config = write_config(tmp_path, (
        f"[strehl]\nzernike_file = {zfile}\nwaist = 2.2636\n"
    ))
    code, out, _ = run(capsys, "strehl", "--config", config)
    assert code == 0
    pairs = machine_pairs(out)
    sigma = float(pairs["strehl.rms_waves"])
    nominal = float(pairs["strehl.nominal"])
    assert nominal == pytest.approx(math.exp(-((2.0 * math.pi * sigma) ** 2)), abs=5e-3)
    assert 0.0 < float(pairs["strehl.ratio"]) <= 1.0


@pytest.mark.parametrize("n, m", [(28, 0), (50, 0), (812, 0), (900, 0), (30, 30), (200000, 0)],
                         ids=["28 0", "50 0", "812 0", "900 0", "30 30", "200000 0"])
def test_strehl_cli_refuses_a_term_above_the_highest_degree(tmp_path, capsys, n, m):
    # the figure file's expansion refuses the term as it is read, in time
    # that does not grow with n
    zfile = tmp_path / "figure.txt"
    zfile.write_text(f"# wavelength_nm: 632.8\n{n} {m} 0.01\n")
    config = write_config(tmp_path, f"[strehl]\nzernike_file = {zfile}\nwaist = 2.2636\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "strehl", "--config", config)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    [line] = err.splitlines()  # one line, no traceback and no RuntimeWarning
    assert line == f"error: {zfile}: Zernike term (n={n}, m={m}) lies above degree 27"


def assert_input_file_exits(tmp_path, capsys, command, config, text, code, message):
    """Run ``command`` on a config naming input.txt that holds ``text``.

    Beside it lie the 4 x 4 PGM frames frame_000.pgm and frame_001.pgm, and
    truncated.pgm with half its pixel bytes. The run exits with ``code``
    and prints one line: the error, naming input.txt, then ``message``
    with '{}' standing for the directory.
    """
    for name in ("frame_000.pgm", "frame_001.pgm"):
        oracles.write_pgm(tmp_path / name, np.zeros((4, 4)))
    (tmp_path / "truncated.pgm").write_bytes(b"P5\n4 4\n65535\n" + bytes(16))
    data = tmp_path / "input.txt"
    data.write_text(text.format())
    exit_code, out, err = run(capsys, command, "--config",
                              write_config(tmp_path, config.format(data)))
    assert exit_code == code and out == ""
    [line] = err.splitlines()  # one line, no traceback and no RuntimeWarning
    # a message naming a line of input.txt starts ':<line>: '
    message = message.format(tmp_path)
    assert line == f"error: {data}{'' if message[0] == ':' else ': '}{message}"


_ALUMINUM_ROWS = "# source: x\n200 0.1 2.0\n400 nan 4.0\n800 1.5 7.0\n"


# each input file that a non-finite number spoils: the command, its config
# naming the file, the file's text and the refusal
@pytest.mark.parametrize("command, config, text, message", [
    ("strehl", "[strehl]\nzernike_file = {}\n", "# wavelength_nm: 632.8\n3 1 nan\n",
     "Zernike coefficient (n=3, m=1) = nan is not finite"),
    ("strehl", "[strehl]\nzernike_file = {}\n", "# wavelength_nm: 632.8\n3 1 inf\n",
     "Zernike coefficient (n=3, m=1) = inf is not finite"),
    ("strehl", "[strehl]\nzernike_file = {}\n", "# wavelength_nm: nan\n3 1 0.01\n",
     "wavelength nan nm is not finite"),
    ("zernike", "[zernike]\nmap_file = {}\ndegree = 0\n",
     '# {{"cols": 2, "rows": 2, "wavelength_nm": NaN}}\n0.1 0.2\n0.3 0.4\n',
     "wavelength nan nm is not finite"),
    ("strehl", "[strehl]\naluminum_phase = true\nevaluate_nm = 369.5\n"
     "[optics]\nconstants_file = {}\n", _ALUMINUM_ROWS, "optical constants must be finite"),
    ("overlap", "[overlap]\nmode_file = {}\n", "0.5 1.0\nnan 2.0\n3.0 1.0\n",
     "sample radii and amplitudes must be finite"),
    ("overlap", "[overlap]\nmode_file = {}\n", "0.5 1.0\n1.0 2.0\ninf 1.0\n",
     "sample radii and amplitudes must be finite"),
], ids=["nan-coefficient", "inf-coefficient", "nan-wavelength", "nan-map-wavelength",
        "nan-index", "nan-radius", "inf-radius"])
def test_non_finite_input_numbers_exit_2_with_one_error_line(tmp_path, capsys, command,
                                                             config, text, message):
    assert_input_file_exits(tmp_path, capsys, command, config, text, 2, message)


_MANIFEST = "# pixel_scale: {}\n# center: 2 2\nframe_000.pgm 0\n"


# each input file that holds a value its constructor refuses: the command,
# its config naming the file, the file's text and the refusal
@pytest.mark.parametrize("command, config, text, message", [
    ("strehl", "[strehl]\nzernike_file = {}\n", "# wavelength_nm: 632.8\n3 5 0.1\n",
     "invalid Zernike index (n=3, m=5)"),
    ("strehl", "[strehl]\nzernike_file = {}\n",
     "# wavelength_nm: 632.8\n2 2 0.01\n2 2 0.02\n", "duplicate Zernike index (n=2, m=2)"),
    ("strehl", "[strehl]\nzernike_file = {}\n", "# wavelength_nm: -5\n2 2 0.01\n",
     "wavelength must be positive"),
    ("strehl", "[strehl]\nzernike_file = {}\n",
     "# wavelength_nm: 632.8\n# annulus: 0.5 0.5\n2 2 0.01\n",
     "annulus (0.5, 0.5) is not (inner, outer) with 0 <= inner < outer <= 1"),
    ("zernike", "[zernike]\nmap_file = {}\ndegree = 0\n",
     '# {{"cols": 2, "rows": 2, "wavelength_nm": -633.0}}\n0.1 0.2\n0.3 0.4\n',
     "wavelength must be positive"),
    ("overlap", "[overlap]\nmode_file = {}\n", "1.0 1.0\n0.5 2.0\n",
     "sample radii must be non-negative and strictly increasing"),
    ("strehl", "[strehl]\naluminum_phase = true\nevaluate_nm = 369.5\n"
     "[optics]\nconstants_file = {}\n", "# source: x\n400 0.4 4.0\n200 0.1 2.0\n",
     "wavelengths must increase strictly"),
    ("stokes", "[stokes]\nmanifest = {}\n", _MANIFEST.format(-1),
     "pixel_scale must be positive"),
    ("stokes", "[stokes]\nmanifest = {}\n", _MANIFEST.format(0.01) + "frame_001.pgm 90\n",
     "2 distinct wave-plate angles; at least 5 needed to separate four Stokes parameters"),
], ids=["invalid-index", "duplicate-index", "negative-wavelength", "empty-annulus",
        "negative-map-wavelength", "decreasing-radii", "decreasing-wavelengths",
        "negative-pixel-scale", "two-frames"])
def test_refused_input_values_exit_2_with_one_error_line(tmp_path, capsys, command, config,
                                                         text, message):
    assert_input_file_exits(tmp_path, capsys, command, config, text, 2, message)


# each input file whose text does not follow its format, one or more per
# config key that names a file
@pytest.mark.parametrize("command, config, text, message", [
    ("strehl", "[strehl]\nzernike_file = {}\n", "2 2 0.01\n",
     "missing '# wavelength_nm:' header"),
    ("strehl", "[strehl]\nzernike_file = {}\n", "# wavelength_nm: 632.8\n2.5 2 0.01\n",
     ":2: invalid literal for int() with base 10: '2.5'"),
    ("overlap", "[overlap]\nmode_file = {}\n", "0.5 1.0\n1.0 one\n",
     ":2: could not convert string to float: 'one'"),
    ("strehl", "[strehl]\naluminum_phase = true\nevaluate_nm = 369.5\n"
     "[optics]\nconstants_file = {}\n", "200 0.1 2.0\n400 0.4 4.0\n",
     "no '# source:' line; refusing optical constants without a citation"),
    ("zernike", "[zernike]\nmap_file = {}\n", "0.1 0.2\n0.3 0.4\n",
     "missing JSON header line"),
    ("zernike", "[zernike]\nmap_file = {}\n",
     '# {{"cols": 2, "rows": 2, "wavelength_nm": [633]}}\n0.1 0.2\n0.3 0.4\n',
     "wavelength_nm: float() argument must be a string or a real number, not 'list'"),
    ("zernike", "[zernike]\nmap_file = {}\n",
     '# {{"cols": 2, "rows": 2, "wavelength_nm": null}}\n0.1 0.2\n0.3 0.4\n',
     "wavelength_nm: float() argument must be a string or a real number, not 'NoneType'"),
    ("zernike", "[zernike]\nmap_file = {}\n",
     '# {{"cols": 2, "rows": 2, "wavelength_nm": "x"}}\n0.1 0.2\n0.3 0.4\n',
     "wavelength_nm: could not convert string to float: 'x'"),
    ("zernike", "[zernike]\nmap_file = {}\n",
     '# {{"cols": 2, "rows": 2, "wavelength_nm": true}}\n0.1 0.2\n0.3 0.4\n',
     "wavelength_nm: must be a JSON number, not 'bool'"),
    ("zernike", "[zernike]\nmap_file = {}\n",
     '# {{"cols": 2, "rows": true, "wavelength_nm": 633}}\n0.1 0.2\n',
     "grid header rows and cols must be non-negative integers, got true and 2"),
    ("stokes", "[stokes]\nmanifest = {}\n", "# center: 2 2\nframe_000.pgm 0\n",
     "manifest lacks pixel_scale or center"),
    ("stokes", "[stokes]\nmanifest = {}\n", _MANIFEST.format("x"),
     "could not convert string to float: 'x'"),
    ("stokes", "[stokes]\nmanifest = {}\n", _MANIFEST.format(0.01) + "truncated.pgm 90\n",
     "{}/truncated.pgm: truncated PGM: 4 x 4 pixels need 32 bytes, found 16"),
], ids=["zernike-headerless", "zernike-fractional-index", "mode-word-for-number",
        "constants-unsourced", "map-headerless", "map-wavelength-list", "map-wavelength-null",
        "map-wavelength-word", "map-wavelength-boolean", "map-rows-boolean",
        "manifest-headerless", "manifest-word-for-pixel-scale",
        "manifest-truncated-pgm"])
def test_malformed_input_files_exit_3_with_one_error_line(tmp_path, capsys, command, config,
                                                          text, message):
    assert_input_file_exits(tmp_path, capsys, command, config, text, 3, message)


def test_zernike_refuses_a_map_whose_pixels_share_one_radius(tmp_path, capsys):
    # the four pixel centres of a 2 x 2 map lie at rho = 1/sqrt(2): a
    # zero-width annulus has no area for the RMS
    map_file = tmp_path / "map.txt"
    map_file.write_text('# {"cols": 2, "rows": 2, "wavelength_nm": 633.0}\n0.1 0.2\n0.3 0.4\n')
    config = write_config(tmp_path, f"[zernike]\nmap_file = {map_file}\ndegree = 0\n")
    code, out, err = run(capsys, "zernike", "--config", config)
    assert code == 2 and out == ""
    [line] = err.splitlines()
    assert line == ("error: the 4 valid pixels all lie at rho 0.7071: "
                    "the fitted annulus has no width")


def test_strehl_cli_compensation_story(tmp_path, capsys):
    from dipolemirror.wavefront import save_expansion

    exp = ZernikeExpansion(terms=((2, 2, 0.04), (3, 1, 0.03)), wavelength_nm=632.8)
    zfile = tmp_path / "figure.txt"
    save_expansion(exp, zfile)
    base = f"[strehl]\nzernike_file = {zfile}\nwaist = 2.2636\nevaluate_nm = 369.5\n"
    compensated = write_config(tmp_path, base, name="comp.ini")
    raw = write_config(tmp_path, base + "compensate = false\n", name="raw.ini")
    _, out_comp, _ = run(capsys, "strehl", "--config", compensated)
    _, out_raw, _ = run(capsys, "strehl", "--config", raw)
    ratio_comp = float(machine_pairs(out_comp)["strehl.ratio"])
    ratio_raw = float(machine_pairs(out_raw)["strehl.ratio"])
    # the fused-silica plate nearly cancels the figure error even at the
    # shorter wavelength; without it the error grows as the ratio of
    # wavelengths
    assert ratio_comp > 0.999
    assert ratio_raw < 0.98
    assert ratio_comp > ratio_raw


def test_report_optimizes_the_waist_once(tmp_path, capsys, monkeypatch):
    from dipolemirror import cli, modes
    from dipolemirror.wavefront import save_expansion

    cli._optimal_waist.cache_clear()
    cli._pulse_overlap.cache_clear()
    zfile = tmp_path / "figure.txt"
    save_expansion(ZernikeExpansion(terms=((2, 2, 0.02),), wavelength_nm=632.8), zfile)
    config = write_config(tmp_path, (
        "[report]\nomega_fraction = compute\neta = compute\nstrehl = compute\n"
        f"[strehl]\nzernike_file = {zfile}\n"
    ))
    calls = []
    real = modes.optimize_waist

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(modes, "optimize_waist", counting)
    code, out, _ = run(capsys, "report", "--config", config)
    assert code == 0
    assert len(calls) == 1  # shared by eta and the [strehl] waist
    pairs = machine_pairs(out)

    # the process keeps the waist of its aperture: an identical report,
    # a report with eta fixed, and the strehl subcommand all reuse it
    calls.clear()
    assert run(capsys, "report", "--config", config)[1] == out
    fixed_eta = write_config(tmp_path, (
        "[report]\neta = 0.98\nstrehl = compute\n"
        f"[strehl]\nzernike_file = {zfile}\n"
    ), name="fixed_eta.ini")
    code, out, _ = run(capsys, "report", "--config", fixed_eta)
    assert code == 0
    assert machine_pairs(out)["factor.strehl"] == pairs["factor.strehl"]
    _, reference, _ = run(capsys, "strehl", "--config", config)
    assert pairs["factor.strehl"] == machine_pairs(reference)["strehl.ratio"]
    assert calls == []

    # another aperture is another key
    other = write_config(tmp_path, (
        "[aperture]\nbore_radius_mm = 1.0\n"
        "[report]\nomega_fraction = compute\neta = compute\nstrehl = compute\n"
        f"[strehl]\nzernike_file = {zfile}\n"
    ), name="other_aperture.ini")
    code, out, _ = run(capsys, "report", "--config", other)
    assert code == 0
    assert len(calls) == 1
    assert machine_pairs(out)["factor.eta"] != pairs["factor.eta"]


def run_quiet(*argv):
    """``run`` for property tests, which take no function-scoped fixture."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@st.composite
def pulse_settings(draw):
    """[transition] lifetime and [pulse] keys of a pulse of at most 6,000 bins."""
    lifetime = draw(st.floats(0.5, 300.0))
    duration_lifetimes = draw(st.floats(0.5, 8.0))
    bin_width = duration_lifetimes * lifetime / draw(st.floats(2.0, 4000.0))
    buildup = draw(st.sampled_from([0.0, 2.0, 5.0]) | st.floats(0.0, 10.0))
    assume(buildup * _TAIL_BUILDUPS / bin_width < 2000.0)
    return lifetime, duration_lifetimes, bin_width, buildup


@settings(max_examples=25, deadline=None)
@given(settings_list=st.lists(pulse_settings(), min_size=1, max_size=3))
def test_report_eta_t_matches_the_uncached_pulse(tmp_path_factory, settings_list):
    # configs interleave in one process, each run twice: a cache hit must
    # print what a fresh pulse of its own settings gives, byte for byte
    base = tmp_path_factory.mktemp("pulses")
    for lifetime, duration_lifetimes, bin_width, buildup in settings_list * 2:
        config = write_config(base, (
            f"[transition]\nlabel = X\nwavelength_nm = 500\nlifetime_ns = {lifetime!r}\n"
            f"[pulse]\nduration_lifetimes = {duration_lifetimes!r}\n"
            f"bin_width_ns = {bin_width!r}\nbuildup_ns = {buildup!r}\n"
            "[report]\nomega_fraction = 0.9\neta = 0.9\neta_t = compute\n"
        ))
        code, out, err = run_quiet("report", "--config", config)
        assert code == 0, err
        spec = TransitionSpec("X", 500.0, lifetime)
        drive = aom_drive(spec, duration_lifetimes * lifetime, bin_width)
        overlap = temporal_overlap(aom_response(drive.field_envelope(), buildup), spec)
        assert machine_pairs(out)["factor.eta_t"] == _fmt(overlap.eta_t)


@pytest.mark.parametrize("command", ["report", "pulse"])
def test_a_refused_pulse_is_refused_on_every_call(tmp_path, capsys, command):
    config = write_config(tmp_path, (
        "[report]\nomega_fraction = 0.9\neta = 0.9\neta_t = compute\n"
        "[pulse]\nduration_lifetimes = 1e300\n"
    ))
    errors = set()
    for _ in range(3):
        code, out, err = run(capsys, command, "--config", config)
        assert code == 2 and out == ""
        errors.add(err)
    [err] = errors
    assert err == "error: a pulse of 2e+303 bins exceeds the limit of 10,000,000 bins\n"


def test_strehl_requires_section(capsys):
    code, _, err = run(capsys, "strehl")
    assert code == 2
    assert "[strehl] section is required" in err


# the exit code README documents for each class in errors, and for OSError
EXIT_CODES = {
    errors.ConfigError: 2, errors.DomainError: 2, errors.DeterminacyError: 2,
    errors.CoverageError: 2, errors.UndefinedOverlapError: 2,
    errors.FormatError: 3, errors.ProvenanceError: 3, OSError: 3,
    errors.ConvergenceError: 4,
}


def test_exit_codes_cover_every_error_class():
    classes = {value for value in vars(errors).values() if isinstance(value, type)}
    assert classes | {OSError} == set(EXIT_CODES)


@pytest.mark.parametrize("error", EXIT_CODES, ids=lambda error: error.__name__)
def test_the_error_class_picks_the_exit_code(tmp_path, capsys, monkeypatch, error):
    from dipolemirror import focalfield

    def failing_strehl(*args, **kwargs):
        extra = (0.5,) if error is errors.CoverageError else ()
        raise error("synthetic: quadrature never settled", *extra)

    monkeypatch.setattr(focalfield, "strehl", failing_strehl)
    config = write_config(tmp_path, "[strehl]\nwaist = 2.2636\n")
    code, out, err = run(capsys, "strehl", "--config", config)
    assert (code, out) == (EXIT_CODES[error], "")
    assert err == "error: synthetic: quadrature never settled\n"


def test_strehl_prints_the_offset_at_search_resolution(tmp_path, capsys, monkeypatch):
    from dipolemirror import focalfield
    from dipolemirror.focalfield import StrehlResult

    def offset_strehl(offset):
        return lambda *args, **kwargs: StrehlResult(
            ratio=0.99, nominal=0.98, peak_offset_lambda=offset, rms_waves=0.01,
            n_theta=512, n_phi=512)

    config = write_config(tmp_path, "[strehl]\nwaist = 2.2636\n")
    # the offset prints at 1e-6 lambda: rounding noise of either sign prints as 0
    for noise in (2.2e-16, -2.2e-16, -4e-7):
        monkeypatch.setattr(focalfield, "strehl", offset_strehl(noise))
        code, out, _ = run(capsys, "strehl", "--config", config)
        assert code == 0
        assert "axial peak offset       = +0.0000 lambda" in out
        assert machine_pairs(out)["strehl.peak_offset_lambda"] == "0"
    monkeypatch.setattr(focalfield, "strehl", offset_strehl(-0.01234567891))
    _, out, _ = run(capsys, "strehl", "--config", config)
    assert "axial peak offset       = -0.0123 lambda" in out
    assert machine_pairs(out)["strehl.peak_offset_lambda"] == "-0.012346"


def test_output_mirror_is_byte_identical(tmp_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    code, stdout_a, _ = run(capsys, "solid-angle", "--out", str(out_a))
    assert code == 0
    run(capsys, "solid-angle", "--out", str(out_b))
    file_a = (out_a / "solid_angle.txt").read_bytes()
    file_b = (out_b / "solid_angle.txt").read_bytes()
    assert file_a == file_b
    assert file_a.decode() == stdout_a


def test_config_digest_tracks_content(tmp_path, capsys):
    config = write_config(tmp_path, "[aperture]\nfocal_length_mm = 2.1\n")
    _, out_default, _ = run(capsys, "solid-angle")
    _, out_config, _ = run(capsys, "solid-angle", "--config", config)
    _, out_again, _ = run(capsys, "solid-angle", "--config", config)
    digest_default = machine_pairs(out_default)["report.digest"]
    digest_config = machine_pairs(out_config)["report.digest"]
    assert digest_default == EMPTY_DIGEST
    assert digest_config != digest_default
    assert machine_pairs(out_again)["report.digest"] == digest_config


def test_verbose_banner(capsys):
    code, _, err = run(capsys, "solid-angle", "--verbose")
    assert code == 0
    assert "solid-angle" in err
