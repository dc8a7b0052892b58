import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from strategies import scenes

import nfclab
from nfclab.cli import (EXIT_ANALYSIS_FAILURE, EXIT_PARSE_FAILURE,
                        EXIT_UNKNOWN_PRESET, EXIT_WRITE_FAILURE, RUN_FILES, main)
from nfclab.scene import SceneError, load_preset, save_scene


def run(args):
    return main(args)


def test_run_los_lab(tmp_path, capsys):
    assert run(["run", "los_lab", "--out", str(tmp_path)]) == 0
    for name in RUN_FILES:
        assert (tmp_path / name).exists(), name
    report = (tmp_path / "report.txt").read_text()
    assert "thresholds and defaults used:" in report
    assert "cmd_threshold_tau" in report
    assert "received power spread" in report
    out = capsys.readouterr().out
    assert "PASS" in out


def test_run_olos_notes_boundary_near_26(tmp_path):
    assert run(["run", "olos_baffle", "--out", str(tmp_path), "--criterion", "cmd"]) == 0
    report = (tmp_path / "report.txt").read_text()
    assert "cmd partition" in report
    boundary_line = next(line for line in report.splitlines() if "cmd partition" in line)
    boundaries = [int(tok) for tok in boundary_line.split("boundaries at")[-1].replace(",", " ").split()
                  if tok.isdigit()]
    assert any(24 <= b <= 28 for b in boundaries)
    # power drop visible in stats.csv
    rows = (tmp_path / "stats.csv").read_text().strip().splitlines()[1:]
    power = np.array([float(r.split(",")[1]) for r in rows])
    assert power.max() - power.min() > 10.0


def test_run_missing_file_exit_3(tmp_path):
    assert run(["run", "missing.toml", "--out", str(tmp_path)]) == EXIT_PARSE_FAILURE


def test_run_unknown_preset_exit_2(tmp_path):
    assert run(["run", "not_a_preset", "--out", str(tmp_path)]) == EXIT_UNKNOWN_PRESET


def test_run_malformed_file_exit_3(tmp_path):
    bad = tmp_path / "bad.scene"
    bad.write_text("[array]\nn_elements = -3\n[rx]\nposition = 0,5,2.5\n")
    assert run(["run", str(bad), "--out", str(tmp_path / "out")]) == EXIT_PARSE_FAILURE


def test_run_analysis_failure_exit_4(tmp_path):
    # the CMD map needs windows of >= 2 elements even when only the slope criterion runs
    assert run(["run", "los_lab", "--out", str(tmp_path),
                "--criterion", "slope", "--window", "1"]) == EXIT_ANALYSIS_FAILURE


@pytest.mark.parametrize("tau", ["0", "1", "7", "nan"])
@pytest.mark.parametrize("criterion", ["cmd", "slope", "both"])
def test_out_of_range_cmd_threshold_exit_4_before_synthesis(tmp_path, monkeypatch, capsys, criterion, tau):
    # report.txt records the threshold whichever criterion runs, so every criterion checks it
    from nfclab import synth
    calls = count_calls(monkeypatch, {"path_table": synth})
    assert run(["run", "los_lab", "--out", str(tmp_path), "--criterion", criterion,
                "--cmd-threshold", tau]) == EXIT_ANALYSIS_FAILURE
    assert calls == {"path_table": 0}
    assert capsys.readouterr().err == f"error: --cmd-threshold must lie in (0, 1), got {float(tau):g}\n"
    assert not [name for name in RUN_FILES if (tmp_path / name).exists()]


def test_run_two_element_scene_degrades_with_warnings(tmp_path):
    scene = load_preset("los_lab")
    tiny = tmp_path / "tiny.scene"
    save_scene(replace(scene, array=replace(scene.array, n_elements=2)), tiny)
    out = tmp_path / "out"
    assert run(["run", str(tiny), "--out", str(out)]) == 0
    report = (out / "report.txt").read_text()
    assert "cmd warning:" in report and "slope warning:" in report
    assert "FAIL" not in report
    assert (out / "cmd_map.csv").read_bytes() == b"i,j,D\r\n"
    assert len((out / "partition.csv").read_text().splitlines()) == 3


def test_run_scenario_file_roundtrip(tmp_path):
    scenario = tmp_path / "small.scene"
    scenario.write_text("[array]\nn_elements = 8\n[sweep]\nn_points = 101\n"
                        "[rx]\nposition = 1.0, 6.0, 2.5\n")
    out = tmp_path / "out"
    assert run(["run", str(scenario), "--out", str(out)]) == 0
    rows = (out / "cfr.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 8 * 101


def test_run_deterministic_outputs(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run(["run", "olos_baffle", "--seed", "7", "--out", str(out1)]) == 0
    assert run(["run", "olos_baffle", "--seed", "7", "--out", str(out2)]) == 0
    for name in RUN_FILES:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


@pytest.mark.parametrize("n_elements", [None, 512])
def test_run_artifacts_independent_of_blas_threads(tmp_path, n_elements):
    # The correlation sums and the CMD Gram product bypass BLAS, whose threaded
    # reductions round differently with the thread count.
    scene = load_preset("olos_baffle")
    if n_elements:
        scene = replace(scene, array=replace(scene.array, n_elements=n_elements))
    scenario = tmp_path / "scene.scene"
    save_scene(scene, scenario)
    src = Path(nfclab.__file__).resolve().parents[1]
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run([sys.executable, "-m", "nfclab.cli", "run", str(scenario), "--out", str(out)],
                              capture_output=True, text=True, timeout=300,
                              env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        outs.append(out)
    for name in RUN_FILES:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_noise_floor_flag_changes_cfr(tmp_path):
    quiet, noisy = tmp_path / "q", tmp_path / "n"
    assert run(["run", "los_lab", "--out", str(quiet)]) == 0
    assert run(["run", "los_lab", "--out", str(noisy), "--noise-floor", "-90",
                "--seed", "3"]) == 0
    assert (quiet / "cfr.csv").read_bytes() != (noisy / "cfr.csv").read_bytes()


def test_freq_points_override(tmp_path):
    out = tmp_path / "out"
    assert run(["run", "los_lab", "--out", str(out), "--freq-points", "201"]) == 0
    rows = (out / "cfr.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 64 * 201


def test_phase_check_close_range(tmp_path, capsys):
    assert run(["phase-check", "los_lab", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    corr = float(out.split("corr(measured, near-field model) = ")[1].splitlines()[0])
    assert corr > 0.99
    assert (tmp_path / "phase_check.csv").exists()


def test_phase_check_far_field_limit(tmp_path, capsys):
    assert run(["phase-check", "los_lab", "--out", str(tmp_path),
                "--distance-mult", "1000"]) == 0
    out = capsys.readouterr().out
    gap = float(out.split("signed far-field| = ")[1].split(" rad")[0])
    assert gap < 1e-3


def test_phase_check_single_element(tmp_path):
    scenario = tmp_path / "single.scene"
    scenario.write_text("[array]\nn_elements = 1\n[rx]\nposition = 0.5, 6.0, 2.5\n")
    out = tmp_path / "out"
    assert run(["phase-check", str(scenario), "--out", str(out)]) == 0
    rows = (out / "phase_check.csv").read_text().strip().splitlines()
    assert len(rows) == 2
    _, measured, model, far = rows[1].split(",")
    assert float(measured) == 0.0 and float(model) == 0.0 and float(far) == 0.0


def test_two_freq_points_exit_4_without_traceback(tmp_path):
    src = Path(nfclab.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "nfclab.cli", "run", "los_lab",
                           "--out", str(tmp_path), "--freq-points", "2"],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == EXIT_ANALYSIS_FAILURE
    assert "Traceback" not in proc.stderr
    assert "hann window needs >= 3 sweep points" in proc.stderr


@pytest.mark.parametrize("seed", ["-1", "99999999999999999999"])
def test_out_of_range_seed_exit_4_without_traceback(tmp_path, seed):
    src = Path(nfclab.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "nfclab.cli", "run", "los_lab",
                           "--out", str(tmp_path), "--seed", seed, "--noise-floor", "-90"],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == EXIT_ANALYSIS_FAILURE
    assert "Traceback" not in proc.stderr
    assert f"seed: must lie in [0, 2**64), got {seed}" in proc.stderr
    assert "analysis error" not in proc.stderr  # bad input, reported as an invalid override


def test_out_of_range_seed_in_scene_file_exit_3(tmp_path):
    path = tmp_path / "s.scene"
    save_scene(load_preset("los_lab"), path)
    path.write_text(path.read_text() + "\n[noise]\nfloor_dbm = -90\nseed = -1\n")
    assert run(["run", str(path), "--out", str(tmp_path / "out")]) == EXIT_PARSE_FAILURE


def test_failed_run_removes_previous_artifacts(tmp_path):
    assert run(["run", "los_lab", "--out", str(tmp_path)]) == 0
    assert run(["run", "los_lab", "--out", str(tmp_path),
                "--freq-points", "2"]) == EXIT_ANALYSIS_FAILURE
    assert not [name for name in RUN_FILES if (tmp_path / name).exists()]


def test_failed_phase_check_removes_previous_file(tmp_path):
    assert run(["phase-check", "los_lab", "--out", str(tmp_path)]) == 0
    assert run(["phase-check", "los_lab", "--out", str(tmp_path),
                "--distance-mult", "0.5"]) == EXIT_ANALYSIS_FAILURE
    assert not (tmp_path / "phase_check.csv").exists()


@pytest.mark.parametrize("mult", ["nan", "inf"])
def test_phase_check_rejects_non_finite_distance_mult(tmp_path, mult):
    (tmp_path / "phase_check.csv").write_text("stale\n")
    src = Path(nfclab.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "nfclab.cli", "phase-check", "los_lab",
                           "--out", str(tmp_path), "--distance-mult", mult],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == EXIT_ANALYSIS_FAILURE
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert "--distance-mult must be a finite number >= 1" in proc.stderr
    assert not (tmp_path / "phase_check.csv").exists()


@pytest.mark.parametrize("mult, message", [
    # distance_mult * r_d overflows to inf
    ("1e308", "--distance-mult 1e+308 puts the receiver inf m away, too far for float64 path lengths"),
    # finite, but a squared path length would overflow
    ("1e200", "--distance-mult 1e+200 puts the receiver 4.57924e+201 m away"),
    # one float64 step of the distance spans many radians: rejected before synthesis
    pytest.param("1e30", "--distance-mult 1e+30 puts the receiver 4.57924e+31 m away, where one float64 step",
                 id="1e30-unresolved"),
])
def test_phase_check_distance_beyond_float64_exit_4(tmp_path, mult, message):
    (tmp_path / "phase_check.csv").write_text("stale\n")
    src = Path(nfclab.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "nfclab.cli", "phase-check", "los_lab",
                           "--out", str(tmp_path), "--distance-mult", mult],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == EXIT_ANALYSIS_FAILURE
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert message in proc.stderr
    assert "analysis error" not in proc.stderr
    assert not (tmp_path / "phase_check.csv").exists()


def count_calls(monkeypatch, hooks):
    """Count the calls of each ``name: module`` hook through the module attribute.

    A hook may name a tuple of modules instead; its count is then the sum of
    the calls through each module's binding of ``name``.
    """
    calls = dict.fromkeys(hooks, 0)
    for name, modules in hooks.items():
        for module in modules if isinstance(modules, tuple) else (modules,):
            def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
    return calls


def geometry_bindings():
    """Every nfclab module that binds ``element_geometry``, the scene module included."""
    from nfclab import analysis, cli, multiplanar, scene, stationarity, synth, wavefront
    return tuple(module for module in (analysis, cli, multiplanar, scene, stationarity, synth, wavefront)
                 if hasattr(module, "element_geometry"))


@pytest.mark.parametrize("preset", ["los_lab", "olos_baffle"])
def test_run_gates_and_profiles_once(tmp_path, monkeypatch, preset):
    from nfclab import _kernels, analysis, multiplanar, synth, wavefront
    calls = count_calls(monkeypatch, {"gated_los_rows": analysis, "pdp_matrix": analysis,
                                      "accumulate_paths": _kernels, "path_table": synth,
                                      "los_truth": multiplanar, "model_phases": wavefront,
                                      "element_geometry": geometry_bindings()})
    assert run(["run", preset, "--out", str(tmp_path)]) == 0
    # one path table, one kernel pass and one direct-path geometry; all 8 mw rows share one LOS truth
    assert calls == {"gated_los_rows": 1, "pdp_matrix": 1, "accumulate_paths": 1,
                     "path_table": 1, "los_truth": 1, "model_phases": 1, "element_geometry": 1}


def test_phase_check_builds_one_path_table(tmp_path, monkeypatch):
    from nfclab import _kernels, multiplanar, synth, wavefront
    calls = count_calls(monkeypatch, {"accumulate_paths": _kernels, "path_table": synth,
                                      "los_truth": multiplanar, "model_phases": wavefront,
                                      "far_field_phase": wavefront,
                                      "element_geometry": geometry_bindings()})
    assert run(["phase-check", "los_lab", "--out", str(tmp_path)]) == 0
    # the whole array's near- and far-field models in one call each, from one geometry
    assert calls == {"accumulate_paths": 1, "path_table": 1, "los_truth": 0,
                     "model_phases": 1, "far_field_phase": 1, "element_geometry": 1}


@pytest.mark.parametrize("command", ["run", "phase-check"])
def test_unwritable_out_exit_5_without_traceback(tmp_path, command):
    out = tmp_path / "taken"
    out.write_text("a regular file\n")
    src = Path(nfclab.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "nfclab.cli", command, "los_lab", "--out", str(out)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == EXIT_WRITE_FAILURE
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: cannot write output: ")
    assert len(proc.stderr.splitlines()) == 1
    assert out.read_text() == "a regular file\n"


@pytest.mark.parametrize("command", ["run", "phase-check"])
@pytest.mark.parametrize("band", [(-2e9, 2e9), (-15e9, -11e9), (0.0, 4e9)],
                         ids=["zero_centred", "negative", "from_0_hz"])
def test_band_at_or_below_0_hz_exit_3_without_traceback(tmp_path, command, band):
    scene = load_preset("los_lab")
    path = tmp_path / "band.scene"
    save_scene(replace(scene, sweep=replace(scene.sweep, f_start=band[0], f_stop=band[1])), path)
    src = Path(nfclab.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "nfclab.cli", command, str(path),
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == EXIT_PARSE_FAILURE
    assert "Traceback" not in proc.stderr
    assert "f_start: must be > 0 Hz" in proc.stderr


@pytest.mark.parametrize("preset", ["los_lab", "olos_baffle"])
def test_phase_check_unresolved_distance_exit_4(tmp_path, preset):
    src = Path(nfclab.__file__).resolve().parents[1]

    def phase_check(mult):
        return subprocess.run([sys.executable, "-m", "nfclab.cli", "phase-check", preset,
                               "--out", str(tmp_path), "--distance-mult", mult],
                              capture_output=True, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(src)})

    for mult in ("4", "1000"):
        assert phase_check(mult).returncode == 0
        assert (tmp_path / "phase_check.csv").exists()
    proc = phase_check("1e15")  # one ulp of the distance is 2.5e3 rad at 15 GHz
    assert proc.returncode == EXIT_ANALYSIS_FAILURE
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert "--distance-mult 1e+15 puts the receiver 4.57924e+16 m away" in proc.stderr
    assert "the phase profile is not resolved" in proc.stderr
    assert not (tmp_path / "phase_check.csv").exists()


def test_phase_check_rejects_unresolved_distance_before_synthesis(tmp_path, monkeypatch):
    from nfclab import _kernels, synth
    calls = count_calls(monkeypatch, {"accumulate_paths": _kernels, "path_table": synth})
    assert run(["phase-check", "los_lab", "--out", str(tmp_path),
                "--distance-mult", "1e15"]) == EXIT_ANALYSIS_FAILURE
    assert calls == {"accumulate_paths": 0, "path_table": 0}


@pytest.mark.parametrize("flag, code, message", [
    (["--noise-floor", "-inf"], EXIT_UNKNOWN_PRESET, "expected one argument"),  # -inf reads as an option
    (["--noise-floor=-inf"], EXIT_ANALYSIS_FAILURE, "invalid override"),
])
def test_negative_option_value_needs_the_equals_form(tmp_path, flag, code, message):
    src = Path(nfclab.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "nfclab.cli", "run", "los_lab", "--out", str(tmp_path), *flag],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert message in proc.stderr


def test_noise_above_signal_exit_4_names_the_floor(tmp_path):
    src = Path(nfclab.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "nfclab.cli", "run", "los_lab",
                           "--out", str(tmp_path), "--noise-floor", "20"],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == EXIT_ANALYSIS_FAILURE
    assert "Traceback" not in proc.stderr
    assert "LOS gate on element 1" in proc.stderr
    assert "20 dBm noise floor" in proc.stderr
    assert "0 of 64 elements' gates are valid" in proc.stderr


@settings(max_examples=40, deadline=None)
@given(scene=scenes(min_elements=2, max_elements=16, n_points=st.integers(2, 64)),
       noise_floor=st.one_of(st.none(), st.floats(-130.0, 20.0)), seed=st.integers(0, 2 ** 32))
def test_run_never_raises_on_random_scenes(scene, noise_floor, seed):
    scene = replace(scene, noise_floor_dbm=noise_floor, seed=seed)
    try:
        scene.validate()
    except SceneError:
        assume(False)  # rx on an element: the scenario file itself is rejected (exit 3)
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "random.scene", Path(tmp) / "out"
        save_scene(scene, path)
        code = run(["run", str(path), "--out", str(out)])
        assert code in (0, EXIT_ANALYSIS_FAILURE)
        if code != 0:
            return
        for name in RUN_FILES:
            assert (out / name).stat().st_size > 0, name
        rows = [line.split(",") for line in (out / "partition.csv").read_text().splitlines()[1:]]
        for criterion in ("cmd", "slope"):
            bounds = [(int(r[1]), int(r[2])) for r in rows if r[3] == criterion]
            assert [s for s, _ in bounds] == [1] + [e + 1 for _, e in bounds[:-1]]
            assert bounds[-1][1] == scene.array.n_elements
        dmap = [float(line.split(",")[2]) for line in (out / "cmd_map.csv").read_text().splitlines()[1:]]
        assert all(0.0 <= d <= 1.0 for d in dmap)
