import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import scenes

import nfclab
from nfclab.cli import (EXIT_ANALYSIS_FAILURE, EXIT_PARSE_FAILURE,
                        EXIT_UNKNOWN_PRESET, EXIT_WRITE_FAILURE, RUN_FILES, main)
from nfclab.scene import Scatterer, SceneError, load_preset, save_scene


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
    assert run(["run", "olos_baffle", "--out", str(tmp_path)]) == 0
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


@pytest.mark.parametrize("command, preset", [("run", "los_lab"), ("phase-check", "olos_baffle")])
def test_out_directory_named_like_a_preset_does_not_shadow_it(tmp_path, monkeypatch, command, preset):
    # the first command makes the directory ./<preset>; the second must still find the preset
    monkeypatch.chdir(tmp_path)
    for _ in range(2):
        assert run([command, preset, "--out", preset]) == 0
    # a file of that name is a scenario file, and it does shadow the preset
    scene = load_preset(preset)
    monkeypatch.chdir(tmp_path / preset)
    save_scene(replace(scene, array=replace(scene.array, n_elements=8)), preset)
    assert run([command, preset, "--out", "out"]) == 0
    written = Path("out", "cfr.csv" if command == "run" else "phase_check.csv")
    rows = 8 * scene.sweep.n_points if command == "run" else 8
    assert len(written.read_text().splitlines()) == 1 + rows


def test_report_lists_the_slope_minimum_interval(tmp_path):
    # the slope partition folds at DEFAULT_WINDOW_M, whatever --window sets for the CMD partition
    assert run(["run", "los_lab", "--window", "8", "--out", str(tmp_path)]) == 0
    report = (tmp_path / "report.txt").read_text()
    assert "  cmd_min_si = 8\n" in report
    assert "  slope_min_si = 4\n" in report


def test_report_lists_the_full_blockage_threshold(tmp_path):
    # the 80 dB rule picks which element anchors each interval's wavefront on an OLOS scene
    assert run(["run", "los_lab", "--freq-points", "11", "--out", str(tmp_path)]) == 0
    report = (tmp_path / "report.txt").read_text()
    assert "  los_gate_half_width_bins = 2\n  mw_full_blockage_db = 80\n" in report


def test_run_malformed_file_exit_3(tmp_path):
    bad = tmp_path / "bad.scene"
    bad.write_text("[array]\nn_elements = -3\n[rx]\nposition = 0,5,2.5\n")
    assert run(["run", str(bad), "--out", str(tmp_path / "out")]) == EXIT_PARSE_FAILURE


def test_run_analysis_failure_exit_4(tmp_path):
    # the CMD map needs windows of >= 2 elements
    assert run(["run", "los_lab", "--out", str(tmp_path), "--window", "1"]) == EXIT_ANALYSIS_FAILURE


@pytest.mark.parametrize("tau", ["0", "1", "7", "nan"])
def test_out_of_range_cmd_threshold_exit_4_before_synthesis(tmp_path, monkeypatch, capsys, tau):
    from nfclab import synth
    calls = count_calls(monkeypatch, {"path_table": synth})
    assert run(["run", "los_lab", "--out", str(tmp_path), "--cmd-threshold", tau]) == EXIT_ANALYSIS_FAILURE
    assert calls == {"path_table": 0}
    assert capsys.readouterr().err == f"error: --cmd-threshold must lie in (0, 1), got {float(tau):g}\n"
    assert not [name for name in RUN_FILES if (tmp_path / name).exists()]


@pytest.mark.parametrize("window", ["1", "0", "-3"])
def test_window_below_2_exit_4_before_synthesis(tmp_path, monkeypatch, capsys, window):
    from nfclab import synth
    calls = count_calls(monkeypatch, {"path_table": synth})
    assert run(["run", "los_lab", "--out", str(tmp_path), "--window", window]) == EXIT_ANALYSIS_FAILURE
    assert calls == {"path_table": 0}
    assert capsys.readouterr().err == f"error: --window must span >= 2 elements, got {window}\n"
    assert not [name for name in RUN_FILES if (tmp_path / name).exists()]


@pytest.mark.parametrize("args, option", [(["run", "los_lab", "--windo", "8"], "--windo"),
                                          (["phase-check", "los_lab", "--dist", "4"], "--dist")])
def test_abbreviated_long_option_is_a_usage_error(tmp_path, capsys, args, option):
    with pytest.raises(SystemExit) as exit_info:
        run([*args, "--out", str(tmp_path)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: nfclab ")
    assert err.endswith(f"error: unrecognized arguments: {option} {args[-1]}\n")
    assert not list(tmp_path.iterdir())


def test_criterion_option_is_a_usage_error(tmp_path, capsys):
    # run always makes both partitions; there is no option that picks one
    with pytest.raises(SystemExit) as exit_info:
        run(["run", "los_lab", "--criterion", "cmd", "--out", str(tmp_path)])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.endswith("error: unrecognized arguments: --criterion cmd\n")
    assert not list(tmp_path.iterdir())


# each command's fast successful line, and the file names it writes
COMMANDS = {"run": (["run", "los_lab", "--freq-points", "11"], RUN_FILES),
            "phase-check": (["phase-check", "los_lab"], ("phase_check.csv",))}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_invalid_override_deletes_the_previous_files(tmp_path, capsys, command):
    argv, names = COMMANDS[command]
    assert run([*argv, "--out", str(tmp_path)]) == 0
    assert all((tmp_path / name).exists() for name in names)
    capsys.readouterr()
    assert run([*argv, "--seed=-1", "--out", str(tmp_path)]) == EXIT_ANALYSIS_FAILURE
    assert capsys.readouterr().err == "error: invalid override: seed: must lie in [0, 2**64), got -1\n"
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, code, message", [
    # phase-check's deletion of phase_check.csv finds that --out is no directory
    ("phase-check", EXIT_WRITE_FAILURE, "error: cannot write output: [Errno 20] Not a directory: "),
    # run deletes from a directory only, and makes --out after the override check
    ("run", EXIT_ANALYSIS_FAILURE, "error: invalid override: seed: "),
], ids=["phase-check", "run"])
def test_invalid_override_with_a_regular_file_out(tmp_path, capsys, command, code, message):
    taken = tmp_path / "taken"
    taken.touch()
    assert run([*COMMANDS[command][0], "--seed=-1", "--out", str(taken)]) == code
    assert capsys.readouterr().err.startswith(message)
    assert taken.read_bytes() == b""


@pytest.mark.parametrize("n_elements", [2, 5], ids=["2_elements", "5_elements"])
def test_run_two_element_scene_degrades_with_warnings(tmp_path, n_elements):
    scene = load_preset("los_lab")
    tiny = tmp_path / "tiny.scene"
    save_scene(replace(scene, array=replace(scene.array, n_elements=n_elements)), tiny)
    out = tmp_path / "out"
    assert run(["run", str(tiny), "--out", str(out)]) == 0
    report = (out / "report.txt").read_text()
    assert "FAIL" not in report
    if n_elements == 2:  # shorter than one window: an empty map, and too short for a slope
        assert "cmd warning:" in report and "slope warning:" in report
        assert (out / "cmd_map.csv").read_bytes() == b"i,j,D\r\n"
        assert len((out / "partition.csv").read_text().splitlines()) == 3
    else:  # m <= n < 2m: a 2 x 2 map of windows, one cmd interval, and a slope
        assert "cmd warning: array of 5 elements shorter than two windows of 4" in report
        assert "slope warning:" not in report
        rows = (out / "cmd_map.csv").read_text().splitlines()
        assert rows[0] == "i,j,D" and [row.split(",")[:2] for row in rows[1:]] == [
            ["1", "1"], ["1", "2"], ["2", "1"], ["2", "2"]]
        assert "0,1,5,cmd," in (out / "partition.csv").read_text().splitlines()


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
    """Every nfclab module that binds ``element_geometry``, the synth module that defines it included."""
    from nfclab import analysis, cli, multiplanar, scene, stationarity, synth, wavefront
    return tuple(module for module in (analysis, cli, multiplanar, scene, stationarity, synth, wavefront)
                 if hasattr(module, "element_geometry"))


@pytest.mark.parametrize("preset", ["los_lab", "olos_baffle"])
def test_run_gates_and_profiles_once(tmp_path, monkeypatch, preset):
    from nfclab import _kernels, analysis, multiplanar, stationarity, synth, wavefront
    calls = count_calls(monkeypatch, {"_Gate": analysis, "streamed_stats": analysis, "accumulate_paths": _kernels,
                                      "path_table": synth, "los_geometry": multiplanar,
                                      "multiplanar_errors": multiplanar, "model_phases": wavefront,
                                      "element_geometry": geometry_bindings(), "WindowBands": stationarity,
                                      "phasor_grid": _kernels})
    assert run(["run", preset, "--out", str(tmp_path)]) == 0
    # one path table, one kernel pass, one gate and one PDP per block, one band build and one
    # direct-path geometry; all 8 mw rows share one pass over the LOS truth; the sweep grid is
    # checked once by each stage that makes phasors, the kernel and the mw error, not once per block
    assert calls == {"_Gate": 1, "streamed_stats": 1, "accumulate_paths": 1, "path_table": 1, "los_geometry": 1,
                     "multiplanar_errors": 1, "model_phases": 1, "element_geometry": 1, "WindowBands": 1,
                     "phasor_grid": 2}


@pytest.mark.parametrize("preset, n_refs", [("los_lab", 6), ("olos_baffle", 8)])
def test_mw_table_scores_each_distinct_reference_index_once(tmp_path, monkeypatch, preset, n_refs):
    # on los_lab the CMD and slope partitions are one interval each, so their index is
    # dyadic_2^0's; on olos_baffle no index repeats
    from nfclab import multiplanar
    received = []

    def recording(scene, table, geometry, refs, _original=multiplanar.multiplanar_errors):
        received.append(len(refs))
        return _original(scene, table, geometry, refs)
    monkeypatch.setattr(multiplanar, "multiplanar_errors", recording)
    assert run(["run", preset, "--out", str(tmp_path)]) == 0
    assert received == [n_refs]
    rows = (tmp_path / "mw_error.csv").read_text().splitlines()[1:]
    assert len(rows) == 8
    if preset == "los_lab":  # the rows that share dyadic_2^0's index share its score
        one = [row.split(",", 1)[1] for row in rows if row.split(",")[1] == "1"]
        assert len(one) == 3 and len(set(one)) == 1


def test_run_correlates_windows_once(tmp_path, monkeypatch):
    from nfclab import stationarity
    calls = count_calls(monkeypatch, {"correlations": stationarity.WindowBands})
    assert run(["run", "olos_baffle", "--out", str(tmp_path)]) == 0
    assert calls == {"correlations": 1}


def test_out_of_memory_exit_4_without_traceback(tmp_path, monkeypatch, capsys):
    # an input too large to hold (--freq-points 1000000000000) fails in numpy's allocator;
    # the allocation itself is not made here, since an overcommitting host could grant it
    from nfclab import synth

    def response_blocks(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape (1, 1000000000000)")
    monkeypatch.setattr(synth, "response_blocks", response_blocks)
    assert run(["run", "los_lab", "--out", str(tmp_path)]) == EXIT_ANALYSIS_FAILURE
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 7.28 TiB for an array with shape (1, 1000000000000)\n"
    assert not [name for name in RUN_FILES if (tmp_path / name).exists()]


def test_phase_check_builds_one_path_table(tmp_path, monkeypatch):
    from nfclab import _kernels, multiplanar, synth, wavefront
    calls = count_calls(monkeypatch, {"accumulate_paths": _kernels, "path_table": synth,
                                      "los_geometry": multiplanar, "model_phases": wavefront,
                                      "far_field_phase": wavefront,
                                      "element_geometry": geometry_bindings(), "phasor_grid": _kernels})
    assert run(["phase-check", "los_lab", "--out", str(tmp_path)]) == 0
    # the whole array's near- and far-field models in one call each, from one geometry, and
    # the kernel's one sweep-grid check
    assert calls == {"accumulate_paths": 1, "path_table": 1, "los_geometry": 0,
                     "model_phases": 1, "far_field_phase": 1, "element_geometry": 1, "phasor_grid": 1}


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


def test_run_leaves_numpy_ma_unimported(tmp_path):
    # np.median imports numpy.ma on its first call, about 13 ms and 0.4 MB; run takes its medians without it
    src = Path(nfclab.__file__).resolve().parents[1]
    code = "import sys\nfrom nfclab.cli import main\nassert main(sys.argv[1:]) == 0\nprint('numpy.ma' in sys.modules)"
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code, "run", "olos_baffle", "--out", str(tmp_path)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert "slope partition" in proc.stdout  # both medians ran
    assert proc.stdout.splitlines()[-1] == "False"


_FAILING_EXPORT = """
import sys
import nfclab.{module} as module
from nfclab.cli import main

def fail(*args, **kwargs):
    raise OSError(28, "No space left on device")

module.{name} = fail
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("command, module, name", [
    ("run", "_csvout", "open_csv"),  # the first file, cfr.csv, opened before synthesis
    ("run", "stationarity", "export_cmd_map_csv"),  # after four files are written
    ("run", "multiplanar", "export_mw_error_csv"),  # the last CSV
    ("phase-check", "_csvout", "write_csv"),
])
def test_failed_export_exit_5_leaves_no_artifact(tmp_path, command, module, name):
    # the files are written into a temporary directory and moved in once all are written
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("not an artifact\n")
    files = RUN_FILES if command == "run" else ("phase_check.csv",)
    for file in files:  # a previous command's complete set
        (out / file).write_text("old\n")
    src = Path(nfclab.__file__).resolve().parents[1]
    code = _FAILING_EXPORT.format(module=module, name=name)
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code, command, "los_lab", "--out", str(out)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == EXIT_WRITE_FAILURE
    assert "Traceback" not in proc.stderr
    assert proc.stderr == "error: cannot write output: [Errno 28] No space left on device\n"
    assert proc.stdout == ""
    assert sorted(p.name for p in out.iterdir()) == ["notes.txt"]


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


@pytest.mark.parametrize("command", ["run", "phase-check"])
@pytest.mark.parametrize("warnings", [[], ["-W", "error"]], ids=["default", "W_error"])
@pytest.mark.parametrize("n_points", [5, 2])
def test_near_0_hz_sweep_exit_4_with_one_line(tmp_path, command, warnings, n_points):
    # the wavelength c / 1e-300 Hz overflows to inf; the response's finite check reports it
    scene = load_preset("los_lab")
    path = tmp_path / "near_0_hz.scene"
    save_scene(replace(scene, sweep=replace(scene.sweep, f_start=1e-300, n_points=n_points)), path)
    src = Path(nfclab.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, *warnings, "-m", "nfclab.cli", command, str(path),
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == EXIT_ANALYSIS_FAILURE
    assert proc.stderr.splitlines() == ["analysis error: values must be finite"]
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("command", ["run", "phase-check"])
@pytest.mark.parametrize("warnings", [[], ["-W", "error"]], ids=["default", "W_error"])
def test_near_0_hz_sweep_with_a_silent_path_exit_4_with_one_line(tmp_path, command, warnings):
    # a scatterer of amplitude 0 times the infinite wavelength c / 1e-300 Hz is NaN; the
    # response's finite check reports it as for every other path
    scene = load_preset("los_lab")
    silent = Scatterer(position=(1.0, 3.0, 2.0), amplitude=0.0)
    path = tmp_path / "silent_path.scene"
    save_scene(replace(scene, point_scatterers=scene.point_scatterers + (silent,),
                       sweep=replace(scene.sweep, f_start=1e-300, n_points=5)), path)
    src = Path(nfclab.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, *warnings, "-m", "nfclab.cli", command, str(path),
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert (proc.returncode, proc.stdout) == (EXIT_ANALYSIS_FAILURE, "")
    assert proc.stderr.splitlines() == ["analysis error: values must be finite"]


@pytest.mark.parametrize("warnings", [[], ["-W", "error"]], ids=["default", "W_error"])
@pytest.mark.parametrize("f_start, message", [
    (1e-299, "received power must be finite: |H|^2 overflows float64"),
    (1e-200, "received power must be finite: |H|^2 overflows float64"),
    (1e-100, "window correlations must have finite norms: |R|^2 overflows float64"),
])
def test_near_0_hz_band_run_exit_4_with_one_line(tmp_path, warnings, f_start, message):
    # the wavelengths are finite, but |H|^2, or the window correlations' norms, overflow
    scene = load_preset("los_lab")
    path = tmp_path / "near_0_hz.scene"
    save_scene(replace(scene, sweep=replace(scene.sweep, f_start=f_start, n_points=5)), path)
    src = Path(nfclab.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, *warnings, "-m", "nfclab.cli", "run", str(path),
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert (proc.returncode, proc.stdout) == (EXIT_ANALYSIS_FAILURE, "")
    assert proc.stderr.splitlines() == [f"analysis error: {message}"]
    assert not [p for p in (tmp_path / "out").iterdir()]


@pytest.mark.parametrize("warnings", [[], ["-W", "error"]], ids=["default", "W_error"])
@pytest.mark.parametrize("preset", ["los_lab", "olos_baffle"])
@pytest.mark.parametrize("band, message", [
    # the delay axis spans ~1e121 s, so the delay-spread moments overflow
    ((1e-120, 1.3e-120), "delay-spread moments must be finite: the PDP's moments over a delay axis of "
                         "1.33e+121 s overflow float64"),
    # 1 / bandwidth is 3e300 s, so pdp.csv's delay column overflows in ns before synthesis
    ((1e-300, 1.3e-300), "pdp delay axis must be finite: bins of 1/bandwidth = 3.33e+300 s overflow float64 in ns"),
], ids=["delay_spread", "pdp_delay_axis"])
def test_near_0_hz_narrow_band_run_exit_4_with_one_line(tmp_path, warnings, preset, band, message):
    scene = load_preset(preset)
    path = tmp_path / "narrow.scene"
    save_scene(replace(scene, array=replace(scene.array, n_elements=8),
                       sweep=replace(scene.sweep, f_start=band[0], f_stop=band[1], n_points=5)), path)
    src = Path(nfclab.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, *warnings, "-m", "nfclab.cli", "run", str(path),
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert (proc.returncode, proc.stdout) == (EXIT_ANALYSIS_FAILURE, "")
    assert proc.stderr.splitlines() == [f"analysis error: {message}"]
    assert not [p for p in (tmp_path / "out").iterdir()]


@pytest.mark.parametrize("warnings", [[], ["-W", "error"]], ids=["default", "W_error"])
@pytest.mark.parametrize("preset", ["los_lab", "olos_baffle"])
def test_near_0_hz_one_element_phase_check_exit_0_silent(tmp_path, warnings, preset):
    # from 1e-150 to 2e-150 Hz the LOS gate's power overflows float64: it is above any noise level
    scene = load_preset(preset)
    path = tmp_path / "one_element.scene"
    save_scene(replace(scene, array=replace(scene.array, n_elements=1),
                       sweep=replace(scene.sweep, f_start=1e-150, f_stop=2e-150, n_points=32)), path)
    src = Path(nfclab.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, *warnings, "-m", "nfclab.cli", "phase-check", str(path),
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert (proc.returncode, proc.stderr) == (0, "")
    assert (tmp_path / "out" / "phase_check.csv").read_text().splitlines()[1].startswith("1,0.0,")


@pytest.mark.parametrize("warnings", [[], ["-W", "error"]], ids=["default", "W_error"])
@pytest.mark.parametrize("preset", ["los_lab", "olos_baffle"])
def test_constant_los_phase_run_reports_nan_correlation(tmp_path, warnings, preset):
    # at a 1 nm pitch with the receiver 1e9 times as far, every element's LOS phase is the same:
    # the correlation with the model is undefined, which the report records as nan and a FAIL
    scene = load_preset(preset)
    path = tmp_path / "constant.scene"
    save_scene(replace(scene, array=replace(scene.array, spacing_d=1e-9),
                       rx=tuple(1e9 * x for x in scene.rx)), path)
    src = Path(nfclab.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, *warnings, "-m", "nfclab.cli", "run", str(path),
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "LOS phase vs closed-form model correlation: nan\n" in proc.stdout
    report = (tmp_path / "out" / "report.txt").read_text()
    assert "  LOS phase vs closed-form model correlation: nan\n" in report
    assert "  FAIL  phase_model_correlation_gt_0.99\n" in report


@pytest.mark.parametrize("warnings", [[], ["-W", "error"]], ids=["default", "W_error"])
@pytest.mark.parametrize("preset", ["los_lab", "olos_baffle"])
@pytest.mark.parametrize("band", [(1e-150, 1e-140), (1e-290, 2e-290)])
def test_near_0_hz_phase_check_names_the_receiver_on_the_array(tmp_path, warnings, preset, band):
    # near 0 Hz the Rayleigh distance 2 D^2 / lambda is far below the 1 nm coincidence
    # tolerance, so --distance-mult 1 puts the receiver on element 1
    scene = load_preset(preset)
    scene = replace(scene, sweep=replace(scene.sweep, f_start=band[0], f_stop=band[1], n_points=32))
    path = tmp_path / "near_0_hz.scene"
    save_scene(scene, path)
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "phase_check.csv").write_text("stale\n")
    r_d = nfclab.wavefront.rayleigh_distance(scene.array.aperture, scene.sweep.lambda_center)
    src = Path(nfclab.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, *warnings, "-m", "nfclab.cli", "phase-check", str(path),
                           "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert (proc.returncode, proc.stdout) == (EXIT_ANALYSIS_FAILURE, "")
    assert proc.stderr.splitlines() == [f"error: --distance-mult 1 times the Rayleigh distance ({r_d:g} m) "
                                        f"puts the receiver {r_d:g} m from element 1, on an array element"]
    assert not [p for p in (tmp_path / "out").iterdir()]


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


@settings(max_examples=150, deadline=None)
@given(scene=scenes(min_elements=1, max_elements=16, n_points=st.integers(2, 64)),
       noise_floor=st.one_of(st.none(), st.floats(-130.0, 20.0)), seed=st.integers(0, 2 ** 32),
       window=st.sampled_from([2, 3, 4, 5, 8, 1, 0, -1]),  # the last three exit 4
       tau=st.sampled_from([0.05, 0.1, 0.3, 0.5, 0.9, 0.999, 0.0, 1.0, -0.5, 7.0, math.nan]))
def test_run_never_raises_on_random_scenes(scene, noise_floor, seed, window, tau):
    scene = replace(scene, noise_floor_dbm=noise_floor, seed=seed)
    try:
        scene.validate()
        valid = True
    except SceneError:
        valid = False  # rx on an element: the scenario file itself is rejected
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "random.scene", Path(tmp) / "out"
        save_scene(scene, path)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
            code = run(["run", str(path), "--out", str(out), f"--window={window}",
                        f"--cmd-threshold={tau!r}"])
        if not valid:
            assert code == EXIT_PARSE_FAILURE
        else:
            assert code in (0, EXIT_ANALYSIS_FAILURE)
        if code != 0:
            [line] = stderr.getvalue().splitlines()
            assert line.startswith(("error: ", "analysis error: "))
            assert not [name for name in RUN_FILES if (out / name).exists()]
            return
        for name in RUN_FILES:
            assert (out / name).stat().st_size > 0, name
        rows = [line.split(",") for line in (out / "partition.csv").read_text().splitlines()[1:]]
        assert {r[3] for r in rows} == {"cmd", "slope"}
        for c in ("cmd", "slope"):  # each partition covers elements 1..N
            bounds = [(int(r[1]), int(r[2])) for r in rows if r[3] == c]
            assert [s for s, _ in bounds] == [1] + [e + 1 for _, e in bounds[:-1]]
            assert bounds[-1][1] == scene.array.n_elements
        dmap = [float(line.split(",")[2]) for line in (out / "cmd_map.csv").read_text().splitlines()[1:]]
        assert all(0.0 <= d <= 1.0 for d in dmap)
