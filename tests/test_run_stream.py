"""``nfclab run`` in one pass over the response's row blocks, against the held path.

``reference.held_cmd_run`` is ``run`` as it held the response and the PDP,
one stage after another.  The streamed command must print, write and exit
exactly as it does at every block height, the window's halo spanning
several blocks included, and on every failing input; its whole traced peak
stays a few blocks, well below the three ``(N, F)`` arrays a held run kept.
"""

import contextlib
import io
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import nfclab
from nfclab import _kernels, cli, synth
from nfclab.cli import EXIT_ANALYSIS_FAILURE, EXIT_WRITE_FAILURE, RUN_FILES, main
from nfclab.scene import load_preset, save_scene
import reference
from test_analysis import BLOCK_SCENES, REFERENCE_SCENES, _sized
from test_cli import count_calls
from test_path_table import benchmark_scene
from test_synth import traced_peak

STREAM_SCENES = {
    "los_lab": lambda: load_preset("los_lab"),
    "olos_baffle": lambda: load_preset("olos_baffle"),
    "one_element": BLOCK_SCENES["one_element"],  # exits 4: no AoD from one element
    "three_points": BLOCK_SCENES["three_points"],
    "window_over_n": lambda: replace(load_preset("olos_baffle"), seed=7, noise_floor_dbm=-90.0),
    "long_sweep": lambda: _sized(benchmark_scene("los_lab", 2, 7), 40001, -90.0),  # a row per block
}
SCENE_ARGS = {"window_over_n": ["--window", "65"]}  # 64 elements: a 0 x 0 map

# rows per block (None: the default budget) and the flags that go with them
HEIGHTS = {
    "one_row_window_7": (1, ["--window", "7"]),  # the window's halo spans six blocks
    "seven_rows": (7, []),  # not a multiple of the window of 4
    "default": (None, []),
}


def _invoke(argv):
    """Exit code, stdout, stderr and artifact bytes of one in-process ``cli.main`` call.

    The output directory's path is replaced by ``OUT`` in both streams.
    """
    out_dir = argv[argv.index("--out") + 1]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    files = {p.name: p.read_bytes() for p in sorted(Path(out_dir).iterdir())}
    return code, stdout.getvalue().replace(out_dir, "OUT"), stderr.getvalue().replace(out_dir, "OUT"), files


def _held(monkeypatch, argv):
    with monkeypatch.context() as patch:
        patch.setattr(cli, "cmd_run", reference.held_cmd_run)
        return _invoke(argv)


@pytest.mark.parametrize("height", sorted(HEIGHTS))
@pytest.mark.parametrize("name", sorted(STREAM_SCENES))
def test_streamed_run_matches_held_run_at_every_block_height(tmp_path, monkeypatch, name, height):
    scene = STREAM_SCENES[name]()
    scenario = tmp_path / "scene.scene"
    save_scene(scene, scenario)
    rows, flags = HEIGHTS[height]
    args = ["run", str(scenario), *flags, *SCENE_ARGS.get(name, [])]
    held = _held(monkeypatch, args + ["--out", str(tmp_path / "held")])
    if rows is not None:
        monkeypatch.setattr(_kernels, "BLOCK_SAMPLES", rows * scene.sweep.n_points)
    streamed = _invoke(args + ["--out", str(tmp_path / "streamed")])
    assert streamed[:3] == held[:3]
    assert streamed[3].keys() == held[3].keys()
    for file, data in held[3].items():
        assert streamed[3][file] == data, file
    if name == "one_element":
        assert held[0] == EXIT_ANALYSIS_FAILURE and not held[3]
    else:
        assert held[0] == 0 and sorted(held[3]) == sorted(RUN_FILES)
    if name in ("window_over_n", "long_sweep"):
        assert held[3]["cmd_map.csv"] == b"i,j,D\r\n"


# failing inputs: scene changes and flags
FAILURES = {
    "not_finite": ({"f_start": 1e-300, "f_stop": 1e9, "n_points": 5}, []),  # the wavelength overflows
    "not_finite_two_points": ({"f_start": 1e-300, "f_stop": 1e9, "n_points": 2}, []),
    "power_overflows": ({"f_start": 1e-200, "f_stop": 1e9, "n_points": 5}, []),  # |H|^2 overflows
    "power_overflows_two_points": ({"f_start": 1e-200, "f_stop": 1e9, "n_points": 2}, []),  # the window first
    "correlation_overflows": ({"f_start": 1e-100, "f_stop": 1e9, "n_points": 5}, []),  # |R|^2 overflows
    "power_overflows_1e-150": ({"f_start": 1e-150, "f_stop": 1e9, "n_points": 5}, []),
    "two_points": ({"n_points": 2}, []),
    "two_points_buried": ({"n_points": 2}, ["--noise-floor=20"]),
    "all_noise": ({"f_start": 1e300, "f_stop": 2e300}, []),  # every |H|^2 underflows to 0
    "all_noise_one_element": ({"f_start": 1e300, "f_stop": 2e300, "n_elements": 1}, []),
    "buried": ({}, ["--noise-floor=20"]),
    "buried_one_element": ({"n_elements": 1}, ["--noise-floor=20"]),
    "one_element": ({"n_elements": 1}, []),
}
# the one line of each near-0 Hz scene
NEAR_0_HZ_LINES = {
    "correlation_overflows": "analysis error: window correlations must have finite norms: |R|^2 overflows float64",
    **dict.fromkeys(("power_overflows", "power_overflows_1e-150"),
                    "analysis error: received power must be finite: |H|^2 overflows float64"),
}


@pytest.mark.parametrize("case", sorted(FAILURES))
def test_streamed_run_failure_matches_held_run(tmp_path, monkeypatch, case):
    # every check runs after the stream is drained, in the held order: not finite, the Hann
    # window, a power that is not finite, an all-noise profile, the element-1 gate, fewer than
    # 2 elements for the AoD, then a window correlation whose norm overflows
    changes, flags = FAILURES[case]
    changes = dict(changes)
    scene = load_preset("los_lab")
    n_elements = changes.pop("n_elements", scene.array.n_elements)
    scene = replace(scene, array=replace(scene.array, n_elements=n_elements),
                    sweep=replace(scene.sweep, **changes))
    scenario = tmp_path / "scene.scene"
    save_scene(scene, scenario)
    args = ["run", str(scenario), *flags]
    code, stdout, stderr, files = _held(monkeypatch, args + ["--out", str(tmp_path / "held")])
    assert code == EXIT_ANALYSIS_FAILURE and stdout == "" and not files
    [line] = stderr.splitlines()
    assert line.startswith("analysis error: ")
    assert line == NEAR_0_HZ_LINES.get(case, line)
    out = tmp_path / "streamed"
    src = Path(nfclab.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "nfclab.cli", *args, "--out", str(out)],
                          capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == code
    assert proc.stdout == ""
    assert proc.stderr == stderr
    assert not list(out.iterdir())  # no artifact, no staging directory


def test_streamed_run_exits_5_on_unwritable_out_before_synthesis(tmp_path, monkeypatch, capsys):
    # run stages its files before synthesis, so a scene that would fail (a 2-point sweep)
    # exits 5 for an --out it cannot write into, before any synthesis
    def unwritable(*args, **kwargs):
        raise PermissionError(13, "Permission denied", str(tmp_path))
    monkeypatch.setattr(tempfile, "TemporaryDirectory", unwritable)
    calls = count_calls(monkeypatch, {"path_table": synth})
    assert main(["run", "los_lab", "--out", str(tmp_path), "--freq-points", "2"]) == EXIT_WRITE_FAILURE
    assert calls == {"path_table": 0}
    assert capsys.readouterr().err == f"error: cannot write output: [Errno 13] Permission denied: '{tmp_path}'\n"
    assert not list(tmp_path.iterdir())


def _olos_baffle_1024():
    scene = load_preset("olos_baffle")
    return _sized(replace(scene, array=replace(scene.array, n_elements=1024)), 101)


# a held run's traced peak is at least its three (N, F) arrays: the response (16 B a
# sample), its PDP and the LOS truth's amplitude (8 B each), and its W x W CMD map (8 B
# an entry, W = N - 3 windows); the streamed run holds blocks
MEMORY_SCENES = {"sweep_deep": REFERENCE_SCENES["sweep_deep"], "array_wide": REFERENCE_SCENES["array_wide"],
                 "olos_baffle_1024": _olos_baffle_1024}  # the map alone is 8.3 MB


@pytest.mark.parametrize("name, bound", [("sweep_deep", 6.5e6), ("array_wide", 6.5e6), ("olos_baffle_1024", 6.5e6)])
def test_streamed_run_holds_block_scratch_only(tmp_path, name, bound):
    scene = MEMORY_SCENES[name]()
    scenario = tmp_path / f"{name}.scene"
    save_scene(scene, scenario)
    n = scene.array.n_elements
    held = 32 * n * scene.sweep.n_points + 8 * (n - 3) ** 2
    assert bound < held
    argv = ["run", str(scenario), "--out", str(tmp_path / "out")]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0  # imports and first-call caches
        peak = traced_peak(main, argv)
    assert peak <= bound
