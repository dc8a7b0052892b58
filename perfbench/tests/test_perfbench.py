"""Tests of the pipeline benchmark itself, on tiny generated scenes.

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import inputs  # noqa: E402
import run as runner  # noqa: E402
from checks import Tally, check_invocation  # noqa: E402
from tracer import PER_LAYER, self_times, trace_workload  # noqa: E402
from workloads import RUN_FILES, WORKLOADS, Workload  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_RUN = Workload(name="tiny_run", why="", preset="olos_baffle", n_elements=12,
                    n_points=64, command="run")
TINY_CHECK = Workload(name="tiny_check", why="", preset="olos_baffle", n_elements=16,
                      n_points=64, command="phase-check", extra_args=("--distance-mult", "4"),
                      min_phase_corr=0.9999)  # coarse tiny sweep: looser than far_check


@pytest.fixture
def scene(tmp_path):
    def make(workload, seed=3):
        path = tmp_path / f"{workload.name}-{seed}.scene"
        inputs.write_scene(workload, seed, path)
        return path
    return make


def test_benchmark_json_lists_the_workloads_and_metrics():
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == \
        list(PER_LAYER)
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


def test_run_files_mirror_the_cli():
    from nfclab import cli
    assert RUN_FILES == cli.RUN_FILES


def test_generator_is_seeded(tmp_path):
    w = WORKLOADS["array_wide"]
    a = inputs.write_scene(w, 5, tmp_path / "a.scene")
    b = inputs.write_scene(w, 5, tmp_path / "b.scene")
    c = inputs.write_scene(w, 6, tmp_path / "c.scene")
    assert a == b != c
    preset = inputs.load_preset(w.preset)
    jittered = inputs.make_scene(w, 6)
    assert jittered.array.n_elements == 512 and jittered.sweep.n_points == 401
    moved = [abs(x - y) for x, y in zip(jittered.rx, preset.rx)]
    assert 0 < max(moved) <= inputs.JITTER_M
    assert jittered.blockers == preset.blockers


@pytest.mark.parametrize("workload", [TINY_RUN, TINY_CHECK], ids=lambda w: w.name)
def test_traced_run_emits_every_per_layer_metric(workload, scene, tmp_path):
    metrics, tracer, missing, invoker = trace_workload(
        workload, scene(workload), seed=3, seconds=0.0, work=tmp_path)
    assert missing == []
    assert invoker.tally.failed == 0, invoker.tally.errors
    assert list(metrics) == [name for name, _, _ in PER_LAYER]
    assert all(isinstance(v, (int, float)) for v in metrics.values())
    root = "cli.cmd_run_s" if workload.command == "run" else "cli.cmd_phase_check_s"
    assert metrics[root] > 0
    assert metrics["synth.kernel_evals"] > 0


def test_self_times_sum_to_the_root(scene, tmp_path):
    _, tracer, _, _ = trace_workload(TINY_RUN, scene(TINY_RUN), seed=3, seconds=0.0,
                                     work=tmp_path)
    by_id = {s.id: s for s in tracer.spans}
    roots = [s for s in tracer.spans if s.parent is None]
    assert [r.name for r in roots] == ["cli.cmd_run"]
    for s in tracer.spans:
        if s.parent is not None:
            parent = by_id[s.parent]
            assert parent.start <= s.start <= s.end <= parent.end
    own = self_times(tracer.spans)
    assert all(v >= -1e-9 for v in own.values())
    assert sum(own.values()) == pytest.approx(roots[0].duration, rel=1e-9, abs=1e-9)


def test_checks_catch_broken_outputs(scene, tmp_path):
    out = tmp_path / "out"
    from nfclab import cli
    argv = TINY_RUN.cli_args(str(scene(TINY_RUN)), str(out), seed=3)
    assert cli.main(argv) == 0
    errors, digests, nbytes = check_invocation(TINY_RUN, out, 0, "")
    assert errors == [] and set(digests) == set(RUN_FILES) and nbytes > 0

    assert check_invocation(TINY_RUN, out, 4, "")[0] == ["exit code 4"]
    assert check_invocation(TINY_RUN, out, 0, "FAIL  x\n")[0] == ["FAIL line on stdout"]
    far = replace(TINY_RUN, cmd_boundary=(100, 200))
    assert "no cmd boundary" in check_invocation(far, out, 0, "")[0][0]
    report = out / "report.txt"
    report.write_text(report.read_text().replace("PASS  partitions", "FAIL  partitions"))
    assert "report checks" in check_invocation(TINY_RUN, out, 0, "")[0][0]
    (out / "cmd_map.csv").write_text("")
    assert check_invocation(TINY_RUN, out, 0, "")[0] == ["missing or empty artifact cmd_map.csv"]


def test_tally_requires_identical_artifacts():
    tally = Tally()
    tally.add([], {"cfr.csv": "a"})
    tally.add([], {"cfr.csv": "a"})
    tally.add([], {"cfr.csv": "b"})
    tally.add(["exit code 4"], {})
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.errors == ["invocation 3: artifacts differ from the first repetition",
                            "invocation 4: exit code 4"]


def test_end_to_end_metrics_match_benchmark_json(scene, tmp_path, capsys):
    deadline = time.perf_counter() + 120
    result = runner.measure(TINY_CHECK, scene(TINY_CHECK), 3, 0.0, tmp_path,
                            runner.child_env(), deadline)
    assert result["correct"] and result["attempted"] == runner.MIN_INVOCATIONS
    assert result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())



def test_host_speed_sampler_scales_by_the_samples_near_an_interval(tmp_path):
    with hostspeed.Sampler(runner.child_env(), tmp_path / "samples.log") as sampler:
        start = time.monotonic()
        time.sleep(8 * hostspeed.SAMPLE_EVERY_S)
        end = time.monotonic()
    assert sampler._proc.returncode == 0
    assert len(sampler.samples) >= hostspeed.MIN_SAMPLES
    assert all(d > 0 for _, d in sampler.samples)
    assert sampler.scale(start, end) > 0
    sampler.samples = [(1.0, 0.002), (2.0, 0.004), (3.0, 0.010), (9.0, 0.001)]
    ref = hostspeed.REFERENCE_S
    assert sampler.scale(0.0, 9.0) * (0.017 / 4) == pytest.approx(ref)
    assert sampler.scale(1.0, 2.5) * (0.016 / 3) == pytest.approx(ref)  # 2 inside: nearest 3
    assert sampler.scale(8.0, 10.0) * 0.005 == pytest.approx(ref)  # 9.0, 3.0 and 2.0


def test_runner_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "far_check",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
