"""Pipeline benchmark for ``nfclab run`` / ``nfclab phase-check``.

    python3 perfbench/run.py --workload array_wide --seed 7 --seconds 30 --trace 0

Run from the root of a source checkout (``src/nfclab`` must exist; nothing
is installed or built).  The runner generates the workload's scene from the
seed, then, one child process at a time:

* ``--trace 0``: runs the real CLI in a fresh process per invocation until
  ``--seconds`` are used, each preceded by one ``setup_s`` sample (a fresh
  process that imports nfclab and loads the scene, topped up to
  ``SETUP_REPS``), while a helper process samples the host's speed, and
  reports the end-to-end metrics (medians of times scaled to the reference
  host speed, see hostspeed.py);
* ``--trace 1``: runs ``tracer.py`` in one child, which reports per-layer
  metrics from wrapped module attributes.

Every invocation is checked (exit code, report checks, artifacts present,
byte-identical across repetitions, workload-specific checks).  The last
stdout line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``; lines before it starting with ``#`` record the environment,
the scene hash and the sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import hostspeed
from checks import Tally, check_invocation
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 5
MIN_INVOCATIONS = 3
# Every child must end within this many seconds of the runner's start, so
# the runner ends well within its 180 s limit even when a child hangs.
DEADLINE_S = 165.0
SETUP_CODE = "import sys, nfclab; nfclab.load_scene(sys.argv[1])"


class BenchError(Exception):
    """The benchmark cannot produce a result (exit without printing one)."""


def child_env() -> dict[str, str]:
    """Environment for every child: the checkout's sources, one BLAS thread."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"  # same dict/set layout in every child
    return env


def spawn(argv: list[str], env: dict[str, str], log: Path, deadline: float
          ) -> tuple[int, float, int]:
    """Run one child to completion: (exit code, wall seconds, peak RSS KiB).

    stdout and stderr go to ``log``.  The child is killed at ``deadline``
    (a ``time.perf_counter`` value).  ``os.wait4`` gives this child's own
    rusage, so the peak RSS is the invoked process's and nobody else's.
    """
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(log), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
               (os.POSIX_SPAWN_DUP2, 1, 2)]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    killer = threading.Timer(max(deadline - start, 0.0), os.kill, (pid, signal.SIGKILL))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:  # interrupted (e.g. SIGTERM): leave no child behind
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage.ru_maxrss


def filesystem_type(path: Path) -> str:
    """Filesystem type of ``path`` (tmpfs vs disk changes export timings)."""
    try:
        return subprocess.run(["stat", "-f", "-c", "%T", str(path)], capture_output=True,
                              text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def generate(workload: Workload, seed: int, work: Path, env, deadline) -> tuple[Path, dict]:
    scene = work / f"{workload.name}.scene"
    log = work / "inputs.log"
    code, _, _ = spawn([sys.executable, str(HERE / "inputs.py"), "--workload", workload.name,
                        "--seed", str(seed), "--out", str(scene)], env, log, deadline)
    text = log.read_text(encoding="utf-8", errors="replace")
    if code != 0:
        raise BenchError(f"input generation failed (exit {code}):\n{text}")
    record = json.loads(text.strip().splitlines()[-1])
    if Path(record["env"]["nfclab"]).resolve() != (ROOT / "src" / "nfclab").resolve():
        raise BenchError(f"imported nfclab from {record['env']['nfclab']}, not this checkout")
    return scene, record


def percentile_note(values: list[float]) -> str:
    """The highest of p99/p95/p90/p75 with >= 10 samples beyond it, if any."""
    n = len(values)
    for q in (99, 95, 90, 75):
        if n * (100 - q) / 100 >= 10:
            return f"p{q}={statistics.quantiles(values, n=100)[q - 1]:.4f}"
    return f"no percentile above the median (needs >= 40 samples, have {n})"


def measure(workload: Workload, scene: Path, seed: int, seconds: float, work: Path,
            env, deadline: float) -> dict:
    """End-to-end metrics over fresh-process invocations (``--trace 0``).

    Set-up samples are interleaved with the invocations.  Every time is
    scaled to the reference host speed by the samples that
    ``hostspeed.Sampler`` takes while the child runs; the metrics are
    medians of the scaled times.
    """
    def timed(argv: list[str], log: Path) -> tuple[int, float, int, tuple[float, float]]:
        start = time.monotonic()
        code, wall, rss = spawn(argv, env, log, deadline)
        return code, wall, rss, (start, time.monotonic())

    def setup_once() -> tuple[float, tuple[float, float]]:
        code, wall, _, span = timed([sys.executable, "-c", SETUP_CODE, str(scene)],
                                    work / "setup.log")
        if code != 0:
            raise BenchError("set-up failed: " + (work / "setup.log").read_text(errors="replace"))
        return wall, span

    setup, run_s, rss_kib, out_bytes = [], [], [], []
    tally = Tally()
    with hostspeed.Sampler(env, work / "hostspeed.log") as sampler:
        start = time.perf_counter()
        while True:
            setup.append(setup_once())
            out = work / f"out{len(run_s)}"
            log = work / "cli.log"
            argv = [sys.executable, "-m", "nfclab.cli",
                    *workload.cli_args(str(scene), str(out), seed)]
            code, wall, rss, span = timed(argv, log)
            errors, digests, nbytes = check_invocation(
                workload, out, code, log.read_text(encoding="utf-8", errors="replace"))
            tally.add(errors, digests)
            shutil.rmtree(out, ignore_errors=True)
            run_s.append((wall, span))
            rss_kib.append(rss)
            out_bytes.append(nbytes)
            now = time.perf_counter()
            typical = statistics.median(w for w, _ in run_s)
            if now + typical > deadline or (len(run_s) >= MIN_INVOCATIONS
                                            and now - start + typical > seconds):
                break
        while len(setup) < SETUP_REPS:
            setup.append(setup_once())

    scaled_run = [wall * sampler.scale(*span) for wall, span in run_s]
    scaled_setup = [wall * sampler.scale(*span) for wall, span in setup]
    median_run = statistics.median(scaled_run)
    for e in tally.errors:
        print(f"# error: {e}")
    print(f"# host speed: {len(sampler.samples)} samples, median probe "
          f"{statistics.median(d for _, d in sampler.samples):.6f} s "
          f"(reference {hostspeed.REFERENCE_S} s)")
    print(f"# run_s: n={len(run_s)} median={median_run:.4f} min={min(scaled_run):.4f} "
          f"max={max(scaled_run):.4f} {percentile_note(scaled_run)}; "
          f"unscaled median={statistics.median(w for w, _ in run_s):.4f}")
    print(f"# setup_s: n={len(setup)} values={[round(v, 4) for v in scaled_setup]}; "
          f"unscaled median={statistics.median(w for w, _ in setup):.4f}")
    metrics = {
        "run_s": (median_run, "s"),
        "samples_per_s": (workload.samples / median_run, "1/s"),
        "setup_s": (statistics.median(scaled_setup), "s"),
        "peak_rss_mb": (statistics.median(rss_kib) / 1024.0, "MB"),
        "artifact_mb": (statistics.median(out_bytes) / 1e6, "MB"),
        "success_frac": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
    }
    return {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def trace(workload: Workload, scene: Path, seed: int, seconds: float, work: Path,
          env, deadline: float) -> dict:
    """Per-layer metrics from one traced child (``--trace 1``)."""
    log = work / "tracer.log"
    spans = ROOT / ".perfbench_work" / f"spans-{workload.name}.json"
    code, _, _ = spawn([sys.executable, str(HERE / "tracer.py"), "--workload", workload.name,
                        "--scene", str(scene), "--seed", str(seed), "--seconds", str(seconds),
                        "--work", str(work), "--spans", str(spans)], env, log, deadline)
    text = log.read_text(encoding="utf-8", errors="replace")
    if code != 0:
        raise BenchError(f"traced run failed (exit {code}):\n{text}")
    record = json.loads(text.strip().splitlines()[-1])
    for e in record["errors"]:
        print(f"# error: {e}")
    if record["missing_hooks"]:
        print(f"# missing hooks (metrics read 0): {record['missing_hooks']}")
    print(f"# traced: {record['spans']} spans written to {spans.relative_to(ROOT)}")
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"], "metrics": record["metrics"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="nfclab pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    # SIGTERM unwinds like an exception, so children are killed and reaped
    # and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # The runner and every child share one CPU, so the host speed sampler
    # measures the CPU the timed child runs on.
    ncpus = len(os.sched_getaffinity(0))
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})

    if not (ROOT / "src" / "nfclab" / "cli.py").is_file():
        print(f"error: {ROOT / 'src' / 'nfclab'} not found; run from an nfclab source checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    env = child_env()
    try:
        scene, record = generate(workload, args.seed, work, env, deadline)
        env_record = dict(record["env"], nproc=ncpus, pinned_cpu=cpu,
                          artifacts_fs=filesystem_type(work))
        print(f"# env: {json.dumps(env_record)}")
        if record["env"]["backend"] != "numpy":
            print(f"# WARNING: kernel backend {record['env']['backend']!r}: do not compare "
                  "with numpy-only results")
        print(f"# scene: {workload.name} seed={args.seed} sha256={record['scene_sha256']}")
        run = trace if args.trace else measure
        result = run(workload, scene, args.seed, args.seconds, work, env, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
