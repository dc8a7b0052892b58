"""Traced in-process run: per-layer times and counts for one workload.

    python perfbench/tracer.py --workload array_wide --scene s.scene --seed 7 \
        --seconds 30 --work DIR --spans spans.json

The tracer wraps public functions of the ``nfclab`` modules by replacing
module attributes (``nfclab.synth.synthesize_cfr``, ``nfclab._kernels.
accumulate_paths``, ...).  ``cli`` and same-module callers look these names
up at call time, so no program file changes.  Stage-level functions get
spans (name, start, end, parent, invocation id) kept in memory; helpers
called per element, per path or per window pairs get counters only, which
keeps the tracing overhead low.  After one warm-up, untraced and traced
``cli.main`` calls alternate until ``--seconds`` have passed; every metric
is the median over the traced calls, and every call's artifacts go through
the same correctness checks as the end-to-end run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from checks import Tally, check_invocation
from workloads import WORKLOADS, Workload

# Computed model of the kernel's memory traffic per path x sweep point: the
# complex128 output sample is read and written once (32 B) and the frequency
# grid value read once (8 B).
KERNEL_BYTES_PER_EVAL = 40

# (metric, unit, better).  Every "<name>_s" metric is the summed duration of
# the spans called "<name>"; the rest are counts and ratios (see README.md).
PER_LAYER = (
    ("scene.load_s", "s", "lower"),
    ("scene.edge_clearance_calls", "count", "lower"),
    ("synth.synthesize_cfr_s", "s", "lower"),
    ("synth.enumerate_paths_s", "s", "lower"),
    ("synth.los_path_calls", "count", "lower"),
    ("synth.paths", "count", "lower"),
    ("synth.edges", "count", "lower"),
    ("synth.kernel_s", "s", "lower"),
    ("synth.kernel_evals", "count", "lower"),
    ("synth.kernel_bytes", "B_computed", "lower"),
    ("synth.synthesize_los_cfr_s", "s", "lower"),
    ("synth.export_cfr_csv_s", "s", "lower"),
    ("synth.cfr_csv_bytes", "B", "lower"),
    ("analysis.compute_stats_s", "s", "lower"),
    ("analysis.los_phase_s", "s", "lower"),
    ("analysis.los_path_calls", "count", "lower"),
    ("analysis.pdp_matrix_s", "s", "lower"),
    ("analysis.export_pdp_csv_s", "s", "lower"),
    ("analysis.export_stats_csv_s", "s", "lower"),
    ("analysis.pdp_csv_bytes", "B", "lower"),
    ("analysis.los_valid_frac", "ratio", "higher"),
    ("analysis.aod_valid_frac", "ratio", "higher"),
    ("stationarity.cmd_map_s", "s", "lower"),
    ("stationarity.partition_by_cmd_s", "s", "lower"),
    ("stationarity.partition_by_slope_s", "s", "lower"),
    ("stationarity.corr_matrices", "count", "lower"),
    ("stationarity.corr_windows", "count", "lower"),
    ("stationarity.corr_reuse", "ratio", "higher"),
    ("stationarity.cmd_pairs", "count", "lower"),
    ("stationarity.export_cmd_map_csv_s", "s", "lower"),
    ("stationarity.cmd_map_csv_bytes", "B", "lower"),
    ("stationarity.cmd_intervals", "count", "higher"),
    ("stationarity.slope_intervals", "count", "higher"),
    ("multiplanar.build_model_s", "s", "lower"),
    ("multiplanar.synthesize_s", "s", "lower"),
    ("multiplanar.error_s", "s", "lower"),
    ("multiplanar.los_path_calls", "count", "lower"),
    ("multiplanar.patches", "count", "lower"),
    ("wavefront.model_phases_s", "s", "lower"),
    ("wavefront.far_field_s", "s", "lower"),
    ("cli.cmd_run_s", "s", "lower"),
    ("cli.cmd_phase_check_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace_overhead_frac", "ratio", "lower"),
)


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    invocation: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and counters for the calls made through wrapped attributes."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.windows: set = set()
        self.invocation = 0
        self._stack: list[int] = []
        self._next_id = 0

    def start_invocation(self) -> None:
        self.invocation += 1
        self.counts = defaultdict(float)
        self.windows = set()

    def span(self, name, fn, observe=None):
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append(Span(sid, name, start, end, parent, self.invocation))
            if observe is not None:
                observe(self, args, result)
            return result
        return wrapper

    def counter(self, name, fn, observe=None):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, args, result)
            return result
        return wrapper


# Observers: derive counts from a wrapped call's arguments and result.

def _paths(tracer, args, paths):
    tracer.counts["synth.paths"] += len(paths)
    tracer.counts["synth.edges"] += sum(len(p.edge_factors) for p in paths)


def _kernel(tracer, args, _):
    lengths, freqs = args[2], args[6]
    evals = len(lengths) * len(freqs)
    tracer.counts["synth.kernel_evals"] += evals
    tracer.counts["synth.kernel_bytes"] += KERNEL_BYTES_PER_EVAL * evals


def _file_bytes(metric):
    def observe(tracer, args, _):
        tracer.counts[metric] += Path(args[1]).stat().st_size
    return observe


def _valid_frac(metric):
    def observe(tracer, args, result):
        valid = result[1]
        tracer.counts[metric] = float(sum(bool(v) for v in valid)) / max(len(valid), 1)
    return observe


def _window(tracer, args, _):
    tracer.windows.add(tuple(args[1]))


def _intervals(metric):
    def observe(tracer, args, partition):
        tracer.counts[metric] = partition.n_intervals
    return observe


def _patches(tracer, args, patches):
    tracer.counts["multiplanar.patches"] += len(patches)


def hooks():
    """(kind, name, module, attribute, observer) for every wrapped call."""
    from nfclab import (_kernels, analysis, cli, multiplanar, stationarity,
                        synth, wavefront)
    return (
        ("span", "cli.cmd_run", cli, "cmd_run", None),
        ("span", "cli.cmd_phase_check", cli, "cmd_phase_check", None),
        ("span", "scene.load", cli, "load_scene", None),
        ("span", "synth.synthesize_cfr", synth, "synthesize_cfr", None),
        ("span", "synth.enumerate_paths", synth, "enumerate_paths", _paths),
        ("span", "synth.kernel", _kernels, "accumulate_paths", _kernel),
        ("span", "synth.synthesize_los_cfr", synth, "synthesize_los_cfr", None),
        ("span", "synth.export_cfr_csv", synth, "export_cfr_csv",
         _file_bytes("synth.cfr_csv_bytes")),
        ("span", "analysis.compute_stats", analysis, "compute_stats", None),
        ("span", "analysis.los_phase", analysis, "los_phase",
         _valid_frac("analysis.los_valid_frac")),
        ("span", "analysis.pdp_matrix", analysis, "pdp_matrix", None),
        ("span", "analysis.export_pdp_csv", analysis, "export_pdp_csv",
         _file_bytes("analysis.pdp_csv_bytes")),
        ("span", "analysis.export_stats_csv", analysis, "export_stats_csv", None),
        ("span", "stationarity.cmd_map", stationarity, "cmd_map", None),
        ("span", "stationarity.partition_by_cmd", stationarity, "partition_by_cmd",
         _intervals("stationarity.cmd_intervals")),
        ("span", "stationarity.partition_by_slope", stationarity, "partition_by_slope",
         _intervals("stationarity.slope_intervals")),
        ("span", "stationarity.export_cmd_map_csv", stationarity, "export_cmd_map_csv",
         _file_bytes("stationarity.cmd_map_csv_bytes")),
        ("span", "multiplanar.build_model", multiplanar, "build_multiplanar_model", _patches),
        ("span", "multiplanar.synthesize", multiplanar, "synthesize_multiplanar_cfr", None),
        ("span", "multiplanar.error", multiplanar, "multiplanar_error", None),
        ("span", "wavefront.model_phases", wavefront, "model_phases", None),
        ("span", "wavefront.far_field", wavefront, "far_field_phase", None),
        ("counter", "synth.los_path_calls", synth, "los_path", None),
        ("counter", "analysis.los_path_calls", analysis, "los_path", None),
        ("counter", "multiplanar.los_path_calls", multiplanar, "los_path", None),
        ("counter", "scene.edge_clearance_calls", synth, "edge_clearance", None),
        ("counter", "analysis.aod_calls", analysis, "estimate_aod",
         _valid_frac("analysis.aod_valid_frac")),
        ("counter", "stationarity.corr_matrices", stationarity, "correlation_matrix", _window),
        ("counter", "stationarity.cmd_pairs", stationarity,
         "correlation_matrix_distance", None),
    )


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every hooked attribute that exists; restore all on exit.

    Yields the hooks whose attribute is missing, so a refactor that renames
    a function shows up as a reported gap instead of a crash.
    """
    saved, missing = [], []
    try:
        for kind, name, module, attr, observe in hooks():
            original = getattr(module, attr, None)
            if original is None:
                missing.append(f"{module.__name__}.{attr}")
                continue
            saved.append((module, attr, original))
            setattr(module, attr, getattr(tracer, kind)(name, original, observe))
        yield missing
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the time its child spans cover."""
    child = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.duration
    return {s.id: s.duration - child[s.id] for s in spans}


def invocation_metrics(spans: list[Span], counts: dict[str, float],
                       windows: set) -> dict[str, float]:
    """Per-layer metrics (all but trace_overhead_frac) of one traced call."""
    metrics = {name: 0.0 for name, _, _ in PER_LAYER}
    for s in spans:
        metrics[s.name + "_s"] = metrics.get(s.name + "_s", 0.0) + s.duration
    roots = [s for s in spans if s.parent is None]
    own = self_times(spans)
    metrics["cli.self_s"] = sum(own[r.id] for r in roots)
    for name, value in counts.items():
        metrics[name] = value
    matrices = counts.get("stationarity.corr_matrices", 0)
    metrics["stationarity.corr_windows"] = len(windows)
    metrics["stationarity.corr_reuse"] = len(windows) / matrices if matrices else 0.0
    return {name: metrics[name] for name, _, _ in PER_LAYER if name != "trace_overhead_frac"}


class Invoker:
    """Repeated in-process invocations of one workload, with checks."""

    def __init__(self, workload: Workload, scene: Path, seed: int, work: Path):
        from nfclab import cli
        self.cli = cli
        self.workload = workload
        self.scene = scene
        self.seed = seed
        self.work = work
        self.tally = Tally()

    def invoke(self) -> float:
        """One checked ``cli.main`` call; returns its wall time."""
        out = self.work / f"out{self.tally.attempted}"
        argv = self.workload.cli_args(str(self.scene), str(out), self.seed)
        stdout = io.StringIO()
        start = time.perf_counter()
        crash = None
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stdout):
                code = self.cli.main(argv)
        except Exception as exc:  # a crash is a counted failure, not the end of the run
            code, crash = -1, f"raised {exc!r}"
        wall = time.perf_counter() - start
        errors, digests, _ = check_invocation(self.workload, out, code, stdout.getvalue())
        if crash is not None:
            errors.insert(0, crash)
        self.tally.add(errors, digests)
        shutil.rmtree(out, ignore_errors=True)
        return wall


def trace_workload(workload: Workload, scene: Path, seed: int, seconds: float,
                   work: Path) -> tuple[dict, Tracer, list[str], Invoker]:
    """Warm up, then alternate untraced/traced calls for ``seconds``."""
    start = time.perf_counter()
    invoker = Invoker(workload, scene, seed, work)
    invoker.invoke()  # warm-up: imports, caches and the artifact reference
    tracer = Tracer()
    plain, traced, per_call = [], [], []
    while True:
        plain.append(invoker.invoke())
        tracer.start_invocation()
        first = len(tracer.spans)
        with installed(tracer) as missing:
            traced.append(invoker.invoke())
        per_call.append(invocation_metrics(tracer.spans[first:], tracer.counts, tracer.windows))
        pair = plain[-1] + traced[-1]
        if time.perf_counter() - start + pair > seconds:
            break
    metrics = {name: statistics.median(m[name] for m in per_call) for name in per_call[0]}
    metrics["trace_overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    return metrics, tracer, missing, invoker


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--scene", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--spans", required=True, help="write the recorded spans here as JSON")
    args = parser.parse_args(argv)
    metrics, tracer, missing, invoker = trace_workload(
        WORKLOADS[args.workload], Path(args.scene), args.seed, args.seconds, Path(args.work))
    Path(args.spans).write_text(json.dumps([s.__dict__ for s in tracer.spans]), encoding="utf-8")
    units = {name: unit for name, unit, _ in PER_LAYER}
    print(json.dumps({
        "attempted": invoker.tally.attempted, "failed": invoker.tally.failed,
        "errors": invoker.tally.errors, "missing_hooks": missing, "spans": len(tracer.spans),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
