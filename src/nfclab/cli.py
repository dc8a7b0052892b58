"""Command-line front end: run a scenario end to end or check the phase model.

``nfclab run <preset|file>`` executes synthesis -> analysis -> partitioning
-> multiplanar error and writes plot-ready CSV artifacts plus a plain-text
report; ``nfclab phase-check <preset|file>`` compares the synthesized LOS
phase against the closed-form near- and far-field models at a scaled
receiver distance.

Both commands write their files into a temporary directory inside
``--out`` and move them in only once every file is written, so a failed
command leaves none of them.

Exit codes: 0 success, 2 usage error or unknown preset, 3 scenario
parse/read failure, 4 analysis failure, 5 cannot write output (``--out``
is not a writable directory).  argparse exits 2 on any usage
error, including ``--noise-floor -inf``: it reads a value that starts with
``-`` but is not a plain decimal number as an option.  ``--noise-floor=-inf``
passes the value through and exits 4 as an invalid override.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import _csvout, _kernels, analysis, multiplanar, stationarity, synth, wavefront
from .constants import C_M_PER_S
from .scene import (PRESET_NAMES, Scene, SceneError, element_geometry,
                    element_positions, load_preset, load_scene)

EXIT_OK = 0
EXIT_UNKNOWN_PRESET = 2
EXIT_PARSE_FAILURE = 3
EXIT_ANALYSIS_FAILURE = 4
EXIT_WRITE_FAILURE = 5

DYADIC_MAX_K = 5  # mw_error.csv rows dyadic_2^0 .. dyadic_2^5
MAX_ULP_PHASE_RAD = 1e-3  # phase-check: largest phase one ulp of the rx distance may carry

RUN_FILES = ("cfr.csv", "stats.csv", "pdp.csv", "partition.csv",
             "cmd_map.csv", "mw_error.csv", "report.txt")


class _CliError(Exception):
    def __init__(self, message: str, exit_code: int):
        super().__init__(message)
        self.exit_code = exit_code


def _resolve_scene(name_or_path: str) -> Scene:
    """Presets by bare name; anything path-like is loaded from disk."""
    looks_like_path = any(sep in name_or_path for sep in ("/", "\\")) or "." in name_or_path
    if (not looks_like_path and name_or_path not in PRESET_NAMES
            and not Path(name_or_path).exists()):
        raise _CliError(f"unknown preset {name_or_path!r}; available: {', '.join(PRESET_NAMES)}",
                        EXIT_UNKNOWN_PRESET)
    try:
        if name_or_path in PRESET_NAMES and not Path(name_or_path).exists():
            return load_preset(name_or_path)
        return load_scene(name_or_path)
    except SceneError as exc:
        raise _CliError(f"cannot load scenario {name_or_path!r}: {exc}",
                        EXIT_PARSE_FAILURE) from exc


def _apply_overrides(scene: Scene, args: argparse.Namespace) -> Scene:
    if getattr(args, "freq_points", None) is not None:
        scene = replace(scene, sweep=replace(scene.sweep, n_points=args.freq_points))
    if getattr(args, "noise_floor", None) is not None:
        scene = replace(scene, noise_floor_dbm=args.noise_floor)
    if getattr(args, "seed", None) is not None:
        scene = replace(scene, seed=args.seed)
    try:
        scene.validate()
    except SceneError as exc:
        raise _CliError(f"invalid override: {exc}", EXIT_ANALYSIS_FAILURE) from exc
    return scene


@contextlib.contextmanager
def _staged(out_dir: Path, names):
    """Paths for ``names`` in a temporary directory inside ``out_dir``, moved into it when the block ends.

    The temporary directory is removed on every path.  Nothing is moved
    when the block raises, and a failed move removes the files already
    moved, so no failure leaves any of ``names`` in ``out_dir``.
    """
    with tempfile.TemporaryDirectory(dir=out_dir, prefix=".nfclab-") as tmp:
        staged = {name: Path(tmp) / name for name in names}
        yield staged
        try:
            for name in names:
                os.replace(staged[name], out_dir / name)
        except OSError:
            for name in names:
                (out_dir / name).unlink(missing_ok=True)
            raise


def _mw_table(scene: Scene, truth: multiplanar.LosTruth,
              partitions: list[stationarity.StationaryPartition]) -> list[tuple[str, int, float, float]]:
    """mw_error.csv rows: the dyadic partitions, then ``partitions``, all against one LOS truth."""
    n = scene.array.n_elements
    named = [(f"dyadic_2^{k}", stationarity.uniform_partition(n, min(2 ** k, n)))
             for k in range(DYADIC_MAX_K + 1)]
    named += [(part.criterion, part) for part in partitions]
    rows = []
    for name, part in named:
        ref = multiplanar.build_multiplanar_model(truth, part)
        err = multiplanar.multiplanar_error(scene, truth, ref)
        rows.append((name, part.n_intervals, err.phase_rmse, err.complex_correlation))
    return rows


def cmd_run(args: argparse.Namespace) -> int:
    scene = _apply_overrides(_resolve_scene(args.scenario), args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name in RUN_FILES:  # a failed run must not leave the previous run's artifacts
        (out_dir / name).unlink(missing_ok=True)
    if not 0.0 < args.cmd_threshold < 1.0:  # the report records it under every criterion
        raise _CliError(f"--cmd-threshold must lie in (0, 1), got {args.cmd_threshold:g}",
                        EXIT_ANALYSIS_FAILURE)
    if args.window < 2:  # the CMD map runs, and the report records it, under every criterion
        raise _CliError(f"--window must span >= 2 elements, got {args.window}", EXIT_ANALYSIS_FAILURE)

    table = synth.path_table(scene)
    cfr = synth.synthesize_cfr(scene, table)
    stats = analysis.compute_stats(cfr, scene, table)

    dmap = stationarity.cmd_map(cfr, m=args.window)
    partitions: list[stationarity.StationaryPartition] = []
    if args.criterion in ("cmd", "both"):
        partitions.append(stationarity.partition_by_cmd(dmap, cfr.n_elements, m=args.window,
                                                        tau=args.cmd_threshold))
    if args.criterion in ("slope", "both"):
        partitions.append(stationarity.partition_by_slope(stats))

    truth = multiplanar.los_truth(scene, table)
    mw_table = _mw_table(scene, truth, partitions)
    fc = scene.sweep.frequencies()[scene.sweep.center_index]
    model = wavefront.model_phases(truth.theta, scene.array.spacing_d, C_M_PER_S / fc)
    del truth  # its N x F amplitude is freed before the exports start

    with _staged(out_dir, RUN_FILES) as files:
        synth.export_cfr_csv(cfr, files["cfr.csv"])
        analysis.export_stats_csv(stats, files["stats.csv"])
        analysis.export_pdp_csv(stats.pdp, files["pdp.csv"], cfr.sweep.bandwidth)
        stationarity.export_partition_csv(partitions, files["partition.csv"])
        stationarity.export_cmd_map_csv(dmap, files["cmd_map.csv"])
        multiplanar.export_mw_error_csv(mw_table, files["mw_error.csv"])

        # Built-in checks and observations
        power_spread = float(stats.power_db.max() - stats.power_db.min())
        phase_corr = float(np.corrcoef(stats.los_phase_rad, model)[0, 1])
        mw_rmse = [row[2] for row in mw_table[:DYADIC_MAX_K + 1]]
        checks = {
            "phase_model_correlation_gt_0.99": phase_corr > 0.99,
            "partitions_cover_array": all(p.intervals[0][0] == 1
                                          and p.intervals[-1][1] == scene.array.n_elements
                                          for p in partitions),
            "mw_error_nonincreasing_with_refinement": all(mw_rmse[i + 1] <= mw_rmse[i] + 1e-9
                                                          for i in range(len(mw_rmse) - 1)),
        }
        observations = [
            f"received power spread across elements: {power_spread:.3f} dB",
            f"LOS phase vs closed-form model correlation: {phase_corr:.6f}",
            f"median RMS delay spread: {_kernels.median(stats.delay_spread_s) * 1e9:.3f} ns",
        ]
        for part in partitions:
            bounds = ", ".join(str(b) for b in part.boundaries()) or "none"
            observations.append(f"{part.criterion} partition: {part.n_intervals} interval(s), "
                                f"boundaries at {bounds}")
            for warning in part.warnings:
                observations.append(f"{part.criterion} warning: {warning}")

        thresholds = {
            "cmd_window_m": float(args.window),
            "cmd_threshold_tau": float(args.cmd_threshold),
            "cmd_min_si": float(args.window),
            "slope_threshold_power_db_per_element": stationarity.DEFAULT_SLOPE_THRESHOLD_DB,
            "slope_smoothing_w": float(stationarity.DEFAULT_SMOOTHING_W),
            "uniform_power_gamma_db": stationarity.DEFAULT_UNIFORM_POWER_DB,
            "ds_threshold_db": analysis.DEFAULT_DS_THRESHOLD_DB,
            "los_gate_half_width_bins": float(analysis.LOS_GATE_HALF_WIDTH),
            "noise_floor_dbm": (float("nan") if scene.noise_floor_dbm is None
                                else scene.noise_floor_dbm),
            "seed": float(scene.seed),
        }

        summary = (f"{scene.array.n_elements} elements at {scene.array.spacing_d} m pitch; "
                   f"sweep {scene.sweep.f_start / 1e9:g}-{scene.sweep.f_stop / 1e9:g} GHz "
                   f"x {scene.sweep.n_points} points; rx {scene.rx}; "
                   f"{len(scene.walls)} wall(s), {len(scene.point_scatterers)} scatterer(s), "
                   f"{len(scene.blockers)} blocker(s)")

        files["report.txt"].write_text(_render_report(args.scenario, summary, thresholds, observations,
                                                      mw_table, checks), encoding="utf-8")
    print(f"report: {out_dir / 'report.txt'}")
    for obs in observations:
        print(obs)
    for name, ok in checks.items():
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    return EXIT_OK


def _render_report(scenario: str, summary: str, thresholds: dict[str, float], observations: list[str],
                   mw_table: list[tuple[str, int, float, float]], checks: dict[str, bool]) -> str:
    lines = [f"scenario: {scenario}", f"scene: {summary}", "",
             "thresholds and defaults used:"]
    for key, value in thresholds.items():
        lines.append(f"  {key} = {value:g}")
    lines.append("")
    lines.append("observations:")
    for obs in observations:
        lines.append(f"  {obs}")
    lines.append("")
    lines.append("multiplanar-wave error:")
    lines.append("  partition        intervals  phase_rmse_rad  correlation")
    for name, n_int, rmse, corr in mw_table:
        lines.append(f"  {name:<16s} {n_int:9d}  {rmse:.6e}  {corr:.9f}")
    lines.append("")
    lines.append("checks:")
    for name, ok in checks.items():
        lines.append(f"  {'PASS' if ok else 'FAIL'}  {name}")
    lines.append("")
    lines.append("artifacts:")
    for name in RUN_FILES:
        lines.append(f"  {name}")
    return "\n".join(lines) + "\n"


def cmd_phase_check(args: argparse.Namespace) -> int:
    scene = _apply_overrides(_resolve_scene(args.scenario), args)
    path = Path(args.out) / "phase_check.csv"
    path.unlink(missing_ok=True)  # a failed check must not leave the previous file
    if not (math.isfinite(args.distance_mult) and args.distance_mult >= 1):
        raise _CliError("--distance-mult must be a finite number >= 1", EXIT_ANALYSIS_FAILURE)
    path.parent.mkdir(parents=True, exist_ok=True)

    # Place the receiver at k * Rayleigh distance along its original bearing
    # from element 1, then compare measured/closed-form/far-field phases.
    # A degenerate aperture (single element) has no Rayleigh distance; the
    # receiver stays where the scenario put it.
    r_d = wavefront.rayleigh_distance(scene.array.aperture, scene.sweep.lambda_center)
    p1 = element_positions(scene)[0]
    bearing = np.asarray(scene.rx, dtype=float) - p1
    distance = float(np.linalg.norm(bearing))
    bearing /= distance
    if r_d > 0.0:
        distance = args.distance_mult * r_d
    if not math.isfinite(9.0 * distance * distance):  # squared lengths reach 3x it (wall images)
        raise _CliError(f"--distance-mult {args.distance_mult:g} puts the receiver {distance:g} m "
                        "away, too far for float64 path lengths", EXIT_ANALYSIS_FAILURE)
    f_stop = scene.sweep.f_stop
    ulp_phase = 2.0 * math.pi * float(np.spacing(distance)) * f_stop / C_M_PER_S
    if ulp_phase > MAX_ULP_PHASE_RAD:  # path differences are below float64 resolution there
        raise _CliError(f"--distance-mult {args.distance_mult:g} puts the receiver {distance:g} m "
                        f"away, where one float64 step of the distance is {ulp_phase:.3g} rad at "
                        f"{f_stop / 1e9:g} GHz (> {MAX_ULP_PHASE_RAD:g} rad): the phase profile "
                        "is not resolved", EXIT_ANALYSIS_FAILURE)
    target = p1 + bearing * distance
    scaled = replace(scene, rx=tuple(float(x) for x in target))
    scaled.validate()

    table = synth.path_table(scaled)
    measured, _ = analysis.streamed_los_phase(synth.response_blocks(scaled, table), scaled, table)
    fc = scaled.sweep.frequencies()[scaled.sweep.center_index]
    lam_eval = C_M_PER_S / fc
    _, theta = element_geometry(scaled, scaled.rx)
    model = wavefront.model_phases(theta, scene.array.spacing_d, lam_eval)
    far = wavefront.far_field_phase(np.arange(1, scene.array.n_elements + 1),
                                    scene.array.spacing_d, lam_eval, float(theta[0]))

    with np.errstate(divide="ignore", invalid="ignore"):
        corr_meas = float(np.corrcoef(measured, model)[0, 1]) if scene.array.n_elements >= 2 else 1.0
    if not math.isfinite(corr_meas):  # e.g. so far out that float64 lengths tie across the array
        raise _CliError(f"corr(measured, near-field model) is undefined at --distance-mult "
                        f"{args.distance_mult:g}: a phase profile is constant along the array",
                        EXIT_ANALYSIS_FAILURE)
    with _staged(path.parent, [path.name]) as files:
        _csvout.write_csv(files[path.name],
                          ("element", "measured_phase", "eq_model_phase", "far_field_phase"),
                          [_csvout.rows((_csvout.strs(range(1, scene.array.n_elements + 1)),
                                         _csvout.floats(measured), _csvout.floats(model), _csvout.floats(far)))])

    max_far_gap = float(np.abs(model - (-far)).max())
    print(f"rx distance: {args.distance_mult:g} x Rayleigh ({r_d:.3f} m) = "
          f"{distance:.3f} m")
    print(f"corr(measured, near-field model) = {corr_meas:.9f}")
    print(f"max |near-field model - signed far-field| = {max_far_gap:.6e} rad")
    print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nfclab",
                                     description="near-field array channel laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the full pipeline on a preset or scenario file")
    run.add_argument("scenario", help=f"preset name ({', '.join(PRESET_NAMES)}) or scenario file path")
    run.add_argument("--out", default="nfclab_out", help="output directory")
    run.add_argument("--seed", type=int, default=None, help="noise seed override")
    run.add_argument("--freq-points", type=int, default=None, help="sweep point count override")
    run.add_argument("--cmd-threshold", type=float, default=stationarity.DEFAULT_CMD_THRESHOLD,
                     help="correlation-distance partition threshold")
    run.add_argument("--window", type=int, default=stationarity.DEFAULT_WINDOW_M,
                     help="correlation window size in elements")
    run.add_argument("--criterion", choices=("cmd", "slope", "both"), default="both",
                     help="stationary-interval criterion to run")
    run.add_argument("--noise-floor", type=float, default=None,
                     help="complex noise floor in dBm (off when omitted)")
    run.set_defaults(func=cmd_run)

    check = sub.add_parser("phase-check",
                           help="compare synthesized LOS phase against the closed-form models")
    check.add_argument("scenario", help=f"preset name ({', '.join(PRESET_NAMES)}) or scenario file path")
    check.add_argument("--out", default="nfclab_out", help="output directory")
    check.add_argument("--distance-mult", type=float, default=1.0,
                       help="receiver distance as a multiple of the Rayleigh distance (>= 1)")
    check.add_argument("--seed", type=int, default=None, help="noise seed override")
    check.set_defaults(func=cmd_phase_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (analysis.AnalysisError, stationarity.StationarityError, ValueError) as exc:
        print(f"analysis error: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS_FAILURE
    except MemoryError as exc:  # an input too large to hold, e.g. --freq-points 1000000000000
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS_FAILURE
    except OSError as exc:  # load_scene turns read errors into SceneError, so this is a write
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_WRITE_FAILURE


if __name__ == "__main__":
    sys.exit(main())
