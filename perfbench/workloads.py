"""Workload table shared by the benchmark runner and its child programs.

Each workload is one generated scene plus one ``nfclab`` command line.  The
sizes were chosen so that each workload is dominated by a different layer
(see README.md); this module imports nothing from ``nfclab`` so the runner
process stays free of the program under test.
"""

from __future__ import annotations

from dataclasses import dataclass

# Artifacts each command must leave in --out (mirrors nfclab.cli.RUN_FILES;
# the benchmark tests check the two stay equal).
RUN_FILES = ("cfr.csv", "stats.csv", "pdp.csv", "partition.csv",
             "cmd_map.csv", "mw_error.csv", "report.txt")
PHASE_CHECK_FILES = ("phase_check.csv",)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    preset: str
    n_elements: int
    n_points: int
    command: str  # "run" | "phase-check"
    extra_args: tuple[str, ...] = ()
    # Workload-specific correctness checks.
    cmd_boundary: tuple[int, int] | None = None  # some cmd boundary in [lo, hi]
    min_phase_corr: float | None = None  # phase-check corr(measured, model)

    @property
    def samples(self) -> int:
        """CFR samples (elements x sweep points) one invocation synthesizes."""
        return self.n_elements * self.n_points

    @property
    def expected_files(self) -> tuple[str, ...]:
        return RUN_FILES if self.command == "run" else PHASE_CHECK_FILES

    def cli_args(self, scene_path: str, out_dir: str, seed: int) -> list[str]:
        return [self.command, scene_path, "--out", out_dir,
                "--seed", str(noise_seed(seed)), *self.extra_args]


def noise_seed(seed: int) -> int:
    """The CLI's noise seed for a benchmark seed (Philox keys are unsigned)."""
    return seed % (2 ** 31)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="sweep_deep",
        why="los_lab, 64 elements x 6401 points, noise on: CSV export and "
            "per-sample work dominate; bypasses the per-element and per-window loops",
        preset="los_lab", n_elements=64, n_points=6401, command="run",
        extra_args=("--noise-floor", "-90")),
    Workload(
        name="array_wide",
        why="olos_baffle, 512 elements x 401 points: CMD map/partition and "
            "blocker geometry dominate; many stationary intervals",
        preset="olos_baffle", n_elements=512, n_points=401, command="run",
        cmd_boundary=(24, 28)),
    Workload(
        name="far_check",
        why="phase-check on olos_baffle, 1024 elements x 801 points at 4x Rayleigh: "
            "single-shot geometry and kernel, no downstream stages",
        preset="olos_baffle", n_elements=1024, n_points=801, command="phase-check",
        extra_args=("--distance-mult", "4"), min_phase_corr=0.999999),
)}
