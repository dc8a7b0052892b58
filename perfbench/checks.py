"""Correctness checks applied to every benchmarked ``nfclab`` invocation.

A check returns a list of failure messages; an empty list means the
invocation counts as successful.  Nothing here imports ``nfclab`` or numpy.
"""

from __future__ import annotations

import csv
import hashlib
import re
from pathlib import Path

from workloads import Workload

_CORR_RE = re.compile(r"corr\(measured, near-field model\) = (\S+)")


def digest_file(path: Path) -> tuple[str, int]:
    """(sha256 hex digest, line count) of a file, read in 1 MiB chunks."""
    h = hashlib.sha256()
    lines = 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            h.update(chunk)
            lines += chunk.count(b"\n")
    return h.hexdigest(), lines


def _cmd_boundaries(partition_csv: Path) -> list[int]:
    with open(partition_csv, newline="", encoding="utf-8") as fh:
        return [int(row["start"]) for row in csv.DictReader(fh)
                if row["criterion"] == "cmd" and int(row["interval_index"]) > 0]


def _report_checks(report_txt: Path) -> tuple[int, int]:
    """(PASS count, FAIL count) of the report's built-in checks."""
    words = [line.split()[0] for line in report_txt.read_text(encoding="utf-8").splitlines()
             if line.strip().startswith(("PASS ", "FAIL "))]
    return words.count("PASS"), words.count("FAIL")


def check_invocation(workload: Workload, out_dir: Path, exit_code: int,
                     stdout: str) -> tuple[list[str], dict[str, str], int]:
    """Check one invocation's exit code, stdout and artifacts.

    Returns ``(errors, digests, artifact_bytes)``; ``digests`` maps each
    expected artifact to its sha256 so callers can require byte-identical
    artifacts across repetitions of one seed.
    """
    errors: list[str] = []
    digests: dict[str, str] = {}
    if exit_code != 0:
        errors.append(f"exit code {exit_code}")
    if any(line.startswith("FAIL") for line in stdout.splitlines()):
        errors.append("FAIL line on stdout")

    expected_lines = {"cfr.csv": workload.samples + 1,
                      "stats.csv": workload.n_elements + 1,
                      "phase_check.csv": workload.n_elements + 1}
    for name in workload.expected_files:
        path = out_dir / name
        if not path.is_file() or path.stat().st_size == 0:
            errors.append(f"missing or empty artifact {name}")
            continue
        digests[name], lines = digest_file(path)
        if name in expected_lines and lines != expected_lines[name]:
            errors.append(f"{name} has {lines} lines, expected {expected_lines[name]}")
    artifact_bytes = sum(p.stat().st_size for p in out_dir.iterdir() if p.is_file()) \
        if out_dir.is_dir() else 0
    if errors:
        return errors, digests, artifact_bytes

    if workload.command == "run":
        n_pass, n_fail = _report_checks(out_dir / "report.txt")
        if n_pass == 0 or n_fail:
            errors.append(f"report checks: {n_pass} PASS, {n_fail} FAIL")
    if workload.cmd_boundary is not None:
        lo, hi = workload.cmd_boundary
        bounds = _cmd_boundaries(out_dir / "partition.csv")
        if not any(lo <= b <= hi for b in bounds):
            errors.append(f"no cmd boundary in {lo}..{hi}: {bounds}")
    if workload.min_phase_corr is not None:
        match = _CORR_RE.search(stdout)
        if match is None:
            errors.append("phase-check printed no correlation")
        elif not float(match.group(1)) >= workload.min_phase_corr:
            errors.append(f"corr(measured, model) {match.group(1)} < {workload.min_phase_corr}")
    return errors, digests, artifact_bytes


class Tally:
    """Failures over the repetitions of one seed, whose artifacts must match."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.reference: dict[str, str] | None = None

    def add(self, errors: list[str], digests: dict[str, str]) -> None:
        self.attempted += 1
        if not errors:
            if self.reference is None:
                self.reference = digests
            elif digests != self.reference:
                errors = ["artifacts differ from the first repetition"]
        self.failed += bool(errors)
        self.errors += [f"invocation {self.attempted}: {e}" for e in errors]
