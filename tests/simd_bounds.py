"""How far each CSV column of ``nfclab run`` may move between numpy SIMD dispatch levels.

    python tests/simd_bounds.py DIR_A DIR_B

compares the CSV artifacts of two ``run`` output directories of one command
line, made at two dispatch levels (for example the default level and
``NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR"``), column
by column.  Prints one line per column past its bound and exits 1 if there
is one.

Each float column's bound is 10x, rounded up to one digit, the largest
``|a - b|`` measured between the X86_V4, X86_V3 and X86_V2 levels (numpy
2.4.6) on ``los_lab``, ``olos_baffle`` and the seed-7 ``sweep_deep`` and
``array_wide`` benchmark scenes; README "Determinism and concurrency" lists
the measurements.  A bound of 0 means the text must match: the integer and
label columns, and the float columns that no level moved.  A non-finite
value (an empty ``boundary_score``, a NaN score, a ``-inf`` PDP bin) must
match exactly at any bound.
"""

from __future__ import annotations

import csv
import math
import sys
from pathlib import Path

BOUNDS = {
    "cfr.csv": {"element": 0.0, "f_hz": 0.0, "re": 2e-18, "im": 2e-18},
    "stats.csv": {"element": 0.0, "power_db": 3e-13, "ds_ns": 5e-11, "phase_rad": 2e-14,
                  "aod_deg": 3e-13, "tau_ns": 0.0},
    "pdp.csv": {"element": 0.0, "bin": 0.0, "delay_ns": 0.0, "power_db": 4e-5},
    "partition.csv": {"interval_index": 0.0, "start": 0.0, "end": 0.0, "criterion": 0.0,
                      "boundary_score": 3e-15},
    "cmd_map.csv": {"i": 0.0, "j": 0.0, "D": 7e-15},
    "mw_error.csv": {"k_or_partition_id": 0.0, "n_intervals": 0.0, "phase_rmse_rad": 0.0,
                     "correlation": 3e-15},
}


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as f:
        return list(csv.reader(f))


def _distance(x: str, y: str) -> float:
    """``|x - y|`` of two cells, or inf where only matching text is allowed."""
    if x == y:
        return 0.0
    try:
        a, b = float(x), float(y)
    except ValueError:
        return math.inf
    return abs(a - b) if math.isfinite(a) and math.isfinite(b) else math.inf


def compare(dir_a, dir_b) -> list[str]:
    """One line per file or column of ``dir_b`` that is farther from ``dir_a`` than its bound."""
    problems = []
    for name, bounds in BOUNDS.items():
        a, b = _rows(Path(dir_a) / name), _rows(Path(dir_b) / name)
        if a[0] != list(bounds) or b[0] != a[0]:
            problems.append(f"{name}: header {b[0]} against {a[0]}, bounds for {list(bounds)}")
            continue
        if len(a) != len(b):
            problems.append(f"{name}: {len(b) - 1} rows against {len(a) - 1}")
            continue
        for j, (column, bound) in enumerate(bounds.items()):
            worst, row = max((_distance(ra[j], rb[j]), i) for i, (ra, rb) in enumerate(zip(a, b)))
            if worst > bound:
                problems.append(f"{name} {column}: |{a[row][j]} - {b[row][j]}| on row {row} "
                                f"exceeds the bound {bound:g}")
    return problems


def main(argv: list[str]) -> int:
    problems = compare(*argv)
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
