"""How far each CSV column of ``nfclab run`` may move between numpy SIMD dispatch levels.

    python tests/simd_bounds.py DIR_A DIR_B

compares the CSV artifacts of two ``run`` output directories of one command
line, made at two dispatch levels (for example the default level and
``NPY_DISABLE_CPU_FEATURES="X86_V3 X86_V4 AVX512_ICL AVX512_SPR"``), column
by column.  Prints one line per column past its bound and exits 1 if there
is one.

Each float column's bound is 10x, rounded up to one digit, the largest
``|a - b|`` measured between the X86_V4 (the default on an AVX-512 host),
X86_V3 (``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"``) and
X86_V2 levels, with numpy 2.4.6, over the three pairs of levels and four
command lines: ``run los_lab``, ``run olos_baffle`` and the seed-7
``sweep_deep`` and ``array_wide`` benchmark command lines.

    column                          largest move          bound
    cfr re, im                      1.1e-19               2e-18
    stats power_db                  2.8e-14 dB            3e-13
    stats ds_ns                     4.2e-12 ns            5e-11
    stats phase_rad                 2.8e-14 rad, 1 ulp    10 ulp, at least 2e-14
    stats aod_deg                   2.1e-14 deg           3e-13
    pdp power_db                    3.5e-6 dB (deep       4e-5
                                    bins, olos_baffle)
    partition boundary_score        2.2e-16               3e-15
    cmd_map D                       6.7e-16               7e-15
    mw_error correlation            2.2e-16               3e-15

``phase_rad`` holds the unwrapped LOS phase, which reaches hundreds of
radians on a 512-element array, where one ulp of the value is past any
absolute bound measured on the small presets.  So it is bounded in ulps of
the larger of the two values: 10x the largest move counted in ulps, by the
same levels and command lines, with the absolute bound measured before
(1.8e-15 rad, so 2e-14) kept as the floor.  The largest move was 1 ulp,
2.8e-14 rad on the seed-7 ``array_wide`` line; it is 1 ulp as well on CI's
512 x 401 ``olos_baffle`` scene (5.7e-14 rad at 510 rad) and on the seed-3
``array_wide`` line (1.1e-13 rad at 890 rad).

The ``cfr`` bound is absolute; preset amplitudes are about 1e-4, so it is
about 1e-14 of the largest value.  A bound of 0 means the text must match:
the integer and label columns, and the float columns that no level moved
(``cfr`` ``f_hz``, ``stats`` ``tau_ns``, ``pdp`` ``delay_ns``, ``mw_error``
``phase_rmse_rad``).  A non-finite value (an empty ``boundary_score``, a NaN
score, a ``-inf`` PDP bin) must match exactly at any bound.
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

# Columns also allowed this many ulps of the larger value, when that is past their absolute bound.
ULP_BOUNDS = {("stats.csv", "phase_rad"): 10}


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as f:
        return list(csv.reader(f))


def _excess(x: str, y: str, bound: float, ulps: float) -> float:
    """How far ``|x - y|`` of two cells is past ``max(bound, ulps ulp)``, or inf where only matching text is allowed."""
    if x == y:
        return 0.0
    try:
        a, b = float(x), float(y)
    except ValueError:
        return math.inf
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) - max(bound, ulps * math.ulp(max(abs(a), abs(b))))


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
            ulps = ULP_BOUNDS.get((name, column), 0)
            worst, row = max((_excess(ra[j], rb[j], bound, ulps), i) for i, (ra, rb) in enumerate(zip(a, b)))
            if worst > 0:
                limit = f"{bound:g}" + (f" or {ulps} ulp" if ulps else "")
                problems.append(f"{name} {column}: |{a[row][j]} - {b[row][j]}| on row {row} "
                                f"exceeds the bound {limit}")
    return problems


def main(argv: list[str]) -> int:
    problems = compare(*argv)
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
