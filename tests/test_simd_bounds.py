"""The per-column SIMD bound check: it passes equal artifacts and flags each kind of move."""

import csv
import shutil

import pytest
from simd_bounds import BOUNDS, compare

from nfclab.cli import main


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("simd") / "run"
    assert main(["run", "olos_baffle", "--freq-points", "101", "--out", str(out)]) == 0
    return out


def _edited(run_dir, tmp_path, name, column, new):
    """A copy of ``run_dir`` with the first data cell of ``column`` in ``name`` set to ``new(old)``."""
    copy = tmp_path / "edited"
    shutil.copytree(run_dir, copy)
    with open(copy / name, newline="") as f:
        rows = list(csv.reader(f))
    j = rows[0].index(column)
    rows[1][j] = new(rows[1][j])
    with open(copy / name, "w", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows(rows)
    return copy


def test_every_artifact_column_has_a_bound(run_dir):
    assert compare(run_dir, run_dir) == []


@pytest.mark.parametrize("name, column, new, flagged", [
    ("pdp.csv", "power_db", lambda x: repr(float(x) + 0.5 * BOUNDS["pdp.csv"]["power_db"]), False),
    ("pdp.csv", "power_db", lambda x: repr(float(x) + 2.0 * BOUNDS["pdp.csv"]["power_db"]), True),
    ("pdp.csv", "power_db", lambda x: "-inf", True),
    ("cfr.csv", "re", lambda x: repr(float(x) + 1e-17), True),
    ("stats.csv", "tau_ns", lambda x: repr(float(x) * (1 + 2 ** -52)), True),
    ("partition.csv", "end", lambda x: str(int(x) + 1), True),
    ("mw_error.csv", "correlation", lambda x: repr(float(x) - 1e-14), True),
], ids=["pdp-within", "pdp-past", "pdp-inf", "cfr-re", "tau-one-ulp", "interval-end", "correlation"])
def test_a_move_past_its_bound_is_flagged(run_dir, tmp_path, name, column, new, flagged):
    problems = compare(run_dir, _edited(run_dir, tmp_path, name, column, new))
    assert [p.split(":")[0] for p in problems] == ([f"{name} {column}"] if flagged else [])
