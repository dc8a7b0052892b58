"""README.md names every flag, exit code, artifact, CSV column, scenario key and preset the code has."""

import argparse
import re
import shlex
from pathlib import Path

import pytest

from nfclab import cli
from nfclab.scene import _FORMAT, PRESET_NAMES

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = cli.build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _named(token: str) -> bool:
    """``token`` appears in README as a whole word: not inside a longer name or option."""
    return re.search(rf"(?<![\w-]){re.escape(token)}(?![\w-])", README) is not None


def _example_lines() -> list[str]:
    """The ``nfclab …`` lines of README's fenced blocks."""
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", README, flags=re.M | re.S)
    return [line.strip() for block in blocks for line in block.splitlines()
            if line.startswith("nfclab ")]


@pytest.mark.parametrize("command", ["run", "phase-check"])
def test_readme_names_every_option(command):
    sub = _subparsers()[command]
    missing = [opt for action in sub._actions for opt in action.option_strings if not _named(opt)]
    assert missing == []


def test_readme_gives_every_exit_code():
    codes = {name: value for name, value in vars(cli).items() if name.startswith("EXIT_")}
    assert sorted(set(codes.values())) == [0, 2, 3, 4, 5]
    assert [name for name, value in codes.items()
            if not re.search(rf"^\| `{value}` \|", README, flags=re.M)] == []


def test_readme_names_every_artifact():
    assert [name for name in (*cli.RUN_FILES, "phase_check.csv") if f"`{name}`" not in README] == []


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory) -> Path:
    """The files of one small ``run`` and one ``phase-check``, in one directory."""
    out = tmp_path_factory.mktemp("artifacts")
    assert cli.main(["run", "los_lab", "--freq-points", "11", "--out", str(out)]) == 0
    assert cli.main(["phase-check", "los_lab", "--out", str(out)]) == 0
    return out


def test_readme_gives_every_csv_column(artifacts):
    csvs = sorted(artifacts.glob("*.csv"))
    assert {path.name for path in csvs} == {*cli.RUN_FILES, "phase_check.csv"} - {"report.txt"}
    missing = [(path.name, column) for path in csvs
               for column in path.read_text(encoding="utf-8").splitlines()[0].split(",")
               if f"`{column}`" not in README]
    assert missing == []


def test_readme_names_every_partition_criterion(artifacts):
    rows = (artifacts / "partition.csv").read_text(encoding="utf-8").splitlines()[1:]
    criteria = sorted({row.split(",")[3] for row in rows})
    assert criteria == ["cmd", "slope"]
    assert [c for c in criteria if f"`{c}`" not in README] == []


def test_readme_names_every_report_threshold_and_check(artifacts):
    report = (artifacts / "report.txt").read_text(encoding="utf-8")
    thresholds = report.split("thresholds and defaults used:\n")[1].split("\n\n")[0]
    keys = [line.split(" = ")[0].strip() for line in thresholds.splitlines()]
    checks = [line.split()[1] for line in report.split("checks:\n")[1].split("\n\n")[0].splitlines()]
    assert len(keys) == 12 and len(checks) == 3
    assert [name for name in keys + checks if f"`{name}`" not in README] == []


def test_readme_gives_the_scenario_format():
    missing = [f"[{name}]" for name in _FORMAT if f"`[{name}]`" not in README]
    missing += [key for section in _FORMAT.values() for key in section.keys if f"`{key}`" not in README]
    assert missing == []


def test_readme_names_every_preset():
    assert [name for name in PRESET_NAMES if f"`{name}`" not in README] == []


def test_readme_examples_parse():
    lines = _example_lines()
    parser = cli.build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")
    # CI runs the examples that name a preset through the installed console script
    commands = {shlex.split(line)[1] for line in lines if set(shlex.split(line)) & set(PRESET_NAMES)}
    assert commands == {"run", "phase-check"}
