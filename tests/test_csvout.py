"""Golden byte tests: every exporter writes exactly what the csv.writer loops wrote.

Each ``_ref_*`` function below is the per-row ``csv.writer`` + ``repr``
exporter that the block writer in ``nfclab._csvout`` replaced, kept verbatim
as the reference.  The one declared exception is the ``pdp.csv`` ``power_db``
column, now ``10*np.log10`` over the array: within 2 ulp of the scalar
``10*math.log10`` reference, every other cell byte-identical, and
byte-identical to ``reference.export_pdp_csv``, the ``str``-cell exporter
that took ``np.log10`` per row.  The inputs are small but hold the awkward
cases of the dialect: signed zero, subnormals, values at the repr switch to
exponent form, infinities, NaN, an empty PDP bin, element numbers of two
digits, a zero-power CMD window and both partition criteria.  The run
scenes check the bulk files at full size.  The bulk files are written by
the writers ``nfclab run`` uses (``synth.cfr_csv``, ``analysis.pdp_csv``
and ``stationarity.export_cmd_map_csv``), given a held array.
"""

import csv
import math

import numpy as np
import pytest

import reference
from nfclab import _csvout, analysis
from nfclab._floatrepr import repr_cells
from nfclab.analysis import ChannelStats, export_stats_csv, pdp_csv
from nfclab.cli import main
from nfclab.multiplanar import export_mw_error_csv
from nfclab.scene import Sweep, load_preset, load_scene, save_scene
from nfclab.stationarity import (StationaryPartition, distance_rows, export_cmd_map_csv, export_partition_csv,
                                 uniform_partition)
from nfclab.synth import cfr_csv, path_table
from conftest import held_response
from reference import window_stack
from test_analysis import BLOCK_SCENES, REFERENCE_SCENES, _sized, streamed_pdp
from test_path_table import benchmark_scene
from test_synth import traced_peak

AWKWARD = [-0.0, 5e-324, 1e16, 1e22, 0.1, 1e-7, 123456789.125, -2.5e-300]


# ---------------------------------------------------------------------------
# The bulk writers, given a held array
# ---------------------------------------------------------------------------

def export_cfr_csv(values, sweep, path) -> None:
    with cfr_csv(path, sweep, len(values)) as grid:
        grid.add(0, len(values), values)


def export_pdp_csv(pdp, path, bandwidth_hz) -> None:
    with pdp_csv(path, *pdp.shape, bandwidth_hz) as grid:
        grid.add(0, len(pdp), pdp)


# ---------------------------------------------------------------------------
# Reference exporters (the csv.writer loops, verbatim)
# ---------------------------------------------------------------------------

def _ref_export_cfr_csv(values, sweep, path) -> None:
    freqs = sweep.frequencies()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["element", "f_hz", "re", "im"])
        for element, row in enumerate(values, start=1):
            for m in range(len(freqs)):
                writer.writerow([element, repr(float(freqs[m])),
                                 repr(float(row[m].real)), repr(float(row[m].imag))])


def _ref_export_stats_csv(stats, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["element", "power_db", "ds_ns", "phase_rad", "aod_deg", "tau_ns"])
        for i in range(stats.n_elements):
            writer.writerow([
                i + 1,
                repr(float(stats.power_db[i])),
                repr(float(stats.delay_spread_s[i] * 1e9)),
                repr(float(stats.los_phase_rad[i])),
                repr(float(math.degrees(stats.aod_rad[i]))),
                repr(float(stats.tau_los_s[i] * 1e9)),
            ])


def _ref_export_pdp_csv(pdp_array, bandwidth_hz, path) -> None:
    """The per-row loop over the profiles of elements 1..N, one cell at a time."""
    bin_width = 1.0 / bandwidth_hz
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["element", "bin", "delay_ns", "power_db"])
        for element, powers in enumerate(pdp_array, start=1):
            delays_ns = np.arange(len(powers)) * bin_width * 1e9
            for k in range(len(powers)):
                p = powers[k]
                power_db = repr(10.0 * math.log10(p)) if p > 0 else "-inf"
                writer.writerow([element, k, repr(float(delays_ns[k])), power_db])


def _ref_export_partition_csv(partitions, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["interval_index", "start", "end", "criterion", "boundary_score"])
        for partition in partitions:
            scores = ("",) + tuple(repr(float(s)) for s in partition.boundary_scores)
            for i, ((start, end), score) in enumerate(zip(partition.intervals, scores)):
                writer.writerow([i, start, end, partition.criterion, score])


def _ref_export_cmd_map_csv(stack, path) -> None:
    dmap = distance_rows(stack, 0, len(stack))  # the whole map, held
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "j", "D"])
        for i in range(dmap.shape[0]):
            for j in range(dmap.shape[1]):
                writer.writerow([i + 1, j + 1, repr(float(dmap[i, j]))])


def _ref_export_mw_error_csv(rows, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k_or_partition_id", "n_intervals", "phase_rmse_rad", "correlation"])
        for name, n_intervals, rmse, corr in rows:
            writer.writerow([name, n_intervals, repr(float(rmse)), repr(float(corr))])


def _ref_export_phase_check_csv(n_elements, measured, model, far, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["element", "measured_phase", "eq_model_phase", "far_field_phase"])
        for i in range(n_elements):
            writer.writerow([i + 1, repr(float(measured[i])), repr(float(model[i])),
                             repr(float(far[i]))])


def _assert_same_bytes(tmp_path, export, reference, *args):
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    export(*args, new)
    reference(*args, ref)
    assert new.read_bytes() == ref.read_bytes()


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def _awkward_cfr():
    """``(values, sweep)``: 12 elements (two-digit labels) x 5 points, awkward real and imaginary parts."""
    sweep = Sweep(f_start=0.1, f_stop=1e22, n_points=5)
    values = np.empty((12, 5), dtype=np.complex128)
    flat = np.resize(np.array(AWKWARD), values.size).reshape(values.shape)
    values.real = flat
    values.imag = -flat[::-1]
    return values, sweep


def _awkward_stats():
    n = 12
    vals = np.resize(np.array(AWKWARD + [math.inf, -math.inf, math.nan]), n)
    return ChannelStats(power_db=vals, delay_spread_s=vals[::-1].copy(),
                        los_phase_rad=-vals, aod_rad=np.roll(vals, 3),
                        tau_los_s=np.roll(vals, 5),
                        los_valid=np.ones(n, dtype=bool), aod_valid=np.ones(n, dtype=bool))


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

def test_cfr_csv_matches_reference(tmp_path):
    _assert_same_bytes(tmp_path, export_cfr_csv, _ref_export_cfr_csv, *_awkward_cfr())


def test_stats_csv_matches_reference(tmp_path):
    _assert_same_bytes(tmp_path, export_stats_csv, _ref_export_stats_csv, _awkward_stats())


def _assert_pdp_csv_within_2_ulp(new, ref) -> None:
    """Every cell byte-identical, except ``power_db`` within 2 ulp of the scalar ``log10``.

    ``np.log10`` may differ from ``math.log10`` by 1 ulp, which ``10 *`` turns
    into at most 2 ulp of the dB value; non-finite cells must match exactly.
    Returns the number of rows whose bytes differ.
    """
    new_lines, ref_lines = new.read_bytes().split(b"\r\n"), ref.read_bytes().split(b"\r\n")
    assert len(new_lines) == len(ref_lines)
    moved = [(a, b) for a, b in zip(new_lines, ref_lines) if a != b]
    for a, b in moved:
        *head_a, db_a = a.split(b",")
        *head_b, db_b = b.split(b",")
        assert head_a == head_b
        x, y = float(db_a), float(db_b)
        assert math.isfinite(y) and abs(x - y) <= 2 * np.spacing(abs(y)), (a, b)


def test_pdp_csv_matches_reference(tmp_path):
    """12 elements (two-digit labels) x 7 bins; awkward powers and bin widths."""
    powers = np.array([0.0, 5e-324, 1e16, 1e22, 0.1, math.inf, 1.0])
    pdp = np.stack([np.roll(powers, i) for i in range(12)])
    pdp[5] = pdp[5][::-1]
    new, ref, oracle = tmp_path / "new.csv", tmp_path / "ref.csv", tmp_path / "oracle.csv"
    for bandwidth_hz in (4e9, 3e9, 0.1):
        export_pdp_csv(pdp, new, bandwidth_hz)
        _ref_export_pdp_csv(pdp, bandwidth_hz, ref)
        _assert_pdp_csv_within_2_ulp(new, ref)
        reference.export_pdp_csv(pdp, oracle, bandwidth_hz)
        assert new.read_bytes() == oracle.read_bytes()
    assert b"\r\n1,0,0.0,-inf\r\n" in new.read_bytes()
    assert b"\r\n12,6,60000000000.0,160.0\r\n" in new.read_bytes()


@pytest.mark.parametrize("name", ["los_lab", "olos_baffle_noisy", "sweep_deep", "array_wide"])
def test_pdp_csv_of_run_scenes_within_2_ulp(tmp_path, name):
    scene = REFERENCE_SCENES[name]()
    pdp = streamed_pdp(scene, path_table(scene))[1]
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    export_pdp_csv(pdp, new, scene.sweep.bandwidth)
    _ref_export_pdp_csv(pdp, scene.sweep.bandwidth, ref)
    _assert_pdp_csv_within_2_ulp(new, ref)


def test_partition_csv_matches_reference(tmp_path):
    partitions = [
        StationaryPartition(intervals=((1, 4), (5, 11), (12, 12)), criterion="cmd",
                            boundary_scores=(0.1, 1.0)),
        StationaryPartition(intervals=((1, 9), (10, 10), (11, 12)), criterion="slope",
                            boundary_scores=(math.nan, 1e16)),
        StationaryPartition(intervals=((1, 12),), criterion="cmd", boundary_scores=()),
    ]
    _assert_same_bytes(tmp_path, export_partition_csv, _ref_export_partition_csv, partitions)


def test_partition_csv_writes_every_interval_without_scores(tmp_path):
    # the reference stops at the last score, so it dropped all but the first interval here
    path = tmp_path / "p.csv"
    export_partition_csv([uniform_partition(12, 4)], path)
    assert path.read_bytes() == (b"interval_index,start,end,criterion,boundary_score\r\n"
                                 b"0,1,3,uniform,\r\n1,4,6,uniform,\r\n"
                                 b"2,7,9,uniform,\r\n3,10,12,uniform,\r\n")


def test_cmd_map_csv_matches_reference(tmp_path):
    values, _ = _awkward_cfr()
    values[4:7] = 0.0  # the windows over these elements carry no power
    stack = window_stack(values, 2)
    assert len(stack) == 11 and np.any(distance_rows(stack, 0, 11) == 1.0)
    _assert_same_bytes(tmp_path, export_cmd_map_csv, _ref_export_cmd_map_csv, stack)
    assert b"\r\n5,11,1.0\r\n" in (tmp_path / "new.csv").read_bytes()


def test_mw_error_csv_matches_reference(tmp_path):
    rows = [("dyadic_2^0", 1, 0.1, 1.0), ("dyadic_2^4", 16, -0.0, 5e-324),
            ("cmd", 12, np.float64(1e16), 1e22), ("slope", 3, math.inf, math.nan)]
    _assert_same_bytes(tmp_path, export_mw_error_csv, _ref_export_mw_error_csv, rows)


PHASE_CHECK_SCENES = {
    "los_lab": lambda: load_preset("los_lab"),
    "olos_baffle": lambda: load_preset("olos_baffle"),
    "olos_baffle_noisy": REFERENCE_SCENES["olos_baffle_noisy"],  # the noise drawn block by block
    "one_element": BLOCK_SCENES["one_element"],
    "long_sweep": BLOCK_SCENES["long_sweep"],  # one row per block
}


def _check_phase_check_csv(tmp_path, monkeypatch, scenario):
    n_elements = load_scene(scenario).array.n_elements
    # the phase of the streamed response blocks is the held response's, byte for byte
    held = []

    def streamed_los_phase(blocks, scene, table, _streamed=analysis.streamed_los_phase):
        held.append(reference.held_los_phase(scene, table))
        return _streamed(blocks, scene, table)
    monkeypatch.setattr(analysis, "streamed_los_phase", streamed_los_phase)
    out = tmp_path / "out"
    assert main(["phase-check", str(scenario), "--out", str(out)]) == 0
    written = (out / "phase_check.csv").read_bytes()
    # repr round-trips, so the parsed values rewritten by the reference give its bytes
    rows = [line.split(",") for line in written.decode().splitlines()[1:]]
    measured, model, far = (np.array([float(r[c]) for r in rows]) for c in (1, 2, 3))
    _ref_export_phase_check_csv(n_elements, measured, model, far, tmp_path / "ref.csv")
    assert written == (tmp_path / "ref.csv").read_bytes()
    assert [r[0] for r in rows] == [str(i) for i in range(1, n_elements + 1)]
    assert measured.tobytes() == held[0][0].tobytes()


def test_phase_check_csv_matches_reference(tmp_path, monkeypatch):
    scenario = tmp_path / "line.scene"
    scenario.write_text("[array]\nn_elements = 12\n[sweep]\nn_points = 33\n"
                        "[rx]\nposition = 0.0, 3.0, 2.5\n")
    _check_phase_check_csv(tmp_path, monkeypatch, scenario)


@pytest.mark.parametrize("name", PHASE_CHECK_SCENES)
def test_phase_check_csv_matches_reference_for_scene(tmp_path, monkeypatch, name):
    scenario = tmp_path / f"{name}.scene"
    save_scene(PHASE_CHECK_SCENES[name](), scenario)
    _check_phase_check_csv(tmp_path, monkeypatch, scenario)


def test_write_csv_dialect(tmp_path):
    path = tmp_path / "t.csv"
    _csvout.write_csv(path, ("a", "b", "c"), (_csvout.strs([1, 10, "x"]), _csvout.floats([-0.0, 1e22, math.nan]),
                                              ["", "q", ""]))
    assert path.read_bytes() == b"a,b,c\r\n1,-0.0,\r\n10,1e+22,q\r\nx,nan,\r\n"
    _csvout.write_csv(path, ("a",), (["y"],))
    assert path.read_bytes() == b"a\r\ny\r\n"
    _csvout.write_csv(path, ("a", "b"), ([], []))
    assert path.read_bytes() == b"a,b\r\n"
    # cell matrices: a per-row label and a per-column cell broadcast over a 2 x 2 block
    label, column = _csvout.cells(["1", "10"])[:, None], _csvout.cells(["p", "qq"])[None]
    block = _csvout.lines((label, column, repr_cells([[-0.0, 1e22], [math.nan, 0.5]])))
    assert block.tobytes() == b"1,p,-0.0\r\n1,qq,1e+22\r\n10,p,nan\r\n10,qq,0.5\r\n"
    assert _csvout.lines((label[:0], column, repr_cells(np.zeros((0, 2))))).tobytes() == b""


def test_write_csv_rejects_ragged_columns(tmp_path):
    # a one-row column broadcasts in lines(): write_csv must not repeat it down a longer one
    for columns in ((["1", "2"], ["3"]), (["3"], ["1", "2"]), (["1", "2"], [])):
        with pytest.raises(ValueError, match="equal lengths"):
            _csvout.write_csv(tmp_path / "t.csv", ("a", "b"), columns)
        assert not (tmp_path / "t.csv").exists()
    with pytest.raises(ValueError):
        _csvout.lines((_csvout.cells(["1", "2"])[:, None], repr_cells(np.ones((3, 4)))))


# ---------------------------------------------------------------------------
# The bulk files of the run scenes, byte for byte
# ---------------------------------------------------------------------------

BYTE_SCENES = {
    **REFERENCE_SCENES,
    "one_element": BLOCK_SCENES["one_element"],  # a 1-row CFR; its CMD map is 0 x 0
    "three_points": BLOCK_SCENES["three_points"],
    # longer than _kernels.BLOCK_SAMPLES: a row per pass, its values in several formatter passes
    "long_sweep": lambda: _sized(benchmark_scene("los_lab", 2, 7), 40000, -90.0),
}


@pytest.mark.parametrize("name", sorted(BYTE_SCENES))
def test_bulk_files_match_byte_oracles(tmp_path, name):
    scene = BYTE_SCENES[name]()
    table = path_table(scene)
    values = held_response(scene, table)
    pdp = streamed_pdp(scene, table)[1]
    _assert_same_bytes(tmp_path, export_cfr_csv, _ref_export_cfr_csv, values, scene.sweep)
    new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
    export_pdp_csv(pdp, new, scene.sweep.bandwidth)
    reference.export_pdp_csv(pdp, ref, scene.sweep.bandwidth)
    assert new.read_bytes() == ref.read_bytes()
    stack = window_stack(values, 4 if len(values) >= 8 else 2)
    _assert_same_bytes(tmp_path, export_cmd_map_csv, _ref_export_cmd_map_csv, stack)


def test_bulk_exports_hold_pass_sized_scratch_only(tmp_path):
    # a few formatting passes of scratch at a time (about 2.7 MB measured), never a file's
    # worth of cells: the CMD map's pending lower triangle held 5.3 MB on array_wide
    for name in ("sweep_deep", "array_wide"):
        scene = REFERENCE_SCENES[name]()
        table = path_table(scene)
        values = held_response(scene, table)
        assert traced_peak(export_cfr_csv, values, scene.sweep, tmp_path / "cfr.csv") <= 3e6
        pdp = streamed_pdp(scene, table)[1]
        assert traced_peak(export_pdp_csv, pdp, tmp_path / "pdp.csv", scene.sweep.bandwidth) <= 3e6
        assert traced_peak(export_cmd_map_csv, window_stack(values, 4), tmp_path / "cmd_map.csv") <= 3e6
