import math
from dataclasses import replace

import numpy as np
import pytest

import nfclab as nl
from nfclab import _kernels
from nfclab import wavefront as wf
from nfclab.analysis import (DEFAULT_DS_THRESHOLD_DB, AnalysisError, _Gate, _Spread, _delay, _hann, _pair_aod,
                             _power_db, _power_sums, _profile, _unwrapped_phase, export_stats_csv, pdp_csv,
                             streamed_los_phase, streamed_stats)
from nfclab.cli import main
from nfclab.constants import C_M_PER_S
from nfclab.multiplanar import build_multiplanar_model, los_geometry, multiplanar_errors
from nfclab.scene import loads_scene, save_scene
from nfclab.stationarity import uniform_partition
from nfclab.synth import array_blocks, response_blocks
from conftest import held_response
import reference
from reference import element_geometry, synthesize_los_cfr, window_stack
from test_path_table import benchmark_scene
from test_synth import traced_peak

SWEEP = nl.Sweep()  # 11-15 GHz, 801 points, B = 4 GHz, 0.25 ns bins


# ---------------------------------------------------------------------------
# The per-block stages of streamed_stats, applied to held arrays
# ---------------------------------------------------------------------------

def profile(values, taper=None):
    """The PDP ``n * |ifft(values * taper)|^2`` that ``streamed_stats`` takes of each block; Hann by default."""
    values = np.asarray(values, dtype=complex)
    taper = _hann(values.shape[-1]) if taper is None else taper
    return _profile(_delay(values, taper, np.empty_like(values)), np.empty(values.shape))


def spread(p, bin_width):
    """The RMS delay spread that ``streamed_stats`` takes of each profile (``_Spread``), of one profile."""
    moments = _Spread(1, len(p), bin_width)
    moments.add(0, 1, np.array(p, dtype=float)[None])  # a copy: add overwrites its block
    return float(moments.spread()[0])


def power_db(values):
    """The per-row received power that ``streamed_stats`` takes, in dB."""
    totals = np.empty(len(values))
    _power_sums(values, np.empty(values.shape), totals)
    return _power_db(totals, values.shape[1])


def gated_taps(values, scene, table):
    """``(center_taps, valid)`` of the streamed LOS gate fed a held response's ``array_blocks``."""
    gate = _Gate(scene.sweep, table, len(values), scene.noise_floor_dbm)
    for start, stop, rows in array_blocks(values):
        gate.add(start, stop, _delay(rows, gate.taper, rows))
    return gate.taps()


def estimate_aod(values, scene):
    """``(aod_rad, aod_valid)`` of ``streamed_stats`` on a held response."""
    stats = streamed_stats(array_blocks(values), scene, nl.path_table(scene))
    return stats.aod_rad, stats.aod_valid


def streamed_pdp(scene, table, pdp_consumer=None):
    """``(stats, pdp)``: ``streamed_stats`` of the scene's response and the ``(N, F)`` PDP it passes on.

    ``stats`` is the error message where the statistics fail after the pass
    (one element: no AoD).
    """
    pdp = np.empty((scene.array.n_elements, scene.sweep.n_points))

    def keep(start, stop, profiles):
        pdp[start:stop] = profiles
        if pdp_consumer is not None:
            pdp_consumer(start, stop, profiles)
    try:
        return streamed_stats(response_blocks(scene, table), scene, table, pdp=keep), pdp
    except ValueError as exc:
        assert str(exc) == "need at least 2 elements to estimate angles"
        return str(exc), pdp


def single_path_row(tau, freqs=None, friis=False):
    f = SWEEP.frequencies() if freqs is None else freqs
    row = np.exp(-2j * math.pi * f * tau)
    if friis:
        row = row * (SWEEP.f_center / f)
    return row


def test_zero_row_gives_zero_pdp():
    pdp = profile(np.zeros(801, dtype=complex))
    assert pdp.shape == (801,)
    assert np.all(pdp == 0.0)


def test_single_path_peak_bin():
    # r = 5 m => tau = 16.678 ns => bin round(16.678/0.25) = 67
    tau = 5.0 / C_M_PER_S
    assert round(tau * 1e9 / 0.25) == 67
    for taper in (None, np.ones(801)):  # Hann, as the pipeline takes it, and rectangular
        assert int(np.argmax(profile(single_path_row(tau), taper))) == 67


def test_two_tap_pdp_peaks_40_bins_apart():
    n = SWEEP.n_points
    # delays aligned with the IDFT grid (zero leakage): bin k at k*(n-1)/(n*B)
    tau_of_bin = lambda k: k * (n - 1) / (n * SWEEP.bandwidth)
    row = single_path_row(tau_of_bin(0)) + single_path_row(tau_of_bin(40))
    pdp = profile(row, np.ones(n))
    top2 = np.argsort(pdp)[-2:]
    assert set(top2) == {0, 40}
    assert pdp[1:40].max() < 1e-20 * pdp[0]


def test_parseval_rectangular(los_cfr):
    # sum(PDP) == sum(|H taper|^2): for the rectangular taper that is the received power
    hann = _hann(los_cfr.shape[1])
    for i in (0, 17, 63):
        row = los_cfr[i]
        for taper in (np.ones(len(row)), hann):
            total_f = float(np.sum(np.abs(row * taper) ** 2))
            assert abs(profile(row, taper).sum() - total_f) <= 1e-9 * total_f


def test_received_power_values():
    assert power_db(np.ones((1, 100), dtype=complex))[0] == pytest.approx(0.0, abs=1e-12)
    rows = np.zeros((3, 64), dtype=complex)
    rows[0] = 0.5
    rows[2, 7] = 8.0  # one bin: 64 / 64 -> 0 dB
    power = power_db(rows)
    assert power[0] == pytest.approx(-6.02, abs=5e-3)
    assert power[1] == -math.inf
    assert power[2] == 0.0


def test_rms_delay_spread_single_bin_zero():
    p = np.zeros(801)
    p[123] = 4.2
    assert spread(p, 0.25e-9) == 0.0


def test_rms_delay_spread_two_tap_closed_form():
    p = np.zeros(801)
    p[0] = 1.0
    p[40] = 1.0  # equal powers at 0 ns and 10 ns -> DS = 5 ns
    assert spread(p, 0.25e-9) == pytest.approx(5e-9, rel=1e-12)


def test_rms_delay_spread_invariances():
    rng = np.random.default_rng(5)
    p = np.zeros(801)
    p[10:20] = rng.uniform(0.1, 1.0, 10)
    ds = spread(p, 0.25e-9)
    assert spread(7.5 * p, 0.25e-9) == pytest.approx(ds, rel=1e-12)
    assert spread(np.roll(p, 100), 0.25e-9) == pytest.approx(ds, rel=1e-9)


def test_rms_delay_spread_threshold_zeroes_weak_bins():
    p = np.zeros(801)
    p[0] = 1.0
    p[400] = 1e-4  # 40 dB below the peak: removed at the 20 dB cut
    assert spread(p, 0.25e-9) == 0.0
    p[400] = 0.1  # 10 dB below the peak: kept
    assert spread(p, 0.25e-9) > 5e-10
    assert spread(p, 0.25e-9) == reference.rms_delay_spread(p, 0.25e-9, DEFAULT_DS_THRESHOLD_DB)


def test_rms_delay_spread_all_noise_error():
    with pytest.raises(AnalysisError):
        spread(np.zeros(801), 0.25e-9)


def test_rms_delay_spread_keeps_a_bin_exactly_at_the_threshold():
    p = np.zeros(801)
    p[0] = 1.0
    p[40] = 0.01  # exactly 20 dB below the peak: kept
    ds = spread(p, 0.25e-9)
    assert ds == pytest.approx(math.sqrt(0.01) / 1.01 * 10e-9, rel=1e-12)
    assert ds == reference.rms_delay_spread(p, 0.25e-9, DEFAULT_DS_THRESHOLD_DB)


def test_los_phase_single_path_matches_oracle():
    scene = loads_scene("[array]\nn_elements = 16\n[rx]\nposition = 2.0, 7.0, 2.5\n")
    values = synthesize_los_cfr(scene)
    phase, valid = streamed_los_phase(array_blocks(values), scene, nl.path_table(scene))
    assert phase[0] == 0.0
    assert np.all(valid)
    fc = scene.sweep.frequencies()[scene.sweep.center_index]
    oracle = reference.exact_relative_phase(scene, scene.rx, fc)
    assert np.abs(phase - oracle).max() < 1e-6


def test_los_phase_broadside_symmetric_pair():
    scene = loads_scene("[array]\nn_elements = 2\nspacing_d = 0.0125\n"
                        "[rx]\nposition = 0.00625, 5.0, 2.5\n")
    phase, _ = streamed_los_phase(array_blocks(synthesize_los_cfr(scene)), scene, nl.path_table(scene))
    assert phase[1] == pytest.approx(0.0, abs=1e-9)


def test_los_phase_correlation_on_preset(los_stats, los_scene):
    fc = los_scene.sweep.frequencies()[los_scene.sweep.center_index]
    model = wf.model_phases(nl.element_geometry(los_scene, los_scene.rx)[1], los_scene.array.spacing_d,
                            C_M_PER_S / fc)
    rho = np.corrcoef(los_stats.los_phase_rad, model)[0, 1]
    assert rho > 0.99
    wrapped_dev = np.angle(np.exp(1j * (los_stats.los_phase_rad - model)))
    assert np.abs(wrapped_dev).max() < 1e-3


def planar_scene_and_cfr(theta_deg, n_elements=16, r0=5000.0):
    """Far-field planar injection: phases -2*pi*f*(r0 - x_n cos(theta))/c."""
    d = C_M_PER_S / 13e9 / 2  # exactly half the center wavelength
    theta = math.radians(theta_deg)
    rx = (r0 * math.cos(theta), r0 * math.sin(theta), 2.5)
    scene = loads_scene(f"[array]\nn_elements = {n_elements}\nspacing_d = {d!r}\n"
                        f"[rx]\nposition = {rx[0]!r}, {rx[1]!r}, {rx[2]!r}\n")
    freqs = scene.sweep.frequencies()
    lengths = r0 - np.arange(n_elements)[:, None] * d * math.cos(theta)
    values = (scene.sweep.f_center / freqs)[None, :] * np.exp(
        -2j * math.pi * freqs[None, :] * lengths / C_M_PER_S)
    return scene, values


def test_estimate_aod_broadside_injection():
    scene, cfr = planar_scene_and_cfr(90.0)
    theta, valid = estimate_aod(cfr, scene)
    assert np.all(valid)
    assert np.degrees(np.abs(theta - math.pi / 2)).max() < 1e-6


def test_estimate_aod_60_degrees():
    scene, cfr = planar_scene_and_cfr(60.0)
    # by construction the pair phase step is -pi*cos(60 deg)
    taps_phase_step = -math.pi * math.cos(math.radians(60))
    d = scene.array.spacing_d
    fc = scene.sweep.frequencies()[scene.sweep.center_index]
    assert 2 * math.pi * fc / C_M_PER_S * d * math.cos(math.radians(60)) == pytest.approx(
        -taps_phase_step, rel=1e-9)
    theta, valid = estimate_aod(cfr, scene)
    assert np.all(valid)
    assert np.degrees(np.abs(theta - math.radians(60))).max() < 0.1


@pytest.mark.parametrize("theta_deg", [30, 45, 75, 90, 110, 135, 150])
def test_estimate_aod_recovery_sweep(theta_deg):
    scene, cfr = planar_scene_and_cfr(float(theta_deg))
    theta, valid = estimate_aod(cfr, scene)
    assert np.all(valid)
    assert np.degrees(np.abs(theta - math.radians(theta_deg))).max() < 0.1


def test_estimate_aod_supra_physical_step_flagged():
    # a per-element path step larger than the pitch cannot come from any real
    # departure angle; |cos| > 1 must flag the elements instead of arccos'ing
    d = 0.00922  # under half a wavelength, so the wrapped step is trustable
    scene = loads_scene(f"[array]\nn_elements = 8\nspacing_d = {d!r}\n"
                        f"[rx]\nposition = 0.0, 5000.0, 2.5\n")
    freqs = scene.sweep.frequencies()
    step = 1.2 * d  # implies |cos(theta)| = 1.2
    lengths = 5000.0 - np.arange(8)[:, None] * step
    values = (scene.sweep.f_center / freqs)[None, :] * np.exp(
        -2j * math.pi * freqs[None, :] * lengths / C_M_PER_S)
    theta, valid = estimate_aod(values, scene)
    assert not np.any(valid)
    assert np.all(np.isfinite(theta))  # clamped, not NaN


def test_los_phase_noise_only_gate_flagged():
    scene = loads_scene("[array]\nn_elements = 4\n[rx]\nposition = 1.0, 6.0, 2.5\n"
                        "[noise]\nfloor_dbm = -90.0\n")
    sweep = scene.sweep
    # a silent array plus noise: nothing but noise in every gate
    noisy = reference.complex_noise((4, sweep.n_points), -90.0, 1)
    table = nl.path_table(scene)
    assert not np.any(gated_taps(noisy, scene, table)[1])
    with pytest.raises(AnalysisError, match="noise floor; 0 of 4 elements' gates are valid"):
        streamed_los_phase(array_blocks(noisy), scene, table)
    # an actual synthesized channel at the same floor is comfortably valid
    valid = streamed_los_phase(response_blocks(scene, table), scene, table)[1]
    assert np.all(valid)


def test_estimate_aod_on_preset(los_stats, los_scene):
    aod = los_stats.aod_rad
    assert np.all(np.diff(aod) > 0)  # strictly monotone along the array
    truth = nl.element_geometry(los_scene, los_scene.rx)[1]
    est_span = math.degrees(aod[-1] - aod[0])
    true_span = math.degrees(truth[-1] - truth[0])
    assert abs(est_span - true_span) < 1.0


def test_stats_table_and_exports(tmp_path, los_stats):
    assert los_stats.n_elements == 64
    assert np.all(los_stats.delay_spread_s >= 0)
    out = tmp_path / "stats.csv"
    export_stats_csv(los_stats, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "element,power_db,ds_ns,phase_rad,aod_deg,tau_ns"
    assert len(lines) == 65


def test_pdp_export(tmp_path, los_cfr):
    out = tmp_path / "pdp.csv"
    with pdp_csv(out, 2, los_cfr.shape[1], SWEEP.bandwidth) as grid:
        grid.add(0, 2, profile(los_cfr[:2]))
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "element,bin,delay_ns,power_db"
    assert len(lines) == 1 + 2 * 801


# ---------------------------------------------------------------------------
# One PDP array and one LOS gate per run, bit-identical to the per-row code
# ---------------------------------------------------------------------------

def _sized(scene, n_points, noise_floor_dbm=None):
    """The scene as the CLI runs it with ``--freq-points``, ``--seed 7`` and ``--noise-floor``."""
    scene = replace(scene, sweep=replace(scene.sweep, n_points=n_points), seed=7)
    return scene if noise_floor_dbm is None else replace(scene, noise_floor_dbm=noise_floor_dbm)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


REFERENCE_SCENES = {
    "los_lab": lambda: nl.load_preset("los_lab"),
    "olos_baffle_noisy": lambda: _sized(nl.load_preset("olos_baffle"), 801, -80.0),
    "sweep_deep": lambda: _sized(benchmark_scene("los_lab", 64, 7), 6401, -90.0),
    "array_wide": lambda: _sized(benchmark_scene("olos_baffle", 512, 7), 401),
    "far_check": lambda: _sized(benchmark_scene("olos_baffle", 1024, 7, 4.0), 801),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_SCENES))
def test_pdp_array_and_los_delays_match_per_row_reference(name):
    scene = REFERENCE_SCENES[name]()
    table = nl.path_table(scene)
    values = reference.response(scene, table)
    ref = reference.pdp_rows(values)
    stats, pdp = streamed_pdp(scene, table)
    assert np.array_equal(_bits(pdp), _bits(ref))
    # the LOS delays, read from the table's direct-path rows, are the scalar |rx - p_n| / c
    delays = element_geometry(scene, scene.rx)[0] / C_M_PER_S
    assert np.array_equal(_bits(table.length[:len(values)] / C_M_PER_S), _bits(delays))
    assert stats.power_db.tobytes() == np.array([reference.received_power(row)
                                                 for row in values]).tobytes()
    bin_width = 1.0 / scene.sweep.bandwidth
    spreads = [reference.rms_delay_spread(p, bin_width, DEFAULT_DS_THRESHOLD_DB) for p in ref]
    assert stats.delay_spread_s.tobytes() == np.array(spreads).tobytes()
    assert stats.tau_los_s.tobytes() == delays.tobytes()
    # the one shared gate gives what the whole-array gate gives
    phase, los_valid = reference.held_los_phase(scene, table)
    aod, aod_valid = reference.estimate_aod(values, scene)
    assert stats.los_phase_rad.tobytes() == phase.tobytes()
    assert stats.aod_rad.tobytes() == aod.tobytes()
    assert np.array_equal(stats.los_valid, los_valid) and np.array_equal(stats.aod_valid, aod_valid)


# ---------------------------------------------------------------------------
# LOS taps from the five gated bins against the full inverse-FFT form
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(REFERENCE_SCENES))
def test_los_taps_match_fft_reference(name):
    """Tap phase, LOS phase and AoD within 1e-12 rad; validity masks identical."""
    scene = REFERENCE_SCENES[name]()
    table = nl.path_table(scene)
    values = held_response(scene, table)
    _, ref_taps, ref_valid, _ = reference.gated_los_rows(values, scene, table)
    taps, valid = gated_taps(values, scene, table)
    assert np.array_equal(valid, ref_valid)
    assert np.abs(np.angle(taps * np.conj(ref_taps))).max() <= 1e-12
    phase, _ = streamed_los_phase(response_blocks(scene, table), scene, table)
    assert np.abs(phase - _unwrapped_phase(ref_taps, ref_valid, scene)).max() <= 1e-12
    aod, aod_valid = estimate_aod(values, scene)
    ref_aod, ref_aod_valid = _pair_aod(scene.sweep, ref_taps, ref_valid, scene.array.spacing_d)
    assert np.array_equal(aod_valid, ref_aod_valid)
    assert np.abs(aod - ref_aod).max() <= 1e-12


# ---------------------------------------------------------------------------
# Row-blocked delay transforms: block edges and peak memory
# ---------------------------------------------------------------------------

BLOCK_SCENES = {
    "far_check": REFERENCE_SCENES["far_check"],  # 1024 rows: the last block of 40 holds 24
    "olos_baffle_noisy": REFERENCE_SCENES["olos_baffle_noisy"],  # 64 rows: blocks of 40 and 24
    "one_element": lambda: _sized(benchmark_scene("los_lab", 1, 7), 801),
    "three_points": lambda: _sized(benchmark_scene("olos_baffle", 32, 7), 3),
    "long_sweep": lambda: _sized(benchmark_scene("los_lab", 5, 7), 40001),  # one row per block
}


# block heights: the default budget (40 rows at 801 points, 1 row past 32768 points), 7 and 1
@pytest.mark.parametrize("rows_per_block", [None, 7, 1])
@pytest.mark.parametrize("name", sorted(BLOCK_SCENES))
def test_blocked_gate_and_pdp_match_whole_array_bytes(monkeypatch, name, rows_per_block):
    scene = BLOCK_SCENES[name]()
    table = nl.path_table(scene)
    values = reference.response(scene, table)
    if rows_per_block is not None:
        monkeypatch.setattr(_kernels, "BLOCK_SAMPLES", rows_per_block * scene.sweep.n_points)
    assert streamed_pdp(scene, table)[1].tobytes() == reference.pdp_rows(values).tobytes()
    _, _, ref_valid, ref_taps = reference.gated_los_rows(values, scene, table)
    taps, valid = gated_taps(values, scene, table)
    assert taps.tobytes() == ref_taps.tobytes()
    assert np.array_equal(valid, ref_valid)


def test_delay_stages_hold_no_full_size_complex_temporary():
    # 1024 x 801 on olos_baffle: only block scratch beside the (N, 5) gate bins and the (N,) outputs
    # (3.3 MB measured for the statistics: the kernel's, the PDP's and the gate's blocks)
    scene = REFERENCE_SCENES["far_check"]()
    table = nl.path_table(scene)
    response_bytes = scene.array.n_elements * scene.sweep.n_points * np.dtype(complex).itemsize

    def los_phase():
        return streamed_los_phase(response_blocks(scene, table), scene, table)

    def stats():
        return streamed_stats(response_blocks(scene, table), scene, table)
    assert traced_peak(los_phase) <= 0.25 * response_bytes
    assert traced_peak(stats) <= 0.3 * response_bytes


# ---------------------------------------------------------------------------
# Row-blocked reductions after the kernel: block height and peak memory
# ---------------------------------------------------------------------------

def _row_blocked_outputs(scene, tmp_path):
    """Bytes of every row-blocked stage of ``nfclab run``, at the current block budget."""
    table = nl.path_table(scene)
    values = held_response(scene, table)
    n = len(values)
    with pdp_csv(tmp_path / "pdp.csv", n, scene.sweep.n_points, scene.sweep.bandwidth) as grid:
        stats, pdp = streamed_pdp(scene, table, grid.add)
    out = {"cfr": values.tobytes(), "pdp": pdp.tobytes(), "pdp_csv": (tmp_path / "pdp.csv").read_bytes()}
    if n >= 2:
        out["stats"] = tuple(np.asarray(field).tobytes() for field in vars(stats).values())
        out["window_correlations"] = window_stack(values, min(4, n)).tobytes()
    geometry = los_geometry(scene, table)
    counts = sorted({1, min(4, n), n})
    refs = [build_multiplanar_model(geometry, uniform_partition(n, k)) for k in counts]
    for k, err in zip(counts, multiplanar_errors(scene, table, geometry, refs)):
        out[f"mw_{k}"] = (np.float64(err.phase_rmse).tobytes(), np.float64(err.complex_correlation).tobytes(),
                          err.per_element_phase_dev.tobytes())
    phase, valid = streamed_los_phase(response_blocks(scene, table), scene, table)
    out["streamed_los_phase"] = (phase.tobytes(), valid.tobytes())
    return out


INVARIANCE_SCENES = {
    "los_lab": lambda: nl.load_preset("los_lab"),  # 64 rows: blocks of 40 and 24
    "olos_baffle": lambda: nl.load_preset("olos_baffle"),
    "one_element": BLOCK_SCENES["one_element"],
    "three_points": BLOCK_SCENES["three_points"],
    "long_sweep": BLOCK_SCENES["long_sweep"],  # one row per block at the default budget
}


@pytest.mark.parametrize("rows_per_block", [7, 1])
@pytest.mark.parametrize("name", sorted(INVARIANCE_SCENES))
def test_row_blocked_stages_do_not_depend_on_the_block_height(monkeypatch, tmp_path, name,
                                                              rows_per_block):
    # the noisy response, its PDP and pdp.csv, the statistics, the multiplanar errors (the LOS
    # truth's amplitude included), the window correlations and phase-check's LOS phase: each
    # row's reductions are its own, whatever the block height
    scene = replace(INVARIANCE_SCENES[name](), noise_floor_dbm=-90.0, seed=7)
    expected = _row_blocked_outputs(scene, tmp_path)
    monkeypatch.setattr(_kernels, "BLOCK_SAMPLES", rows_per_block * scene.sweep.n_points)
    got = _row_blocked_outputs(scene, tmp_path)
    assert got.keys() == expected.keys()
    for key, value in expected.items():
        assert got[key] == value, key
    # and the streamed phase is the held response's, byte for byte
    phase, valid = reference.held_los_phase(scene, nl.path_table(scene))
    assert got["streamed_los_phase"] == (phase.tobytes(), valid.tobytes())


@pytest.mark.parametrize("case", ["buried", "two_points", "not_finite", "not_finite_two_points"])
def test_streamed_los_phase_raises_the_held_errors(case):
    # phase-check's errors are those of the held response: the element-1 gate's count of valid gates,
    # the window's, and a response that is not finite before a sweep too short for the window
    scene = nl.load_preset("los_lab")
    if case == "buried":
        scene = replace(scene, noise_floor_dbm=0.0)
    else:
        band = {} if case == "two_points" else {"f_start": 1e-300, "f_stop": 1e9}
        n_points = 5 if case == "not_finite" else 2
        scene = replace(scene, sweep=replace(scene.sweep, n_points=n_points, **band))
    table = nl.path_table(scene)
    with pytest.raises(ValueError) as held:
        reference.held_los_phase(scene, table)
    with pytest.raises(ValueError) as streamed:
        streamed_los_phase(response_blocks(scene, table), scene, table)
    assert type(streamed.value) is type(held.value)
    assert str(streamed.value) == str(held.value)


def test_phase_check_holds_block_scratch_only(tmp_path):
    # 1024 x 801 (far_check): the streamed gate keeps the (N, 5) gate bins and block scratch;
    # the 13.1 MB response is never allocated
    scene = REFERENCE_SCENES["far_check"]()
    scenario = tmp_path / "far_check.scene"
    save_scene(scene, scenario)
    response_bytes = scene.array.n_elements * scene.sweep.n_points * np.dtype(complex).itemsize
    argv = ["phase-check", str(scenario), "--distance-mult", "4", "--out", str(tmp_path / "out")]
    assert traced_peak(main, argv) <= 0.25 * response_bytes
    assert (tmp_path / "out" / "phase_check.csv").exists()


def test_row_blocked_statistics_hold_block_scratch_only():
    # 64 x 6401 (sweep_deep): blocks of 5 rows of scratch beside the (N,) outputs, also when
    # the response is a held array (the window bands: 1.1 MB measured, the adapter's copy and the ring)
    scene = REFERENCE_SCENES["sweep_deep"]()
    table = nl.path_table(scene)
    values = held_response(scene, table)
    assert traced_peak(lambda: streamed_stats(array_blocks(values), scene, table)) <= 0.3 * values.nbytes
    assert traced_peak(window_stack, values, 4) <= 0.2 * values.nbytes
