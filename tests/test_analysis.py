import math
from dataclasses import replace

import numpy as np
import pytest

import nfclab as nl
from nfclab import _kernels
from nfclab import wavefront as wf
from nfclab.analysis import (AnalysisError, compute_pdp, export_pdp_csv, export_stats_csv,
                             pdp_matrix, received_power_db, rms_delay_spread)
from nfclab.analysis import (LOS_GATE_HALF_WIDTH, _los_bin_indices, _pair_aod,
                             _unwrapped_phase, _window, gated_los_rows, noise_sigma,
                             streamed_los_phase)
from nfclab.cli import main
from nfclab.constants import C_M_PER_S
from nfclab.scene import loads_scene, save_scene
from nfclab.stationarity import _window_correlations, uniform_partition
from nfclab.synth import add_complex_noise, response_blocks
import reference
from reference import element_geometry, estimate_aod, synthesize_los_cfr
from test_path_table import benchmark_scene
from test_synth import traced_peak

SWEEP = nl.Sweep()  # 11-15 GHz, 801 points, B = 4 GHz, 0.25 ns bins


def single_path_row(tau, freqs=None, friis=False):
    f = SWEEP.frequencies() if freqs is None else freqs
    row = np.exp(-2j * math.pi * f * tau)
    if friis:
        row = row * (SWEEP.f_center / f)
    return row


def test_zero_row_gives_zero_pdp():
    pdp = compute_pdp(np.zeros(801, dtype=complex))
    assert pdp.shape == (801,)
    assert np.all(pdp == 0.0)


def test_single_path_peak_bin():
    # r = 5 m => tau = 16.678 ns => bin round(16.678/0.25) = 67
    tau = 5.0 / C_M_PER_S
    assert round(tau * 1e9 / 0.25) == 67
    pdp = compute_pdp(single_path_row(tau), window="rectangular")
    assert int(np.argmax(pdp)) == 67


def test_two_tap_pdp_peaks_40_bins_apart():
    n = SWEEP.n_points
    # delays aligned with the IDFT grid (zero leakage): bin k at k*(n-1)/(n*B)
    tau_of_bin = lambda k: k * (n - 1) / (n * SWEEP.bandwidth)
    row = single_path_row(tau_of_bin(0)) + single_path_row(tau_of_bin(40))
    pdp = compute_pdp(row, window="rectangular")
    top2 = np.argsort(pdp)[-2:]
    assert set(top2) == {0, 40}
    assert pdp[1:40].max() < 1e-20 * pdp[0]


def test_parseval_rectangular(los_cfr):
    for i in (0, 17, 63):
        row = los_cfr.values[i]
        pdp = compute_pdp(row, window="rectangular")
        total_f = float(np.sum(np.abs(row) ** 2))
        assert abs(pdp.sum() - total_f) <= 1e-9 * total_f


def test_received_power_values():
    ones = nl.ChannelFrequencyResponse(values=np.ones((1, 100), dtype=complex), sweep=nl.Sweep(n_points=100))
    assert nl.received_power_db(ones)[0] == pytest.approx(0.0, abs=1e-12)
    rows = np.zeros((3, 64), dtype=complex)
    rows[0] = 0.5
    rows[2, 7] = 8.0  # one bin: 64 / 64 -> 0 dB
    power = nl.received_power_db(nl.ChannelFrequencyResponse(values=rows, sweep=nl.Sweep(n_points=64)))
    assert power[0] == pytest.approx(-6.02, abs=5e-3)
    assert power[1] == -math.inf
    assert power[2] == 0.0


def test_rms_delay_spread_single_bin_zero():
    p = np.zeros(801)
    p[123] = 4.2
    assert rms_delay_spread(p, 0.25e-9) == 0.0


def test_rms_delay_spread_two_tap_closed_form():
    p = np.zeros(801)
    p[0] = 1.0
    p[40] = 1.0  # equal powers at 0 ns and 10 ns -> DS = 5 ns
    assert rms_delay_spread(p, 0.25e-9) == pytest.approx(5e-9, rel=1e-12)


def test_rms_delay_spread_invariances():
    rng = np.random.default_rng(5)
    p = np.zeros(801)
    p[10:20] = rng.uniform(0.1, 1.0, 10)
    ds = rms_delay_spread(p, 0.25e-9)
    assert rms_delay_spread(7.5 * p, 0.25e-9) == pytest.approx(ds, rel=1e-12)
    assert rms_delay_spread(np.roll(p, 100), 0.25e-9) == pytest.approx(ds, rel=1e-9)


def test_rms_delay_spread_threshold_zeroes_weak_bins():
    p = np.zeros(801)
    p[0] = 1.0
    p[400] = 1e-4  # 40 dB below the peak: removed at the default 20 dB cut
    assert rms_delay_spread(p, 0.25e-9) == 0.0
    assert rms_delay_spread(p, 0.25e-9, threshold_db=50.0) > 5e-10


def test_rms_delay_spread_all_noise_error():
    with pytest.raises(AnalysisError):
        rms_delay_spread(np.zeros(801), 0.25e-9)


def test_rms_delay_spread_keeps_a_bin_exactly_at_the_threshold():
    p = np.zeros(801)
    p[0] = 1.0
    p[40] = 0.01  # exactly 20 dB below the peak: kept
    ds = rms_delay_spread(p, 0.25e-9)
    assert ds == pytest.approx(math.sqrt(0.01) / 1.01 * 10e-9, rel=1e-12)
    assert ds == reference.rms_delay_spread(p, 0.25e-9)
    assert rms_delay_spread(p, 0.25e-9, threshold_db=0.0) == 0.0  # the peak alone


@pytest.mark.parametrize("threshold_db", [-1.0, -1e-300, math.nan])
def test_rms_delay_spread_rejects_a_bad_threshold(threshold_db):
    p = np.zeros(801)
    p[3] = 1.0
    with pytest.raises(ValueError, match="threshold_db"):
        rms_delay_spread(p, 0.25e-9, threshold_db=threshold_db)


def test_los_phase_single_path_matches_oracle():
    scene = loads_scene("[array]\nn_elements = 16\n[rx]\nposition = 2.0, 7.0, 2.5\n")
    cfr = synthesize_los_cfr(scene)
    phase, valid = nl.los_phase(cfr, scene, nl.path_table(scene))
    assert phase[0] == 0.0
    assert np.all(valid)
    fc = scene.sweep.frequencies()[scene.sweep.center_index]
    oracle = reference.exact_relative_phase(scene, scene.rx, fc)
    assert np.abs(phase - oracle).max() < 1e-6


def test_los_phase_broadside_symmetric_pair():
    scene = loads_scene("[array]\nn_elements = 2\nspacing_d = 0.0125\n"
                        "[rx]\nposition = 0.00625, 5.0, 2.5\n")
    cfr = synthesize_los_cfr(scene)
    phase, _ = nl.los_phase(cfr, scene, nl.path_table(scene))
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
    return scene, nl.ChannelFrequencyResponse(values=values, sweep=scene.sweep)


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
    theta, valid = estimate_aod(nl.ChannelFrequencyResponse(values=values, sweep=scene.sweep), scene)
    assert not np.any(valid)
    assert np.all(np.isfinite(theta))  # clamped, not NaN


def test_los_phase_noise_only_gate_flagged():
    scene = loads_scene("[array]\nn_elements = 4\n[rx]\nposition = 1.0, 6.0, 2.5\n"
                        "[noise]\nfloor_dbm = -90.0\n")
    sweep = scene.sweep
    # a silent array plus noise: nothing but noise in every gate
    silent = np.zeros((4, sweep.n_points), dtype=complex)
    noisy = nl.ChannelFrequencyResponse(values=add_complex_noise(silent, -90.0, 1), sweep=sweep)
    table = nl.path_table(scene)
    valid = gated_los_rows(noisy, scene, table)[1]
    assert not np.any(valid)
    # an actual synthesized channel at the same floor is comfortably valid
    cfr = nl.synthesize_cfr(scene, table)
    valid = gated_los_rows(cfr, scene, table)[1]
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
    export_pdp_csv(pdp_matrix(los_cfr)[:2], out, los_cfr.sweep.bandwidth)
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
    cfr = nl.synthesize_cfr(scene, table)
    ref = reference.pdp_rows(cfr)
    pdp = pdp_matrix(cfr)
    assert pdp.shape == (cfr.n_elements, cfr.sweep.n_points)
    assert np.array_equal(_bits(pdp), _bits(ref))
    # the LOS delays, read from the table's direct-path rows, are the scalar |rx - p_n| / c
    delays = element_geometry(scene, scene.rx)[0] / C_M_PER_S
    assert np.array_equal(_bits(table.length[:cfr.n_elements] / C_M_PER_S), _bits(delays))
    if name == "far_check":  # phase-check: no statistics table
        return
    stats = nl.compute_stats(cfr, scene, table)
    assert stats.power_db.tobytes() == np.array([reference.received_power(row)
                                                 for row in cfr.values]).tobytes()
    bin_width = 1.0 / cfr.sweep.bandwidth
    assert stats.delay_spread_s.tobytes() == np.array([reference.rms_delay_spread(p, bin_width)
                                                       for p in ref]).tobytes()
    assert stats.tau_los_s.tobytes() == delays.tobytes()
    # the one shared gate gives what the single-purpose functions give
    phase, los_valid = nl.los_phase(cfr, scene, table)
    aod, aod_valid = estimate_aod(cfr, scene)
    assert stats.los_phase_rad.tobytes() == phase.tobytes()
    assert stats.aod_rad.tobytes() == aod.tobytes()
    assert np.array_equal(stats.los_valid, los_valid) and np.array_equal(stats.aod_valid, aod_valid)


# ---------------------------------------------------------------------------
# LOS taps from the five gated bins against the full inverse-FFT form
# ---------------------------------------------------------------------------

def _ref_gated_los_rows(cfr, scene, table):
    """The ``gated_los_rows`` that transformed the whole gated spectrum back, verbatim."""
    values = cfr.values
    n = cfr.sweep.n_points
    freqs = cfr.sweep.frequencies()
    center = (n - 1) // 2
    taper = _window("hann", n)
    equalized = values * (taper * freqs / freqs[center])[None, :]
    spectra = np.fft.ifft(equalized, axis=1)

    k0 = _los_bin_indices(cfr.sweep, table, cfr.n_elements)
    offsets = np.arange(-LOS_GATE_HALF_WIDTH, LOS_GATE_HALF_WIDTH + 1)
    every = np.arange(cfr.n_elements)[:, None]
    idx = (k0[:, None] + offsets) % n
    kept = spectra[every, idx]
    gated_spectra = np.zeros_like(spectra)
    gated_spectra[every, idx] = kept
    gate_power = np.sum(np.abs(kept) ** 2, axis=1) * n

    rows = np.fft.fft(gated_spectra, axis=1)
    taps = rows[:, center]
    # the whole-array form of the five-bin sum gated_los_rows computes
    kept_taps = np.sum(kept * np.exp(-2j * math.pi * ((idx * center) % n) / n), axis=1)

    if scene.noise_floor_dbm is not None:
        # Windowing scales the in-gate noise by mean(w^2) (w has unit mean).
        noise_in_gate = (noise_sigma(scene.noise_floor_dbm) ** 2 * len(offsets)
                         * float(np.mean(taper ** 2)))
        valid = gate_power > 10.0 * noise_in_gate
    else:
        valid = gate_power > 0.0
    return rows, taps, valid, kept_taps


@pytest.mark.parametrize("name", sorted(REFERENCE_SCENES))
def test_los_taps_match_fft_reference(name):
    """Tap phase, LOS phase and AoD within 1e-12 rad; validity masks identical."""
    scene = REFERENCE_SCENES[name]()
    table = nl.path_table(scene)
    cfr = nl.synthesize_cfr(scene, table)
    _, ref_taps, ref_valid, _ = _ref_gated_los_rows(cfr, scene, table)
    taps, valid = gated_los_rows(cfr, scene, table)
    assert np.array_equal(valid, ref_valid)
    assert np.abs(np.angle(taps * np.conj(ref_taps))).max() <= 1e-12
    phase, _ = nl.los_phase(cfr, scene, table)
    assert np.abs(phase - _unwrapped_phase(ref_taps, ref_valid, scene)).max() <= 1e-12
    aod, aod_valid = estimate_aod(cfr, scene)
    ref_aod, ref_aod_valid = _pair_aod(cfr.sweep, ref_taps, ref_valid, scene.array.spacing_d)
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
    cfr = nl.synthesize_cfr(scene, table)
    if rows_per_block is not None:
        monkeypatch.setattr(_kernels, "BLOCK_SAMPLES", rows_per_block * cfr.sweep.n_points)
    assert pdp_matrix(cfr).tobytes() == reference.pdp_rows(cfr).tobytes()
    _, _, ref_valid, ref_taps = _ref_gated_los_rows(cfr, scene, table)
    taps, valid = gated_los_rows(cfr, scene, table)
    assert taps.tobytes() == ref_taps.tobytes()
    assert np.array_equal(valid, ref_valid)


def test_delay_stages_hold_no_full_size_complex_temporary():
    # 1024 x 801 on olos_baffle: only block scratch beside the (N, 5) gate bins and the PDP output
    scene = REFERENCE_SCENES["far_check"]()
    table = nl.path_table(scene)
    cfr = nl.synthesize_cfr(scene, table)
    assert traced_peak(gated_los_rows, cfr, scene, table) <= 0.25 * cfr.values.nbytes
    assert traced_peak(pdp_matrix, cfr) <= 0.75 * cfr.values.nbytes


# ---------------------------------------------------------------------------
# Row-blocked reductions after the kernel: block height and peak memory
# ---------------------------------------------------------------------------

def _row_blocked_outputs(scene, tmp_path):
    """Bytes of every row-blocked stage of ``nfclab run``, at the current block budget."""
    table = nl.path_table(scene)
    cfr = nl.synthesize_cfr(scene, table)
    n = cfr.n_elements
    truth = nl.los_truth(scene, table)
    pdp = pdp_matrix(cfr)
    out = {"cfr": cfr.values.tobytes(), "truth": truth.amp.tobytes(),
           "power": received_power_db(cfr).tobytes(),
           "ds": rms_delay_spread(pdp, 1.0 / cfr.sweep.bandwidth).tobytes()}
    for n_intervals in sorted({1, min(4, n), n}):
        err = nl.multiplanar_error(scene, truth,
                                   nl.build_multiplanar_model(truth, uniform_partition(n, n_intervals)))
        out[f"mw_{n_intervals}"] = (np.float64(err.phase_rmse).tobytes(),
                                    np.float64(err.complex_correlation).tobytes(),
                                    err.per_element_phase_dev.tobytes())
    if n >= 2:
        out["window_correlations"] = _window_correlations(cfr.values, min(4, n)).tobytes()
    phase, valid = streamed_los_phase(response_blocks(scene, table), scene, table)
    out["streamed_los_phase"] = (phase.tobytes(), valid.tobytes())
    export_pdp_csv(pdp, tmp_path / "pdp.csv", cfr.sweep.bandwidth)
    out["pdp_csv"] = (tmp_path / "pdp.csv").read_bytes()
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
    # the noisy response, the LOS truth, power, delay spread, multiplanar error, window
    # correlations, pdp.csv and phase-check's LOS phase: each row's reductions are its own,
    # whatever the block height
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
    # 64 x 6401 (sweep_deep): a block of 5 rows of scratch beside the (N,) outputs
    scene = REFERENCE_SCENES["sweep_deep"]()
    cfr = nl.synthesize_cfr(scene, nl.path_table(scene))
    pdp = pdp_matrix(cfr)
    assert traced_peak(received_power_db, cfr) <= 0.1 * cfr.values.nbytes
    assert traced_peak(rms_delay_spread, pdp, 1.0 / cfr.sweep.bandwidth) <= 0.1 * cfr.values.nbytes
    assert traced_peak(_window_correlations, cfr.values, 4) <= 0.1 * cfr.values.nbytes
