"""Acceptance suite: every shipping criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

import nfclab as nl
from nfclab import wavefront as wf
from nfclab.analysis import compute_pdp, rms_delay_spread
from nfclab.cli import RUN_FILES, main as cli_main
from nfclab.constants import C_M_PER_S
from nfclab.stationarity import _cmd, uniform_partition
from nfclab.synth import add_complex_noise
import reference


def report(name: str, detail: str) -> None:
    print(f"PASS  {name}: {detail}")


# ---------------------------------------------------------------------------
# 1. Phase-model exactness
# ---------------------------------------------------------------------------

def test_criterion_1_phase_model_exactness(los_scene):
    rng = np.random.default_rng(20240801)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n_el = int(rng.integers(2, 129))
        d = float(rng.uniform(0.005, 0.02))
        scene = replace(los_scene,
                        array=replace(los_scene.array, n_elements=n_el, spacing_d=d),
                        rx=(float(rng.uniform(-20.0, 20.0)),
                            float(rng.uniform(0.3, 50.0)), 2.5))
        f = float(rng.uniform(11e9, 15e9))
        rng.integers(1, n_el + 1)  # an element-index draw, kept so the 1,000 geometries do not move
        model = wf.model_phases(nl.element_geometry(scene, scene.rx)[1], d, C_M_PER_S / f)
        oracle = reference.exact_relative_phase(scene, scene.rx, f)
        worst = max(worst, float(np.abs(model - oracle).max()))
    elapsed = time.perf_counter() - start
    assert worst < 1e-9
    assert elapsed < 1.0
    report("criterion 1 (phase-model exactness)",
           f"worst |model - oracle| = {worst:.3e} rad over every element of 1000 geometries "
           f"in {elapsed:.2f} s")


# ---------------------------------------------------------------------------
# 2. Far-field limit
# ---------------------------------------------------------------------------

def test_criterion_2_far_field_limit(los_scene):
    rd = wf.rayleigh_distance(los_scene.array.aperture, los_scene.sweep.lambda_center)
    p1 = nl.element_positions(los_scene)[0]
    bearing = np.asarray(los_scene.rx) - p1
    bearing /= np.linalg.norm(bearing)
    fc = los_scene.sweep.f_center
    lam = C_M_PER_S / fc
    errs = []
    for k in (1, 10, 100, 1000):
        scene = replace(los_scene, rx=tuple(p1 + bearing * (k * rd)))
        theta = nl.element_geometry(scene, scene.rx)[1]
        model = wf.model_phases(theta, scene.array.spacing_d, lam)
        theta_1 = float(theta[0])
        signed_far = -np.array([wf.far_field_phase(n, scene.array.spacing_d, lam, theta_1)
                                for n in range(1, 65)])
        errs.append(float(np.abs(model - signed_far).max()))
    assert all(errs[i + 1] < errs[i] for i in range(3))
    assert errs[-1] < 1e-3
    report("criterion 2 (far-field limit)",
           "max |near - signed far| = " + ", ".join(f"{e:.2e}" for e in errs)
           + " rad at k = 1, 10, 100, 1000")


# ---------------------------------------------------------------------------
# 3. LOS phase vs closed-form model
# ---------------------------------------------------------------------------

def test_criterion_3_phase_correlation(los_scene, los_cfr, los_table):
    phase, _ = nl.los_phase(los_cfr, los_scene, los_table)
    fc = los_scene.sweep.frequencies()[(los_scene.sweep.n_points - 1) // 2]
    model = wf.model_phases(nl.element_geometry(los_scene, los_scene.rx)[1], los_scene.array.spacing_d,
                            C_M_PER_S / fc)
    rho = float(np.corrcoef(phase, model)[0, 1])
    assert rho > 0.99
    report("criterion 3 (synthesized vs model phase)", f"Pearson correlation = {rho:.9f}")


# ---------------------------------------------------------------------------
# 4. Power spread and angle-of-departure behavior
# ---------------------------------------------------------------------------

def test_criterion_4_power_spread_and_aod(los_scene, los_stats):
    spread = float(los_stats.power_db.max() - los_stats.power_db.min())
    assert spread <= 0.5

    aod = los_stats.aod_rad
    assert np.all(np.diff(aod) > 0.0)
    truth = nl.element_geometry(los_scene, los_scene.rx)[1]
    est_span = math.degrees(float(aod[-1] - aod[0]))
    true_span = math.degrees(float(truth[-1] - truth[0]))
    assert abs(est_span - true_span) < 1.0
    report("criterion 4 (power spread + AoD)",
           f"spread = {spread:.3f} dB; AoD strictly monotone, span {est_span:.2f} deg "
           f"vs geometric {true_span:.2f} deg")


# ---------------------------------------------------------------------------
# 5. OLOS power drop and delay-spread increase
# ---------------------------------------------------------------------------

def test_criterion_5_olos_behavior(los_scene, olos_scene, shadow_nu):
    start = time.perf_counter()
    table_los = nl.path_table(los_scene)
    table_olos = nl.path_table(olos_scene)
    cfr_los = nl.synthesize_cfr(los_scene, table_los)
    cfr_olos = nl.synthesize_cfr(olos_scene, table_olos)
    stats_los = nl.compute_stats(cfr_los, los_scene, table_los)
    stats_olos = nl.compute_stats(cfr_olos, olos_scene, table_olos)

    shadowed = shadow_nu >= 1.0
    assert shadowed.sum() > 0
    drop = stats_los.power_db - stats_olos.power_db
    min_drop = float(drop[shadowed].min())
    assert min_drop >= 10.0

    ds_gain = float((np.median(stats_olos.delay_spread_s[shadowed])
                     - np.median(stats_los.delay_spread_s)) * 1e9)
    assert ds_gain >= 2.0
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report("criterion 5 (OLOS behavior)",
           f"{int(shadowed.sum())} deeply shadowed elements, min drop = {min_drop:.2f} dB, "
           f"median DS increase = {ds_gain:.2f} ns, runtime {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 6. Stationary-interval recovery
# ---------------------------------------------------------------------------

def test_criterion_6_si_recovery(los_scene, olos_cfr):
    part = nl.partition_by_cmd(nl.cmd_map(olos_cfr, 4), olos_cfr.n_elements, m=4, tau=0.2)
    boundary = next((b for b in part.boundaries() if 24 <= b <= 28), None)
    assert boundary is not None

    bare = replace(los_scene, walls=(), point_scatterers=())
    r = 14.0
    scene_a = replace(bare, rx=(r * math.cos(math.radians(60)),
                                r * math.sin(math.radians(60)), 2.5))
    scene_b = replace(bare, rx=(r * math.cos(math.radians(120)),
                                r * math.sin(math.radians(120)), 2.5))
    splice = 32  # last element fed by scene A
    clean = nl.ChannelFrequencyResponse(
        values=np.vstack([nl.synthesize_cfr(scene_a, nl.path_table(scene_a)).values[:splice],
                          nl.synthesize_cfr(scene_b, nl.path_table(scene_b)).values[splice:]]),
        sweep=bare.sweep)
    hits = 0
    for seed in range(100):
        noisy = nl.ChannelFrequencyResponse(
            values=add_complex_noise(clean.values.copy(), -95.0, seed), sweep=clean.sweep)
        trial = nl.partition_by_cmd(nl.cmd_map(noisy, 4), noisy.n_elements, m=4, tau=0.2)
        if trial.boundaries() and abs(trial.boundaries()[0] - splice) <= 2:
            hits += 1
    assert hits >= 95
    report("criterion 6 (SI recovery)",
           f"olos boundary at element {boundary}; splice recovered in {hits}/100 seeded trials")


# ---------------------------------------------------------------------------
# 7. Correlation-matrix-distance properties
# ---------------------------------------------------------------------------

def test_criterion_7_cmd_properties():
    def cmd(r1, r2):
        return float(_cmd(np.stack([r1, r2]))[0, 1])

    rng = np.random.default_rng(7)
    worst_sym = worst_self = worst_scale = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 6))
        a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        b = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
        r1 = a @ a.conj().T
        r2 = b @ b.conj().T
        d12 = cmd(r1, r2)
        d21 = cmd(r2, r1)
        assert -1e-9 <= d12 <= 1.0 + 1e-9
        worst_sym = max(worst_sym, abs(d12 - d21))
        worst_self = max(worst_self, cmd(r1, r1))
        c = float(rng.uniform(0.1, 10.0))
        worst_scale = max(worst_scale, cmd(r1, c * r1))
    assert worst_self < 1e-9
    assert worst_scale < 1e-9
    assert worst_sym < 1e-9
    assert cmd(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == 1.0
    report("criterion 7 (CMD properties)",
           f"1000 random Hermitian-PSD pairs through the Gram routine: self {worst_self:.1e}, "
           f"scale {worst_scale:.1e}, symmetry {worst_sym:.1e}")


# ---------------------------------------------------------------------------
# 8. Multiplanar-wave refinement monotonicity
# ---------------------------------------------------------------------------

def test_criterion_8_mw_monotonicity(los_scene):
    truth = nl.los_truth(los_scene, nl.path_table(los_scene))
    rmses = []
    for k in range(6):
        part = uniform_partition(64, 2 ** k)
        patches = nl.build_multiplanar_model(truth, part)
        rmses.append(nl.multiplanar_error(los_scene, truth, patches).phase_rmse)
    assert all(rmses[i + 1] <= rmses[i] + 1e-9 for i in range(5))

    patches = nl.build_multiplanar_model(truth, uniform_partition(64, 64))
    singleton_rmse = nl.multiplanar_error(los_scene, truth, patches).phase_rmse
    assert singleton_rmse < 1e-9
    report("criterion 8 (MW monotonicity)",
           "phase rmse " + " >= ".join(f"{r:.2e}" for r in rmses)
           + f"; singleton rmse = {singleton_rmse:.2e} rad")


# ---------------------------------------------------------------------------
# 9. Analysis oracles
# ---------------------------------------------------------------------------

def test_criterion_9_analysis_oracles(los_cfr):
    bin_width = 1.0 / los_cfr.sweep.bandwidth
    # Parseval with the rectangular window
    row = los_cfr.values[10]
    pdp = compute_pdp(row, window="rectangular")
    total = float(np.sum(np.abs(row) ** 2))
    parseval_err = abs(pdp.sum() - total) / total
    assert parseval_err <= 1e-9

    # two equal taps 10 ns apart -> DS = 5 ns (exact on the labeled grid,
    # within half a bin when reconstructed through a synthesized sweep)
    p = np.zeros(801)
    p[0] = p[40] = 1.0
    ds_direct = float(rms_delay_spread(p, 0.25e-9))
    assert ds_direct == pytest.approx(5e-9, rel=1e-12)

    sweep = los_cfr.sweep
    freqs = sweep.frequencies()
    n = sweep.n_points
    tau2 = 40 * (n - 1) / (n * sweep.bandwidth)
    row2 = np.exp(-2j * np.pi * freqs * 0.0) + np.exp(-2j * np.pi * freqs * tau2)
    pdp2 = compute_pdp(row2, window="rectangular")
    ds_cfr = float(rms_delay_spread(pdp2, bin_width))
    assert abs(ds_cfr - 5e-9) <= 0.5 * bin_width

    # single path at 5 m peaks in the geometric delay bin
    tau = 5.0 / C_M_PER_S
    row3 = np.exp(-2j * np.pi * freqs * tau)
    pdp3 = compute_pdp(row3, window="rectangular")
    peak = int(np.argmax(pdp3))
    assert peak == round(tau / bin_width) == 67
    report("criterion 9 (analysis oracles)",
           f"Parseval rel err = {parseval_err:.1e}; two-tap DS = {ds_direct * 1e9:.3f} ns "
           f"(via CFR {ds_cfr * 1e9:.3f} ns); single-path peak bin = {peak}")


# ---------------------------------------------------------------------------
# 10. End-to-end determinism
# ---------------------------------------------------------------------------

def test_criterion_10_determinism(tmp_path):
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert cli_main(["run", "olos_baffle", "--seed", "7", "--out", str(out1)]) == 0
    assert cli_main(["run", "olos_baffle", "--seed", "7", "--out", str(out2)]) == 0
    for name in RUN_FILES:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    report("criterion 10 (determinism)",
           f"two seeded runs produced byte-identical artifacts ({len(RUN_FILES)} files)")
