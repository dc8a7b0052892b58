"""Acceptance suite: every shipping criterion at its stated tolerance.

Every quantity is taken through the pipeline's streamed entry points: the
response's row blocks (``response_blocks``, or ``array_blocks`` of a held
array) feed ``streamed_stats``, ``streamed_los_phase``, ``WindowBands`` and
``partition_by_cmd``, and the multiplanar errors come from
``multiplanar_errors``.  Run with ``pytest tests/test_acceptance.py -v -s``
to see one PASS line per criterion.
"""

import math
import time
from dataclasses import replace

import numpy as np

import nfclab as nl
from nfclab import wavefront as wf
from nfclab.cli import RUN_FILES, main as cli_main
from nfclab.constants import C_M_PER_S
from nfclab.scene import loads_scene
from nfclab.stationarity import distance_rows, uniform_partition
from conftest import held_response
import reference
from test_analysis import streamed_pdp


def report(name: str, detail: str) -> None:
    print(f"PASS  {name}: {detail}")


def cmd_partition(blocks, n, n_points, m=4, tau=0.2):
    """The CMD partition of an ``n``-element response given as row blocks, as ``nfclab run`` makes it."""
    bands = nl.WindowBands(n, n_points, m)
    for start, stop, rows in blocks:
        bands.add(start, stop, rows)
    return nl.partition_by_cmd(bands.correlations(), n, m=m, tau=tau)


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

def test_criterion_3_phase_correlation(los_scene, los_table):
    phase, _ = nl.streamed_los_phase(nl.response_blocks(los_scene, los_table), los_scene, los_table)
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
    stats_los = nl.streamed_stats(nl.response_blocks(los_scene, table_los), los_scene, table_los)
    stats_olos = nl.streamed_stats(nl.response_blocks(olos_scene, table_olos), olos_scene, table_olos)

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

def test_criterion_6_si_recovery(los_scene, olos_scene, olos_table):
    n_points = olos_scene.sweep.n_points
    part = cmd_partition(nl.response_blocks(olos_scene, olos_table), olos_scene.array.n_elements, n_points)
    boundary = next((b for b in part.boundaries() if 24 <= b <= 28), None)
    assert boundary is not None

    bare = replace(los_scene, walls=(), point_scatterers=())
    r = 14.0
    scene_a = replace(bare, rx=(r * math.cos(math.radians(60)),
                                r * math.sin(math.radians(60)), 2.5))
    scene_b = replace(bare, rx=(r * math.cos(math.radians(120)),
                                r * math.sin(math.radians(120)), 2.5))
    splice = 32  # last element fed by scene A
    clean = np.vstack([held_response(scene_a)[:splice], held_response(scene_b)[splice:]])
    hits = 0
    for seed in range(100):
        # the noise stream that response_blocks adds at a -95 dBm floor
        noisy = clean + reference.complex_noise(clean.shape, -95.0, seed)
        trial = cmd_partition(nl.array_blocks(noisy), len(noisy), n_points)
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
        return float(distance_rows(np.stack([r1, r2]), 0, 1)[0, 1])

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

def test_criterion_8_mw_monotonicity(los_scene, los_table):
    geometry = nl.los_geometry(los_scene, los_table)
    refs = [nl.build_multiplanar_model(geometry, uniform_partition(64, 2 ** k)) for k in range(7)]
    *rmses, singleton_rmse = [err.phase_rmse for err in nl.multiplanar_errors(los_scene, los_table, geometry, refs)]
    assert all(rmses[i + 1] <= rmses[i] + 1e-9 for i in range(5))
    assert singleton_rmse < 1e-9
    report("criterion 8 (MW monotonicity)",
           "phase rmse " + " >= ".join(f"{r:.2e}" for r in rmses)
           + f"; singleton rmse = {singleton_rmse:.2e} rad")


# ---------------------------------------------------------------------------
# 9. Analysis oracles
# ---------------------------------------------------------------------------

def test_criterion_9_analysis_oracles(los_scene, los_table, los_cfr):
    sweep = los_scene.sweep
    n = sweep.n_points
    bin_width = 1.0 / sweep.bandwidth
    # Parseval: a profile sums to the power of its unit-mean Hann-tapered row
    _, pdp = streamed_pdp(los_scene, los_table)
    hann = np.hanning(n) / np.hanning(n).mean()
    total = float(np.sum(np.abs(los_cfr[10] * hann) ** 2))
    parseval_err = abs(pdp[10].sum() - total) / total
    assert parseval_err <= 1e-9

    def two_elements(distance):
        """A bare 2-element array, its receiver ``distance`` from element 1 along the y axis."""
        return loads_scene(f"[array]\nn_elements = 2\n[rx]\nposition = 0.0, {distance!r}, 2.5\n")

    # two equal taps 10 ns apart, on bins 10 and 50 -> DS = 5 ns within half a bin
    freqs = sweep.frequencies()
    step = (n - 1) / (n * sweep.bandwidth)  # the delay of one bin of the IDFT grid
    two_tap = np.exp(-2j * np.pi * freqs * 10 * step) + np.exp(-2j * np.pi * freqs * 50 * step)
    scene = two_elements(10 * step * C_M_PER_S)  # the LOS gate on the first tap
    stats = nl.streamed_stats(nl.array_blocks(np.stack([two_tap, two_tap])), scene, nl.path_table(scene))
    ds_cfr = float(stats.delay_spread_s[0])
    assert abs(ds_cfr - 5e-9) <= 0.5 * bin_width

    # a single path at 5 m peaks in the geometric delay bin
    scene = two_elements(5.0)
    table = nl.path_table(scene)
    _, pdp = streamed_pdp(scene, table)
    tau = 5.0 / C_M_PER_S
    peak = int(np.argmax(pdp[0]))
    assert peak == round(tau / bin_width) == 67
    report("criterion 9 (analysis oracles)",
           f"Parseval rel err = {parseval_err:.1e}; two-tap DS via CFR = {ds_cfr * 1e9:.3f} ns; "
           f"single-path peak bin = {peak}")


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
