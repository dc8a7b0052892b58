import math
from dataclasses import replace

import numpy as np
import pytest

import nfclab as nl
from nfclab.constants import C_M_PER_S
from nfclab.multiplanar import FULL_BLOCKAGE_DB, export_mw_error_csv
from nfclab.scene import loads_scene
from nfclab._kernels import wavelengths
from nfclab.multiplanar import _los_amplitude
from nfclab.stationarity import uniform_partition
from nfclab.wavefront import rayleigh_distance
import reference
from reference import element_geometry, synthesize_los_cfr, synthesize_multiplanar_cfr
from test_analysis import REFERENCE_SCENES
from test_path_table import reference_table
from test_synth import traced_peak


def truth_of(scene):
    """The LOS truth held: ``reference.los_truth``."""
    return reference.los_truth(scene, nl.path_table(scene))


def errors(scene, partitions, table=None):
    """``(errors, refs)``: ``multiplanar_errors`` of the partitions' reference indices in one pass.

    ``table`` defaults to ``path_table(scene)``; the geometry is always the scene's.
    """
    geometry = nl.los_geometry(scene, nl.path_table(scene))
    refs = [nl.build_multiplanar_model(geometry, part) for part in partitions]
    table = nl.path_table(scene) if table is None else table
    return nl.multiplanar_errors(scene, table, geometry, refs), refs


def with_gain(scene, rows, gain):
    """``path_table(scene)`` with the direct paths ``rows`` (0-based elements) at ``gain`` times their amplitude."""
    table = nl.path_table(scene)
    gains = table.gain.copy()
    gains[rows] *= gain
    return table._replace(gain=gains)


def _ref_multiplanar_error(truth, approx):
    """The complex-response ``multiplanar_error(truth, approx)`` the real-phase form replaced, verbatim."""
    if truth.shape != approx.shape:
        raise ValueError(f"shape mismatch: {truth.shape} vs {approx.shape}")
    diff = np.angle(truth * np.conj(approx))
    phase_rmse = float(np.sqrt(np.mean(diff * diff)))
    per_element = np.sqrt(np.mean(diff * diff, axis=1))
    denom = float(np.linalg.norm(approx) * np.linalg.norm(truth))
    corr = 0.0
    if denom > 0:
        corr = float(abs(np.vdot(approx, truth)) / denom)
    return nl.MultiplanarError(phase_rmse=phase_rmse,
                               complex_correlation=min(corr, 1.0),
                               per_element_phase_dev=per_element)


MW_SCENES = {"olos_baffle": lambda: nl.load_preset("olos_baffle"), **REFERENCE_SCENES}


def mw_rmse(scene, n_intervals):
    [err], [ref] = errors(scene, [uniform_partition(scene.array.n_elements, n_intervals)])
    return err, ref


def test_singleton_partition_reproduces_truth(los_scene):
    [err], [ref] = errors(los_scene, [uniform_partition(64, 64)])
    assert ref.tolist() == list(range(1, 65))
    assert err.phase_rmse < 1e-9
    assert err.complex_correlation > 1 - 1e-9


def test_reference_elements_are_exact(los_scene):
    err, ref = mw_rmse(los_scene, 4)
    assert np.all(err.per_element_phase_dev[ref - 1] < 1e-9)


def test_single_patch_far_field_error_small(los_scene):
    rd = rayleigh_distance(los_scene.array.aperture, los_scene.sweep.lambda_center)
    p1 = nl.element_positions(los_scene)[0]
    bearing = np.asarray(los_scene.rx) - p1
    bearing /= np.linalg.norm(bearing)
    far = replace(los_scene, rx=tuple(p1 + bearing * (1000 * rd)),
                  walls=(), point_scatterers=())
    err, _ = mw_rmse(far, 1)
    assert err.phase_rmse < 1e-3


def test_four_patches_have_monotone_angles(los_scene):
    geometry = nl.los_geometry(los_scene, nl.path_table(los_scene))
    part = uniform_partition(64, 4)
    ref = nl.build_multiplanar_model(geometry, part)
    angles = [geometry.theta[ref[start - 1] - 1] for start, _ in part.intervals]
    assert all(b > a for a, b in zip(angles, angles[1:]))


def test_broadside_patch_constant_phase():
    # receiver exactly broadside of the reference element of a single patch
    scene = loads_scene("[array]\nn_elements = 9\nspacing_d = 0.0125\n"
                        "[rx]\nposition = 0.05, 6.0, 2.5\n")  # element 5 at x=0.05
    truth = truth_of(scene)
    ref = nl.build_multiplanar_model(truth, uniform_partition(9, 1))
    assert ref.tolist() == [5] * 9
    assert truth.theta[4] == pytest.approx(math.pi / 2, abs=1e-12)
    approx = synthesize_multiplanar_cfr(ref, truth, scene)
    phases = np.angle(approx)
    assert np.allclose(phases, phases[0][None, :], atol=1e-10)


def test_mw_error_trivials(los_scene):
    [err], _ = errors(los_scene, [uniform_partition(64, 64)])
    assert err.phase_rmse < 1e-12
    assert err.complex_correlation == pytest.approx(1.0, abs=1e-12)
    # a real positive rescaling of the field changes neither metric
    part = uniform_partition(64, 4)
    [err], [ref] = errors(los_scene, [part])
    [scaled], _ = errors(los_scene, [part], with_gain(los_scene, slice(0, 64), 3.5))
    assert scaled.phase_rmse == err.phase_rmse
    assert scaled.complex_correlation == pytest.approx(err.complex_correlation, abs=1e-12)
    # silent reference rows, so no planar field at all: no phase to compare
    # (zero error) and zero correlation
    [silent], _ = errors(los_scene, [part], with_gain(los_scene, np.unique(ref) - 1, 0.0))
    assert silent.phase_rmse == 0.0 and silent.complex_correlation == 0.0


def test_mw_error_shape_mismatch(los_scene):
    half = replace(los_scene, array=replace(los_scene.array, n_elements=32))
    _, [ref] = errors(half, [uniform_partition(32, 2)])
    table = nl.path_table(los_scene)
    with pytest.raises(ValueError, match="array has 64 elements"):
        nl.multiplanar_errors(los_scene, table, nl.los_geometry(los_scene, table), [ref])


def test_dyadic_refinement_monotone(los_scene):
    rmses = [mw_rmse(los_scene, 2 ** k)[0].phase_rmse for k in range(6)]
    assert all(rmses[i + 1] <= rmses[i] + 1e-9 for i in range(5))


def test_interval_local_error_growth(los_scene):
    bare = replace(los_scene, walls=(), point_scatterers=())
    err, ref = mw_rmse(bare, 2)
    for start, end in uniform_partition(64, 2).intervals:
        dev = err.per_element_phase_dev[start - 1:end]
        ref_local = ref[start - 1] - start
        left = dev[:ref_local + 1][::-1]   # deviation moving away from ref
        right = dev[ref_local:]
        assert np.all(np.diff(left) >= -1e-12)
        assert np.all(np.diff(right) >= -1e-12)


def test_patch_coverage_validation(los_scene):
    table = nl.path_table(los_scene)
    geometry = nl.los_geometry(los_scene, table)
    ref = nl.build_multiplanar_model(geometry, uniform_partition(64, 4))
    for bad in (ref[16:], np.r_[ref, ref[-1:]]):  # an interval short, an element too many
        with pytest.raises(ValueError, match=f"has {len(bad)} entries, array has 64 elements"):
            nl.multiplanar_errors(los_scene, table, geometry, [ref, bad])


@pytest.mark.parametrize("preset", ["los_lab", "olos_baffle"])
def test_reference_entries_outside_the_array_are_rejected(preset):
    """An entry 0, -1 or N + 1 would score against another path's row, or fail inside numpy."""
    scene = nl.load_preset(preset)
    table = nl.path_table(scene)
    geometry = nl.los_geometry(scene, table)
    n = scene.array.n_elements
    ref = nl.build_multiplanar_model(geometry, uniform_partition(n, 4))
    for value in (0, -1, n + 1):
        bad = ref.copy()
        bad[n // 2] = value
        with pytest.raises(ValueError, match=rf"reference index 1 holds {value} at element {n // 2 + 1}, "
                                             rf"outside 1\.\.{n}"):
            nl.multiplanar_errors(scene, table, geometry, [ref, bad])
    with pytest.raises(ValueError, match="reference index 0 must hold integers, got float64"):
        nl.multiplanar_errors(scene, table, geometry, [ref.astype(float)])


def test_blocked_reference_falls_back():
    # stack of deep screens fully absorbs the direct path of elements 1..4;
    # elements further along the line stay usable
    lines = ["[array]", "n_elements = 8", "spacing_d = 0.1",
             "[rx]", "position = 0.35, 8.0, 2.5"]
    for i in range(5):
        lines += ["[blocker]", "center = -0.765, %s, 2.5" % (0.5 + 0.2 * i),
                  "width = 2.47", "height = 4.0", "normal = 0.0, 1.0, 0.0"]
    scene = loads_scene("\n".join(lines))
    table = nl.path_table(scene)  # the 8 direct paths only
    blockages = reference.blockage_db(scene, table)
    assert blockages.tobytes() == reference_table(scene, los_only=True)[1].tobytes()  # the scalar sum
    ref = (1 + 8) // 2
    assert blockages[ref - 1] > 80.0          # reference fully absorbed
    assert any(b <= 80.0 for b in blockages)  # fallback exists
    geometry = nl.los_geometry(scene, table)
    assert geometry.usable.tolist() == (blockages <= FULL_BLOCKAGE_DB).tolist()
    model = nl.build_multiplanar_model(geometry, uniform_partition(8, 1))
    assert len(set(model.tolist())) == 1
    assert model[0] != ref
    assert blockages[model[0] - 1] <= 80.0


def test_reference_index_follows_the_fallback_rule(olos_scene):
    """Each interval's reference: its center, else the nearest usable element, ties lower."""
    n = olos_scene.array.n_elements
    table = nl.path_table(olos_scene)
    truth = nl.los_geometry(olos_scene, table)
    r, theta = element_geometry(olos_scene, olos_scene.rx)  # the scalar per-element geometry
    assert table.length[:n].tobytes() == r.tobytes()
    assert truth.theta.tobytes() == theta.tobytes()
    # with elements 1..40 and every third element unusable, interval centers
    # have no usable element, fall back, or have two usable neighbours at one distance
    elements = np.arange(1, n + 1)
    blocked = truth._replace(usable=truth.usable & (elements > 40) & (elements % 3 != 0))
    partitions = [uniform_partition(n, 2 ** k) for k in range(7)] + [uniform_partition(n, n)]
    fallbacks = ties = 0
    for t in (truth, blocked):
        for part in partitions:
            ref = nl.build_multiplanar_model(t, part)
            assert ref.shape == (n,) and ref.dtype.kind == "i"
            for start, end in part.intervals:
                center = (start + end) // 2
                usable = [c for c in range(start, end + 1) if t.usable[c - 1]]
                expected = min(usable, key=lambda c: (abs(c - center), c)) if usable else center
                assert ref[start - 1:end].tolist() == [expected] * (end - start + 1)
                fallbacks += expected != center
                ties += expected == center - 1 and center + 1 in usable
    assert fallbacks > 0 and ties > 0


def test_export(tmp_path):
    out = tmp_path / "mw.csv"
    export_mw_error_csv([("dyadic_2^0", 1, 0.5, 0.9)], out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k_or_partition_id,n_intervals,phase_rmse_rad,correlation"
    assert len(lines) == 2


# The oracle's J and 10^(-J/20) of an edged row come from math.log10 and float pow; numpy's
# AVX512 log10 and power round differently.  Measured on MW_SCENES: at most 11 ulps at the
# default dispatch level of an AVX512 host, 0 at X86_V3 and X86_V2.
EDGED_AMP_ULPS = 16


def test_los_truth_amplitude_is_real_finite_non_negative():
    """The real-phase error form takes both fields as a real amplitude >= 0 times a phase.

    The amplitude ``multiplanar_errors`` makes of the direct paths is the
    scalar oracle ``reference.los_truth``'s: byte for byte on the rows
    without knife edges, within ``EDGED_AMP_ULPS`` on the others.  The
    amplitude of any set of rows is those rows of the whole array, byte for
    byte.
    """
    edged_rows = 0
    for name, make in MW_SCENES.items():
        scene = make()
        table = nl.path_table(scene)
        n, n_freqs = scene.array.n_elements, scene.sweep.n_points
        every, lam = np.arange(n), wavelengths(scene.sweep.frequencies())
        amp = _los_amplitude(table, every, *lam, out=np.empty((n, n_freqs)))
        assert amp.dtype == np.float64, name
        assert np.all(np.isfinite(amp)) and np.all(amp >= 0.0), name
        want = reference.los_truth(scene, table).amp
        edged = np.diff(table.edge_ptr[:n + 1]) > 0
        assert amp[~edged].tobytes() == want[~edged].tobytes(), name
        assert np.all(np.abs(amp[edged] - want[edged]) <= EDGED_AMP_ULPS * np.spacing(want[edged])), name
        edged_rows += int(edged.sum())
        some = every[::7]
        assert _los_amplitude(table, some, *lam,
                              out=np.empty((len(some), n_freqs))).tobytes() == amp[some].tobytes(), name
    assert edged_rows > 0


# ---------------------------------------------------------------------------
# Real-phase error against the complex-response reference
# ---------------------------------------------------------------------------

def test_zero_amplitude_sample_adds_no_phase_error(los_scene):
    truth = truth_of(los_scene)
    _, model = mw_rmse(los_scene, 4)
    start, end = uniform_partition(64, 4).intervals[1]
    silent = model[start - 1] - 1  # the second interval's reference row
    amp = truth.amp.copy()
    amp[silent] = 0.0
    zeroed = truth._replace(amp=amp)
    [err], _ = errors(los_scene, [uniform_partition(64, 4)], with_gain(los_scene, [silent], 0.0))
    assert np.all(err.per_element_phase_dev[start - 1:end] == 0.0)
    assert err.per_element_phase_dev[:start - 1].max() > 0.0  # the other intervals still err
    # The complex form agrees off the zeroed interval.  On it, it takes the
    # angle of a signed zero, which is 0 or pi by the signs of cos and sin there.
    los = synthesize_los_cfr(los_scene)
    los[silent] = 0.0
    ref = _ref_multiplanar_error(los, synthesize_multiplanar_cfr(model, zeroed, los_scene))
    others = np.r_[0:start - 1, end:64]
    assert np.allclose(err.per_element_phase_dev[others], ref.per_element_phase_dev[others],
                       rtol=0.0, atol=1e-12)
    assert err.complex_correlation == pytest.approx(ref.complex_correlation, abs=1e-12)


@pytest.mark.parametrize("name", sorted(MW_SCENES))
def test_real_phase_error_matches_complex_reference(name):
    """Every dyadic row of mw_error.csv and the singleton partition, within 1e-12.

    The reference rounds each absolute phase 2 pi f L / c before subtracting,
    so it is only as good as a few ulp of the largest phase.  That stays
    within 1e-12 rad on every scene ``nfclab run`` is benchmarked on, but not on
    ``far_check`` (receiver ~48 km away, phase ~1.5e7 rad, 1 ulp = 1.9e-9
    rad), where the bound is 4 ulp of that phase; the real-phase form
    subtracts the lengths first and has no such error.
    """
    scene = MW_SCENES[name]()
    n = scene.array.n_elements
    los_cfr = synthesize_los_cfr(scene)
    truth = truth_of(scene)
    tol = 1e-12
    if name == "far_check":
        max_length = float(truth.length.max())
        tol = 4.0 * float(np.spacing(2.0 * math.pi * scene.sweep.f_stop * max_length / C_M_PER_S))
    partitions = [uniform_partition(n, min(2 ** k, n)) for k in range(6)] + [uniform_partition(n, n)]
    for err, model in zip(*errors(scene, partitions)):
        ref = _ref_multiplanar_error(los_cfr, synthesize_multiplanar_cfr(model, truth, scene))
        assert abs(err.phase_rmse - ref.phase_rmse) <= tol
        assert abs(err.complex_correlation - ref.complex_correlation) <= 1e-12
        assert np.max(np.abs(err.per_element_phase_dev - ref.per_element_phase_dev)) <= tol


# ---------------------------------------------------------------------------
# Row-blocked error: the correlation revision and peak memory
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(MW_SCENES))
def test_blocked_error_revises_only_the_correlation(name):
    """The row-blocked error against the whole-array form, on every mw_error.csv row.

    The phase error is the same element-wise expression and keeps its bytes.
    The correlation now sums per-row sums instead of running one whole-array
    reduction: that moves it by at most 2e-15, and its worst distance from
    the exactly rounded (``math.fsum``) correlation is no larger than the
    whole-array form's.
    """
    scene = MW_SCENES[name]()
    n = scene.array.n_elements
    truth = truth_of(scene)
    worst_old = worst_new = 0.0
    partitions = [uniform_partition(n, min(2 ** k, n)) for k in range(6)] + [uniform_partition(n, n)]
    for err, ref in zip(*errors(scene, partitions)):
        old = reference.multiplanar_error(scene, truth, ref)
        assert np.float64(err.phase_rmse).tobytes() == np.float64(old.phase_rmse).tobytes()
        assert err.per_element_phase_dev.tobytes() == old.per_element_phase_dev.tobytes()
        assert abs(err.complex_correlation - old.complex_correlation) <= 2e-15
        exact = reference.fsum_correlation(scene, truth, ref)
        worst_old = max(worst_old, abs(old.complex_correlation - exact))
        worst_new = max(worst_new, abs(err.complex_correlation - exact))
    assert worst_new <= worst_old


@pytest.mark.parametrize("preset", ["los_lab", "olos_baffle"])
def test_multiplanar_stage_holds_block_scratch_only(preset):
    # 256 x 6401: the LOS truth is made one block of 5 rows at a time, with the knife-edge losses
    # of that block, and the error holds a few such blocks of scratch beside (N,) sums; the peak
    # (1.9 MB on los_lab, 3.2 MB on olos_baffle, as at 64 elements) does not grow with the array
    scene = nl.load_preset(preset)
    scene = replace(scene, array=replace(scene.array, n_elements=256),
                    sweep=replace(scene.sweep, n_points=6401))
    table = nl.path_table(scene)
    geometry = nl.los_geometry(scene, table)
    refs = [nl.build_multiplanar_model(geometry, uniform_partition(256, 8))]
    truth_bytes = 256 * 6401 * np.dtype(float).itemsize
    assert traced_peak(nl.multiplanar_errors, scene, table, geometry, refs) <= 0.3 * truth_bytes
