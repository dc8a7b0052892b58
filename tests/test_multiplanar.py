import math
from dataclasses import replace

import numpy as np
import pytest

import nfclab as nl
from nfclab.constants import C_M_PER_S
from nfclab.multiplanar import export_mw_error_csv
from nfclab.scene import loads_scene
from nfclab.stationarity import uniform_partition
from nfclab.synth import ChannelFrequencyResponse
from nfclab.wavefront import rayleigh_distance
from reference import element_geometry, synthesize_los_cfr, synthesize_multiplanar_cfr
from test_analysis import REFERENCE_SCENES


def truth_of(scene):
    return nl.los_truth(scene, nl.path_table(scene))


def _ref_multiplanar_error(truth, approx):
    """The complex-response ``multiplanar_error(truth, approx)`` the real-phase form replaced, verbatim."""
    if truth.values.shape != approx.values.shape:
        raise ValueError(f"shape mismatch: {truth.values.shape} vs {approx.values.shape}")
    diff = np.angle(truth.values * np.conj(approx.values))
    phase_rmse = float(np.sqrt(np.mean(diff * diff)))
    per_element = np.sqrt(np.mean(diff * diff, axis=1))
    denom = float(np.linalg.norm(approx.values) * np.linalg.norm(truth.values))
    corr = 0.0
    if denom > 0:
        corr = float(abs(np.vdot(approx.values, truth.values)) / denom)
    return nl.MultiplanarError(phase_rmse=phase_rmse,
                               complex_correlation=min(corr, 1.0),
                               per_element_phase_dev=per_element)


MW_SCENES = {"olos_baffle": lambda: nl.load_preset("olos_baffle"), **REFERENCE_SCENES}


def mw_rmse(scene, n_intervals):
    part = uniform_partition(scene.array.n_elements, n_intervals)
    truth = truth_of(scene)
    ref = nl.build_multiplanar_model(truth, part)
    return nl.multiplanar_error(scene, truth, ref), ref


def test_singleton_partition_reproduces_truth(los_scene):
    part = uniform_partition(64, 64)
    truth = truth_of(los_scene)
    ref = nl.build_multiplanar_model(truth, part)
    assert ref.tolist() == list(range(1, 65))
    err = nl.multiplanar_error(los_scene, truth, ref)
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
    truth = truth_of(los_scene)
    part = uniform_partition(64, 4)
    ref = nl.build_multiplanar_model(truth, part)
    angles = [truth.theta[ref[start - 1] - 1] for start, _ in part.intervals]
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
    phases = np.angle(approx.values)
    assert np.allclose(phases, phases[0][None, :], atol=1e-10)


def test_mw_error_trivials(los_scene):
    truth = truth_of(los_scene)
    ref = nl.build_multiplanar_model(truth, uniform_partition(64, 64))
    err = nl.multiplanar_error(los_scene, truth, ref)
    assert err.phase_rmse < 1e-12
    assert err.complex_correlation == pytest.approx(1.0, abs=1e-12)
    # a real positive rescaling of the field changes neither metric
    err, ref = mw_rmse(los_scene, 4)
    scaled = nl.multiplanar_error(los_scene, truth._replace(amp=3.5 * truth.amp), ref)
    assert scaled.phase_rmse == err.phase_rmse
    assert scaled.complex_correlation == pytest.approx(err.complex_correlation, abs=1e-12)
    # silent reference rows, so no planar field at all: no phase to compare
    # (zero error) and zero correlation
    amp = truth.amp.copy()
    amp[np.unique(ref) - 1] = 0.0
    silent = nl.multiplanar_error(los_scene, truth._replace(amp=amp), ref)
    assert silent.phase_rmse == 0.0 and silent.complex_correlation == 0.0


def test_mw_error_shape_mismatch(los_scene):
    half = replace(los_scene, array=replace(los_scene.array, n_elements=32))
    ref = nl.build_multiplanar_model(truth_of(half), uniform_partition(32, 2))
    with pytest.raises(ValueError, match="array has 64 elements"):
        nl.multiplanar_error(los_scene, truth_of(los_scene), ref)


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
    truth = truth_of(los_scene)
    ref = nl.build_multiplanar_model(truth, uniform_partition(64, 4))
    for bad in (ref[16:], np.r_[ref, ref[-1:]]):  # an interval short, an element too many
        with pytest.raises(ValueError, match=f"has {len(bad)} entries, array has 64 elements"):
            nl.multiplanar_error(los_scene, truth, bad)


def test_blocked_reference_falls_back():
    # stack of deep screens fully absorbs the direct path of elements 1..4;
    # elements further along the line stay usable
    lines = ["[array]", "n_elements = 8", "spacing_d = 0.1",
             "[rx]", "position = 0.35, 8.0, 2.5"]
    for i in range(5):
        lines += ["[blocker]", "center = -0.765, %s, 2.5" % (0.5 + 0.2 * i),
                  "width = 2.47", "height = 4.0", "normal = 0.0, 1.0, 0.0"]
    scene = loads_scene("\n".join(lines))
    blockages = nl.path_blockage_db(scene, nl.path_table(scene))[:8]
    ref = (1 + 8) // 2
    assert blockages[ref - 1] > 80.0          # reference fully absorbed
    assert any(b <= 80.0 for b in blockages)  # fallback exists
    model = nl.build_multiplanar_model(truth_of(scene), uniform_partition(8, 1))
    assert len(set(model.tolist())) == 1
    assert model[0] != ref
    assert blockages[model[0] - 1] <= 80.0


def test_reference_index_follows_the_fallback_rule(olos_scene):
    """Each interval's reference: its center, else the nearest usable element, ties lower."""
    n = olos_scene.array.n_elements
    truth = truth_of(olos_scene)
    r, theta = element_geometry(olos_scene, olos_scene.rx)  # the scalar per-element geometry
    assert truth.length.tobytes() == r.tobytes()
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


def test_los_truth_amplitude_is_real_finite_non_negative():
    """The real-phase error form takes both fields as a real amplitude >= 0 times a phase."""
    for name, make in MW_SCENES.items():
        amp = truth_of(make()).amp
        assert amp.dtype == np.float64, name
        assert np.all(np.isfinite(amp)) and np.all(amp >= 0.0), name


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
    err = nl.multiplanar_error(los_scene, zeroed, model)
    assert np.all(err.per_element_phase_dev[start - 1:end] == 0.0)
    assert err.per_element_phase_dev[:start - 1].max() > 0.0  # the other intervals still err
    # The complex form agrees off the zeroed interval.  On it, it takes the
    # angle of a signed zero, which is 0 or pi by the signs of cos and sin there.
    los = synthesize_los_cfr(los_scene).values.copy()
    los[silent] = 0.0
    ref = _ref_multiplanar_error(ChannelFrequencyResponse(values=los, sweep=los_scene.sweep),
                                 synthesize_multiplanar_cfr(model, zeroed, los_scene))
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
    for part in partitions:
        model = nl.build_multiplanar_model(truth, part)
        err = nl.multiplanar_error(scene, truth, model)
        ref = _ref_multiplanar_error(los_cfr, synthesize_multiplanar_cfr(model, truth, scene))
        assert abs(err.phase_rmse - ref.phase_rmse) <= tol
        assert abs(err.complex_correlation - ref.complex_correlation) <= 1e-12
        assert np.max(np.abs(err.per_element_phase_dev - ref.per_element_phase_dev)) <= tol
