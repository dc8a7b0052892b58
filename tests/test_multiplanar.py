import math
from dataclasses import replace

import numpy as np
import pytest

import nfclab as nl
from nfclab.multiplanar import export_mw_error_csv
from nfclab.scene import loads_scene
from nfclab.stationarity import singleton_partition, uniform_partition
from nfclab.wavefront import rayleigh_distance


@pytest.fixture(scope="module")
def los_truth(los_scene):
    return nl.synthesize_los_cfr(los_scene)


def mw_rmse(scene, truth, n_intervals):
    part = uniform_partition(scene.array.n_elements, n_intervals)
    patches = nl.build_multiplanar_model(scene, part)
    approx = nl.synthesize_multiplanar_cfr(patches, scene)
    return nl.multiplanar_error(truth, approx), patches, approx


def test_singleton_partition_reproduces_truth(los_scene, los_truth):
    part = singleton_partition(64)
    patches = nl.build_multiplanar_model(los_scene, part)
    approx = nl.synthesize_multiplanar_cfr(patches, los_scene)
    err = nl.multiplanar_error(los_truth, approx)
    assert err.phase_rmse < 1e-9
    assert err.complex_correlation > 1 - 1e-9


def test_reference_elements_are_exact(los_scene, los_truth):
    err, patches, _ = mw_rmse(los_scene, los_truth, 4)
    for patch in patches:
        assert err.per_element_phase_dev[patch.ref_element - 1] < 1e-9


def test_single_patch_far_field_error_small(los_scene):
    rd = rayleigh_distance(los_scene.array.aperture, los_scene.sweep.lambda_center)
    p1 = nl.element_position(los_scene, 1)
    bearing = np.asarray(los_scene.rx) - p1
    bearing /= np.linalg.norm(bearing)
    far = replace(los_scene, rx=tuple(p1 + bearing * (1000 * rd)),
                  walls=(), point_scatterers=())
    truth = nl.synthesize_los_cfr(far)
    err, _, _ = mw_rmse(far, truth, 1)
    assert err.phase_rmse < 1e-3


def test_four_patches_have_monotone_angles(los_scene, los_truth):
    _, patches, _ = mw_rmse(los_scene, los_truth, 4)
    angles = [p.theta_si for p in patches]
    assert all(b > a for a, b in zip(angles, angles[1:]))


def test_broadside_patch_constant_phase():
    # receiver exactly broadside of the reference element of a single patch
    scene = loads_scene("[array]\nn_elements = 9\nspacing_d = 0.0125\n"
                        "[rx]\nposition = 0.05, 6.0, 2.5\n")  # element 5 at x=0.05
    part = uniform_partition(9, 1)
    patches = nl.build_multiplanar_model(scene, part)
    assert patches[0].ref_element == 5
    assert patches[0].theta_si == pytest.approx(math.pi / 2, abs=1e-12)
    approx = nl.synthesize_multiplanar_cfr(patches, scene)
    phases = np.angle(approx.values)
    assert np.allclose(phases, phases[0][None, :], atol=1e-10)


def test_mw_error_trivials(los_truth):
    err = nl.multiplanar_error(los_truth, los_truth)
    assert err.phase_rmse < 1e-12
    assert err.complex_correlation == pytest.approx(1.0, abs=1e-12)
    rotated = nl.make_cfr(los_truth.values * np.exp(1j * math.pi / 2),
                          los_truth.sweep, los_truth.elements)
    err = nl.multiplanar_error(los_truth, rotated)
    assert err.phase_rmse == pytest.approx(math.pi / 2, rel=1e-9)
    assert err.complex_correlation == pytest.approx(1.0, abs=1e-12)


def test_mw_error_shape_mismatch(los_truth):
    small = nl.make_cfr(los_truth.values[:4], los_truth.sweep, los_truth.elements[:4])
    with pytest.raises(ValueError):
        nl.multiplanar_error(los_truth, small)


def test_dyadic_refinement_monotone(los_scene, los_truth):
    rmses = [mw_rmse(los_scene, los_truth, 2 ** k)[0].phase_rmse for k in range(6)]
    assert all(rmses[i + 1] <= rmses[i] + 1e-9 for i in range(5))


def test_interval_local_error_growth(los_scene):
    bare = replace(los_scene, walls=(), point_scatterers=())
    truth = nl.synthesize_los_cfr(bare)
    err, patches, _ = mw_rmse(bare, truth, 2)
    for patch in patches:
        start, end = patch.interval
        dev = err.per_element_phase_dev[start - 1:end]
        ref_local = patch.ref_element - start
        left = dev[:ref_local + 1][::-1]   # deviation moving away from ref
        right = dev[ref_local:]
        assert np.all(np.diff(left) >= -1e-12)
        assert np.all(np.diff(right) >= -1e-12)


def test_patch_coverage_validation(los_scene):
    part = uniform_partition(64, 4)
    patches = nl.build_multiplanar_model(los_scene, part)
    with pytest.raises(ValueError):
        nl.synthesize_multiplanar_cfr(patches[1:], los_scene)


def test_blocked_reference_falls_back_and_flags():
    # stack of deep screens fully absorbs the direct path of elements 1..4;
    # elements further along the line stay usable
    lines = ["[array]", "n_elements = 8", "spacing_d = 0.1",
             "[rx]", "position = 0.35, 8.0, 2.5"]
    for i in range(5):
        lines += ["[blocker]", "center = -0.765, %s, 2.5" % (0.5 + 0.2 * i),
                  "width = 2.47", "height = 4.0", "normal = 0.0, 1.0, 0.0"]
    scene = loads_scene("\n".join(lines))
    blockages = nl.path_blockage_db(scene, nl.path_table(scene, los_only=True))
    ref = (1 + 8) // 2
    assert blockages[ref - 1] > 80.0          # reference fully absorbed
    assert any(b <= 80.0 for b in blockages)  # fallback exists
    part = uniform_partition(8, 1)
    patches = nl.build_multiplanar_model(scene, part)
    assert patches[0].flagged
    assert patches[0].ref_element != ref
    assert blockages[patches[0].ref_element - 1] <= 80.0


def test_export(tmp_path):
    out = tmp_path / "mw.csv"
    export_mw_error_csv([("dyadic_2^0", 1, 0.5, 0.9)], out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k_or_partition_id,n_intervals,phase_rmse_rad,correlation"
    assert len(lines) == 2
