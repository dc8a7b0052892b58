import math

import numpy as np
import pytest

import nfclab as nl
from nfclab.scene import (Blocker, SceneParseError, SceneValidationError,
                          edge_clearance, fresnel_geometry_factor, loads_scene)

MINIMAL = """
[array]
n_elements = 1

[rx]
position = 0.0, 5.0, 2.5
"""


def test_minimal_file_fills_defaults():
    scene = loads_scene(MINIMAL)
    assert scene.array.n_elements == 1
    assert scene.array.spacing_d == 0.011534
    assert scene.array.axis == (1.0, 0.0, 0.0)
    assert scene.array.origin == (0.0, 0.0, 2.5)
    assert scene.sweep.f_start == 11e9 and scene.sweep.f_stop == 15e9
    assert scene.sweep.n_points == 801
    assert scene.noise_floor_dbm is None
    assert scene.seed == 0
    assert scene.walls == () and scene.blockers == ()


def test_los_lab_preset_shape(los_scene):
    assert los_scene.array.n_elements == 64
    assert los_scene.sweep.f_start == 11e9
    assert los_scene.sweep.f_stop == 15e9
    assert los_scene.blockers == ()
    assert len(los_scene.walls) > 0


def test_olos_preset_has_blocker(olos_scene, los_scene):
    assert len(olos_scene.blockers) == 1
    assert olos_scene.walls == los_scene.walls
    assert olos_scene.point_scatterers == los_scene.point_scatterers


def test_negative_spacing_rejected():
    text = MINIMAL.replace("n_elements = 1", "n_elements = 1\nspacing_d = -0.01")
    with pytest.raises(SceneValidationError, match="spacing_d"):
        loads_scene(text)


def test_parse_error_carries_line_number():
    bad = "[array]\nn_elements = 1\nwhat is this\n"
    with pytest.raises(SceneParseError) as err:
        loads_scene(bad)
    assert err.value.line == 3


def test_unknown_section_rejected():
    with pytest.raises(SceneParseError, match="unknown section"):
        loads_scene("[nonsense]\nx = 1\n")


def test_missing_rx_rejected():
    with pytest.raises(SceneValidationError, match="rx"):
        loads_scene("[array]\nn_elements = 4\n")


def test_rx_coincident_with_element_rejected():
    text = MINIMAL.replace("position = 0.0, 5.0, 2.5", "position = 0.0, 0.0, 2.5")
    with pytest.raises(SceneValidationError, match="rx"):
        loads_scene(text)


def test_non_unit_axis_rejected():
    text = MINIMAL.replace("n_elements = 1", "n_elements = 2\naxis = 1.0, 1.0, 0.0")
    with pytest.raises(SceneValidationError, match="axis"):
        loads_scene(text)


def test_roundtrip_identity(los_scene, olos_scene, tmp_path):
    for scene in (los_scene, olos_scene):
        again = loads_scene(nl.serialize_scene(scene))
        assert again == scene
    path = tmp_path / "copy.scene"
    nl.save_scene(olos_scene, path)
    assert nl.load_scene(path) == olos_scene


def test_sweep_center_index_is_the_middle_grid_point():
    odd = nl.Sweep(n_points=801)
    assert odd.center_index == 400
    assert odd.frequencies()[odd.center_index] == pytest.approx(odd.f_center, rel=1e-15)
    even = nl.Sweep(n_points=800)
    assert even.center_index == 399
    step = even.bandwidth / (even.n_points - 1)
    assert even.frequencies()[even.center_index] == pytest.approx(even.f_center - 0.5 * step, rel=1e-15)
    assert nl.Sweep(n_points=2).center_index == 0


def test_element_position_basics(los_scene):
    assert np.allclose(nl.element_positions(los_scene)[0], los_scene.array.origin)
    scene = loads_scene(MINIMAL.replace("n_elements = 1",
                                        "n_elements = 8\nspacing_d = 0.0125"))
    positions = nl.element_positions(scene)
    assert positions.shape == (8, 3)
    assert np.allclose(positions[2], (0.025, 0.0, 2.5))


def test_element_positions_affine(los_scene):
    pos = nl.element_positions(los_scene)
    step = np.array(los_scene.array.axis) * los_scene.array.spacing_d
    diffs = np.diff(pos, axis=0)
    assert np.allclose(diffs, step[None, :], rtol=1e-12, atol=1e-15)


def test_true_geometry_collinear_and_broadside(los_scene):
    origin = np.array(los_scene.array.origin)
    r, theta = nl.element_geometry(los_scene, origin + np.array([3.0, 0, 0]))
    assert theta[0] == pytest.approx(0.0, abs=1e-12)
    r, theta = nl.element_geometry(los_scene, origin + np.array([0.0, 5.0, 0]))
    assert r[0] == pytest.approx(5.0, abs=1e-12)
    assert theta[0] == pytest.approx(math.pi / 2, abs=1e-12)


def test_true_geometry_distance_ordering():
    # receiver off-broadside toward element 1 => farthest from element 64
    text = MINIMAL.replace("n_elements = 1", "n_elements = 64")
    scene = loads_scene(text.replace("position = 0.0, 5.0, 2.5",
                                     "position = -3.0, 5.0, 2.5"))
    r, _ = nl.element_geometry(scene, scene.rx)
    r1, r64 = r[0], r[63]
    p1, p64 = nl.element_positions(scene)[[0, 63]]
    assert r64 > r1
    assert r1 == pytest.approx(np.linalg.norm(np.array(scene.rx) - p1), abs=1e-12)
    assert r64 == pytest.approx(np.linalg.norm(np.array(scene.rx) - p64), abs=1e-12)


def test_true_geometry_symmetric_distance(los_scene):
    target = (1.0, 4.0, 2.0)
    r_fwd = nl.element_geometry(los_scene, target)[0][4]
    p5 = nl.element_positions(los_scene)[4]
    assert r_fwd == pytest.approx(np.linalg.norm(p5 - np.asarray(target)), abs=1e-15)


def test_true_geometry_coincident_error(los_scene):
    with pytest.raises(ValueError, match="coincides"):
        nl.element_geometry(los_scene, nl.element_positions(los_scene)[1])


SCREEN = Blocker(center=(0.0, 1.0, 2.0), width=2.0, height=2.0, normal=(0.0, 1.0, 0.0))
LAM = 0.023


def occludes(blocker, a, b, wavelength):
    """Whether each segment a-b hits the screen, and its edge Fresnel parameter.

    A segment that never crosses the screen's plane gives ``(False, -inf)``.
    """
    crosses, h, d1, d2 = edge_clearance(blocker, a, b)
    nu = fresnel_geometry_factor(h, d1, d2) / math.sqrt(wavelength)
    return crosses & (h > 0), np.where(crosses, nu, -math.inf)


def test_occludes_clear_path_far_above():
    blocked, nu = occludes(SCREEN, (0.0, 0.0, 10.0), (0.0, 2.0, 10.0), LAM)
    assert not blocked
    assert nu < -10.0


def test_occludes_through_center():
    blocked, nu = occludes(SCREEN, (0.0, 0.0, 2.0), (0.0, 2.0, 2.0), LAM)
    assert blocked
    assert nu > 0.0


def test_occludes_grazing_top_edge():
    blocked, nu = occludes(SCREEN, (0.0, 0.0, 3.0), (0.0, 2.0, 3.0), LAM)
    assert nu == pytest.approx(0.0, abs=1e-9)
    assert not blocked


def test_occludes_no_plane_crossing():
    blocked, nu = occludes(SCREEN, (0.0, 2.0, 2.0), (0.0, 3.0, 2.0), LAM)
    assert not blocked
    assert nu == -math.inf


def test_occludes_symmetric_in_endpoints():
    rng = np.random.default_rng(7)
    a = rng.uniform(-2, 2, (50, 3)) + np.array([0, -1.5, 2.0])
    b = rng.uniform(-2, 2, (50, 3)) + np.array([0, 2.5, 2.0])
    f1 = occludes(SCREEN, a, b, LAM)
    f2 = occludes(SCREEN, b, a, LAM)
    assert np.array_equal(f1[0], f2[0])
    np.testing.assert_allclose(f1[1], f2[1], rtol=1e-9, atol=1e-12)


def test_noise_section_parsing():
    scene = loads_scene(MINIMAL + "\n[noise]\nfloor_dbm = -92.5\nseed = 42\n")
    assert scene.noise_floor_dbm == -92.5
    assert scene.seed == 42


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64), "99999999999999999999"])
def test_seed_outside_uint64_rejected(seed):
    with pytest.raises(SceneValidationError, match="seed") as err:
        loads_scene(MINIMAL + f"\n[noise]\nfloor_dbm = -90\nseed = {seed}\n")
    assert err.value.field_name == "seed"
    assert loads_scene(MINIMAL + f"\n[noise]\nseed = {2 ** 64 - 1}\n").seed == 2 ** 64 - 1


def test_horizontal_screen_axes():
    flat = Blocker(center=(0.0, 0.0, 1.0), width=2.0, height=4.0, normal=(0.0, 0.0, 1.0))
    u, v = flat.plane_axes()
    assert abs(np.dot(u, v)) < 1e-12
    assert abs(np.dot(u, flat.normal)) < 1e-12
    blocked, nu = occludes(flat, (0.0, 0.0, 0.0), (0.0, 0.0, 2.0), LAM)
    assert blocked and nu > 0


def test_edge_clearance_signs():
    crosses, h, d1, d2 = edge_clearance(SCREEN, [(0.0, 0.0, 2.0), (0.0, 0.0, 3.5)],
                                        [(0.0, 2.0, 2.0), (0.0, 2.0, 3.5)])
    assert crosses.all() and h[0] > 0 and h[1] == pytest.approx(-0.5)
    assert d1[0] == pytest.approx(1.0) and d2[0] == pytest.approx(1.0)
