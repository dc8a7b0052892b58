import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings

import nfclab as nl
from nfclab import wavefront as wf
from nfclab.constants import C_M_PER_S
from nfclab.scene import SceneError, element_geometry, loads_scene
import reference
from strategies import scenes
from test_analysis import REFERENCE_SCENES


def phase_of(n=2, d=0.0125, lam=0.025, t1=math.radians(60), tn=math.radians(61)):
    """Element n's closed-form phase on an n-element array whose angles run from t1 to tn.

    At ``lam = wf.TWO_PI`` the phase factor is exactly 1 and this is the path
    difference ``r_n - r_1`` itself.
    """
    theta = np.full(n, t1)
    theta[n - 1] = tn
    return float(wf.model_phases(theta, d, lam)[n - 1])


def ray_intersection(d, theta_1, theta_n):
    """Target point realizing the two axis angles, via an independent 2x2 solve."""
    # E1 + t1*(cos th1, sin th1) == E2 + t2*(cos thn, sin thn), E1=(0,0), E2=(d,0)
    a = np.array([[math.cos(theta_1), -math.cos(theta_n)],
                  [math.sin(theta_1), -math.sin(theta_n)]])
    b = np.array([d, 0.0])
    t = np.linalg.solve(a, b)
    return np.array([t[0] * math.cos(theta_1), t[0] * math.sin(theta_1)])


def geometric_delta(n, d, theta_1, theta_n):
    """Coordinate-geometry oracle for the path difference r_n - r_1."""
    target = ray_intersection((n - 1) * d, theta_1, theta_n)
    e1 = np.zeros(2)
    en = np.array([(n - 1) * d, 0.0])
    return float(np.linalg.norm(target - en) - np.linalg.norm(target - e1))


def test_reference_element_is_zero():
    assert phase_of(n=1) == 0.0
    assert phase_of(n=1, lam=wf.TWO_PI) == 0.0


def test_equal_angles_limit_value():
    # limit branch: -(n-1)*d*cos(theta_1); at 60 deg and (n-1)*d = 0.025 m
    # the value is -0.0125 m
    val = phase_of(n=3, lam=wf.TWO_PI, t1=math.radians(60), tn=math.radians(60))
    assert val == pytest.approx(-0.0125, abs=1e-15)


def test_path_difference_against_coordinate_oracle():
    oracle = geometric_delta(2, 0.0125, math.radians(60), math.radians(61))
    assert oracle == pytest.approx(-6.156e-3, abs=5e-6)  # frozen hand value
    val = phase_of(lam=wf.TWO_PI)
    assert val == pytest.approx(oracle, abs=1e-12)


def test_near_field_phase_against_coordinate_oracle():
    oracle = 2 * math.pi / 0.025 * geometric_delta(2, 0.0125, math.radians(60), math.radians(61))
    assert oracle == pytest.approx(-1.547, abs=2e-3)  # frozen hand value
    assert phase_of() == pytest.approx(oracle, abs=1e-9)


def test_broadside_phase_is_zero_for_all_elements():
    phases = wf.model_phases(np.full(64, math.pi / 2), 0.0125, 0.025)
    assert np.abs(phases).max() == pytest.approx(0.0, abs=1e-12)


def test_far_field_phase_values():
    lam = 0.025
    assert wf.far_field_phase(1, 0.0125, lam, math.radians(60)) == 0.0
    assert wf.far_field_phase(5, 0.0125, lam, math.pi / 2) == pytest.approx(0.0, abs=1e-12)
    # n=3, d=lam/2, 60 deg: 2*pi*0.5*2*0.5 = pi
    assert wf.far_field_phase(3, lam / 2, lam, math.radians(60)) == pytest.approx(math.pi, rel=1e-12)


def test_far_field_phase_mirror_antisymmetry():
    lam = 0.025
    for theta in (0.3, 1.0, 1.5):
        plus = wf.far_field_phase(4, 0.01, lam, theta)
        minus = wf.far_field_phase(4, 0.01, lam, math.pi - theta)
        assert plus == pytest.approx(-minus, rel=1e-12)


def test_rayleigh_distance():
    assert wf.rayleigh_distance(0.0, 0.025) == 0.0
    assert wf.rayleigh_distance(1.0, 0.025) == pytest.approx(80.0)
    with pytest.raises(ValueError):
        wf.rayleigh_distance(1.0, 0.0)


def test_rayleigh_distance_of_default_preset(los_scene):
    rd = wf.rayleigh_distance(los_scene.array.aperture, los_scene.sweep.lambda_center)
    assert rd == pytest.approx(45.8, abs=0.1)


def test_exact_relative_phase_trivials(los_scene):
    f = 13e9
    assert reference.exact_relative_phase(los_scene, (3.0, 4.0, 2.5), f)[0] == 0.0
    # two-element array with the target equidistant from both elements
    scene = loads_scene("[array]\nn_elements = 2\nspacing_d = 0.0125\n"
                        "[rx]\nposition = 0.00625, 5.0, 2.5\n")
    assert reference.exact_relative_phase(scene, scene.rx, f)[1] == pytest.approx(0.0, abs=1e-9)


def test_model_matches_exact_phase_for_random_geometries(los_scene):
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(300):
        n_el = int(rng.integers(2, 129))
        d = float(rng.uniform(0.005, 0.02))
        scene = replace(los_scene,
                        array=replace(los_scene.array, n_elements=n_el, spacing_d=d),
                        rx=(float(rng.uniform(-20, 20)), float(rng.uniform(0.3, 50.0)), 2.5))
        f = float(rng.uniform(11e9, 15e9))
        rng.integers(1, n_el + 1)  # an element-index draw, kept so the 300 geometries do not move
        phases = wf.model_phases(element_geometry(scene, scene.rx)[1], d, C_M_PER_S / f)
        oracle = reference.exact_relative_phase(scene, scene.rx, f)
        worst = max(worst, float(np.abs(phases - oracle).max()))
    assert worst < 1e-9


def test_continuity_at_limit_branch():
    eps = wf.EPS_ANGLE
    t1 = math.radians(60)
    limit = phase_of(n=2, lam=wf.TWO_PI, t1=t1, tn=t1)
    for sign in (+1, -1):
        edge = phase_of(n=2, lam=wf.TWO_PI, t1=t1, tn=t1 + sign * eps)
        assert abs(edge - limit) < 1e-9


def test_far_field_convergence(los_scene):
    rd = wf.rayleigh_distance(los_scene.array.aperture, los_scene.sweep.lambda_center)
    p1 = nl.element_positions(los_scene)[0]
    bearing = np.asarray(los_scene.rx) - p1
    bearing /= np.linalg.norm(bearing)
    fc = los_scene.sweep.f_center
    lam = C_M_PER_S / fc
    errs = []
    for k in (1, 10, 100, 1000):
        scene = replace(los_scene, rx=tuple(p1 + bearing * (k * rd)))
        theta = element_geometry(scene, scene.rx)[1]
        phases = wf.model_phases(theta, scene.array.spacing_d, lam)
        signed_far = -np.array([wf.far_field_phase(n, scene.array.spacing_d, lam, float(theta[0]))
                                for n in range(1, 65)])
        errs.append(float(np.abs(phases - signed_far).max()))
    assert all(errs[i + 1] < errs[i] for i in range(3))
    assert errs[-1] < 1e-3


def test_input_validation():
    with pytest.raises(ValueError):
        wf.far_field_phase(0, 0.01, 0.025, 1.0)
    with pytest.raises(ValueError):
        wf.far_field_phase(2, -1.0, 0.025, 1.0)
    with pytest.raises(ValueError):
        wf.far_field_phase(2, 0.01, 0.025, -0.1)
    with pytest.raises(ValueError):
        wf.far_field_phase(2, 0.01, 0.025, 4.0)


# ---------------------------------------------------------------------------
# One element-geometry source, byte for byte the per-element forms
# ---------------------------------------------------------------------------

GEOMETRY_SCENES = {"los_lab": lambda: nl.load_preset("los_lab"),
                   "olos_baffle": lambda: nl.load_preset("olos_baffle"),
                   **{name: REFERENCE_SCENES[name] for name in ("sweep_deep", "array_wide", "far_check")}}


def assert_matches_per_element_forms(scene):
    """Geometry, model phases and far-field phases equal their scalar references bit for bit."""
    n_el = scene.array.n_elements
    r, theta = element_geometry(scene, scene.rx)
    ref_r, ref_theta = reference.element_geometry(scene, scene.rx)
    assert r.tobytes() == ref_r.tobytes()
    assert theta.tobytes() == ref_theta.tobytes()
    fc = scene.sweep.frequencies()[scene.sweep.center_index]
    lam, d = C_M_PER_S / fc, scene.array.spacing_d
    model = wf.model_phases(theta, d, lam)
    assert model.tobytes() == reference.model_phases(scene, scene.rx, fc).tobytes()
    far = wf.far_field_phase(np.arange(1, n_el + 1), d, lam, theta[0])
    assert far.tobytes() == np.array([wf.far_field_phase(n, d, lam, theta[0])
                                      for n in range(1, n_el + 1)]).tobytes()
    positions = nl.element_positions(scene)
    for n in {1, (n_el + 1) // 2, n_el}:
        expected = (np.asarray(scene.array.origin, dtype=float)
                    + (n - 1) * d * np.asarray(scene.array.axis, dtype=float))
        assert positions[n - 1].tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", sorted(GEOMETRY_SCENES))
def test_element_geometry_and_model_match_per_element_forms(name):
    assert_matches_per_element_forms(GEOMETRY_SCENES[name]())


@settings(max_examples=100, deadline=None)
@given(scene=scenes(max_elements=1100))
def test_element_geometry_and_model_match_per_element_forms_on_random_scenes(scene):
    try:
        scene.validate()  # rx must not sit on an element
    except SceneError:
        assume(False)
    assert_matches_per_element_forms(scene)


def test_element_geometry_rejects_a_target_on_an_element(los_scene):
    with pytest.raises(ValueError, match="coincides with element 7"):
        element_geometry(los_scene, nl.element_positions(los_scene)[6])


def test_far_field_phase_array_validation():
    with pytest.raises(ValueError, match="got 0"):
        wf.far_field_phase(np.arange(0, 4), 0.01, 0.025, 1.0)
    assert wf.far_field_phase(np.arange(1, 4), 0.01, 0.025, 1.0).shape == (3,)
