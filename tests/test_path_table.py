"""The vectorised path table against the scalar per-element enumeration it replaced.

The reference below is the earlier implementation, kept verbatim: one
``PropagationPath`` per (element, path), one scalar ``edge_clearance`` per
(segment, blocker).  ``path_table`` must reproduce its table bit for bit once
the rows are put back in per-element order, so the synthesized CFR stays
bit-identical.
"""

import math
import random
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from strategies import scenes

import nfclab as nl
from nfclab import scene as scene_mod
from nfclab.constants import C_M_PER_S, KNIFE_EDGE_NU_MIN
from nfclab.scene import Blocker, Scatterer, Scene, element_position
from nfclab.synth import PathTable, knife_edge_loss, path_blockage_db, path_table
from nfclab.wavefront import rayleigh_distance

# ---------------------------------------------------------------------------
# Reference: the scalar per-element enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PropagationPath:
    kind: str  # "los" | "wall" | "scatterer"
    length: float
    interaction_gain: float
    blockage_db: float
    edge_factors: tuple[float, ...] = ()


def edge_clearance(blocker: Blocker, a, b) -> tuple[bool, float, float, float]:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.array_equal(a, b):
        raise ValueError("segment endpoints coincide")
    n = np.asarray(blocker.normal, dtype=float)
    c = np.asarray(blocker.center, dtype=float)
    sa = float(np.dot(n, a - c))
    sb = float(np.dot(n, b - c))
    denom = sa - sb
    if denom == 0.0:
        return False, 0.0, 0.0, 0.0
    t = sa / denom
    if not 0.0 < t < 1.0:
        return False, 0.0, 0.0, 0.0
    p = a + t * (b - a)
    u, v = blocker.plane_axes()
    pu = float(np.dot(p - c, u))
    pv = float(np.dot(p - c, v))
    du = abs(pu) - 0.5 * blocker.width
    dv = abs(pv) - 0.5 * blocker.height
    if du <= 0.0 and dv <= 0.0:
        h = -max(du, dv)  # distance to the nearest edge, from inside
    else:
        h = -math.hypot(max(du, 0.0), max(dv, 0.0))
    d1 = float(np.linalg.norm(p - a))
    d2 = float(np.linalg.norm(b - p))
    return True, h, d1, d2


def fresnel_geometry_factor(h: float, d1: float, d2: float) -> float:
    if d1 <= 0.0 or d2 <= 0.0:
        # Crossing at a segment endpoint: treat as fully determined by sign.
        return math.inf if h > 0 else (-math.inf if h < 0 else 0.0)
    return h * math.sqrt(2.0 * (d1 + d2) / (d1 * d2))


def _mirror_across_plane(point: np.ndarray, normal: np.ndarray, offset: float) -> np.ndarray:
    return point - 2.0 * (float(np.dot(normal, point)) - offset) * normal


def _edge_factors_for(scene: Scene, vertices: list[np.ndarray]) -> tuple[float, ...]:
    if not scene.blockers:
        return ()
    lam_max = C_M_PER_S / scene.sweep.f_start
    keep_threshold = KNIFE_EDGE_NU_MIN * math.sqrt(lam_max)
    factors: list[float] = []
    for a, b in zip(vertices[:-1], vertices[1:]):
        for blocker in scene.blockers:
            crosses, h, d1, d2 = edge_clearance(blocker, a, b)
            if not crosses:
                continue
            geo = fresnel_geometry_factor(h, d1, d2)
            if geo > keep_threshold:
                factors.append(geo)
    return tuple(factors)


def _path_blockage_db(scene: Scene, edge_factors: tuple[float, ...]) -> float:
    lam_c = scene.sweep.lambda_center
    total = 0.0
    for geo in edge_factors:
        total += float(knife_edge_loss(geo / math.sqrt(lam_c)))
    return total


def los_path(scene: Scene, n: int) -> PropagationPath:
    p = element_position(scene, n)
    rx = np.asarray(scene.rx, dtype=float)
    factors = _edge_factors_for(scene, [p, rx])
    return PropagationPath(
        kind="los",
        length=float(np.linalg.norm(rx - p)),
        interaction_gain=1.0,
        blockage_db=_path_blockage_db(scene, factors),
        edge_factors=factors,
    )


def enumerate_paths(scene: Scene, n: int) -> list[PropagationPath]:
    p = element_position(scene, n)
    rx = np.asarray(scene.rx, dtype=float)
    paths = [los_path(scene, n)]

    for wall in scene.walls:
        normal = np.asarray(wall.normal, dtype=float)
        s_el = float(np.dot(normal, p)) - wall.offset
        s_rx = float(np.dot(normal, rx)) - wall.offset
        if s_el * s_rx <= 0.0:
            continue  # no valid specular point: endpoints straddle or touch the plane
        image = _mirror_across_plane(rx, normal, wall.offset)
        length = float(np.linalg.norm(image - p))
        t = s_el / (s_el + s_rx)
        reflection = p + t * (image - p)
        factors = _edge_factors_for(scene, [p, reflection, rx])
        paths.append(PropagationPath(
            kind="wall",
            length=length,
            interaction_gain=wall.gamma,
            blockage_db=_path_blockage_db(scene, factors),
            edge_factors=factors,
        ))

    for scatterer in scene.point_scatterers:
        s = np.asarray(scatterer.position, dtype=float)
        length = float(np.linalg.norm(s - p) + np.linalg.norm(rx - s))
        factors = _edge_factors_for(scene, [p, s, rx])
        paths.append(PropagationPath(
            kind="scatterer",
            length=length,
            interaction_gain=scatterer.amplitude,
            blockage_db=_path_blockage_db(scene, factors),
            edge_factors=factors,
        ))

    return paths


def reference_table(scene: Scene, los_only: bool = False):
    """The earlier per-element table build, plus each path's blockage."""
    row_idx, lengths, gains, edge_geo, edge_ptr, blockage = [], [], [], [], [0], []
    for n in range(1, scene.array.n_elements + 1):
        for path in [los_path(scene, n)] if los_only else enumerate_paths(scene, n):
            row_idx.append(n - 1)
            lengths.append(path.length)
            gains.append(path.interaction_gain)
            edge_geo.extend(path.edge_factors)
            edge_ptr.append(len(edge_geo))
            blockage.append(path.blockage_db)
    table = PathTable(np.array(row_idx, dtype=np.int64), np.array(lengths), np.array(gains),
                      np.array(edge_ptr, dtype=np.int64), np.array(edge_geo, dtype=float))
    return table, np.array(blockage)


# ---------------------------------------------------------------------------
# Comparison helpers
# ---------------------------------------------------------------------------


def per_element_order(table: PathTable) -> tuple[PathTable, np.ndarray]:
    """The table stably sorted by row (edges moved with their paths), and the order."""
    order = np.argsort(table.row, kind="stable")
    counts = np.diff(table.edge_ptr)[order]
    edges = [table.edge_geo[table.edge_ptr[i]:table.edge_ptr[i + 1]] for i in order]
    return PathTable(table.row[order], table.length[order], table.gain[order],
                     np.concatenate(([0], np.cumsum(counts))).astype(np.int64),
                     np.concatenate([np.empty(0), *edges])), order


def assert_same_bits(got: np.ndarray, want: np.ndarray, name: str) -> None:
    assert got.dtype == want.dtype, f"{name}: dtype {got.dtype} != {want.dtype}"
    assert got.shape == want.shape, f"{name}: shape {got.shape} != {want.shape}"
    assert got.tobytes() == want.tobytes(), f"{name}: values differ"


def los_rows(table: PathTable, n: int) -> PathTable:
    """Rows ``[:n]`` of a table, with their edges."""
    ptr = table.edge_ptr[:n + 1]
    return PathTable(table.row[:n], table.length[:n], table.gain[:n], ptr, table.edge_geo[:ptr[-1]])


def assert_matches_reference(scene: Scene) -> PathTable:
    table = path_table(scene)
    blockage = path_blockage_db(scene, table)
    n = scene.array.n_elements
    got, order = per_element_order(table)
    want, want_blockage = reference_table(scene)
    for name in PathTable._fields:
        assert_same_bits(getattr(got, name), getattr(want, name), name)
    assert_same_bits(blockage[order], want_blockage, "blockage_db")
    # rows [:N] are the direct paths in element order: the LOS-only table, bit for bit
    want, want_blockage = reference_table(scene, los_only=True)
    for name in PathTable._fields:
        assert_same_bits(getattr(los_rows(table, n), name), getattr(want, name), name)
    assert_same_bits(blockage[:n], want_blockage, "blockage_db")
    return table


def benchmark_scene(preset: str, n_elements: int, seed: int,
                    distance_mult: float | None = None) -> Scene:
    """A benchmark workload's scene: the preset resized, rx and scatterers jittered.

    With ``distance_mult`` the receiver moves to that many Rayleigh distances
    along its bearing from element 1, as ``nfclab phase-check`` does.
    """
    scene = nl.load_preset(preset)
    rng = random.Random(seed)

    def jitter(v):
        return tuple(x + rng.uniform(-2e-3, 2e-3) for x in v)

    scene = replace(scene, array=replace(scene.array, n_elements=n_elements), rx=jitter(scene.rx),
                    point_scatterers=tuple(replace(s, position=jitter(s.position))
                                           for s in scene.point_scatterers))
    if distance_mult is not None:
        p1 = element_position(scene, 1)
        bearing = np.asarray(scene.rx, dtype=float) - p1
        bearing /= float(np.linalg.norm(bearing))
        r_d = rayleigh_distance(scene.array.aperture, scene.sweep.lambda_center)
        scene = replace(scene, rx=tuple(float(x) for x in p1 + bearing * distance_mult * r_d))
    return scene


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("preset", ["los_lab", "olos_baffle"])
def test_path_table_matches_reference_on_presets(preset):
    scene = nl.load_preset(preset)
    table = assert_matches_reference(scene)
    assert (len(table.edge_geo) > 0) == bool(scene.blockers)


@pytest.mark.parametrize("preset, n_elements, distance_mult", [
    ("los_lab", 64, None),          # sweep_deep
    ("olos_baffle", 512, None),     # array_wide
    ("olos_baffle", 1024, 4.0),     # far_check, receiver at 4x Rayleigh
])
def test_path_table_matches_reference_on_benchmark_scenes(preset, n_elements, distance_mult):
    assert_matches_reference(benchmark_scene(preset, n_elements, 7, distance_mult))


def test_path_table_is_grouped_by_kind(olos_scene):
    table = path_table(olos_scene)
    n = olos_scene.array.n_elements
    assert np.array_equal(table.row[:n], np.arange(n))
    assert np.all(table.gain[:n] == 1.0)
    scatter_gains = [s.amplitude for s in olos_scene.point_scatterers]
    assert list(table.gain[-2 * n::n]) == scatter_gains


def test_coincident_segment_raises_only_with_blockers(olos_scene):
    at_rx = replace(olos_scene, point_scatterers=(Scatterer(position=olos_scene.rx, amplitude=0.5),))
    with pytest.raises(ValueError, match="segment endpoints coincide"):
        enumerate_paths(at_rx, 1)
    with pytest.raises(ValueError, match="segment endpoints coincide"):
        path_table(at_rx)
    clear = replace(at_rx, blockers=())
    assert_matches_reference(clear)


TILTED = tuple(np.array([0.3, 0.8, -0.52]) / np.linalg.norm([0.3, 0.8, -0.52]))


def test_edge_clearance_matches_scalar_form():
    rng = np.random.default_rng(11)
    screens = [Blocker(center=(0.0, 1.0, 2.0), width=2.0, height=1.0, normal=(0.0, 1.0, 0.0)),
               Blocker(center=(0.3, -0.2, 1.0), width=0.5, height=3.0, normal=(0.0, 0.0, -1.0)),
               Blocker(center=(0.1, 0.4, 0.2), width=1.2, height=0.7, normal=TILTED)]
    at_end = 0
    for screen in screens:
        n, c = np.asarray(screen.normal), np.asarray(screen.center)
        u, v = screen.plane_axes()
        a = c + rng.uniform(-3, 3, size=(400, 3))
        b = c + rng.uniform(-3, 3, size=(400, 3))
        b[:20] = a[:20] + u                 # parallel to the plane
        a[20:40] = c + rng.uniform(-2, 2, size=(20, 1)) * u + rng.uniform(-2, 2, size=(20, 1)) * v
        b[20:30] = a[20:30] - 2.0 * n       # starting on (or within rounding of) the plane,
        b[30:40] = a[30:40] + 2.0 * n       # so some crossings sit at a segment end: d1 == 0
        a[40:50], b[40:50] = b[20:30], a[20:30]  # ending there: d2 == 0
        got = scene_mod.edge_clearance(screen, a, b)
        geo = scene_mod.fresnel_geometry_factor(*got[1:])
        for i in range(len(a)):
            crosses, h, d1, d2 = edge_clearance(screen, a[i], b[i])
            assert bool(got[0][i]) == crosses
            if crosses:
                assert (got[1][i], got[2][i], got[3][i]) == (h, d1, d2)
                assert_same_bits(geo[i:i + 1], np.array([fresnel_geometry_factor(h, d1, d2)]), "geo")
                at_end += d1 == 0.0 or d2 == 0.0
    assert at_end > 0


def test_fresnel_geometry_factor_at_segment_ends():
    h = np.array([0.5, -0.5, 0.0, 0.5, -0.5, 0.25, -0.5, 0.0])
    d1 = np.array([0.0, 0.0, 0.0, 1.0, 2.0, 3.0, 0.0, 0.0])
    d2 = np.array([1.0, 1.0, 1.0, 0.0, 1.0, 0.5, 0.0, 0.0])
    want = [fresnel_geometry_factor(*args) for args in zip(h.tolist(), d1.tolist(), d2.tolist())]
    assert_same_bits(scene_mod.fresnel_geometry_factor(h, d1, d2), np.array(want), "geo")
    assert want[:4] + want[6:] == [math.inf, -math.inf, 0.0, math.inf, -math.inf, 0.0]


@settings(max_examples=150, deadline=None)
@given(scene=scenes())
def test_path_table_matches_reference_on_random_scenes(scene):
    try:
        scene.validate()
        reference_table(scene)
    except ValueError:
        return  # rx on an element, or a scatterer on rx behind a screen: covered above
    assert_matches_reference(scene)
