"""Array geometry, propagation path enumeration and channel frequency response synthesis.

The synthesizer is the software stand-in for a VNA sweep over a virtual
line array: it enumerates the line-of-sight ray, one image-method specular
bounce per wall, and one bent ray per point scatterer, applies free-space
gain and single-knife-edge blockage per traversed screen, and sums the
complex contributions over the sweep grid.

Everything is deterministic given (scene, seed): paths are enumerated in a
fixed order (LOS, walls in file order, scatterers in file order) and noise
comes from a counter-based generator, so results are independent of any
parallel schedule.

The array geometry the paths are built from, the element positions and
axis angles and each segment's clearance against a screen, is evaluated
here over whole arrays, so that the scene module needs no numpy.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import _csvout, _floatrepr, _kernels
from .constants import C_M_PER_S, KNIFE_EDGE_NU_MIN, TX_POWER_DBM
from .scene import Blocker, Scene, Sweep


# ---------------------------------------------------------------------------
# Array geometry
# ---------------------------------------------------------------------------

def _norm(v: np.ndarray) -> np.ndarray:
    """Row norms of an (n, 3) array, rounded exactly as 1-D ``np.linalg.norm``."""
    return np.sqrt(np.vecdot(v, v))


def element_positions(scene: Scene) -> np.ndarray:
    """All element positions as an (n_elements, 3) matrix."""
    arr = scene.array
    origin = np.asarray(arr.origin, dtype=float)
    axis = np.asarray(arr.axis, dtype=float)
    steps = np.arange(arr.n_elements, dtype=float)[:, None] * arr.spacing_d
    return origin[None, :] + steps * axis[None, :]


def element_geometry(scene: Scene, target) -> tuple[np.ndarray, np.ndarray]:
    """Exact distance and axis angle from every element to a target point.

    Returns ``(r, theta)``, one entry per element; ``theta[n - 1]`` is the
    angle between the array axis and the element n -> target direction, in
    the plane of the array line and the target where the closed-form model
    lives.  Cosines from ``np.vecdot``, rounded like a 1-D ``np.dot``: an
    ``(n, 3) @ (3,)`` product goes through BLAS and rounds differently.
    Angles from ``math.acos``, since ``np.arccos`` rounds differently on ~9 %
    of inputs.
    Raises ValueError if the target coincides with an element.
    """
    v = np.asarray(target, dtype=float) - element_positions(scene)
    r = _norm(v)
    if r.min() < 1e-12:
        raise ValueError(f"target coincides with element {int(np.argmin(r)) + 1}")
    cos_theta = np.clip(np.vecdot(v, np.asarray(scene.array.axis, dtype=float)) / r, -1.0, 1.0)
    return r, np.array([math.acos(c) for c in cos_theta.tolist()])


def plane_axes(blocker: Blocker) -> tuple[np.ndarray, np.ndarray]:
    """In-plane unit axes of a screen (u along its width, v along its height)."""
    n = np.asarray(blocker.normal, dtype=float)
    up = np.array([0.0, 0.0, 1.0])
    u = np.cross(up, n)
    if np.linalg.norm(u) < 1e-9:
        # Horizontal screen: fall back to the x axis for "width".
        u = np.array([1.0, 0.0, 0.0])
    u = u / np.linalg.norm(u)
    v = np.cross(n, u)
    v = v / np.linalg.norm(v)
    return u, v


def edge_clearance(blocker: Blocker, a, b) -> tuple[np.ndarray, ...]:
    """Signed clearance of segments a-b against a rectangular screen.

    ``a`` and ``b`` hold one segment endpoint per row, as ``(n, 3)`` arrays
    (either may be a single point shared by every segment).  Returns arrays
    ``(crosses_plane, h, d1, d2)`` with one entry per segment, where ``h`` is
    the signed distance from the plane crossing point to the nearest
    rectangle edge (positive inside the rectangle, negative in the clear),
    and ``d1``/``d2`` are the distances from ``a``/``b`` to the crossing
    point.  Where a segment does not cross the screen's plane the remaining
    values are 0 and ``crosses_plane`` is False.
    """
    a, b = np.broadcast_arrays(np.atleast_2d(a), np.atleast_2d(b))
    if np.any(np.all(a == b, axis=1)):
        raise ValueError("segment endpoints coincide")
    n = np.asarray(blocker.normal, dtype=float)
    c = np.asarray(blocker.center, dtype=float)
    sa = np.vecdot(a - c, n)
    sb = np.vecdot(b - c, n)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = sa / (sa - sb)  # a plane-parallel segment gives inf or nan: no crossing
    crosses = (0.0 < t) & (t < 1.0)
    a, b, t = a[crosses], b[crosses], t[crosses]
    p = a + t[:, None] * (b - a)
    u, v = plane_axes(blocker)
    du = np.abs(np.vecdot(p - c, u)) - 0.5 * blocker.width
    dv = np.abs(np.vecdot(p - c, v)) - 0.5 * blocker.height
    # Inside: distance to the nearest edge.  Outside: distance to the
    # rectangle, which is one of du/dv unless the crossing faces a corner.
    h = np.where((du <= 0.0) & (dv <= 0.0), -np.where(dv > du, dv, du),
                 -(np.maximum(du, 0.0) + np.maximum(dv, 0.0)))
    corner = (du > 0.0) & (dv > 0.0)
    # math.hypot, not np.hypot: the two round differently on ~0.5 % of inputs.
    h[corner] = [-math.hypot(x, y) for x, y in zip(du[corner].tolist(), dv[corner].tolist())]
    out = np.zeros((3, len(crosses)))
    out[:, crosses] = h, _norm(p - a), _norm(b - p)
    return (crosses, *out)


def fresnel_geometry_factor(h, d1, d2) -> np.ndarray:
    """Wavelength-free part of the knife-edge Fresnel parameter, per crossing.

    The full parameter is ``nu = h*sqrt(2*(d1+d2)/(lambda*d1*d2))``; this
    returns ``h*sqrt(2*(d1+d2)/(d1*d2))`` so callers can evaluate nu per
    frequency as ``factor / sqrt(lambda)``.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        factor = h * np.sqrt(2.0 * (d1 + d2) / (d1 * d2))
    # A crossing at a segment end (d = 0) gives +-inf by the sign of h, or 0 for h = 0.
    at_end = np.where(h == 0.0, 0.0, np.copysign(np.inf, h))
    return np.where((d1 == 0.0) | (d2 == 0.0), at_end, factor)


def _check_finite(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")


class PathTable(NamedTuple):
    """Every propagation path of a scene as parallel arrays (the kernel's CSR table).

    Path i adds to CFR row ``row[i]`` (element ``row[i] + 1``) with total
    length ``length[i]`` and interaction gain ``gain[i]``; its knife-edge
    factors (see ``fresnel_geometry_factor``) are
    ``edge_geo[edge_ptr[i]:edge_ptr[i + 1]]``, in (segment, blocker) order.
    The table is grouped by path kind: the LOS path of every element, then
    each wall, then each scatterer, in file order.  Within one row the paths
    thus keep the per-element order LOS, walls, scatterers.

    Contract: for an N-element array, rows ``[:N]`` are the direct paths in
    element order (``row[:N] == arange(N)``), with their knife-edge factors
    in ``edge_geo[:edge_ptr[N]]``.  Every LOS consumer reads that slice; no
    second table is built.
    """

    row: np.ndarray
    length: np.ndarray
    gain: np.ndarray
    edge_ptr: np.ndarray
    edge_geo: np.ndarray


def _edge_factors(scene: Scene, vertices: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Per-path counts and kept knife-edge factors of one group of polylines.

    ``vertices`` lists the polyline corners: first an (n, 3) array with one
    row per path, then (n, 3) arrays or single points shared by the group.
    Crossings whose clearance is so large that the loss is zero across the
    whole sweep are dropped; they contribute exactly 0 dB at any frequency.
    """
    n_paths = len(vertices[0])
    if not scene.blockers:
        return np.zeros(n_paths, dtype=np.int64), np.empty(0)
    lam_max = C_M_PER_S / scene.sweep.f_start
    keep_threshold = KNIFE_EDGE_NU_MIN * math.sqrt(lam_max)
    columns = []  # one per (segment, blocker); -inf where the segment misses the plane
    for a, b in zip(vertices[:-1], vertices[1:]):
        for blocker in scene.blockers:
            crosses, h, d1, d2 = edge_clearance(blocker, a, b)
            geo = np.where(crosses, fresnel_geometry_factor(h, d1, d2), -math.inf)
            columns.append(np.broadcast_to(geo, n_paths))
    geo = np.stack(columns, axis=1)
    keep = geo > keep_threshold
    return keep.sum(axis=1), geo[keep]


def path_table(scene: Scene) -> PathTable:
    """All propagation paths of every element: LOS, wall images, scatterers.

    Exactly one LOS path per element; one specular path per wall whose
    reflection point exists (element and rx on the same side of the plane);
    one bent path per point scatterer.  Fully absorbed paths are retained
    with their loss.
    """
    positions = element_positions(scene)
    rx = np.asarray(scene.rx, dtype=float)
    every = np.arange(len(positions))
    # (rows, lengths, gain, polyline vertices) per path group
    groups = [(every, _norm(rx - positions), 1.0, [positions, rx])]
    for wall in scene.walls:
        normal = np.asarray(wall.normal, dtype=float)
        s_el = np.vecdot(positions, normal) - wall.offset
        s_rx = float(np.dot(normal, rx)) - wall.offset
        ok = s_el * s_rx > 0.0  # else no valid specular point: endpoints straddle or touch the plane
        p, s_el = positions[ok], s_el[ok]
        image = rx - 2.0 * s_rx * normal
        reflection = p + (s_el / (s_el + s_rx))[:, None] * (image - p)
        groups.append((every[ok], _norm(image - p), wall.gamma, [p, reflection, rx]))
    for scatterer in scene.point_scatterers:
        s = np.asarray(scatterer.position, dtype=float)
        groups.append((every, _norm(s - positions) + np.linalg.norm(rx - s),
                       scatterer.amplitude, [positions, s, rx]))

    rows, lengths, gains, vertices = zip(*groups)
    counts, geos = zip(*(_edge_factors(scene, v) for v in vertices))
    return PathTable(row=np.concatenate(rows), length=np.concatenate(lengths),
                     gain=np.concatenate([np.full(len(r), g) for r, g in zip(rows, gains)]),
                     edge_ptr=np.concatenate(([0], np.cumsum(np.concatenate(counts)))),
                     edge_geo=np.concatenate(geos))


def noise_sigma(noise_floor_dbm: float) -> float:
    """Per-sample complex noise std for a floor quoted in absolute dBm."""
    return 10.0 ** ((noise_floor_dbm - TX_POWER_DBM) / 20.0)


def _noise_blocks(shape, noise_floor_dbm: float, seed: int):
    """Seeded complex white noise for each ``_kernels.row_blocks(*shape)`` block of an ``(N, F)`` array.

    The Philox generator is keyed by the seed and consumed in one fixed-order
    stream over (element, frequency, re/im), so the realization depends only
    on (seed, shape).  Each block is drawn into one (re, im) scratch block,
    viewed as complex and scaled in place, so a consumer must use a block
    before it asks for the next; consecutive draws continue the stream, so
    the block height does not move a sample.
    """
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    scale = noise_sigma(noise_floor_dbm) / math.sqrt(2.0)
    scratch = np.empty((_kernels.block_rows(*shape), shape[1], 2))
    for start, stop in _kernels.row_blocks(*shape):
        noise = rng.standard_normal(out=scratch[:stop - start]).view(np.complex128)[..., 0]
        noise *= scale
        yield noise


def response_blocks(scene: Scene, table: PathTable):
    """Yield the response H(element, frequency) one row block at a time: ``(start, stop, block)``.

    ``table`` is ``path_table(scene)``.  Each block is the kernel's path sum
    ``H(n,f) = sum over paths of gain * lambda_f/(4 pi L) * 10^(-J(f)/20)
    * exp(-j 2 pi f L / c)`` over ``_kernels.row_blocks(N, F)``, relative to
    the 10 dBm transmit reference, plus, at the scene's noise floor, that
    block's draw of the one seeded noise stream.  A block is one scratch
    block that the next block overwrites.  Raises ValueError on a block that
    is not finite.
    """
    n_rows = scene.array.n_elements
    freqs = scene.sweep.frequencies()
    noise = (None if scene.noise_floor_dbm is None
             else _noise_blocks((n_rows, len(freqs)), scene.noise_floor_dbm, scene.seed))
    for start, stop, block in _kernels.accumulate_paths(n_rows, *table, freqs):
        if noise is not None:
            block += next(noise)
        _check_finite(block)
        yield start, stop, block


def array_blocks(values: np.ndarray):
    """Yield a held ``(N, F)`` array, a measured response say, as ``response_blocks`` yields one.

    Each ``(start, stop, block)`` over ``_kernels.row_blocks(N, F)`` is a copy
    of rows ``[start, stop)`` in one scratch block that the next block
    overwrites, so a consumer that transforms a block in place leaves
    ``values`` unchanged.  Raises ValueError on a block that is not finite.
    """
    values = np.asarray(values)
    if values.ndim != 2:
        raise ValueError(f"values must be 2-D, got shape {values.shape}")
    scratch = np.empty((_kernels.block_rows(*values.shape), values.shape[1]), dtype=values.dtype)
    for start, stop in _kernels.row_blocks(*values.shape):
        block = scratch[:stop - start]
        np.copyto(block, values[start:stop])
        _check_finite(block)
        yield start, stop, block


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def cfr_csv(path, sweep: Sweep, n_rows: int) -> _csvout.CellGrid:
    """``cfr.csv`` of an ``n_rows``-element response over ``sweep``, written one row block at a time.

    Rows (element, f_hz, re, im); floats use shortest round-trip form.
    """
    return _csvout.CellGrid(path, ("element", "f_hz", "re", "im"), n_rows,
                            [_floatrepr.repr_cells(sweep.frequencies())],  # formatted once per file
                            lambda rows: (_floatrepr.repr_cells(rows.real), _floatrepr.repr_cells(rows.imag)))
