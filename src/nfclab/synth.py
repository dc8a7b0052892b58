"""Propagation path enumeration and channel frequency response synthesis.

The synthesizer is the software stand-in for a VNA sweep over a virtual
line array: it enumerates the line-of-sight ray, one image-method specular
bounce per wall, and one bent ray per point scatterer, applies free-space
gain and single-knife-edge blockage per traversed screen, and sums the
complex contributions over the sweep grid.

Everything is deterministic given (scene, seed): paths are enumerated in a
fixed order (LOS, walls in file order, scatterers in file order) and noise
comes from a counter-based generator, so results are independent of any
parallel schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _csvout, _floatrepr, _kernels
from ._kernels import knife_edge_loss
from .constants import C_M_PER_S, KNIFE_EDGE_NU_MIN, TX_POWER_DBM
from .scene import (Scene, Sweep, _norm, edge_clearance, element_positions,
                    fresnel_geometry_factor)


def _check_finite(values: np.ndarray) -> None:
    if not np.all(np.isfinite(values)):
        raise ValueError("values must be finite")


@dataclass(frozen=True)
class ChannelFrequencyResponse:
    """Complex response, elements x sweep points, relative to the Tx reference."""

    values: np.ndarray
    sweep: Sweep

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {v.shape}")
        if v.shape[1] != self.sweep.n_points:
            raise ValueError(f"values have {v.shape[1]} columns but sweep has {self.sweep.n_points} points")
        _check_finite(v)
        object.__setattr__(self, "values", v)

    @property
    def n_elements(self) -> int:
        return self.values.shape[0]


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


def path_blockage_db(scene: Scene, table: PathTable) -> np.ndarray:
    """Knife-edge loss of every path at the sweep center frequency, in dB."""
    total = np.zeros(len(table.length))
    owner = np.repeat(np.arange(len(total)), np.diff(table.edge_ptr))
    # Unbuffered and in index order: each path's sum runs over its edges in order.
    np.add.at(total, owner, knife_edge_loss(table.edge_geo / math.sqrt(scene.sweep.lambda_center)))
    return total


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


def add_complex_noise(values: np.ndarray, noise_floor_dbm: float, seed: int) -> np.ndarray:
    """Add seeded complex white noise to the ``(N, F)`` complex array ``values`` in place; returns it.

    The noise is ``_noise_blocks``', the stream that ``response_blocks``
    adds block by block.
    """
    blocks = _kernels.row_blocks(*values.shape)
    for (start, stop), noise in zip(blocks, _noise_blocks(values.shape, noise_floor_dbm, seed)):
        values[start:stop] += noise
    return values


def response_blocks(scene: Scene, table: PathTable):
    """Yield the response H(element, frequency) one row block at a time: ``(start, stop, block)``.

    ``table`` is ``path_table(scene)``.  Each block is the kernel's path sum over
    ``_kernels.row_blocks(N, F)`` plus, at the scene's noise floor, that
    block's draw of the one seeded noise stream, so the blocks equal the rows
    of ``synthesize_cfr``'s response bit for bit.  A block is one scratch
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


def synthesize_cfr(scene: Scene, table: PathTable) -> ChannelFrequencyResponse:
    """Synthesize the full complex response H(element, frequency) from the scene's path table.

    ``H(n,f) = sum over paths of gain * lambda_f/(4 pi L) * 10^(-J(f)/20)
    * exp(-j 2 pi f L / c)``, plus optional seeded noise at the configured
    floor.  Amplitudes are relative to the 10 dBm transmit reference.
    ``table`` is ``path_table(scene)``.  The kernel writes its blocks into
    the one ``(N, F)`` array, and the noise is added once they are all
    made, so the kernel's scratch is gone before the noise block is drawn.
    """
    freqs = scene.sweep.frequencies()
    out = np.empty((scene.array.n_elements, len(freqs)), dtype=np.complex128)
    for _ in _kernels.accumulate_paths(scene.array.n_elements, *table, freqs, out):
        pass  # each block is rows of out
    if scene.noise_floor_dbm is not None:
        add_complex_noise(out, scene.noise_floor_dbm, scene.seed)
    return ChannelFrequencyResponse(values=out, sweep=scene.sweep)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def export_cfr_csv(cfr: ChannelFrequencyResponse, path) -> None:
    """CSV rows (element, f_hz, re, im); floats use shortest round-trip form."""
    n, n_freqs = cfr.values.shape
    element = _csvout.cells(_csvout.strs(range(1, n + 1)))[:, None]
    f_hz = _floatrepr.repr_cells(cfr.sweep.frequencies())[None]  # formatted once per file
    _csvout.write_csv(path, ("element", "f_hz", "re", "im"),
                      (_csvout.lines((element[a:b], f_hz, _floatrepr.repr_cells(cfr.values[a:b].real),
                                      _floatrepr.repr_cells(cfr.values[a:b].imag)))
                       for a, b in _kernels.row_blocks(n, n_freqs, _floatrepr.PASS_VALUES)))
