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
from pathlib import Path

import numpy as np

from . import _csvout, _kernels
from ._kernels import knife_edge_loss
from .constants import C_M_PER_S, KNIFE_EDGE_NU_MIN, TX_POWER_DBM
from .scene import (Scene, Sweep, edge_clearance, element_position,
                    fresnel_geometry_factor)

FOUR_PI = 4.0 * math.pi


@dataclass(frozen=True)
class PropagationPath:
    """One ray from an array element to the receiver.

    ``edge_factors`` carries one wavelength-free knife-edge factor per screen
    crossing (see ``fresnel_geometry_factor``); ``blockage_db`` is their
    summed loss at the sweep center frequency.
    """

    kind: str  # "los" | "wall" | "scatterer"
    length: float
    interaction_gain: float
    blockage_db: float
    edge_factors: tuple[float, ...] = ()

    def base_amplitude(self, frequency) -> np.ndarray:
        """Free-space amplitude lambda/(4*pi*length) at the given frequency."""
        lam = C_M_PER_S / np.asarray(frequency, dtype=float)
        return lam / (FOUR_PI * self.length)


@dataclass(frozen=True)
class ChannelFrequencyResponse:
    """Complex response, elements x sweep points, relative to the Tx reference."""

    values: np.ndarray
    sweep: Sweep
    elements: tuple[int, ...]

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {v.shape}")
        if v.shape[1] != self.sweep.n_points:
            raise ValueError(f"values have {v.shape[1]} columns but sweep has {self.sweep.n_points} points")
        if len(self.elements) != v.shape[0]:
            raise ValueError("element metadata length does not match row count")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", v)

    @property
    def n_elements(self) -> int:
        return self.values.shape[0]


def make_cfr(values: np.ndarray, sweep: Sweep, elements=None) -> ChannelFrequencyResponse:
    """Wrap a complex matrix as a CFR, defaulting element labels to 1..N."""
    values = np.asarray(values, dtype=np.complex128)
    if elements is None:
        elements = tuple(range(1, values.shape[0] + 1))
    return ChannelFrequencyResponse(values=values, sweep=sweep, elements=tuple(elements))


def _mirror_across_plane(point: np.ndarray, normal: np.ndarray, offset: float) -> np.ndarray:
    return point - 2.0 * (float(np.dot(normal, point)) - offset) * normal


def _edge_factors_for(scene: Scene, vertices: list[np.ndarray]) -> tuple[float, ...]:
    """Knife-edge factors for every (segment, blocker) plane crossing.

    Crossings whose clearance is so large that the loss is zero across the
    whole sweep are dropped; they contribute exactly 0 dB at any frequency.
    """
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
    """The direct element->rx ray with its blockage bookkeeping."""
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
    """All propagation paths from element n: LOS, wall images, scatterers.

    Exactly one LOS path; one specular path per wall whose reflection point
    exists (element and rx on the same side of the plane); one bent path per
    point scatterer.  Fully absorbed paths are retained with their loss.
    """
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


def noise_sigma(noise_floor_dbm: float) -> float:
    """Per-sample complex noise std for a floor quoted in absolute dBm."""
    return 10.0 ** ((noise_floor_dbm - TX_POWER_DBM) / 20.0)


def complex_noise(shape, noise_floor_dbm: float, seed: int) -> np.ndarray:
    """Seeded complex white noise, counter-based and schedule-independent.

    The Philox generator is keyed by the seed and consumed in one fixed-order
    draw over (element, frequency, re/im), so the realization depends only on
    (seed, shape).
    """
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    parts = rng.standard_normal(size=(*shape, 2))
    sigma = noise_sigma(noise_floor_dbm)
    return sigma / math.sqrt(2.0) * (parts[..., 0] + 1j * parts[..., 1])


def add_noise(cfr: ChannelFrequencyResponse, noise_floor_dbm: float, seed: int) -> ChannelFrequencyResponse:
    """Return a copy of the CFR with seeded complex white noise added."""
    noisy = cfr.values + complex_noise(cfr.values.shape, noise_floor_dbm, seed)
    return make_cfr(noisy, cfr.sweep, cfr.elements)


def _sum_paths(scene: Scene, paths_of) -> np.ndarray:
    """Path-sum response of every element over the sweep grid.

    ``paths_of(scene, n)`` lists element n's paths; they become one
    (row, length, gain, edge CSR) table, accumulated by the kernel in order.
    """
    n_el = scene.array.n_elements
    freqs = scene.sweep.frequencies()

    row_idx: list[int] = []
    lengths: list[float] = []
    gains: list[float] = []
    edge_geo: list[float] = []
    edge_ptr: list[int] = [0]
    for n in range(1, n_el + 1):
        for path in paths_of(scene, n):
            row_idx.append(n - 1)
            lengths.append(path.length)
            gains.append(path.interaction_gain)
            edge_geo.extend(path.edge_factors)
            edge_ptr.append(len(edge_geo))

    out = np.zeros((n_el, len(freqs)), dtype=np.complex128)
    _kernels.accumulate_paths(out, np.array(row_idx, dtype=np.int64),
                              np.array(lengths), np.array(gains),
                              np.array(edge_ptr, dtype=np.int64),
                              np.array(edge_geo), freqs)
    return out


def synthesize_cfr(scene: Scene) -> ChannelFrequencyResponse:
    """Synthesize the full complex response H(element, frequency).

    ``H(n,f) = sum over paths of gain * lambda_f/(4 pi L) * 10^(-J(f)/20)
    * exp(-j 2 pi f L / c)``, plus optional seeded noise at the configured
    floor.  Amplitudes are relative to the 10 dBm transmit reference.
    """
    out = _sum_paths(scene, enumerate_paths)
    if scene.noise_floor_dbm is not None:
        out += complex_noise(out.shape, scene.noise_floor_dbm, scene.seed)
    return make_cfr(out, scene.sweep)


def synthesize_los_cfr(scene: Scene) -> ChannelFrequencyResponse:
    """LOS-only spherical-truth response (no walls/scatterers/noise)."""
    return make_cfr(_sum_paths(scene, lambda s, n: [los_path(s, n)]), scene.sweep)


# ---------------------------------------------------------------------------
# Export / import
# ---------------------------------------------------------------------------

def export_cfr_csv(cfr: ChannelFrequencyResponse, path) -> None:
    """CSV rows (element, f_hz, re, im); floats use shortest round-trip form."""
    f_hz = _csvout.floats(cfr.sweep.frequencies())  # formatted once per file
    _csvout.write_csv(path, ("element", "f_hz", "re", "im"),
                      (([str(el)] * len(f_hz), f_hz, _csvout.floats(row.real), _csvout.floats(row.imag))
                       for el, row in zip(cfr.elements, cfr.values)))


def export_cfr_npz(cfr: ChannelFrequencyResponse, path) -> None:
    """Lossless binary export."""
    np.savez(Path(path), values=cfr.values,
             f_start=cfr.sweep.f_start, f_stop=cfr.sweep.f_stop,
             n_points=cfr.sweep.n_points, elements=np.array(cfr.elements))


def load_cfr_npz(path) -> ChannelFrequencyResponse:
    with np.load(Path(path)) as data:
        sweep = Sweep(f_start=float(data["f_start"]), f_stop=float(data["f_stop"]),
                      n_points=int(data["n_points"]))
        return make_cfr(data["values"], sweep, tuple(int(e) for e in data["elements"]))
