"""Multiplanar-wave approximation: one planar wavefront per stationary interval.

Each interval's wavefront is anchored at a reference element, its center
unless that element's direct path is fully blocked; the model is the index
of every element's reference (``build_multiplanar_model``).  The wavefront
takes the reference's exact distance, axis angle and line-of-sight amplitude
and extends them by first-order planar propagation, so it is exact at every
reference element and its error grows with the interval extent; refining
the partition can only reduce the error.

The reconstruction is LOS-only and is scored against the scene's LOS
(spherical-wave) truth, built once per run from the direct-path rows of the
scene's path table (``los_truth``).  Both are a real non-negative amplitude
times a propagation phase, so the error is computed from the path-length
difference and the amplitudes alone, without building either complex
response.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _csvout, _kernels
from .constants import C_M_PER_S
from .scene import Scene, element_geometry
from .stationarity import StationaryPartition
from .synth import PathTable, path_blockage_db

FULL_BLOCKAGE_DB = 80.0
TWO_PI = 2.0 * math.pi


class LosTruth(NamedTuple):
    """The scene's spherical LOS field ``amp[n - 1](f) e^{-j2pi f length[n - 1]/c}`` of element n.

    ``theta[n - 1]`` is element n's axis angle to the receiver, and ``usable``
    flags the direct paths blocked by at most ``FULL_BLOCKAGE_DB``.
    """

    length: np.ndarray  # (N,) direct-path lengths
    theta: np.ndarray   # (N,) axis angles, from scene.element_geometry
    amp: np.ndarray     # (N, F) real non-negative amplitudes
    usable: np.ndarray  # (N,) bool


def los_truth(scene: Scene, table: PathTable) -> LosTruth:
    """LOS truth from rows ``[:N]`` of ``table = path_table(scene)``, the direct paths.

    The amplitudes are written in place over ``_kernels.row_blocks``, so the
    knife-edge losses of the blocked paths take block-sized temporaries.
    """
    n = scene.array.n_elements
    lam = C_M_PER_S / scene.sweep.frequencies()
    sqrt_lam = np.sqrt(lam)
    length = table.length[:n]
    amp = np.empty((n, len(lam)))
    for start, stop in _kernels.row_blocks(n, len(lam)):
        _kernels.path_amplitude(table.gain[start:stop], length[start:stop],
                                table.edge_ptr[start:stop + 1], table.edge_geo, lam, sqrt_lam,
                                out=amp[start:stop])
    usable = path_blockage_db(scene, table)[:n] <= FULL_BLOCKAGE_DB
    return LosTruth(length=length, theta=element_geometry(scene, scene.rx)[1], amp=amp, usable=usable)


@dataclass(frozen=True)
class MultiplanarError:
    """Phase RMSE (wrapped, radians) and complex field correlation in [0, 1]."""

    phase_rmse: float
    complex_correlation: float
    per_element_phase_dev: np.ndarray

    def __post_init__(self):
        if self.phase_rmse < 0:
            raise ValueError("phase_rmse must be >= 0")
        if self.complex_correlation > 1.0 + 1e-12:
            raise ValueError("correlation must not exceed 1")


def _fallback_reference(start: int, end: int, usable) -> int:
    """Interval center, or the nearest usable element if the center is not.

    Ties go toward lower indices, and the center stays the reference when no
    element of the interval is usable.
    """
    ref = (start + end) // 2
    candidates = [c for offset in range(end - start + 1) for c in (ref - offset, ref + offset)
                  if start <= c <= end and usable[c - 1]]
    return candidates[0] if candidates else ref


def build_multiplanar_model(truth: LosTruth, partition: StationaryPartition) -> np.ndarray:
    """The 1-based reference element of each element's interval, an (N,) integer array.

    The reference is the interval center ``floor((start+end)/2)``.  If the
    center's direct path is fully absorbed (> 80 dB blockage) it is the
    nearest unblocked element in the interval instead (ties resolved toward
    lower indices).  The interval's planar wavefront is anchored there: its
    distance, axis angle and amplitude are the reference's
    ``truth.length``, ``truth.theta`` and ``truth.amp`` entries.
    """
    ref = np.empty(partition.n_elements, dtype=np.intp)
    for start, end in partition.intervals:
        ref[start - 1:end] = _fallback_reference(start, end, truth.usable)
    return ref


def multiplanar_error(scene: Scene, truth: LosTruth, ref: np.ndarray) -> MultiplanarError:
    """Wrapped phase RMSE and correlation of the planar wavefronts against the LOS truth.

    ``ref`` is ``build_multiplanar_model(truth, partition)``.  The truth is
    the scene's spherical LOS response ``A_n(f) e^{-j2pi f l_n/c}``
    (``truth.amp`` and ``truth.length``), the reconstruction is
    ``g_n(f) e^{-j2pi f r_n/c}`` with ``g_n = A_ref(f)`` and the planar length
    ``r_n = l_ref - (n - ref) d cos(theta_ref)`` of element n's reference;
    both amplitudes are real and non-negative.  So the phase error is
    ``phi = wrap(-2pi f (l_n - r_n)/c)``, and 0 where ``A_n g_n = 0`` (a zero
    sample has no phase to compare), and the complex correlation
    ``|<approx, truth>| / (|approx| |truth|)`` is
    ``|sum w e^{j phi}| / (|g| |A|)`` with ``w = A_n g_n``; its phasors come
    from ``_kernels.sweep_phasors``.

    The fields are scored over ``_kernels.row_blocks`` in scratch allocated
    once per call.  Every sum is first a per-row ``_kernels.row_dot``, an
    einsum rather than a BLAS call, so the result depends neither on the BLAS
    thread count nor on the block height; the correlation then sums those
    ``(N,)`` row sums.
    """
    n_el = scene.array.n_elements
    if len(ref) != n_el:
        raise ValueError(f"reference index has {len(ref)} entries, array has {n_el} elements")
    row = ref - 1
    # math.cos, not np.cos, whose vectorised rounding may differ: mw_error.csv is byte-stable
    cos = np.array([math.cos(theta) for theta in truth.theta.tolist()])
    planar = truth.length[row] - (np.arange(1, n_el + 1) - ref) * scene.array.spacing_d * cos[row]
    freqs = scene.sweep.frequencies()
    amp = truth.amp
    delay = (truth.length - planar) / C_M_PER_S
    wavenumber = -TWO_PI * delay  # phase per Hz of each element
    omega = -TWO_PI * freqs

    rowsq = _kernels.row_dot(amp, amp, np.empty(n_el))
    denom = math.sqrt(rowsq[row].sum()) * math.sqrt(rowsq.sum())  # |g| |A|: g's rows are A's
    wre, wim, mean_square = np.empty((3, n_el))
    height = _kernels.block_rows(n_el, len(freqs))
    weight_block, phase_block = np.empty((2, height, len(freqs)))
    silent_block = np.empty((height, len(freqs)), dtype=bool)
    phasor_block = np.empty((height, *_kernels.phasor_grid(len(freqs))), dtype=complex)
    for start, stop in _kernels.row_blocks(n_el, len(freqs)):
        m = stop - start
        # g = A[ref - 1]; ref holds valid rows, and mode="clip" keeps np.take from buffering `out`
        weight = np.take(amp, row[start:stop], axis=0, out=weight_block[:m], mode="clip")
        weight *= amp[start:stop]
        if denom > 0:
            phasor = _kernels.sweep_phasors(wavenumber[start:stop], freqs, out=phasor_block[:m])
            _kernels.row_dot(weight, phasor.real, wre[start:stop])
            _kernels.row_dot(weight, phasor.imag, wim[start:stop])
        silent = np.equal(weight, 0.0, out=silent_block[:m])
        # the wrapped phase, in place: wrap(x) = x - 2 pi rint(x / 2 pi); the
        # turns reuse the weight's block, which the silent mask no longer needs
        phase = np.multiply.outer(delay[start:stop], omega, out=phase_block[:m])
        turns = np.divide(phase, TWO_PI, out=weight)
        np.rint(turns, out=turns)
        turns *= TWO_PI
        phase -= turns
        np.copyto(phase, 0.0, where=silent)
        _kernels.row_dot(phase, phase, mean_square[start:stop])
    corr = math.hypot(wre.sum(), wim.sum()) / denom if denom > 0 else 0.0
    mean_square /= len(freqs)
    phase_rmse = math.sqrt(float(np.mean(mean_square)))
    per_element = np.sqrt(mean_square)
    return MultiplanarError(phase_rmse=phase_rmse,
                            complex_correlation=min(corr, 1.0),
                            per_element_phase_dev=per_element)


def export_mw_error_csv(rows: list[tuple[str, int, float, float]], path) -> None:
    """Rows of (partition id, interval count, phase rmse, correlation)."""
    _csvout.write_csv(path, ("k_or_partition_id", "n_intervals", "phase_rmse_rad", "correlation"),
                      [_csvout.rows((_csvout.strs(row[0] for row in rows),
                                     _csvout.strs(row[1] for row in rows),
                                     _csvout.floats([row[2] for row in rows]),
                                     _csvout.floats([row[3] for row in rows])))])
