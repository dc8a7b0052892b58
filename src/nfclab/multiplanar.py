"""Multiplanar-wave approximation: one planar wavefront per stationary interval.

Each interval's wavefront is anchored at a reference element, its center
unless that element's direct path is fully blocked; the model is the index
of every element's reference (``build_multiplanar_model``).  The wavefront
takes the reference's exact distance, axis angle and line-of-sight amplitude
and extends them by first-order planar propagation, so it is exact at every
reference element and its error grows with the interval extent; refining
the partition can only reduce the error.

The reconstruction is LOS-only and is scored against the scene's LOS
(spherical-wave) truth, made from the direct-path rows of the scene's path
table one row block at a time by ``multiplanar_errors``, which scores every
partition of a run in one pass.  A direct path's amplitude is ``g/(4 pi L)``,
times ``10^(-J/20)`` if it crosses a screen, times the wavelength: the factor
order of the path-sum kernel (``_kernels``).  Truth and reconstruction are
both a real non-negative amplitude times a propagation phase, so the error
is computed from the path-length difference and the amplitudes alone,
without building either complex response or holding the truth.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import _csvout, _kernels
from .constants import C_M_PER_S
from .scene import Scene
from .stationarity import StationaryPartition
from .synth import PathTable, element_geometry

FULL_BLOCKAGE_DB = 80.0
TWO_PI = 2.0 * math.pi


class LosGeometry(NamedTuple):
    """The direct paths of a scene: axis angle ``theta[n - 1]`` of element n, and ``usable``.

    ``usable`` flags the direct paths whose knife-edge loss at the band-mean
    wavelength ``sweep.lambda_center`` is at most ``FULL_BLOCKAGE_DB``.
    """

    theta: np.ndarray   # (N,) axis angles, from synth.element_geometry
    usable: np.ndarray  # (N,) bool


def los_geometry(scene: Scene, table: PathTable) -> LosGeometry:
    """The direct paths of ``table = path_table(scene)``, its rows ``[:N]``."""
    n = scene.array.n_elements
    edged, loss_db = _kernels.knife_edge_db(table.edge_ptr[:n + 1], table.edge_geo,
                                            np.sqrt([scene.sweep.lambda_center]))
    usable = np.ones(n, dtype=bool)
    usable[edged] = loss_db[:, 0] <= FULL_BLOCKAGE_DB
    return LosGeometry(theta=element_geometry(scene, scene.rx)[1], usable=usable)


def _los_amplitude(table: PathTable, rows: np.ndarray, lam: np.ndarray, sqrt_lam: np.ndarray,
                   out: np.ndarray) -> np.ndarray:
    """The amplitude of the direct paths ``rows`` of ``table``, written into ``out``.

    ``rows`` are ascending element indices; their knife-edge factors are
    gathered into one CSR slice.  Each row's amplitude depends on that row
    alone, so it is the same in any set of rows.
    """
    ptr = table.edge_ptr
    counts = ptr[rows + 1] - ptr[rows]
    sub_ptr = np.concatenate(([0], np.cumsum(counts)))
    geo = table.edge_geo[np.repeat(ptr[rows] - sub_ptr[:-1], counts) + np.arange(sub_ptr[-1])]
    np.copyto(out, (table.gain[rows] / (4.0 * math.pi * table.length[rows]))[:, None])
    return np.multiply(_kernels.apply_knife_edges(out, sub_ptr, geo, sqrt_lam), lam, out=out)


class MultiplanarError(NamedTuple):
    """Phase RMSE (wrapped, radians) and complex field correlation in [0, 1]."""

    phase_rmse: float
    complex_correlation: float
    per_element_phase_dev: np.ndarray


def _fallback_reference(start: int, end: int, usable) -> int:
    """Interval center, or the nearest usable element if the center is not.

    Ties go toward lower indices, and the center stays the reference when no
    element of the interval is usable.
    """
    ref = (start + end) // 2
    candidates = [c for offset in range(end - start + 1) for c in (ref - offset, ref + offset)
                  if start <= c <= end and usable[c - 1]]
    return candidates[0] if candidates else ref


def build_multiplanar_model(geometry: LosGeometry, partition: StationaryPartition) -> np.ndarray:
    """The 1-based reference element of each element's interval, an (N,) integer array.

    The reference is the interval center ``floor((start+end)/2)``.  If the
    center's direct path is fully absorbed (> 80 dB blockage) it is the
    nearest unblocked element in the interval instead (ties resolved toward
    lower indices).  The interval's planar wavefront is anchored there: its
    distance, axis angle and amplitude are the reference's.  Only
    ``geometry.usable`` is read.
    """
    ref = np.empty(partition.n_elements, dtype=np.intp)
    for start, end in partition.intervals:
        ref[start - 1:end] = _fallback_reference(start, end, geometry.usable)
    return ref


def multiplanar_errors(scene: Scene, table: PathTable, geometry: LosGeometry,
                       refs: list[np.ndarray]) -> list[MultiplanarError]:
    """Wrapped phase RMSE and correlation of the planar wavefronts of every reference index in ``refs``.

    ``geometry`` is ``los_geometry(scene, table)`` and each ``ref`` is
    ``build_multiplanar_model(geometry, partition)``, an integer array of N
    entries in 1..N (else ValueError).  The truth is the scene's spherical
    LOS response ``A_n(f) e^{-j2pi f l_n/c}`` (the amplitude of ``table``'s
    direct path n and ``table.length``), the reconstruction is
    ``g_n(f) e^{-j2pi f r_n/c}`` with ``g_n = A_ref(f)`` and the planar
    length ``r_n = l_ref - (n - ref) d cos(theta_ref)`` of element n's
    reference; both amplitudes are real and non-negative.  So the phase
    error is ``phi = wrap(-2pi f (l_n - r_n)/c)``, and 0 where ``A_n g_n = 0``
    (a zero sample has no phase to compare), and the complex correlation
    ``|<approx, truth>| / (|approx| |truth|)`` is ``|sum w e^{j phi}| / (|g| |A|)``
    with ``w = A_n g_n``; its phasors come from ``_kernels.sweep_phasors``.

    One pass over ``_kernels.row_blocks`` makes each block's truth rows, and
    the rows of the block's references that lie outside it, with
    ``_los_amplitude`` into one scratch block sized for the largest such
    set.  Every index's sums advance together in scratch allocated once.
    Each is first a per-row ``_kernels.row_dot``, an einsum rather than a
    BLAS call, so the result depends neither on the BLAS thread count nor on
    the block height.
    """
    n_el, length = scene.array.n_elements, table.length[:scene.array.n_elements]
    for i, ref in enumerate(refs):
        if len(ref) != n_el:
            raise ValueError(f"reference index has {len(ref)} entries, array has {n_el} elements")
        if ref.dtype.kind not in "iu":
            raise ValueError(f"reference index {i} must hold integers, got {ref.dtype}")
        outside = np.flatnonzero((ref < 1) | (ref > n_el))
        if outside.size:
            raise ValueError(f"reference index {i} holds {ref[outside[0]]} at element {outside[0] + 1}, "
                             f"outside 1..{n_el}")
    freqs = scene.sweep.frequencies()
    n = len(freqs)
    lam, sqrt_lam = _kernels.wavelengths(freqs)
    # math.cos, not np.cos, whose vectorised rounding may differ: mw_error.csv is byte-stable
    cos = np.array([math.cos(t) for t in geometry.theta.tolist()])
    ref_rows = [ref - 1 for ref in refs]
    delays = [(length - (length[row] - (np.arange(1, n_el + 1) - ref) * scene.array.spacing_d * cos[row]))
              / C_M_PER_S for ref, row in zip(refs, ref_rows)]
    omega = -TWO_PI * freqs
    rowsq = np.empty(n_el)
    sums = np.empty((len(refs), 3, n_el))  # per index: Re and Im of sum w e^{j phi}, sum phi^2
    height = _kernels.block_rows(n_el, n)
    weights, phases = np.empty((2, height, n))
    silents = np.empty((height, n), dtype=bool)
    grid = _kernels.phasor_grid(freqs)
    phasors = np.empty((height, *grid.shape), dtype=complex)
    blocks = []  # each block's rows and its references' rows, ascending (np.unique would import numpy.ma)
    for start, stop in _kernels.row_blocks(len(length), n):
        rows = set(range(start, stop)).union(*((ref[start:stop] - 1).tolist() for ref in refs))
        blocks.append((start, stop, np.array(sorted(rows))))
    scratch = np.empty((max(len(rows) for _, _, rows in blocks), n))
    for start, stop, rows in blocks:
        m, at = stop - start, int(np.searchsorted(rows, start))
        block_amp = _los_amplitude(table, rows, lam, sqrt_lam, out=scratch[:len(rows)])
        amp = block_amp[at:at + m]
        _kernels.row_dot(amp, amp, rowsq[start:stop])
        for row, delay, (wre, wim, mean_square) in zip(ref_rows, delays, sums):
            # g = A[ref - 1]; the block holds every such row, and mode="clip" keeps np.take from buffering `out`
            weight = np.take(block_amp, np.searchsorted(rows, row[start:stop]), axis=0,
                             out=weights[:m], mode="clip")
            weight *= amp
            # -2 pi delay is each element's phase per Hz
            phasor = _kernels.sweep_phasors(-TWO_PI * delay[start:stop], grid, out=phasors[:m])
            _kernels.row_dot(weight, phasor.real, wre[start:stop])
            _kernels.row_dot(weight, phasor.imag, wim[start:stop])
            silent = np.equal(weight, 0.0, out=silents[:m])
            # the wrapped phase, in place: wrap(x) = x - 2 pi rint(x / 2 pi); the
            # turns reuse the weight's block, which the silent mask no longer needs
            phase = np.multiply.outer(delay[start:stop], omega, out=phases[:m])
            turns = np.divide(phase, TWO_PI, out=weight)
            np.rint(turns, out=turns)
            turns *= TWO_PI
            phase -= turns
            np.copyto(phase, 0.0, where=silent)
            _kernels.row_dot(phase, phase, mean_square[start:stop])
    norm = math.sqrt(rowsq.sum())
    errors = []
    for row, (wre, wim, mean_square) in zip(ref_rows, sums):
        denom = math.sqrt(rowsq[row].sum()) * norm  # |g| |A|: g's rows are A's
        corr = math.hypot(wre.sum(), wim.sum()) / denom if denom > 0 else 0.0
        mean_square /= n
        errors.append(MultiplanarError(math.sqrt(float(np.mean(mean_square))), min(corr, 1.0),
                                       np.sqrt(mean_square)))
    return errors


def export_mw_error_csv(rows: list[tuple[str, int, float, float]], path) -> None:
    """Rows of (partition id, interval count, phase rmse, correlation)."""
    _csvout.write_csv(path, ("k_or_partition_id", "n_intervals", "phase_rmse_rad", "correlation"),
                      (_csvout.strs(row[0] for row in rows), _csvout.strs(row[1] for row in rows),
                       _csvout.floats([row[2] for row in rows]), _csvout.floats([row[3] for row in rows])))
