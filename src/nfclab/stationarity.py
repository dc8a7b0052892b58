"""Stationary-interval partitioning of the array by two adaptive criteria.

Criterion 1 (correlation): a reference window of m elements anchors each
interval; a test window slides element by element and the interval ends at
the first window whose correlation matrix distance from the reference
exceeds a threshold.  The reference-anchored scan (rather than adjacent-pair
comparison) accumulates slow drift, so intervals shrink where the channel
geometry changes faster.

Criterion 2 (characteristic slope): the smoothed per-element slope of a
channel statistic marks boundaries where it stays above a threshold, and
each resulting interval is additionally held to a uniform-power bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _csvout, _floatrepr, _kernels
from .analysis import ChannelStats
from .synth import ChannelFrequencyResponse

DEFAULT_WINDOW_M = 4
DEFAULT_CMD_THRESHOLD = 0.2
DEFAULT_SMOOTHING_W = 5
DEFAULT_UNIFORM_POWER_DB = 3.0
DEFAULT_SLOPE_THRESHOLD_DB = 0.5  # received-power slope threshold, dB per element


class StationarityError(ValueError):
    pass


@dataclass(frozen=True)
class StationaryPartition:
    """Ordered disjoint element intervals covering 1..n_elements."""

    intervals: tuple[tuple[int, int], ...]
    criterion: str
    boundary_scores: tuple[float, ...]
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        last_end = 0
        for start, end in self.intervals:
            if start != last_end + 1 or end < start:
                raise ValueError(f"intervals must be contiguous and ordered, got {self.intervals}")
            last_end = end

    @property
    def n_elements(self) -> int:
        return self.intervals[-1][1]

    @property
    def n_intervals(self) -> int:
        return len(self.intervals)

    def boundaries(self) -> tuple[int, ...]:
        """First element of every interval after the first."""
        return tuple(start for start, _ in self.intervals[1:])


def uniform_partition(n_elements: int, n_intervals: int) -> StationaryPartition:
    """n_intervals near-equal contiguous intervals (helper, not adaptive)."""
    if not 1 <= n_intervals <= n_elements:
        raise ValueError("need 1 <= n_intervals <= n_elements")
    edges = [round(i * n_elements / n_intervals) for i in range(n_intervals + 1)]
    intervals = tuple((edges[i] + 1, edges[i + 1]) for i in range(n_intervals))
    return StationaryPartition(intervals=intervals, criterion="uniform", boundary_scores=())


# ---------------------------------------------------------------------------
# Correlation machinery
# ---------------------------------------------------------------------------

def _window_correlations(values: np.ndarray, m: int) -> np.ndarray:
    """``(W, m, m)`` correlations of all ``W = n - m + 1`` windows of m rows.

    Lag k of every window is a slice of one band ``sum_f h_{i+k} conj(h_i)``.
    The bands are built over ``_kernels.row_blocks`` of the conjugated rows
    ``i``: each block is conjugated once into scratch and serves every lag,
    and each band entry is its own ``_kernels.row_dot`` row sum.
    """
    if m < 2:
        raise StationarityError(f"window must span >= 2 elements, got {m}")
    n, n_points = values.shape
    bands = [np.empty(n - k, dtype=np.complex128) for k in range(m)]
    scratch = np.empty((_kernels.block_rows(n, n_points), n_points), dtype=np.complex128)
    for start, stop in _kernels.row_blocks(n, n_points):
        conj = np.conjugate(values[start:stop], out=scratch[:stop - start])
        for k, band in enumerate(bands):
            end = min(stop, n - k)  # band k has rows i < n - k
            if end > start:
                _kernels.row_dot(values[start + k:end + k], conj[:end - start], band[start:end])
    idx = np.arange(m)
    stack = np.empty((n - m + 1, m, m), dtype=np.complex128)
    for k, band in enumerate(bands):
        band /= n_points
        lag = sliding_window_view(band.real if k == 0 else band, m - k)  # lag[s, a] = band[s + a]
        stack[:, idx[k:], idx[:m - k]] = lag
        stack[:, idx[:m - k], idx[k:]] = lag.conj()
    return stack


def _cmd(stack: np.ndarray) -> np.ndarray:
    """CMD of every pair of matrices in one stack, from one Gram product.

    ``<R_i, R_j>_F = Re tr(R_i R_j)`` for Hermitian matrices.  Clamped to
    [0, 1]; a zero matrix is at distance 1 from every matrix.  The Gram
    product is an einsum, not a BLAS matmul, so it does not depend on the
    BLAS thread count, and entry (i, j) is computed exactly as (j, i): the
    map is symmetric.
    """
    a = np.asarray(stack, dtype=np.complex128).reshape(len(stack), -1).view(np.float64)
    norm = np.linalg.norm(a, axis=1)
    norm = np.where(norm > 0, norm, np.inf)
    d = np.einsum("ik,jk->ij", a, a)
    d /= np.multiply.outer(norm, norm)
    np.subtract(1.0, d, out=d)
    return np.clip(d, 0.0, 1.0, out=d)


def cmd_map(cfr: ChannelFrequencyResponse, m: int = DEFAULT_WINDOW_M) -> np.ndarray:
    """Pairwise CMD between all m-element windows (heat-map data).

    Entry (i, j) is the distance between the windows starting at elements
    i+1 and j+1; all pairs come from one Gram product of the flattened
    window correlations.  An array shorter than one window gives a 0x0 map.
    """
    if cfr.n_elements < m:
        return np.zeros((0, 0))
    stack = _window_correlations(cfr.values, m)
    out = _cmd(stack)
    np.fill_diagonal(out, 0.0)
    return out


# ---------------------------------------------------------------------------
# Partitioners
# ---------------------------------------------------------------------------

def _partition(n: int, splits: list[tuple[int, float]], criterion: str,
               min_si: int) -> StationaryPartition:
    """Intervals of elements 1..n split at ascending ``(boundary, score)`` pairs, short ones folded.

    One left-to-right scan: an interval shorter than min_si joins the
    following one (dropping the score of the boundary between them); a short
    last interval joins the preceding one; a lone interval stays.
    """
    intervals: list[tuple[int, int]] = []
    scores: list[float] = []
    start = 1
    for boundary, score in splits:
        if boundary - start >= min_si:
            intervals.append((start, boundary - 1))
            scores.append(score)
            start = boundary
    if intervals and n + 1 - start < min_si:
        start = intervals.pop()[0]
        scores.pop()
    intervals.append((start, n))
    return StationaryPartition(intervals=tuple(intervals), criterion=criterion,
                               boundary_scores=tuple(scores))


def partition_by_cmd(dmap: np.ndarray, n: int, m: int = DEFAULT_WINDOW_M,
                     tau: float = DEFAULT_CMD_THRESHOLD) -> StationaryPartition:
    """Greedy reference-anchored partition of elements 1..n, read from their ``cmd_map``.

    The reference window is the first m elements of the current interval; a
    test window slides element by element along its map row and the first one
    with distance above ``tau`` starts a new interval at its first element.
    Intervals shorter than m elements are folded into their neighbors, and a
    trailing leftover shorter than m is absorbed by the last interval.
    """
    if m < 2:
        raise StationarityError(f"window size must be >= 2, got {m}")
    if not 0.0 < tau < 1.0:
        raise StationarityError(f"threshold must lie in (0, 1), got {tau}")
    if len(dmap) != max(n - m + 1, 0):
        raise StationarityError(f"cmd map of {len(dmap)} windows does not fit {n} elements in windows of {m}")

    if n < 2 * m:
        return StationaryPartition(intervals=((1, n),), criterion="cmd", boundary_scores=(),
                                   warnings=(f"array of {n} elements shorter than two windows of {m}",))

    splits: list[tuple[int, float]] = []
    si_start = 1
    while si_start < len(dmap):
        row = dmap[si_start - 1, si_start:]  # the reference window to the windows after it
        tripped = np.flatnonzero(row > tau)
        if tripped.size == 0:
            break
        si_start += 1 + int(tripped[0])
        splits.append((si_start, float(row[tripped[0]])))

    return _partition(n, splits, "cmd", m)


def characteristic_slope(s: np.ndarray, w: int = DEFAULT_SMOOTHING_W) -> np.ndarray:
    """Per-element slope of a statistic: ``np.gradient`` of its centred moving average.

    The average has odd width ``w`` and shrinks at the array ends; the
    gradient takes centred differences inside and one-sided ones at the ends.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 1 or s.shape[0] < 3:
        raise ValueError("need a 1-D array of length >= 3")
    if w < 1 or w % 2 == 0:
        raise ValueError(f"smoothing width must be odd and >= 1, got {w}")
    n = s.shape[0]
    half = w // 2
    padded = np.concatenate([np.zeros(1), np.cumsum(s)])
    lo = np.maximum(np.arange(n) - half, 0)
    hi = np.minimum(np.arange(n) + half + 1, n)
    return np.gradient((padded[hi] - padded[lo]) / (hi - lo))


def _slope_boundaries(k: np.ndarray, threshold: float) -> dict[int, float]:
    """``{boundary: score}`` at the steepest point of every run of >= 2 hot elements."""
    edges = np.flatnonzero(np.diff(np.pad(np.abs(k) > threshold, 1)))  # runs k[i:j] as (i, j) pairs
    slope: dict[int, float] = {}
    for i, j in zip(edges[::2].tolist(), edges[1::2].tolist()):
        if j - i >= 2:
            run = np.abs(k[i:j])
            peak = run.max()
            peak_positions = np.flatnonzero(run >= peak - 1e-12) + i
            split = int(round(_kernels.median(peak_positions))) + 1  # 1-based
            if split > 1:
                slope[split] = float(peak)
    return slope


def _uniform_power_splits(power_db: np.ndarray, slope: dict[int, float],
                          gamma_db: float) -> list[tuple[int, float]]:
    """The slope boundaries merged with left-scan uniform-power splits (score NaN).

    The scan restarts at every slope boundary and splits wherever the power
    range since the last boundary or split exceeds ``gamma_db``.
    """
    splits: list[tuple[int, float]] = []
    lo = hi = power_db[0]
    for el in range(2, len(power_db) + 1):
        p = power_db[el - 1]
        lo, hi = min(lo, p), max(hi, p)
        if el in slope or hi - lo > gamma_db:
            splits.append((el, slope.get(el, float("nan"))))
            lo = hi = p
    return splits


def partition_by_slope(stats: ChannelStats,
                       gamma_db: float = DEFAULT_UNIFORM_POWER_DB) -> StationaryPartition:
    """Characteristic-slope partition with a uniform-power check.

    Boundaries form where the smoothed slope of the received power stays
    above ``DEFAULT_SLOPE_THRESHOLD_DB`` for at least 2 consecutive
    elements (placed at the steepest point of the run); every resulting
    interval is then split wherever its internal received-power range
    exceeds ``gamma_db``, and short intervals are folded into neighbors.
    """
    values = np.asarray(stats.power_db, dtype=float)
    n = len(values)
    if n < 3:
        return StationaryPartition(intervals=((1, n),), criterion="slope", boundary_scores=(),
                                   warnings=(f"array of {n} elements too short for a slope",))
    slope = _slope_boundaries(characteristic_slope(values), DEFAULT_SLOPE_THRESHOLD_DB)
    return _partition(n, _uniform_power_splits(values, slope, gamma_db), "slope", DEFAULT_WINDOW_M)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def export_partition_csv(partitions: list[StationaryPartition], path) -> None:
    def block(partition: StationaryPartition):
        n = partition.n_intervals  # a partition may carry fewer than n - 1 scores
        scores = ([""] + _csvout.floats(partition.boundary_scores) + [""] * n)[:n]
        return _csvout.rows((_csvout.strs(range(n)), _csvout.strs(s for s, _ in partition.intervals),
                             _csvout.strs(e for _, e in partition.intervals), [partition.criterion] * n,
                             scores))

    _csvout.write_csv(path, ("interval_index", "start", "end", "criterion", "boundary_score"),
                      map(block, partitions))


def export_cmd_map_csv(dmap: np.ndarray, path) -> None:
    """All (i, j) pairs of a symmetric map, one row block of the map at a time.

    Raises ValueError unless ``dmap`` equals its transpose.
    """
    dmap = np.asarray(dmap, dtype=float)
    if not np.array_equal(dmap, dmap.T):
        raise ValueError("cmd map must be symmetric")
    n = dmap.shape[0]
    label = _csvout.cells(_csvout.strs(range(1, n + 1)))
    _csvout.write_csv(path, ("i", "j", "D"),
                      (_csvout.lines((label[a:b, None], label[None], _floatrepr.repr_cells(dmap[a:b])))
                       for a, b in _kernels.row_blocks(n, n, _floatrepr.PASS_VALUES)))
