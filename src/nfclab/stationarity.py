"""Stationary-interval partitioning of the array by two adaptive criteria.

Criterion 1 (correlation): a reference window of m elements anchors each
interval; a test window slides element by element and the interval ends at
the first window whose correlation matrix distance from the reference
exceeds a threshold.  The reference-anchored scan (rather than adjacent-pair
comparison) accumulates slow drift, so intervals shrink where the channel
geometry changes faster.  The partition makes each anchor's CMD map row,
and ``cmd_map.csv`` each row block, with ``distance_rows``: the W x W map
is never held.

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

class WindowBands:
    """The lag bands ``sum_f h_{i+k} conj(h_i) / F``, k < m, of an ``(n, F)`` response fed one row block at a time.

    Lag k of every window correlation is a slice of band k (see
    ``correlations``).  ``add(start, stop, rows)`` takes rows ``[start,
    stop)`` in order and leaves them unchanged.  It conjugates them, a few
    at a time, into a ring of one block's height (m rows at least) that also
    keeps the m - 1 rows before them, the halo that the bands reach back
    into; so the blocks may be scratch and of any height.  Each band entry
    is its own ``_kernels.row_dot`` row sum, so the bands do not depend on
    the block height.  An array shorter than one window (n < m) has bands
    up to lag n - 1 only, and no window.  Raises StationarityError unless
    m >= 2.
    """

    def __init__(self, n: int, n_points: int, m: int):
        if m < 2:
            raise StationarityError(f"window must span >= 2 elements, got {m}")
        self._n, self._m = n, m
        self._bands = [np.empty(n - k, dtype=np.complex128) for k in range(min(m, n))]
        self._ring = np.empty((max(_kernels.block_rows(n, n_points), min(m, n)), n_points), dtype=np.complex128)

    def add(self, start: int, stop: int, rows: np.ndarray) -> None:
        halo, ring = len(self._bands) - 1, self._ring
        step = len(ring) - halo
        for lo in range(start, stop, step):
            hi = min(lo + step, stop)
            # ring row halo + j - lo is conj(h_j)
            np.conjugate(rows[lo - start:hi - start], out=ring[halo:halo + hi - lo])
            for k, band in enumerate(self._bands):
                first = max(lo, k)  # band k has rows i = j - k >= 0
                if first < hi:
                    _kernels.row_dot(rows[first - start:hi - start],
                                     ring[halo + first - lo - k:halo + hi - lo - k], band[first - k:hi - k])
            for r in range(halo):  # row by row: shifting overlapping rows at once copies them through a temporary
                ring[r] = ring[hi - lo + r]

    def correlations(self) -> np.ndarray:
        """``(W, m, m)`` correlations of all ``W = max(n - m + 1, 0)`` windows of m rows, once every row is fed."""
        n, m = self._n, self._m
        stack = np.empty((max(n - m + 1, 0), m, m), dtype=np.complex128)
        if n < m:
            return stack
        idx = np.arange(m)
        for k, band in enumerate(self._bands):
            band = band / self._ring.shape[1]
            lag = sliding_window_view(band.real if k == 0 else band, m - k)  # lag[s, a] = band[s + a]
            stack[:, idx[k:], idx[:m - k]] = lag
            stack[:, idx[:m - k], idx[k:]] = lag.conj()
        return stack


def distance_rows(stack: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Rows ``[lo, hi)`` of the CMD map of a ``(W, m, m)`` window-correlation stack, 0 on the diagonal.

    Entry (i, j) is the distance between the windows starting at elements
    i+1 and j+1 (heat-map data, ``cmd_map.csv``): ``1 - <R_i, R_j>_F /
    (|R_i| |R_j|)``, with ``<R_i, R_j>_F = Re tr(R_i R_j)`` for Hermitian
    matrices, clamped to [0, 1]; a zero matrix is at distance 1 from every
    matrix.  The rows come from one Gram product of the flattened
    correlations ``[lo, hi)`` with all W.  It is an einsum, not a BLAS
    matmul, so it does not depend on the BLAS thread count, an entry does
    not depend on ``lo`` and ``hi``, and entry (i, j) is computed exactly as
    (j, i): the map is symmetric.  Raises StationarityError where a norm
    overflows float64, which bounds every Gram entry.
    """
    a = np.asarray(stack, dtype=np.complex128)
    a = a.reshape(len(a), a.shape[1] * a.shape[2]).view(np.float64)  # W may be 0
    with np.errstate(over="ignore"):
        norm = np.linalg.norm(a, axis=1)
    if not np.all(np.isfinite(norm)):  # then the Gram would overflow too
        raise StationarityError("window correlations must have finite norms: |R|^2 overflows float64")
    norm = np.where(norm > 0, norm, np.inf)
    d = np.einsum("ik,jk->ij", a[lo:hi], a)
    d /= np.multiply.outer(norm[lo:hi], norm)
    np.subtract(1.0, d, out=d)
    np.clip(d, 0.0, 1.0, out=d)
    np.fill_diagonal(d[:, lo:], 0.0)
    return d


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


def partition_by_cmd(stack: np.ndarray, n: int, m: int = DEFAULT_WINDOW_M,
                     tau: float = DEFAULT_CMD_THRESHOLD) -> StationaryPartition:
    """Greedy reference-anchored partition of elements 1..n, read from their window correlations ``stack``.

    ``stack`` holds the ``(n - m + 1, m, m)`` window correlations
    (``WindowBands``), none for an array shorter than one window.  The
    reference window is the first m elements of the current interval; a test
    window slides element by element along the reference's CMD map row
    (``distance_rows``) and the first one with distance above ``tau``
    starts a new interval at its first element.  Intervals shorter than m
    elements are folded into their neighbors, and a trailing leftover
    shorter than m is absorbed by the last interval.
    """
    if m < 2:
        raise StationarityError(f"window size must be >= 2, got {m}")
    if not 0.0 < tau < 1.0:
        raise StationarityError(f"threshold must lie in (0, 1), got {tau}")
    if len(stack) != max(n - m + 1, 0):
        raise StationarityError(f"cmd map of {len(stack)} windows does not fit {n} elements in windows of {m}")

    if n < 2 * m:
        return StationaryPartition(intervals=((1, n),), criterion="cmd", boundary_scores=(),
                                   warnings=(f"array of {n} elements shorter than two windows of {m}",))

    splits: list[tuple[int, float]] = []
    si_start = 1
    while si_start < len(stack):
        row = distance_rows(stack, si_start - 1, si_start)[0, si_start:]  # the reference window to the windows after it
        tripped = np.flatnonzero(row > tau)
        if tripped.size == 0:
            break
        si_start += 1 + int(tripped[0])
        splits.append((si_start, float(row[tripped[0]])))

    return _partition(n, splits, "cmd", m)


def characteristic_slope(s: np.ndarray) -> np.ndarray:
    """Per-element slope of a statistic: ``np.gradient`` of its centred moving average.

    The ``DEFAULT_SMOOTHING_W``-wide average shrinks at the array ends; the
    gradient takes centred differences inside and one-sided ones at the ends.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 1 or s.shape[0] < 3:
        raise ValueError("need a 1-D array of length >= 3")
    n = s.shape[0]
    half = DEFAULT_SMOOTHING_W // 2
    padded = np.concatenate([np.zeros(1), np.cumsum(s)])
    lo = np.maximum(np.arange(n) - half, 0)
    hi = np.minimum(np.arange(n) + half + 1, n)
    return np.gradient((padded[hi] - padded[lo]) / (hi - lo))


def _slope_boundaries(k: np.ndarray) -> dict[int, float]:
    """``{boundary: score}`` at the steepest point of every run of >= 2 hot elements."""
    hot = np.abs(k) > DEFAULT_SLOPE_THRESHOLD_DB
    edges = np.flatnonzero(np.diff(np.pad(hot, 1)))  # runs k[i:j] as (i, j) pairs
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


def _uniform_power_splits(power_db: np.ndarray, slope: dict[int, float]) -> list[tuple[int, float]]:
    """The slope boundaries merged with left-scan uniform-power splits (score NaN).

    The scan restarts at every slope boundary and splits wherever the power
    range since the last boundary or split exceeds ``DEFAULT_UNIFORM_POWER_DB``.
    """
    splits: list[tuple[int, float]] = []
    lo = hi = power_db[0]
    for el in range(2, len(power_db) + 1):
        p = power_db[el - 1]
        lo, hi = min(lo, p), max(hi, p)
        if el in slope or hi - lo > DEFAULT_UNIFORM_POWER_DB:
            splits.append((el, slope.get(el, float("nan"))))
            lo = hi = p
    return splits


def partition_by_slope(stats: ChannelStats) -> StationaryPartition:
    """Characteristic-slope partition with a uniform-power check.

    Boundaries form where the smoothed slope of the received power stays
    above ``DEFAULT_SLOPE_THRESHOLD_DB`` for at least 2 consecutive
    elements (placed at the steepest point of the run); every resulting
    interval is then split wherever its internal received-power range
    exceeds ``DEFAULT_UNIFORM_POWER_DB``; short ones fold into neighbors.
    """
    values = np.asarray(stats.power_db, dtype=float)
    n = len(values)
    if n < 3:
        return StationaryPartition(intervals=((1, n),), criterion="slope", boundary_scores=(),
                                   warnings=(f"array of {n} elements too short for a slope",))
    slope = _slope_boundaries(characteristic_slope(values))
    return _partition(n, _uniform_power_splits(values, slope), "slope", DEFAULT_WINDOW_M)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def export_partition_csv(partitions: list[StationaryPartition], path) -> None:
    rows = []
    for partition in partitions:
        n = partition.n_intervals  # a partition may carry fewer than n - 1 scores
        scores = ([""] + _csvout.floats(partition.boundary_scores) + [""] * n)[:n]
        rows += [(str(i), str(start), str(end), partition.criterion, score)
                 for i, ((start, end), score) in enumerate(zip(partition.intervals, scores))]
    _csvout.write_csv(path, ("interval_index", "start", "end", "criterion", "boundary_score"),
                      [[row[c] for row in rows] for c in range(5)])


def export_cmd_map_csv(stack: np.ndarray, path) -> None:
    """The (i, j, D) lines of the CMD map of a ``(W, m, m)`` window-correlation stack.

    One ``_kernels.row_blocks`` block of ``distance_rows`` at a time,
    formatted as it comes (``_csvout.CellGrid``).
    """
    n = len(stack)
    with _csvout.CellGrid(path, ("i", "j", "D"), n, [_csvout.cells(_csvout.strs(range(1, n + 1)))],
                          lambda rows: (_floatrepr.repr_cells(rows),)) as grid:
        for lo, hi in _kernels.row_blocks(n, n):
            grid.add(lo, hi, distance_rows(stack, lo, hi))
