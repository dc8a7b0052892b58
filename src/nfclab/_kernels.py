"""Hot numeric kernel for channel synthesis: the path-sum accumulation.

The kernel sums, for every propagation path, its complex contribution
``gain * lambda/(4 pi L) * 10^(-J/20) * exp(-j 2 pi f L / c)`` over all
sweep frequencies.  It is plain numpy and makes the response one row block
of ``row_blocks`` at a time, in one pass over the path table, so a consumer
can use each block and drop it.  Within a row block it evaluates a run of
consecutive table paths per pass, vectorized over (path, frequency).  A run
is of paths on consecutive rows ``r, r+1, ...``, so its add is one slice and
every row still receives its adds one at a time in table order: the result
is deterministic.  The propagation phasors come from ``sweep_phasors``, a
coarse x fine table of the uniform sweep grid whose coarse part, about
sqrt(F) values a path, is scaled by the path's ``gain/(4 pi L)``.  The
knife-edge factor ``10^(-J/20)`` then multiplies the rows of the paths that
cross a screen, and only those (``apply_knife_edges``).  The wavelength is
the same for every path, so it multiplies each finished row block once,
instead of each path's samples; the multiplanar LOS truth takes that factor
order too.  The phasor block and the response block live in scratch
allocated once per call.  Every row-blocked stage after the kernel
allocates its scratch once per call too: glibc serves an allocation of
128 KiB or more with a fresh mmap, so a block allocated anew for every row
block would be page-faulted in again each time.

The module also holds the row-block rule that the kernel and every stage
after it share (``block_rows``, ``row_blocks``), ``row_dot``, the per-row
dot product whose sums do not depend on the block height, ``median``, and
``wavelengths`` and ``knife_edge_db``, which the multiplanar stage shares.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .constants import C_M_PER_S, KNIFE_EDGE_NU_MIN

# Samples (rows x sweep points) per block, in the kernel and in every row-blocked
# stage after it: about 40 rows at 801 points, and a single row once the sweep is
# longer than the budget.
BLOCK_SAMPLES = 1 << 15


# Columns per einsum pass of ``row_dot``.  numpy's einsum reduces every row of a
# 2-D block in one pass while the rows hold at most its iterator buffer's 8192
# samples, but splits longer rows at places that depend on the row's position
# in the block.
REDUCE_COLS = 8192


def block_rows(n_rows, n_cols, budget=None) -> int:
    """Rows per block of an ``(n_rows, n_cols)`` array: at most ``budget // n_cols`` and n_rows, at least 1.

    ``budget`` is in samples and defaults to ``BLOCK_SAMPLES``.
    """
    budget = BLOCK_SAMPLES if budget is None else budget
    return max(1, min(n_rows, budget // max(n_cols, 1)))


def row_blocks(n_rows, n_cols, budget=None):
    """``(start, stop)`` of consecutive blocks of ``block_rows`` rows; the last may be shorter."""
    height = block_rows(n_rows, n_cols, budget)
    for start in range(0, n_rows, height):
        yield start, min(start + height, n_rows)


def row_dot(a, b, out) -> np.ndarray:
    """``out[i] = sum_j a[i, j] b[i, j]`` of two ``(m, F)`` blocks: one einsum per ``REDUCE_COLS`` columns.

    The chunks' row sums are added in column order, so each row's sum depends
    on that row alone, not on the block height; up to ``REDUCE_COLS`` columns
    it is ``np.einsum("ij,ij->i", a, b)``.
    """
    np.einsum("ij,ij->i", a[:, :REDUCE_COLS], b[:, :REDUCE_COLS], out=out)
    for start in range(REDUCE_COLS, a.shape[1], REDUCE_COLS):
        stop = start + REDUCE_COLS
        out += np.einsum("ij,ij->i", a[:, start:stop], b[:, start:stop])
    return out


def wavelengths(freqs) -> tuple[np.ndarray, np.ndarray]:
    """``(lam, sqrt_lam)``: the wavelengths ``C / f`` of the sweep grid ``freqs`` and their square roots."""
    with np.errstate(over="ignore"):  # a sweep from near 0 Hz: the response's finite check reports it
        lam = C_M_PER_S / freqs
    return lam, np.sqrt(lam)


def median(values) -> float:
    """The median of a 1-D array: its middle value once sorted, or ``(a + b) / 2`` of the two middle ones.

    That is ``float(np.median(values))`` for values without NaN, without the
    ``numpy.ma`` import that ``np.median`` makes on its first call.
    """
    ordered = np.sort(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (float(ordered[mid - 1]) + float(ordered[mid])) / 2.0


def knife_edge_loss(nu) -> np.ndarray:
    """Single-knife-edge diffraction loss in dB for the Fresnel parameters ``nu``, an array of their shape.

    ``6.9 + 20*log10(sqrt((nu-0.1)^2+1) + nu - 0.1)`` for nu > -0.78, else 0.
    """
    nu = np.asarray(nu, dtype=float)
    t = nu - 0.1
    with np.errstate(invalid="ignore"):
        j = 6.9 + 20.0 * np.log10(np.sqrt(t * t + 1.0) + t)
    return np.where(nu > KNIFE_EDGE_NU_MIN, j, 0.0)  # also 0 for -inf: no crossing, no loss


def knife_edge_db(edge_ptr, edge_geo, sqrt_lam) -> tuple[np.ndarray, np.ndarray]:
    """``(edged, loss_db)``: the indices of the m paths that cross a screen, ascending, and their J per wavelength.

    edge_ptr : int (m+1,) CSR offsets of the paths' knife-edge factors in edge_geo
    sqrt_lam : float (n_freqs,) square roots of the wavelengths

    J sums a path's knife-edge losses in dB, in edge order.  A path without
    edges has exactly 0 dB and is left out.
    """
    counts = np.diff(edge_ptr)
    edged = np.flatnonzero(counts)
    loss_db = np.zeros((edged.size, len(sqrt_lam)))
    if edged.size:
        # The edged paths' factors as a -inf padded (paths, edges) matrix: -inf is 0 dB.
        counts = counts[edged]
        geo = np.full((edged.size, int(counts.max())), -math.inf)
        geo[np.arange(geo.shape[1]) < counts[:, None]] = edge_geo[edge_ptr[0]:edge_ptr[-1]]
        for column in geo.T:
            loss_db += knife_edge_loss(column[:, None] / sqrt_lam)
    return edged, loss_db


def apply_knife_edges(rows, edge_ptr, edge_geo, sqrt_lam) -> np.ndarray:
    """Multiply the row of each of m paths that crosses a screen by its knife-edge factor ``10^(-J/20)``.

    rows : float or complex (m, n_freqs), one row per path, scaled in place and returned

    J is ``knife_edge_db``'s, and only the edged paths' rows are touched.
    """
    edged, loss_db = knife_edge_db(edge_ptr, edge_geo, sqrt_lam)
    if edged.size:
        rows[edged] *= 10.0 ** (-loss_db / 20.0)
    return rows


class PhasorGrid(NamedTuple):
    """A uniform sweep grid split for ``sweep_phasors``: B = ceil(sqrt(F)), C = ceil(F / B)."""

    n: int               # F, the sweep points
    coarse: np.ndarray   # (C,) every B-th grid point
    fine: np.ndarray     # (B,) offsets f_b - f_0 of the first B points

    @property
    def shape(self) -> tuple[int, int]:
        """``(C, B)``, the shape of a row of the coarse x fine block."""
        return len(self.coarse), len(self.fine)


def phasor_grid(freqs) -> PhasorGrid:
    """The ``PhasorGrid`` of the sweep grid ``freqs``, which must be uniform (``np.linspace``).

    Raises ValueError when a grid step differs from ``(f_last - f_0) / (F - 1)``
    by more than 8 ulp of the larger end frequency.  A stage makes its grid
    once and passes it to each of its ``sweep_phasors`` calls, one per row
    block, so the check runs once per stage.
    """
    n = len(freqs)
    if n > 2:  # np.linspace steps stay within about 2 ulp of that
        tol = 8.0 * np.spacing(max(abs(freqs[0]), abs(freqs[-1])))
        if np.abs(np.diff(freqs) - (freqs[-1] - freqs[0]) / (n - 1)).max() > tol:
            raise ValueError("sweep_phasors needs a uniform frequency grid (np.linspace)")
    step = math.isqrt(n - 1) + 1
    return PhasorGrid(n, freqs[::step], freqs[:step] - freqs[0])


def sweep_phasors(k, grid, out=None, scale=None) -> np.ndarray:
    """``scale_i * exp(1j * k_i * f)`` over the sweep grid of ``grid = phasor_grid(freqs)``, one row per ``k_i``.

    Each row is the outer product of a coarse table, the phasors at every
    B-th grid point (B = ceil(sqrt(F))), and a fine one at the offsets
    ``f_b - f_0`` of the first B points, so it costs about 2 sqrt(F) complex
    exponentials instead of F.  Sample i differs from ``exp(1j k f_i)`` only
    by the rounding of its phase, a few ulp of ``k f_i``.  ``scale``, real
    and one per row, multiplies the real and imaginary parts of the coarse
    table, C values a row; without it each row is unscaled.  Returns an
    (m, F) view of an (m, C, B) complex block: ``out`` when that scratch
    block is given, else a new one.
    """
    k = np.asarray(k, dtype=float)
    coarse = np.exp(1j * np.multiply.outer(k, grid.coarse))
    if scale is not None:
        parts = coarse.view(float)
        parts *= np.asarray(scale, dtype=float)[:, None]
    fine = np.exp(1j * np.multiply.outer(k, grid.fine))
    block = np.multiply(coarse[:, :, None], fine[:, None, :], out=out)
    return block.reshape(len(k), -1)[:, :grid.n]


def _block_runs(row_idx, n_rows, height):
    """For each block of ``height`` rows of ``n_rows``, the ``(first, last + 1)`` table slices of its paths.

    A block's slices are runs of consecutive table paths on consecutive rows,
    in table order.  A run ends before a path that does not follow its
    predecessor in the table, whose row is not its predecessor's plus one,
    or whose row is in the next block.  One stable sort on the block index
    gathers every block's paths in one pass over the table.
    """
    block = row_idx // height
    order = np.argsort(block, kind="stable")
    new_run = np.ones(len(order), dtype=bool)
    new_run[1:] = (np.diff(order) != 1) | (np.diff(row_idx[order]) != 1) | (np.diff(block[order]) != 0)
    starts = np.flatnonzero(new_run)
    firsts, lasts = order[starts], order[np.append(starts, len(order))[1:] - 1] + 1
    cuts = np.searchsorted(block[firsts], np.arange(-(-n_rows // height) + 1)).tolist()
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        yield zip(firsts[lo:hi].tolist(), lasts[lo:hi].tolist())


def accumulate_paths(n_rows, row_idx, lengths, gains, edge_ptr, edge_geo, freqs):
    """Yield the path sum one row block at a time: ``(start, stop, block)`` over ``row_blocks(n_rows, n_freqs)``.

    n_rows   : number of output rows
    row_idx  : int (n_paths,) output row per path
    lengths  : float (n_paths,) total path length [m]
    gains    : float (n_paths,) interaction gain
    edge_ptr : int (n_paths+1,) CSR offsets into edge_geo
    edge_geo : float (n_edges,) knife-edge factors h*sqrt(2(d1+d2)/(d1 d2))
    freqs    : float (n_freqs,) sweep grid [Hz]

    ``block`` is complex128 rows ``[start, stop)`` of the sum, zeroed and then
    given the swept-frequency contribution of every path on those rows, in
    table order.  A path's contribution is its ``sweep_phasors`` row scaled
    by ``gain/(4 pi L)``, times ``10^(-J/20)`` if it crosses a screen
    (``apply_knife_edges``); the wavelength, common to every path, multiplies
    the real and imaginary parts of the finished block once, before it is
    yielded.  It is one scratch block reused for every block, so a consumer
    must read a block before it asks for the next.
    """
    lam, sqrt_lam = wavelengths(freqs)
    wavenumber = -2.0 * math.pi * lengths / C_M_PER_S  # phase per Hz of each path
    amp_over_lam = gains / (4.0 * math.pi * lengths)  # the free-space amplitude over the wavelength
    grid = phasor_grid(freqs)
    height = block_rows(n_rows, len(freqs))
    phasor_block = np.empty((height, *grid.shape), dtype=complex)
    scratch = np.empty((height, len(freqs)), dtype=complex)
    lam_parts = np.repeat(lam, 2)  # the wavelength of a sample's real and imaginary parts
    runs = _block_runs(row_idx, n_rows, height)
    for (start, stop), block_runs in zip(row_blocks(n_rows, len(freqs)), runs):
        block = scratch[:stop - start]
        block.fill(0.0)
        # an infinite wavelength over an infinite edge factor, or times a 0 sum, is NaN, and a
        # sum times a wavelength near float range may overflow: the response's finite check
        # reports both
        with np.errstate(invalid="ignore", over="ignore"):
            # A run's paths sit on distinct rows of this block, so its add is one slice.
            for first, last in block_runs:
                m, row = last - first, int(row_idx[first]) - start
                term = sweep_phasors(wavenumber[first:last], grid, out=phasor_block[:m],
                                     scale=amp_over_lam[first:last])
                apply_knife_edges(term, edge_ptr[first:last + 1], edge_geo, sqrt_lam)
                block[row:row + m] += term
            parts = block.view(float)
            parts *= lam_parts
        yield start, stop, block
