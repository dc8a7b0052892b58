"""Hot numeric kernel for channel synthesis: the path-sum accumulation.

The kernel sums, for every propagation path, its complex contribution over
all sweep frequencies, including the per-frequency free-space amplitude and
knife-edge losses.  It is plain numpy and evaluates a block of consecutive
table paths per pass, vectorized over (path, frequency).  A block is a run of
paths on consecutive rows ``r, r+1, ...``, so its add is one slice and every
row still receives its adds one at a time in table order: the result is
deterministic.  Knife-edge losses are evaluated only for the paths that cross
a screen.  The propagation phasors come from ``sweep_phasors``, a coarse x
fine table of the uniform sweep grid, and are scaled by the amplitude with
one complex x real multiply; both blocks live in scratch allocated once per
call.

The module also holds the row-block rule that the kernel and every stage
after it share (``block_rows``, ``row_blocks``), and ``row_dot``, the per-row
dot product whose sums do not depend on the block height.
"""

from __future__ import annotations

import math

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


def knife_edge_loss(nu) -> np.ndarray | float:
    """Single-knife-edge diffraction loss in dB for Fresnel parameter nu.

    ``6.9 + 20*log10(sqrt((nu-0.1)^2+1) + nu - 0.1)`` for nu > -0.78, else 0.
    """
    nu_arr = np.asarray(nu, dtype=float)
    t = nu_arr - 0.1
    with np.errstate(invalid="ignore"):
        j = 6.9 + 20.0 * np.log10(np.sqrt(t * t + 1.0) + t)
    out = np.where(nu_arr > KNIFE_EDGE_NU_MIN, j, 0.0)  # also 0 for -inf: no crossing, no loss
    if np.isscalar(nu) or np.ndim(nu) == 0:
        return float(out)
    return out


def path_amplitude(gains, lengths, edge_ptr, edge_geo, lam, sqrt_lam, out) -> np.ndarray:
    """``gain * lambda/(4 pi L) * 10^(-J/20)`` of m paths, one row per path, written into ``out``.

    gains, lengths : float (m,)
    edge_ptr       : int (m+1,) CSR offsets of the paths' knife-edge factors in edge_geo
    lam, sqrt_lam  : float (n_freqs,) wavelengths and their square roots
    out            : float (m, n_freqs), returned

    J sums a path's losses in edge order; it is evaluated only for the paths
    that have edges, since a path without any has exactly 0 dB.
    """
    amp = np.multiply(gains[:, None], lam, out=out)
    amp /= (4.0 * math.pi * lengths)[:, None]
    counts = np.diff(edge_ptr)
    edged = np.flatnonzero(counts)
    if edged.size:
        # The edged paths' factors as a -inf padded (paths, edges) matrix: -inf is 0 dB.
        counts = counts[edged]
        geo = np.full((edged.size, int(counts.max())), -math.inf)
        geo[np.arange(geo.shape[1]) < counts[:, None]] = edge_geo[edge_ptr[0]:edge_ptr[-1]]
        loss_db = np.zeros((edged.size, len(lam)))
        for column in geo.T:
            loss_db += knife_edge_loss(column[:, None] / sqrt_lam)
        amp[edged] *= 10.0 ** (-loss_db / 20.0)
    return amp


def phasor_grid(n) -> tuple[int, int]:
    """``(C, B)`` of the ``sweep_phasors`` block over n points: B = ceil(sqrt(n)), C = ceil(n / B)."""
    step = math.isqrt(n - 1) + 1
    return -(-n // step), step


def sweep_phasors(k, freqs, out=None) -> np.ndarray:
    """``exp(1j * k_i * f)`` over the sweep grid ``freqs``, one row per ``k_i``.

    Each row is the outer product of a coarse table, the phasors at every
    B-th grid point (B = ceil(sqrt(F))), and a fine one at the offsets
    ``f_b - f_0`` of the first B points, so it costs about 2 sqrt(F) complex
    exponentials instead of F.  ``freqs`` must be a uniform grid
    (``np.linspace``); sample i then differs from ``exp(1j k f_i)`` only by
    the rounding of its phase, a few ulp of ``k f_i``.  Raises ValueError
    when a grid step differs from ``(f_last - f_0) / (F - 1)`` by more than
    8 ulp of the larger end frequency.  Returns an (m, F) view of an
    (m, C, B) complex block, C = ceil(F / B): ``out`` when that scratch
    block is given, else a new one.
    """
    k = np.asarray(k, dtype=float)
    n = len(freqs)
    if n > 2:  # np.linspace steps stay within about 2 ulp of that
        tol = 8.0 * np.spacing(max(abs(freqs[0]), abs(freqs[-1])))
        if np.abs(np.diff(freqs) - (freqs[-1] - freqs[0]) / (n - 1)).max() > tol:
            raise ValueError("sweep_phasors needs a uniform frequency grid (np.linspace)")
    step = phasor_grid(n)[1]
    coarse = np.exp(1j * np.multiply.outer(k, freqs[::step]))
    fine = np.exp(1j * np.multiply.outer(k, freqs[:step] - freqs[0]))
    block = np.multiply(coarse[:, :, None], fine[:, None, :], out=out)
    return block.reshape(len(k), -1)[:, :n]


def _row_runs(row_idx, max_paths):
    """``(start, stop)`` of consecutive paths on consecutive rows, at most ``max_paths`` each.

    A run ends before the first path whose row is not its predecessor's plus one.
    """
    bounds = np.concatenate(([0], np.flatnonzero(np.diff(row_idx) != 1) + 1, [len(row_idx)]))
    for run_start, run_stop in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        for start in range(run_start, run_stop, max_paths):
            yield start, min(start + max_paths, run_stop)


def accumulate_paths(out, row_idx, lengths, gains, edge_ptr, edge_geo, freqs):
    """Accumulate every path's swept-frequency contribution into ``out``.

    out      : complex128 (n_rows, n_freqs), accumulated in place
    row_idx  : int (n_paths,) output row per path
    lengths  : float (n_paths,) total path length [m]
    gains    : float (n_paths,) interaction gain
    edge_ptr : int (n_paths+1,) CSR offsets into edge_geo
    edge_geo : float (n_edges,) knife-edge factors h*sqrt(2(d1+d2)/(d1 d2))
    freqs    : float (n_freqs,) sweep grid [Hz]
    """
    lam = C_M_PER_S / freqs
    sqrt_lam = np.sqrt(lam)
    wavenumber = -2.0 * math.pi * lengths / C_M_PER_S  # phase per Hz of each path
    max_paths = block_rows(len(row_idx), len(freqs))
    amp_block = np.empty((max_paths, len(freqs)))
    phasor_block = np.empty((max_paths, *phasor_grid(len(freqs))), dtype=complex)
    for start, stop in _row_runs(row_idx, max_paths):
        m, row = stop - start, int(row_idx[start])
        amp = path_amplitude(gains[start:stop], lengths[start:stop], edge_ptr[start:stop + 1],
                             edge_geo, lam, sqrt_lam, out=amp_block[:m])
        term = sweep_phasors(wavenumber[start:stop], freqs, out=phasor_block[:m])
        np.multiply(term, amp, out=term)
        out[row:row + m] += term
    return out
