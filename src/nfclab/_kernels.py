"""Hot numeric kernel for channel synthesis: the path-sum accumulation.

The kernel sums, for every propagation path, its complex contribution over
all sweep frequencies, including the per-frequency free-space amplitude and
knife-edge losses.  It is plain numpy and evaluates a block of consecutive
table paths per pass, vectorized over (path, frequency).  A block never holds
two paths of the same output row, so every row still receives its adds one at
a time in table order and the result is deterministic.  The propagation
phasors come from ``sweep_phasors``, a coarse x fine table of the uniform
sweep grid.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import C_M_PER_S, KNIFE_EDGE_NU_MIN

# Samples (paths x sweep points) evaluated per block: about 40 paths at 801
# points, and a single path once the sweep is longer than the budget.
BLOCK_SAMPLES = 1 << 15


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


def path_amplitude(gains, lengths, edge_geo, lam, sqrt_lam) -> np.ndarray:
    """``gain * lambda/(4 pi L) * 10^(-J/20)`` of m paths, one row per path.

    gains, lengths : float (m,)
    edge_geo       : float (m, e) knife-edge factors of each path, padded with
                     -inf (exactly 0 dB); J sums a row's losses in column order
    lam, sqrt_lam  : float (n_freqs,) wavelengths and their square roots
    """
    amp = gains[:, None] * lam / (4.0 * math.pi * lengths)[:, None]
    if edge_geo.shape[1]:
        loss_db = np.zeros_like(amp)
        for geo in edge_geo.T:
            loss_db += knife_edge_loss(geo[:, None] / sqrt_lam)
        amp *= 10.0 ** (-loss_db / 20.0)
    return amp


def sweep_phasors(k, freqs) -> np.ndarray:
    """``exp(1j * k_i * f)`` over the sweep grid ``freqs``, one row per ``k_i``.

    Each row is the outer product of a coarse table, the phasors at every
    B-th grid point (B = ceil(sqrt(F))), and a fine one at the offsets
    ``f_b - f_0`` of the first B points, so it costs about 2 sqrt(F) complex
    exponentials instead of F.  ``freqs`` must be a uniform grid
    (``np.linspace``); sample i then differs from ``exp(1j k f_i)`` only by
    the rounding of its phase, a few ulp of ``k f_i``.  Raises ValueError
    when a grid step differs from ``(f_last - f_0) / (F - 1)`` by more than
    8 ulp of the larger end frequency.  Returns an (m, F) view of an
    (m, C, B) complex block, C = ceil(F / B).
    """
    k = np.asarray(k, dtype=float)
    n = len(freqs)
    if n > 2:  # np.linspace steps stay within about 2 ulp of that
        tol = 8.0 * np.spacing(max(abs(freqs[0]), abs(freqs[-1])))
        if np.abs(np.diff(freqs) - (freqs[-1] - freqs[0]) / (n - 1)).max() > tol:
            raise ValueError("sweep_phasors needs a uniform frequency grid (np.linspace)")
    step = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
    coarse = np.exp(1j * np.multiply.outer(k, freqs[::step]))
    fine = np.exp(1j * np.multiply.outer(k, freqs[:step] - freqs[0]))
    return (coarse[:, :, None] * fine[:, None, :]).reshape(len(k), -1)[:, :n]


def _row_distinct_blocks(row_idx, max_paths):
    """``(start, stop)`` of consecutive paths, at most ``max_paths`` each.

    A block ends before the first path whose row already occurs in it.
    """
    n = len(row_idx)
    order = np.argsort(row_idx, kind="stable")
    repeat = row_idx[order[1:]] == row_idx[order[:-1]]
    previous = np.full(n, -1)  # table index of the row's previous path
    previous[order[1:][repeat]] = order[:-1][repeat]
    start = 0
    while start < n:
        stop = min(start + max_paths, n)
        clash = np.flatnonzero(previous[start + 1:stop] >= start)
        if clash.size:
            stop = start + 1 + int(clash[0])
        yield start, stop
        start = stop


def padded_edges(edge_ptr, edge_geo) -> np.ndarray:
    """Knife-edge factors of the paths ``edge_ptr`` spans as an -inf padded (m, e) matrix."""
    counts = np.diff(edge_ptr)
    padded = np.full((len(counts), int(counts.max(initial=0))), -math.inf)
    owner = np.repeat(np.arange(len(counts)), counts)
    column = np.arange(edge_ptr[-1] - edge_ptr[0]) - np.repeat(edge_ptr[:-1] - edge_ptr[0], counts)
    padded[owner, column] = edge_geo[edge_ptr[0]:edge_ptr[-1]]
    return padded


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
    max_paths = max(1, BLOCK_SAMPLES // len(freqs))
    for start, stop in _row_distinct_blocks(row_idx, max_paths):
        amp = path_amplitude(gains[start:stop], lengths[start:stop],
                             padded_edges(edge_ptr[start:stop + 1], edge_geo), lam, sqrt_lam)
        term = sweep_phasors(wavenumber[start:stop], freqs)
        np.multiply(amp, term.real, out=term.real)
        np.multiply(amp, term.imag, out=term.imag)
        out[row_idx[start:stop]] += term
    return out
