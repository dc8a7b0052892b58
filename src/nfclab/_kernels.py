"""Hot numeric kernel for channel synthesis: the path-sum accumulation.

The kernel sums, for every propagation path, its complex contribution over
all sweep frequencies, including the per-frequency free-space amplitude and
knife-edge losses.  It is plain numpy, vectorized over frequency, and visits
the paths sequentially in table order, so the result is deterministic.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import C_M_PER_S, KNIFE_EDGE_NU_MIN


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


def path_amplitude(gain, length, edge_geo, lam, sqrt_lam) -> np.ndarray:
    """``gain * lambda/(4 pi L) * 10^(-J/20)`` per frequency, J summed over the edges."""
    loss_db = np.zeros_like(lam)
    for geo in edge_geo:
        loss_db += knife_edge_loss(geo / sqrt_lam)
    return gain * lam / (4.0 * math.pi * length) * 10.0 ** (-loss_db / 20.0)


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
    for p in range(lengths.shape[0]):
        amp = path_amplitude(gains[p], lengths[p], edge_geo[edge_ptr[p]:edge_ptr[p + 1]],
                             lam, sqrt_lam)
        phase = -2.0 * math.pi * freqs * lengths[p] / C_M_PER_S
        out[row_idx[p]] += amp * (np.cos(phase) + 1j * np.sin(phase))
    return out
