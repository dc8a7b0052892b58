"""Reference oracles: direct forms of quantities no command computes on its own.

``nfclab run`` scores the multiplanar model from real phases and amplitudes,
takes the AoD from the gated taps it already has, and builds every window
correlation from one stacked band.  The tests check those fast paths against
the plain forms below.
"""

import numpy as np

from nfclab import _kernels
from nfclab.analysis import _pair_aod, gated_los_rows
from nfclab.constants import C_M_PER_S
from nfclab.multiplanar import TWO_PI, _planar_lengths
from nfclab.stationarity import StationarityError, _window_correlations
from nfclab.synth import make_cfr, path_table


def synthesize_los_cfr(scene):
    """LOS-only spherical-truth response: the path-sum kernel over the table's rows ``[:N]``."""
    table = path_table(scene)
    n = scene.array.n_elements
    freqs = scene.sweep.frequencies()
    out = np.zeros((n, len(freqs)), dtype=np.complex128)
    _kernels.accumulate_paths(out, table.row[:n], table.length[:n], table.gain[:n],
                              table.edge_ptr[:n + 1], table.edge_geo, freqs)
    return make_cfr(out, scene.sweep)


def synthesize_multiplanar_cfr(patches, scene):
    """Planar reconstruction: H(n,f) = gain_ref(f) e^{-j2pi f (r_ref - dx cos(theta_si))/c}.

    At the reference itself the reconstruction equals the reference LOS
    response exactly.
    """
    lengths = _planar_lengths(patches, scene)
    freqs = scene.sweep.frequencies()
    out = np.empty((len(lengths), len(freqs)), dtype=np.complex128)
    for patch in patches:
        start, end = patch.interval
        for n in range(start, end + 1):
            out[n - 1] = patch.gain_ref * np.exp(-1j * TWO_PI * freqs * lengths[n - 1] / C_M_PER_S)
    return make_cfr(out, scene.sweep)


def estimate_aod(cfr, scene):
    """Azimuth angle of departure per element from adjacent-pair LOS phases.

    See ``analysis._pair_aod``.  Returns (theta_rad, valid); the end elements
    belong to one pair each.
    """
    taps, valid = gated_los_rows(cfr, scene)
    return _pair_aod(cfr, taps, valid, scene.array.spacing_d)


def correlation_matrix(cfr, window):
    """Frequency-averaged outer-product correlation over an element window.

    ``R = (1/n_points) * sum_f h_f h_f^H`` with ``h_f`` the window's element
    responses at frequency f; Hermitian positive semidefinite by
    construction.
    """
    start, end = window
    if start < 1 or end > cfr.n_elements:
        raise StationarityError(f"window {window} outside 1..{cfr.n_elements}")
    return _window_correlations(cfr.values[start - 1:end], end - start + 1)[0]
