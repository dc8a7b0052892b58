"""Reference oracles: direct forms of quantities no command computes on its own.

``nfclab run`` scores the multiplanar model from real phases and amplitudes,
takes the AoD from the gated taps it already has, builds every window
correlation from one stacked band, and evaluates the element geometry and
the closed-form phase model over whole arrays.  The tests check those fast
paths against the plain forms below.
"""

import math

import numpy as np

from nfclab import _kernels
from nfclab.analysis import _pair_aod, gated_los_rows
from nfclab.constants import C_M_PER_S
from nfclab.multiplanar import TWO_PI
from nfclab.stationarity import StationarityError, _window_correlations
from nfclab.synth import make_cfr, path_table
from nfclab.wavefront import EPS_ANGLE


def element_geometry(scene, target):
    """Per-element ``(r, theta)`` from 1-D ``np.linalg.norm``, ``np.dot`` and ``math.acos``.

    One element at a time, as ``true_geometry`` computed it before
    ``scene.element_geometry`` took over.
    """
    arr = scene.array
    origin = np.asarray(arr.origin, dtype=float)
    axis = np.asarray(arr.axis, dtype=float)
    t = np.asarray(target, dtype=float)
    r = np.empty(arr.n_elements)
    theta = np.empty(arr.n_elements)
    for n in range(1, arr.n_elements + 1):
        v = t - (origin + (n - 1) * arr.spacing_d * axis)
        r[n - 1] = float(np.linalg.norm(v))
        theta[n - 1] = math.acos(min(1.0, max(-1.0, float(np.dot(axis, v)) / r[n - 1])))
    return r, theta


def model_phases(scene, target, frequency):
    """The per-element closed-form loop ``wavefront.model_phases`` replaced.

    Scalar geometry (``element_geometry`` above) and the scalar half-angle
    form with ``math.cos``, one element at a time.
    """
    wavelength = C_M_PER_S / frequency
    _, theta = element_geometry(scene, target)
    theta_1 = theta[0]
    out = np.empty(scene.array.n_elements)
    for n in range(1, scene.array.n_elements + 1):
        theta_n = theta[n - 1]
        scale = (n - 1) * scene.array.spacing_d
        delta = theta_n - theta_1
        if scale == 0.0:
            diff = 0.0
        elif abs(delta) < EPS_ANGLE:
            diff = -scale * math.cos(theta_1)
        else:
            diff = -scale * math.cos(0.5 * (theta_1 + theta_n)) / math.cos(0.5 * delta)
        out[n - 1] = TWO_PI / wavelength * diff
    return out


def synthesize_los_cfr(scene):
    """LOS-only spherical-truth response: the path-sum kernel over the table's rows ``[:N]``."""
    table = path_table(scene)
    n = scene.array.n_elements
    freqs = scene.sweep.frequencies()
    out = np.zeros((n, len(freqs)), dtype=np.complex128)
    _kernels.accumulate_paths(out, table.row[:n], table.length[:n], table.gain[:n],
                              table.edge_ptr[:n + 1], table.edge_geo, freqs)
    return make_cfr(out, scene.sweep)


def synthesize_multiplanar_cfr(ref, truth, scene):
    """Planar reconstruction H(n,f) = A_ref(f) e^{-j2pi f r_n/c}, one element at a time.

    ``ref`` is ``build_multiplanar_model(truth, partition)``; element n's
    planar length is ``r_n = l_ref - (n - ref) d cos(theta_ref)`` with the
    reference's ``truth.length`` and ``truth.theta``.  At the reference itself
    the reconstruction equals the LOS truth exactly.
    """
    freqs = scene.sweep.frequencies()
    out = np.empty((scene.array.n_elements, len(freqs)), dtype=np.complex128)
    for n in range(1, scene.array.n_elements + 1):
        r = int(ref[n - 1])
        length = (float(truth.length[r - 1])
                  - (n - r) * scene.array.spacing_d * math.cos(float(truth.theta[r - 1])))
        out[n - 1] = truth.amp[r - 1] * np.exp(-1j * TWO_PI * freqs * length / C_M_PER_S)
    return make_cfr(out, scene.sweep)


def estimate_aod(cfr, scene):
    """Azimuth angle of departure per element from adjacent-pair LOS phases.

    See ``analysis._pair_aod``.  Returns (theta_rad, valid); the end elements
    belong to one pair each.  The gate sits on the LOS delays of
    ``path_table(scene)``.
    """
    taps, valid = gated_los_rows(cfr, scene, path_table(scene))
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
