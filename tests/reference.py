"""Reference oracles: direct forms of quantities no command computes on its own.

``nfclab run`` scores the multiplanar model from real phases and amplitudes,
takes the AoD from the gated taps it already has, builds every window
correlation from one stacked band, evaluates the element geometry and the
closed-form phase model over whole arrays, computes the per-element power,
PDP and delay spread over the whole ``(N, F)`` array, and builds both
stationary partitions through one fold.  The tests check those fast paths
against the plain forms below, and the closed form against
``exact_relative_phase``, its distance-based ground truth.
"""

import math

import numpy as np

from nfclab import _kernels
from nfclab.analysis import _pair_aod, gated_los_rows
from nfclab.constants import C_M_PER_S
from nfclab.multiplanar import TWO_PI
from nfclab.scene import element_positions
from nfclab.stationarity import StationarityError, _cmd, _window_correlations
from nfclab.synth import ChannelFrequencyResponse, path_table
from nfclab.wavefront import EPS_ANGLE


def element_geometry(scene, target):
    """Per-element ``(r, theta)`` from 1-D ``np.linalg.norm``, ``np.dot`` and ``math.acos``.

    One element at a time, as the per-element geometry computed it before
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


def exact_relative_phase(scene, target, frequency):
    """Ground-truth relative phase of every element from exact path lengths.

    ``2*pi*f*(r_n - r_1)/c`` from the Euclidean distances to the element
    positions, with no angle in between: the independent check for the
    closed-form model, which must agree for every geometry because the
    closed form is an exact triangle identity.
    """
    r = np.linalg.norm(np.asarray(target, dtype=float) - element_positions(scene), axis=1)
    if r.min() < 1e-12:
        raise ValueError("target coincides with an array element")
    return TWO_PI * frequency * (r - r[0]) / C_M_PER_S


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
    return ChannelFrequencyResponse(values=out, sweep=scene.sweep)


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
    return ChannelFrequencyResponse(values=out, sweep=scene.sweep)


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


# ---------------------------------------------------------------------------
# Per-element statistics, one row at a time
# ---------------------------------------------------------------------------

def pdp_rows(cfr):
    """``(N, F)`` Hann-window PDPs, one ``n * |ifft(row * w)|^2`` per row.

    The ``compute_pdp`` expression applied row by row, with the unit-mean
    Hann window written out.
    """
    n = cfr.sweep.n_points
    w = np.hanning(n)
    w = w / w.mean()
    return np.stack([n * np.abs(np.fft.ifft(row * w)) ** 2 for row in cfr.values])


def received_power(row):
    """The row branch of the removed ``received_power``, verbatim: ``10*log10(sum|H|^2 / n)`` in dB."""
    row = np.asarray(row)
    total = float(np.sum(np.abs(row) ** 2))
    n = row.size
    if total <= 0.0:
        return -math.inf
    return 10.0 * math.log10(total / n)


def rms_delay_spread(powers, bin_width, threshold_db=20.0):
    """The scalar delay spread of one profile that ``rms_delay_spread`` replaced, verbatim apart from its arguments.

    An all-zero profile raises ``ValueError``.
    """
    p = powers
    peak = float(p.max(initial=0.0))
    if peak <= 0.0:
        raise ValueError("all-noise profile: no bin above the threshold")
    keep = p >= peak * 10.0 ** (-threshold_db / 10.0)
    weights = np.where(keep, p, 0.0)
    total = float(weights.sum())
    tau = np.arange(len(p)) * bin_width
    mean = float((weights * tau).sum()) / total
    second = float((weights * tau * tau).sum()) / total
    return math.sqrt(max(second - mean * mean, 0.0))


# ---------------------------------------------------------------------------
# Stationary partitions: the per-criterion interval folds
# ---------------------------------------------------------------------------
#
# Each returns ``(intervals, boundary_scores, warnings)`` as plain tuples.

WINDOW_M = 4  # stationarity.DEFAULT_WINDOW_M
SMOOTHING_W = 5  # stationarity.DEFAULT_SMOOTHING_W
SLOPE_THRESHOLD_DB = 0.5  # stationarity.DEFAULT_SLOPE_THRESHOLD_DB


def merge_short_intervals(intervals, scores, min_si):
    """Fold intervals shorter than min_si into a neighbor (following first)."""
    i = 0
    while i < len(intervals):
        start, end = intervals[i]
        if end - start + 1 >= min_si or len(intervals) == 1:
            i += 1
            continue
        if i + 1 < len(intervals):
            intervals[i + 1][0] = start
            del intervals[i]
            del scores[i]
        else:
            intervals[i - 1][1] = end
            del intervals[i]
            del scores[i - 1]
    return intervals, scores


def partition_by_cmd(cfr, m, tau):
    """The reference-anchored scan and fold of ``partition_by_cmd``, verbatim.

    The window correlations and distances come from the package's
    ``_window_correlations`` and ``_cmd``, which ``tests/test_cmd_gram.py``
    checks against the per-pair loops; the scan and the fold are copied.
    """
    n = cfr.n_elements
    if n < 2 * m:
        return ((1, n),), (), (f"array of {n} elements shorter than two windows of {m}",)
    if not np.any(np.abs(cfr.values) > 0):
        return ((1, n),), (), ("all-zero response",)

    stack = _window_correlations(cfr.values, m)
    boundaries = []
    scores = []
    si_start = 1
    while si_start < len(stack):
        row = _cmd(stack[si_start - 1:si_start], stack[si_start:])[0]
        tripped = np.flatnonzero(row > tau)
        if tripped.size == 0:
            break
        si_start += 1 + int(tripped[0])
        boundaries.append(si_start)
        scores.append(float(row[tripped[0]]))

    edges = [1] + boundaries + [n + 1]
    intervals = [[edges[i], edges[i + 1] - 1] for i in range(len(edges) - 1)]
    intervals, scores = merge_short_intervals(intervals, scores, m)
    return tuple((s, e) for s, e in intervals), tuple(scores), ()


def characteristic_slope(s, w=SMOOTHING_W):
    """``stationarity.characteristic_slope``, verbatim without its argument checks."""
    s = np.asarray(s, dtype=float)
    n = s.shape[0]
    half = w // 2
    padded = np.concatenate([np.zeros(1), np.cumsum(s)])
    lo = np.maximum(np.arange(n) - half, 0)
    hi = np.minimum(np.arange(n) + half + 1, n)
    smoothed = (padded[hi] - padded[lo]) / (hi - lo)
    k = np.empty(n)
    k[1:-1] = 0.5 * (smoothed[2:] - smoothed[:-2])
    k[0] = smoothed[1] - smoothed[0]
    k[-1] = smoothed[-1] - smoothed[-2]
    return k


def slope_boundaries(k, threshold):
    """Boundaries at the steepest point of every run of >= 2 hot elements."""
    hot = np.abs(k) > threshold
    boundaries = []
    scores = []
    n = len(k)
    i = 0
    while i < n:
        if not hot[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and hot[j + 1]:
            j += 1
        if j - i + 1 >= 2:
            run = np.abs(k[i:j + 1])
            peak = run.max()
            peak_positions = np.flatnonzero(run >= peak - 1e-12) + i
            split = int(round(float(np.median(peak_positions)))) + 1  # 1-based
            if split > 1:
                boundaries.append(split)
                scores.append(float(peak))
        i = j + 1
    return boundaries, scores


def uniform_power_splits(power_db, start, end, gamma_db):
    """Left-scan split points keeping max-min power within gamma per piece."""
    splits = []
    lo = hi = power_db[start - 1]
    for el in range(start + 1, end + 1):
        p = power_db[el - 1]
        lo, hi = min(lo, p), max(hi, p)
        if hi - lo > gamma_db:
            splits.append(el)
            lo = hi = p
    return splits


def partition_by_slope(power_db, gamma_db):
    """``partition_by_slope`` in the form that re-splits each slope interval for uniform power.

    Verbatim apart from taking the power array in place of the statistics.
    """
    values = np.asarray(power_db, dtype=float)
    n = len(values)
    if n < 3:
        return ((1, n),), (), (f"array of {n} elements too short for a slope",)

    k = characteristic_slope(values)
    boundaries, scores = slope_boundaries(k, SLOPE_THRESHOLD_DB)

    edges = [1] + boundaries + [n + 1]
    intervals = [[edges[i], edges[i + 1] - 1] for i in range(len(edges) - 1)]

    refined = []
    refined_scores = []
    for idx, (start, end) in enumerate(intervals):
        splits = uniform_power_splits(values, start, end, gamma_db)
        pieces = [start] + splits + [end + 1]
        for j in range(len(pieces) - 1):
            refined.append([pieces[j], pieces[j + 1] - 1])
            if j < len(pieces) - 2:
                refined_scores.append(float("nan"))  # uniform-power split
        if idx < len(intervals) - 1:
            refined_scores.append(scores[idx])

    refined, refined_scores = merge_short_intervals(refined, refined_scores, WINDOW_M)
    return tuple((s, e) for s, e in refined), tuple(refined_scores), ()
