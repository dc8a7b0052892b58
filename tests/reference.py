"""Reference oracles: direct forms of quantities no command computes on its own.

``nfclab run`` scores the multiplanar model from real phases and amplitudes
over row blocks, takes the AoD from the gated taps it already has, builds
every window correlation from one stacked band, evaluates the element
geometry and the closed-form phase model over whole arrays, computes the
per-element power, PDP and delay spread over row blocks, draws the noise
block by block, builds both stationary partitions through one fold, and
writes ``repr`` text for whole arrays at once; both commands feed the
response's row blocks to every consumer as the kernel makes them, so
neither holds an ``(N, F)`` array.  The tests check those fast paths against
the plain forms below (``held_cmd_run`` is ``run`` as it held the response,
the PDP and the LOS truth), and the closed form against
``exact_relative_phase``, its distance-based ground truth.  A held array
reaches the streamed entry points through ``synth.array_blocks``
(``window_stack`` and ``cmd_map`` below).
"""

import math

import numpy as np

from collections import namedtuple

from nfclab import _kernels, analysis, cli, multiplanar, stationarity, synth, wavefront
from nfclab.analysis import _hann, _pair_aod, _unwrapped_phase
from nfclab.constants import C_M_PER_S, KNIFE_EDGE_NU_MIN
from nfclab.multiplanar import FULL_BLOCKAGE_DB, TWO_PI, MultiplanarError
from nfclab.stationarity import StationarityError, distance_rows
from nfclab.synth import array_blocks, element_positions, noise_sigma, path_table
from nfclab.wavefront import EPS_ANGLE


def element_geometry(scene, target):
    """Per-element ``(r, theta)`` from 1-D ``np.linalg.norm``, ``np.dot`` and ``math.acos``.

    One element at a time, as the per-element geometry computed it before
    ``synth.element_geometry`` took over.
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


def coincidence_distances(scene):
    """The distances ``Scene.validate``'s coincidence rule compared with 1e-9 m, from the (N + 1)-row array it built.

    Every element position and rx are stacked into one array: rx's distance
    to its nearest element, then each point scatterer's distance to its
    nearest row, each the minimum of the row norms ``synth._norm``.
    """
    ends = np.vstack([element_positions(scene), scene.rx])
    return [float(synth._norm(ends[-1] - ends[:-1]).min())] + [
        float(synth._norm(np.asarray(s.position, dtype=float) - ends).min()) for s in scene.point_scatterers]


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
    with np.errstate(over="ignore"):  # near 0 Hz the wavelength is inf, as in _kernels.wavelengths
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


def path_sum(n_rows, row_idx, lengths, gains, edge_ptr, edge_geo, freqs):
    """The kernel's row blocks, written into one ``(n_rows, n_freqs)`` complex array."""
    out = np.empty((n_rows, len(freqs)), dtype=np.complex128)
    for start, stop, block in _kernels.accumulate_paths(n_rows, row_idx, lengths, gains, edge_ptr, edge_geo, freqs):
        out[start:stop] = block
    return out


def response(scene, table):
    """The scene's whole ``(N, F)`` response: ``path_sum`` of ``table = path_table(scene)`` plus ``complex_noise``.

    Raises ValueError unless every value is finite.
    """
    values = path_sum(scene.array.n_elements, *table, scene.sweep.frequencies())
    if scene.noise_floor_dbm is not None:
        values += complex_noise(values.shape, scene.noise_floor_dbm, scene.seed)
    synth._check_finite(values)
    return values


def synthesize_los_cfr(scene):
    """LOS-only spherical-truth response: the path-sum kernel over the table's rows ``[:N]``."""
    table = path_table(scene)
    n = scene.array.n_elements
    return path_sum(n, table.row[:n], table.length[:n], table.gain[:n], table.edge_ptr[:n + 1],
                    table.edge_geo, scene.sweep.frequencies())


def knife_edge_db(edge_geo, sqrt_lam):
    """J of one path at one wavelength: the single-knife-edge losses of its factors ``edge_geo``, summed in order.

    The loss formula written out, one edge at a time:
    ``6.9 + 20 log10(sqrt((nu - 0.1)^2 + 1) + nu - 0.1)`` at ``nu = geo / sqrt_lam``,
    for nu > -0.78, else 0.
    """
    loss_db = 0.0
    for geo in edge_geo:
        nu = geo / sqrt_lam
        if nu > KNIFE_EDGE_NU_MIN:
            t = nu - 0.1
            loss_db += 6.9 + 20.0 * math.log10(math.sqrt(t * t + 1.0) + t)
    return loss_db


def blockage_db(scene, table):
    """J of every path of ``table`` at the band-mean wavelength, from the shared sum ``_kernels.knife_edge_db``.

    A path without edges has 0 dB.
    """
    edged, loss_db = _kernels.knife_edge_db(table.edge_ptr, table.edge_geo, np.sqrt([scene.sweep.lambda_center]))
    total = np.zeros(len(table.length))
    total[edged] = loss_db[:, 0]
    return total


LosTruth = namedtuple("LosTruth", "length theta amp usable")


def los_truth(scene, table):
    """The LOS truth held: direct-path lengths, axis angles, ``(N, F)`` amplitudes and usability.

    One direct path, rows ``[:N]`` of ``table = path_table(scene)``, at a time
    in scalar arithmetic: the amplitude ``g/(4 pi L)``, times ``10^(-J/20)``
    at each wavelength where the path has edges, times the wavelength, and
    ``usable`` where J (``knife_edge_db``) at the band-mean wavelength is at
    most ``FULL_BLOCKAGE_DB``.  A row without edges is its one rounded
    product ``g/(4 pi L) * lambda`` per sample.
    """
    n = scene.array.n_elements
    lam = (C_M_PER_S / scene.sweep.frequencies()).tolist()
    sqrt_lam_center = math.sqrt(scene.sweep.lambda_center)
    amp = np.empty((n, len(lam)))
    usable = np.empty(n, dtype=bool)
    for row in range(n):
        geos = table.edge_geo[table.edge_ptr[row]:table.edge_ptr[row + 1]].tolist()
        base = float(table.gain[row]) / (4.0 * math.pi * float(table.length[row]))
        if geos:
            amp[row] = [base * 10.0 ** (-knife_edge_db(geos, math.sqrt(x)) / 20.0) * x for x in lam]
        else:
            amp[row] = [base * x for x in lam]
        usable[row] = knife_edge_db(geos, sqrt_lam_center) <= FULL_BLOCKAGE_DB
    return LosTruth(length=table.length[:n], theta=synth.element_geometry(scene, scene.rx)[1], amp=amp,
                    usable=usable)


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
    return out


def _multiplanar_terms(scene, truth, ref):
    """``(gain, weight, delay)`` of the multiplanar error: ``g = A[ref - 1]``, ``w = A g`` and ``(l_n - r_n) / c``."""
    n_el = scene.array.n_elements
    row = ref - 1
    cos = np.array([math.cos(theta) for theta in truth.theta.tolist()])
    planar = truth.length[row] - (np.arange(1, n_el + 1) - ref) * scene.array.spacing_d * cos[row]
    gain = truth.amp[row]
    return gain, truth.amp * gain, (truth.length - planar) / C_M_PER_S


def multiplanar_error(scene, truth, ref):
    """The whole-array multiplanar error of ``truth = los_truth(scene, table)`` that ``multiplanar_errors`` blocks.

    Its correlation sums run as whole-array ``einsum`` reductions, so they
    round differently from the blocked form's per-row sums; the phase error
    is the same element-wise expression.
    """
    freqs = scene.sweep.frequencies()
    amp = truth.amp
    gain, weight, delay = _multiplanar_terms(scene, truth, ref)

    denom = math.sqrt(np.einsum("ij,ij->", gain, gain)) * math.sqrt(np.einsum("ij,ij->", amp, amp))
    corr = 0.0
    if denom > 0:
        phasor = _kernels.sweep_phasors(-TWO_PI * delay, _kernels.phasor_grid(freqs))
        corr = math.hypot(np.einsum("ij,ij->", weight, phasor.real),
                          np.einsum("ij,ij->", weight, phasor.imag)) / denom

    phase = np.multiply.outer(delay, -TWO_PI * freqs)
    turns = np.divide(phase, TWO_PI)
    np.rint(turns, out=turns)
    turns *= TWO_PI
    phase -= turns
    np.copyto(phase, 0.0, where=weight == 0.0)
    mean_square = np.einsum("ij,ij->i", phase, phase) / len(freqs)
    return MultiplanarError(phase_rmse=math.sqrt(float(np.mean(mean_square))),
                            complex_correlation=min(corr, 1.0),
                            per_element_phase_dev=np.sqrt(mean_square))


def fsum_correlation(scene, truth, ref):
    """The multiplanar error's correlation with every sum exactly rounded (``math.fsum``).

    The summands are the element-wise products both forms reduce: the
    weights ``A_n g_n`` times the ``sweep_phasors`` phasors, and ``A_n^2`` and
    ``g_n^2``.
    """
    amp = truth.amp
    gain, weight, delay = _multiplanar_terms(scene, truth, ref)
    denom = (math.sqrt(math.fsum((gain * gain).ravel().tolist()))
             * math.sqrt(math.fsum((amp * amp).ravel().tolist())))
    if not denom > 0:
        return 0.0
    phasor = _kernels.sweep_phasors(-TWO_PI * delay, _kernels.phasor_grid(scene.sweep.frequencies()))
    return min(1.0, math.hypot(math.fsum((weight * phasor.real).ravel().tolist()),
                               math.fsum((weight * phasor.imag).ravel().tolist())) / denom)


def complex_noise(shape, noise_floor_dbm, seed):
    """The whole-array draw of the noise stream that ``synth.response_blocks`` adds block by block.

    One ``standard_normal`` call over (element, frequency, re/im), viewed as
    complex and scaled.
    """
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    noise = rng.standard_normal(size=(*shape, 2)).view(np.complex128)[..., 0]
    noise *= noise_sigma(noise_floor_dbm) / math.sqrt(2.0)
    return noise


def gated_los_rows(values, scene, table):
    """The LOS gate of a held response that transformed the whole gated spectrum back.

    Returns ``(rows, taps, valid, kept_taps)``: the forward FFT of each gated
    spectrum, its center-frequency sample, whether the gate's energy is above
    10x the expected in-gate noise, and the five-bin sum of that sample
    that the streamed gate computes.
    """
    n = scene.sweep.n_points
    freqs = scene.sweep.frequencies()
    center = (n - 1) // 2
    taper = _hann(n)
    spectra = np.fft.ifft(values * (taper * freqs / freqs[center])[None, :], axis=1)

    # the geometric LOS bin on the IDFT grid, whose delays alias modulo (n - 1) / B
    k0 = (np.rint(table.length[:len(values)] / C_M_PER_S * (scene.sweep.bandwidth * n / (n - 1))) % n)
    offsets = np.arange(-analysis.LOS_GATE_HALF_WIDTH, analysis.LOS_GATE_HALF_WIDTH + 1)
    every = np.arange(len(values))[:, None]
    idx = (k0.astype(int)[:, None] + offsets) % n
    kept = spectra[every, idx]
    gated_spectra = np.zeros_like(spectra)
    gated_spectra[every, idx] = kept
    gate_power = np.sum(np.abs(kept) ** 2, axis=1) * n

    rows = np.fft.fft(gated_spectra, axis=1)
    kept_taps = np.sum(kept * np.exp(-2j * math.pi * ((idx * center) % n) / n), axis=1)
    if scene.noise_floor_dbm is not None:
        # Windowing scales the in-gate noise by mean(w^2) (w has unit mean).
        noise_in_gate = (noise_sigma(scene.noise_floor_dbm) ** 2 * len(offsets)
                         * float(np.mean(taper ** 2)))
        valid = gate_power > 10.0 * noise_in_gate
    else:
        valid = gate_power > 0.0
    return rows, rows[:, center], valid, kept_taps


def held_los_phase(scene, table):
    """The LOS phase of the whole held ``response``: ``gated_los_rows``' five-bin taps, unwrapped.

    ``phase-check`` computed it so before it gated the response's row blocks
    as the kernel made them; it raises what ``phase-check`` reports.
    """
    _, _, valid, taps = gated_los_rows(response(scene, table), scene, table)
    return _unwrapped_phase(taps, valid, scene), valid


def held_cmd_run(args):
    """``cli.cmd_run`` as it held the response, the PDP and the LOS truth, one stage after another.

    The response (``response``) and the PDP (``pdp_rows``) are this
    module's whole-array oracles.  The statistics, the window correlations
    and the multiplanar errors, one call per partition, take the held
    response through ``synth.array_blocks``, and the files are staged only
    once the analysis is done; ``pdp.csv`` is written by ``export_pdp_csv``.  It prints
    and writes what ``cmd_run`` does, so it is the byte oracle of the
    streamed pass.
    """
    scene, out_dir = cli._run_setup(args)
    table = synth.path_table(scene)
    values = response(scene, table)
    stats = analysis.streamed_stats(array_blocks(values), scene, table)
    pdp = pdp_rows(values)
    stack = window_stack(values, args.window)
    partitions = cli._partitions(args, stack, stats)
    geometry = multiplanar.los_geometry(scene, table)
    n = scene.array.n_elements
    named = [(f"dyadic_2^{k}", stationarity.uniform_partition(n, min(2 ** k, n)))
             for k in range(cli.DYADIC_MAX_K + 1)] + [(part.criterion, part) for part in partitions]
    mw_table = []
    for name, part in named:
        [err] = multiplanar.multiplanar_errors(scene, table, geometry,
                                               [multiplanar.build_multiplanar_model(geometry, part)])
        mw_table.append((name, part.n_intervals, err.phase_rmse, err.complex_correlation))
    fc = scene.sweep.frequencies()[scene.sweep.center_index]
    model = wavefront.model_phases(geometry.theta, scene.array.spacing_d, C_M_PER_S / fc)
    with cli._staged(out_dir, cli.RUN_FILES) as files:
        with synth.cfr_csv(files["cfr.csv"], scene.sweep, n) as grid:
            for start, stop, rows in array_blocks(values):
                grid.add(start, stop, rows)
        export_pdp_csv(pdp, files["pdp.csv"], scene.sweep.bandwidth)
        lines = cli._write_run(args, scene, files, stats, partitions, stack, mw_table, model)
    print(f"report: {out_dir / 'report.txt'}")
    for line in lines:
        print(line)
    return cli.EXIT_OK


def estimate_aod(values, scene):
    """Azimuth angle of departure per element from adjacent-pair LOS phases.

    ``analysis._pair_aod`` of ``gated_los_rows``' five-bin taps.  Returns
    (theta_rad, valid); the end elements belong to one pair each.  The gate
    sits on the LOS delays of ``path_table(scene)``.
    """
    _, _, valid, taps = gated_los_rows(values, scene, path_table(scene))
    return _pair_aod(scene.sweep, taps, valid, scene.array.spacing_d)


def correlation_matrix(values, window):
    """Frequency-averaged outer-product correlation over an element window.

    ``R = (1/n_points) * sum_f h_f h_f^H`` with ``h_f`` the window's element
    responses at frequency f, one matrix product; Hermitian positive
    semidefinite up to rounding.
    """
    start, end = window
    if end - start < 1:
        raise StationarityError(f"window must span >= 2 elements, got {window}")
    if start < 1 or end > len(values):
        raise StationarityError(f"window {window} outside 1..{len(values)}")
    x = values[start - 1:end]
    return (x @ x.conj().T) / x.shape[1]


# ---------------------------------------------------------------------------
# Held arrays through the streamed entry points
# ---------------------------------------------------------------------------

def window_stack(values, m):
    """``(n - m + 1, m, m)`` window correlations of a held ``(n, F)`` array: ``WindowBands`` fed its ``array_blocks``."""
    bands = stationarity.WindowBands(*values.shape, m)
    for start, stop, rows in array_blocks(values):
        bands.add(start, stop, rows)
    return bands.correlations()


def cmd_map(values, m=stationarity.DEFAULT_WINDOW_M):
    """The CMD map that ``run`` writes for a held response, whole: 0 x 0 for an array shorter than one window."""
    stack = window_stack(values, m)
    return distance_rows(stack, 0, len(stack))


# ---------------------------------------------------------------------------
# Per-element statistics, one row at a time
# ---------------------------------------------------------------------------

def pdp_rows(values):
    """``(N, F)`` Hann-window PDPs of a held response, one ``n * |ifft(row * w)|^2`` per row.

    The PDP expression applied row by row, with the unit-mean Hann window
    written out.
    """
    n = values.shape[1]
    w = np.hanning(n)
    w = w / w.mean()
    return np.stack([n * np.abs(np.fft.ifft(row * w)) ** 2 for row in values])


def received_power(row):
    """The row branch of the removed ``received_power``, verbatim: ``10*log10(sum|H|^2 / n)`` in dB."""
    row = np.asarray(row)
    total = float(np.sum(np.abs(row) ** 2))
    n = row.size
    if total <= 0.0:
        return -math.inf
    return 10.0 * math.log10(total / n)


def rms_delay_spread(powers, bin_width, threshold_db=20.0):
    """The scalar delay spread of one profile that the per-block ``analysis._Spread`` replaced, verbatim apart from its arguments.

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


def partition_by_cmd(values, m, tau):
    """The reference-anchored scan and fold of ``partition_by_cmd``, read from the whole ``cmd_map``.

    The window correlations and distances come from the package's
    ``WindowBands`` and ``distance_rows``, which ``tests/test_cmd_gram.py``
    checks against the per-pair loops.  Each anchor's distance row is read
    here from the map made in one call, not made row by row, so the
    package's per-anchor rows are checked from outside; the fold is copied.
    """
    n = len(values)
    if n < 2 * m:
        return ((1, n),), (), (f"array of {n} elements shorter than two windows of {m}",)

    dmap = cmd_map(values, m)
    boundaries = []
    scores = []
    si_start = 1
    while si_start < len(dmap):
        row = dmap[si_start - 1, si_start:]
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


# ---------------------------------------------------------------------------
# pdp.csv as the str-cell exporter wrote it: np.log10 per row, then repr
# ---------------------------------------------------------------------------

def _floats(values):
    return list(map(repr, np.asarray(values, dtype=float).tolist()))


def _strs(values):
    return list(map(str, values))


def _block(columns):
    """Rows of comma-joined cells; a column of another length raises ValueError."""
    k, n = len(columns), len(columns[0])
    parts = [","] * (2 * k * n)
    for c, column in enumerate(columns):
        parts[2 * c::2 * k] = column
    parts[2 * k - 1::2 * k] = ["\r\n"] * n
    return "".join(parts)


def _write_csv(path, header, blocks):
    """Write ``header``, then each block (a tuple of cell columns) in turn."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for columns in blocks:
            fh.write(_block(columns))


def export_pdp_csv(pdp, path, bandwidth_hz):
    """The ``str``-cell ``export_pdp_csv``, verbatim: the byte oracle of ``pdp.csv``.

    Rows (element, bin, delay_ns, power_db) of an ``(N, F)`` PDP array,
    elements 1..N.  Each row's ``10*log10`` is taken as that row is written.
    """
    n_bins = pdp.shape[1]
    bins = _strs(range(n_bins))  # bin and delay cells, formatted once per file
    delay_ns = _floats(np.arange(n_bins) * (1.0 / bandwidth_hz) * 1e9)
    with np.errstate(divide="ignore"):  # an empty bin is -inf dB
        _write_csv(path, ("element", "bin", "delay_ns", "power_db"),
                   (([str(el)] * n_bins, bins, delay_ns, _floats(10.0 * np.log10(row)))
                    for el, row in enumerate(pdp, start=1)))
