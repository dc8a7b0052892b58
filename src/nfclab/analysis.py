"""Per-element channel characteristics extracted from a swept response.

Covers power delay profiles, received power, RMS delay spread, the
delay-gated line-of-sight phase, and a phase-difference angle-of-departure
estimate.  Phases follow the path-difference convention used by the
wavefront model: the reported LOS phase grows with path length, so it equals
``(2*pi/lambda)*(r_n - r_1)`` for a clean direct path.

All operations are pure per element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _csvout
from .constants import C_M_PER_S
from .scene import Scene
from .synth import ChannelFrequencyResponse, PathTable, noise_sigma

LOS_GATE_HALF_WIDTH = 2  # delay bins kept on each side of the LOS tap
DEFAULT_DS_THRESHOLD_DB = 20.0


class AnalysisError(ValueError):
    """Raised when a profile carries no usable signal."""


@dataclass(frozen=True)
class ChannelStats:
    """Per-element summary statistics of one swept measurement."""

    power_db: np.ndarray
    pdp: np.ndarray  # (N, F) linear power per delay bin, Hann window
    delay_spread_s: np.ndarray
    los_phase_rad: np.ndarray
    aod_rad: np.ndarray
    tau_los_s: np.ndarray
    los_valid: np.ndarray
    aod_valid: np.ndarray

    @property
    def n_elements(self) -> int:
        return len(self.power_db)


def _window(name: str, n: int) -> np.ndarray:
    if name == "rectangular":
        w = np.ones(n)
    elif name == "hann":
        w = np.hanning(n)
    else:
        raise ValueError(f"unknown window {name!r}; use 'rectangular' or 'hann'")
    if not w.any():  # np.hanning(2) is all zeros
        raise AnalysisError(f"{name} window needs >= 3 sweep points, got {n}")
    return w / w.mean()  # unit coherent gain


def compute_pdp(values: np.ndarray, window: str = "hann") -> np.ndarray:
    """Power delay profile of every ``(..., F)`` swept response along its last axis.

    ``n * |ifft(values * window)|^2``: bin k maps to delay ``k / bandwidth``,
    and the rectangular-window profile satisfies sum(PDP) == sum(|H|^2).
    """
    n = values.shape[-1]
    return n * np.abs(np.fft.ifft(values * _window(window, n), axis=-1)) ** 2


def pdp_matrix(cfr: ChannelFrequencyResponse) -> np.ndarray:
    """``(N, F)`` Hann-window profiles of every row of the response."""
    return compute_pdp(cfr.values)


def received_power_db(cfr: ChannelFrequencyResponse) -> np.ndarray:
    """Per-element mean received power ``10*log10(sum|H|^2 / n_points)`` in dB; -inf for a silent row."""
    mag = np.abs(cfr.values)
    totals = np.square(mag, out=mag).sum(axis=1)
    n = cfr.sweep.n_points
    return np.array([-math.inf if t <= 0.0 else 10.0 * math.log10(t / n) for t in totals.tolist()])


def rms_delay_spread(powers: np.ndarray, bin_width: float,
                     threshold_db: float = DEFAULT_DS_THRESHOLD_DB) -> np.ndarray:
    """RMS delay spread of every ``(..., F)`` profile, in seconds.

    Bins more than ``threshold_db`` (>= 0) below their profile's peak are
    zeroed, then the moments are accumulated in place on one scratch array.
    """
    if not threshold_db >= 0.0:
        raise ValueError(f"threshold_db must be >= 0 dB, got {threshold_db}")
    peak = powers.max(axis=-1, initial=0.0)
    if np.any(peak <= 0.0):
        raise AnalysisError("all-noise profile: no bin above the threshold")
    scratch = np.where(powers >= (peak * 10.0 ** (-threshold_db / 10.0))[..., None], powers, 0.0)
    total = scratch.sum(axis=-1)
    tau = np.arange(powers.shape[-1]) * bin_width
    scratch *= tau
    mean = scratch.sum(axis=-1) / total
    scratch *= tau
    second = scratch.sum(axis=-1) / total
    return np.sqrt(np.maximum(second - mean * mean, 0.0))


# ---------------------------------------------------------------------------
# LOS tap gating
# ---------------------------------------------------------------------------

def _los_bin_indices(cfr: ChannelFrequencyResponse, table: PathTable) -> np.ndarray:
    """Delay-grid bin of the geometric LOS tap per element."""
    n = cfr.sweep.n_points
    # The IDFT grid spacing is 1/(n*df); delays alias modulo (n-1)/B.  The
    # modulo runs on the float bin so a delay beyond int64 casts cleanly.
    scale = cfr.sweep.bandwidth * n / (n - 1)
    return (np.rint(table.length[:cfr.n_elements] / C_M_PER_S * scale) % n).astype(int)


def gated_los_rows(cfr: ChannelFrequencyResponse, scene: Scene,
                   table: PathTable) -> tuple[np.ndarray, np.ndarray]:
    """Delay-gated LOS tap of every row at the center frequency, plus validity.

    The row is equalized by f/f_c (flattening the free-space 1/f amplitude),
    where f_c = ``frequencies()[center_index]`` is the grid-centre frequency,
    not the band mean ``f_center``; it is then shaped by a symmetric Hann
    window (suppressing leakage from other taps), transformed to the delay
    domain and zeroed outside +-LOS_GATE_HALF_WIDTH bins around the LOS delay
    ``length[n - 1] / c`` of ``table = path_table(scene)``.  Returns
    ``(center_taps, valid)``: ``center_taps`` is the forward DFT of the gated
    spectrum at the center-frequency grid point, summed over the kept bins
    only, and ``valid`` flags gate energy above the expected noise level.

    For a single path the extracted center-frequency phase is exact: the
    equalized amplitude is constant and any real window symmetric about the
    center sample turns every retained delay bin into the same unit phasor
    times a real coefficient.
    """
    values = cfr.values
    n = cfr.sweep.n_points
    freqs = cfr.sweep.frequencies()
    center = cfr.sweep.center_index
    taper = _window("hann", n)
    equalized = values * (taper * freqs / freqs[center])[None, :]
    spectra = np.fft.ifft(equalized, axis=1)

    k0 = _los_bin_indices(cfr, table)
    offsets = np.arange(-LOS_GATE_HALF_WIDTH, LOS_GATE_HALF_WIDTH + 1)
    idx = (k0[:, None] + offsets) % n
    kept = spectra[np.arange(cfr.n_elements)[:, None], idx]
    gate_power = np.sum(np.abs(kept) ** 2, axis=1) * n
    # DFT twiddle of bin k at sample `center`, its exponent reduced mod n exactly
    taps = np.sum(kept * np.exp(-2j * math.pi * ((idx * center) % n) / n), axis=1)

    if scene.noise_floor_dbm is not None:
        # Windowing scales the in-gate noise by mean(w^2) (w has unit mean).
        noise_in_gate = (noise_sigma(scene.noise_floor_dbm) ** 2 * len(offsets)
                         * float(np.mean(taper ** 2)))
        valid = gate_power > 10.0 * noise_in_gate
    else:
        valid = gate_power > 0.0
    return taps, valid


def _unwrapped_phase(taps: np.ndarray, valid: np.ndarray, scene: Scene) -> np.ndarray:
    """Unwrapped ``-angle`` of the gated taps, referenced to element 1 = 0."""
    if not valid[0]:
        reason = "carries no energy"
        if scene.noise_floor_dbm is not None:
            reason = (f"is below 10x its in-gate noise at the {scene.noise_floor_dbm:g} dBm noise "
                      f"floor; {int(valid.sum())} of {len(valid)} elements' gates are valid")
        raise AnalysisError(f"LOS gate on element 1 (the phase reference) {reason}")
    with np.errstate(invalid="ignore"):
        raw = -np.angle(taps)
    unwrapped = np.unwrap(raw)
    return unwrapped - unwrapped[0]


def los_phase(cfr: ChannelFrequencyResponse, scene: Scene,
              table: PathTable) -> tuple[np.ndarray, np.ndarray]:
    """Unwrapped LOS phase along the array, referenced to element 1 = 0.

    Returns (phase_rad, valid).  The phase is the delay-gated tap's
    path-length phase at the center frequency, so it matches the closed-form
    wavefront model directly.
    """
    taps, valid = gated_los_rows(cfr, scene, table)
    return _unwrapped_phase(taps, valid, scene), valid


def _pair_aod(cfr: ChannelFrequencyResponse, taps: np.ndarray, tap_valid: np.ndarray,
              spacing_d: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-element AoD from adjacent-pair tap phases at the center frequency.

    Each pair's wrapped phase difference gives ``cos(theta) = -lambda_c *
    dphi / (2 pi d)``; the clamped arccos sits at the pair midpoint and is
    linearly interpolated back to the elements.  Returns (theta_rad, valid);
    an element is valid when every pair it belongs to is physical (|cos| <=
    1; aliasing or occlusion breaks this) and both of the pair's gated taps
    are valid.
    """
    if cfr.n_elements < 2:
        raise ValueError("need at least 2 elements to estimate angles")
    lam = C_M_PER_S / cfr.sweep.frequencies()[cfr.sweep.center_index]
    # Delay-phase difference of adjacent taps, wrapped to (-pi, pi].
    dphi = -np.angle(taps[1:] * np.conj(taps[:-1]))
    ratio = -lam * dphi / (2.0 * math.pi * spacing_d)
    theta_mid = np.arccos(np.clip(ratio, -1.0, 1.0))
    mid_pos = np.arange(1, cfr.n_elements) + 0.5
    el_pos = np.arange(1, cfr.n_elements + 1, dtype=float)
    pair_valid = np.concatenate(([True], (np.abs(ratio) <= 1.0) & tap_valid[1:] & tap_valid[:-1],
                                 [True]))
    return np.interp(el_pos, mid_pos, theta_mid), pair_valid[:-1] & pair_valid[1:]


def compute_stats(cfr: ChannelFrequencyResponse, scene: Scene, table: PathTable) -> ChannelStats:
    """Per-element statistics; one PDP array, one LOS gate and ``table = path_table(scene)``."""
    power = received_power_db(cfr)
    pdp = pdp_matrix(cfr)
    ds = rms_delay_spread(pdp, 1.0 / cfr.sweep.bandwidth)
    taps, tap_valid = gated_los_rows(cfr, scene, table)
    phase = _unwrapped_phase(taps, tap_valid, scene)
    aod, aod_valid = _pair_aod(cfr, taps, tap_valid, scene.array.spacing_d)
    return ChannelStats(power_db=power, pdp=pdp, delay_spread_s=ds, los_phase_rad=phase,
                        aod_rad=aod, tau_los_s=table.length[:cfr.n_elements] / C_M_PER_S,
                        los_valid=tap_valid, aod_valid=aod_valid)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def export_stats_csv(stats: ChannelStats, path) -> None:
    _csvout.write_csv(path, ("element", "power_db", "ds_ns", "phase_rad", "aod_deg", "tau_ns"),
                      [(_csvout.strs(range(1, stats.n_elements + 1)), _csvout.floats(stats.power_db),
                        _csvout.floats(stats.delay_spread_s * 1e9), _csvout.floats(stats.los_phase_rad),
                        _csvout.floats([math.degrees(a) for a in stats.aod_rad.tolist()]),
                        _csvout.floats(stats.tau_los_s * 1e9))])


def export_pdp_csv(pdp: np.ndarray, path, bandwidth_hz: float) -> None:
    """Rows (element, bin, delay_ns, power_db) of an ``(N, F)`` PDP array, elements 1..N."""
    n_bins = pdp.shape[1]
    bins = _csvout.strs(range(n_bins))  # bin and delay cells, formatted once per file
    delay_ns = _csvout.floats(np.arange(n_bins) * (1.0 / bandwidth_hz) * 1e9)
    with np.errstate(divide="ignore"):  # an empty bin is -inf dB
        power_db = 10.0 * np.log10(pdp)
    _csvout.write_csv(path, ("element", "bin", "delay_ns", "power_db"),
                      (([str(el)] * n_bins, bins, delay_ns, _csvout.floats(row))
                       for el, row in enumerate(power_db, start=1)))
