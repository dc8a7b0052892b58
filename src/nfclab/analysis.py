"""Per-element channel characteristics extracted from a swept response.

Covers power delay profiles, received power, RMS delay spread, the
delay-gated line-of-sight phase, and a phase-difference angle-of-departure
estimate.  Phases follow the path-difference convention used by the
wavefront model: the reported LOS phase grows with path length, so it equals
``(2*pi/lambda)*(r_n - r_1)`` for a clean direct path.

All operations are pure per element.  ``streamed_stats`` and
``streamed_los_phase`` take the response as row blocks, those the kernel
makes (``synth.response_blocks``), so the commands never hold it, or those
of a held array (``synth.array_blocks``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _csvout, _floatrepr, _kernels
from .constants import C_M_PER_S
from .scene import Scene, Sweep
from .synth import PathTable, noise_sigma

LOS_GATE_HALF_WIDTH = 2  # delay bins kept on each side of the LOS tap
DEFAULT_DS_THRESHOLD_DB = 20.0


class AnalysisError(ValueError):
    """Raised when a profile carries no usable signal."""


@dataclass(frozen=True)
class ChannelStats:
    """Per-element summary statistics of one swept measurement."""

    power_db: np.ndarray
    delay_spread_s: np.ndarray
    los_phase_rad: np.ndarray
    aod_rad: np.ndarray
    tau_los_s: np.ndarray
    los_valid: np.ndarray
    aod_valid: np.ndarray

    @property
    def n_elements(self) -> int:
        return len(self.power_db)


def _hann(n: int) -> np.ndarray:
    """The ``n``-point Hann window at unit coherent gain (unit mean)."""
    w = np.hanning(n)
    if not w.any():  # np.hanning(2) is all zeros
        raise AnalysisError(f"hann window needs >= 3 sweep points, got {n}")
    return w / w.mean()


def _delay(rows: np.ndarray, taper: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``ifft(rows * taper)`` along the last axis, formed and transformed in ``out``, which may be ``rows``.

    A row's transform does not depend on the block height, so a block's rows
    equal those of the whole array's ``ifft`` bit for bit.
    """
    block = np.multiply(rows, taper, out=out)
    return np.fft.ifft(block, axis=-1, out=block)


def _profile(spectrum: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``n * |spectrum|^2`` of a block of ``n``-point delay spectra, written into the float ``out``."""
    out = np.abs(spectrum, out=out)
    np.square(out, out=out)
    out *= spectrum.shape[-1]
    return out


def _power_sums(rows: np.ndarray, scratch: np.ndarray, out: np.ndarray) -> None:
    """``out[i] = sum |rows[i]|^2``, ``|H|^2`` taken in the float ``scratch``; each row's sum is its own."""
    mag = np.abs(rows, out=scratch)
    np.square(mag, out=mag).sum(axis=1, out=out)


def _finite_power(totals: np.ndarray) -> None:
    if not np.all(np.isfinite(totals)):
        raise AnalysisError("received power must be finite: |H|^2 overflows float64")


def _power_db(totals: np.ndarray, n: int) -> np.ndarray:
    return np.array([-math.inf if t <= 0.0 else 10.0 * math.log10(t / n) for t in totals.tolist()])


class _Spread:
    """RMS delay spread of ``n_rows`` profiles of ``n`` bins, fed one row block at a time.

    ``add`` takes each row's peak, zeroes the bins more than
    ``DEFAULT_DS_THRESHOLD_DB`` below it and accumulates the moments in place
    on the block; each row's sums are its own reductions.  A sum may overflow
    float64 (a band so narrow that its delay axis spans ~1e120 s, or a power
    near the float64 limit); ``spread`` raises then.
    """

    def __init__(self, n_rows: int, n: int, bin_width: float):
        self._scale = 10.0 ** (-DEFAULT_DS_THRESHOLD_DB / 10.0)
        self._tau = np.arange(n) * bin_width
        self._drop = np.empty((_kernels.block_rows(n_rows, n), n), dtype=bool)
        self._sums = np.empty((4, n_rows))  # peak, total, first and second moment

    def add(self, start: int, stop: int, block: np.ndarray) -> None:
        """Accumulate the profiles of rows ``[start, stop)`` from the float ``block``, which it overwrites."""
        peak, total, first, second = self._sums[:, start:stop]
        block.max(axis=-1, initial=0.0, out=peak)
        drop = np.greater_equal(block, (peak * self._scale)[:, None], out=self._drop[:stop - start])
        np.copyto(block, 0.0, where=np.logical_not(drop, out=drop))
        with np.errstate(over="ignore"):  # spread() rejects a sum that overflows
            block.sum(axis=-1, out=total)
            block *= self._tau
            block.sum(axis=-1, out=first)
            block *= self._tau
            block.sum(axis=-1, out=second)

    def spread(self) -> np.ndarray:
        """The ``(n_rows,)`` spreads in seconds.

        Raises AnalysisError if a profile has no positive bin, or else if a
        sum is not finite.
        """
        peak, total, first, second = self._sums
        if np.any(peak <= 0.0):
            raise AnalysisError("all-noise profile: no bin above the threshold")
        if not np.all(np.isfinite(self._sums[1:])):
            raise AnalysisError(f"delay-spread moments must be finite: the PDP's moments over a delay axis of "
                                f"{self._tau[-1]:.3g} s overflow float64")
        mean = first / total
        return np.sqrt(np.maximum(second / total - mean * mean, 0.0))


# ---------------------------------------------------------------------------
# LOS tap gating
# ---------------------------------------------------------------------------

def _los_bin_indices(sweep: Sweep, table: PathTable, n_rows: int) -> np.ndarray:
    """Delay-grid bin of the geometric LOS tap of each of the first ``n_rows`` elements."""
    n = sweep.n_points
    # The IDFT grid spacing is 1/(n*df); delays alias modulo (n-1)/B.  The
    # modulo runs on the float bin so a delay beyond int64 casts cleanly.
    scale = sweep.bandwidth * n / (n - 1)
    return (np.rint(table.length[:n_rows] / C_M_PER_S * scale) % n).astype(int)


class _Gate:
    """The LOS gate of ``n_rows`` rows, fed their spectra ``ifft(rows * taper)`` one row block at a time.

    ``taper`` is the Hann window ``hann`` times the ``f / f_c`` equalizer, which
    flattens the free-space 1/f amplitude; f_c is the grid-centre frequency
    ``f_grid_center``, not the band mean ``f_center``.  Building
    it raises AnalysisError on a sweep too short for the window.  Only the
    +-LOS_GATE_HALF_WIDTH bins around each row's LOS delay ``length[n - 1] / c``
    are kept from a block, so the blocks may be scratch that the next block
    overwrites.

    For a single path the extracted center-frequency phase is exact: the
    equalized amplitude is constant and any real window symmetric about the
    center sample turns every kept delay bin into the same unit phasor times
    a real coefficient.
    """

    def __init__(self, sweep: Sweep, table: PathTable, n_rows: int, noise_floor_dbm: float | None):
        self.hann = _hann(sweep.n_points)
        self.taper = self.hann * sweep.frequencies() / sweep.f_grid_center
        self._sweep, self._noise_floor_dbm = sweep, noise_floor_dbm
        offsets = np.arange(-LOS_GATE_HALF_WIDTH, LOS_GATE_HALF_WIDTH + 1)
        self._idx = (_los_bin_indices(sweep, table, n_rows)[:, None] + offsets) % sweep.n_points
        self._kept = np.empty(self._idx.shape, dtype=np.complex128)

    def add(self, start: int, stop: int, spectrum: np.ndarray) -> None:
        self._kept[start:stop] = np.take_along_axis(spectrum, self._idx[start:stop], axis=1)

    def taps(self) -> tuple[np.ndarray, np.ndarray]:
        """``(center_taps, valid)`` of the rows fed so far.

        ``center_taps`` is the forward DFT of the gated spectrum at the
        center-frequency grid point, summed over the kept bins only, and
        ``valid`` flags gate energy above the expected noise level.
        """
        n, kept, idx = self._sweep.n_points, self._kept, self._idx
        with np.errstate(over="ignore"):  # near 0 Hz: an infinite gate power is above any noise
            gate_power = np.sum(np.abs(kept) ** 2, axis=1) * n
        # DFT twiddle of bin k at sample `center`, its exponent reduced mod n exactly
        taps = np.sum(kept * np.exp(-2j * math.pi * ((idx * self._sweep.center_index) % n) / n), axis=1)
        if self._noise_floor_dbm is not None:
            # Windowing scales the in-gate noise by mean(w^2) (w has unit mean).
            noise_in_gate = (noise_sigma(self._noise_floor_dbm) ** 2 * idx.shape[1]
                             * float(np.mean(self.hann ** 2)))
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


def _drained(blocks, make):
    """``make()``; on AnalysisError ``blocks`` are drained first, so that a non-finite response fails first."""
    try:
        return make()
    except AnalysisError:
        for _ in blocks:  # a block that is not finite raises here
            pass
        raise


def streamed_los_phase(blocks, scene: Scene, table: PathTable) -> tuple[np.ndarray, np.ndarray]:
    """Unwrapped LOS phase along the array, referenced to element 1 = 0: ``(phase_rad, valid)``.

    ``blocks`` are the response's ``(start, stop, rows)`` row blocks in
    order (``synth.response_blocks`` or ``synth.array_blocks``); each is
    tapered, inverse-transformed and gated in place as it arrives, so only
    the ``(N, 5)`` gate bins outlive it.  The phase is the delay-gated tap's
    path-length phase at the center frequency (see ``_Gate``), so it matches
    the closed-form wavefront model directly.  A block that is not finite
    fails before a sweep too short for the window does, and the element-1
    gate's error, which counts the valid gates, follows the last block.
    """
    gate = _drained(blocks, lambda: _Gate(scene.sweep, table, scene.array.n_elements,
                                          scene.noise_floor_dbm))
    for start, stop, rows in blocks:
        gate.add(start, stop, _delay(rows, gate.taper, rows))
    taps, valid = gate.taps()
    return _unwrapped_phase(taps, valid, scene), valid


def _pair_aod(sweep: Sweep, taps: np.ndarray, tap_valid: np.ndarray,
              spacing_d: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-element AoD from adjacent-pair tap phases at the center frequency.

    Each pair's wrapped phase difference gives ``cos(theta) = -lambda_c *
    dphi / (2 pi d)``; the clamped arccos sits at the pair midpoint and is
    linearly interpolated back to the elements.  Returns (theta_rad, valid);
    an element is valid when every pair it belongs to is physical (|cos| <=
    1; aliasing or occlusion breaks this) and both of the pair's gated taps
    are valid.
    """
    n = len(taps)
    if n < 2:
        raise ValueError("need at least 2 elements to estimate angles")
    lam = C_M_PER_S / sweep.f_grid_center
    # Delay-phase difference of adjacent taps, wrapped to (-pi, pi].
    dphi = -np.angle(taps[1:] * np.conj(taps[:-1]))
    ratio = -lam * dphi / (2.0 * math.pi * spacing_d)
    theta_mid = np.arccos(np.clip(ratio, -1.0, 1.0))
    mid_pos = np.arange(1, n) + 0.5
    el_pos = np.arange(1, n + 1, dtype=float)
    pair_valid = np.concatenate(([True], (np.abs(ratio) <= 1.0) & tap_valid[1:] & tap_valid[:-1],
                                 [True]))
    return np.interp(el_pos, mid_pos, theta_mid), pair_valid[:-1] & pair_valid[1:]


def streamed_stats(blocks, scene: Scene, table: PathTable, consumers=(), pdp=None) -> ChannelStats:
    """Per-element statistics of the response given as ``(start, stop, rows)`` row blocks in order.

    Each block's ``|H|^2`` sums are taken first; where one is not finite
    (``|H|^2`` overflows float64) the pass raises AnalysisError before any
    consumer sees the block.  The block is then passed to every
    ``consumer(start, stop, rows)``, which must leave it unchanged, and its
    Hann PDP, which gives the delay-spread moments, and its LOS gate bins are
    taken in scratch allocated once; ``pdp``, when given, is called as
    ``pdp(start, stop, profiles)`` with each block's PDP before the moments
    overwrite it.  ``table`` is ``path_table(scene)``, and ``blocks`` are
    ``synth.response_blocks(scene, table)`` or a held array's
    ``synth.array_blocks``.  A block that is not finite fails first, then a
    sweep too short for the Hann window, then a power that is not finite,
    and after the last block an all-noise profile, a delay-spread moment
    that is not finite, the element-1 gate and fewer than 2 elements, in
    that order.
    """
    sweep = scene.sweep
    n_rows, n = scene.array.n_elements, sweep.n_points
    gate = _drained(blocks, lambda: _Gate(sweep, table, n_rows, scene.noise_floor_dbm))
    spread = _Spread(n_rows, n, 1.0 / sweep.bandwidth)
    height = _kernels.block_rows(n_rows, n)
    spectra = np.empty((height, n), dtype=np.complex128)
    profiles = np.empty((height, n))
    totals = np.empty(n_rows)
    for start, stop, rows in blocks:
        spectrum, profile = spectra[:stop - start], profiles[:stop - start]
        # the power first: where |H|^2 overflows, so do the consumers' products
        with np.errstate(over="ignore"):
            _power_sums(rows, profile, totals[start:stop])
        _drained(blocks, lambda: _finite_power(totals[start:stop]))
        for consumer in consumers:
            consumer(start, stop, rows)
        profile = _profile(_delay(rows, gate.hann, spectrum), profile)
        if pdp is not None:
            pdp(start, stop, profile)
        spread.add(start, stop, profile)
        gate.add(start, stop, _delay(rows, gate.taper, spectrum))
    ds = spread.spread()
    taps, tap_valid = gate.taps()
    phase = _unwrapped_phase(taps, tap_valid, scene)
    aod, aod_valid = _pair_aod(sweep, taps, tap_valid, scene.array.spacing_d)
    return ChannelStats(power_db=_power_db(totals, n), delay_spread_s=ds, los_phase_rad=phase,
                        aod_rad=aod, tau_los_s=table.length[:n_rows] / C_M_PER_S,
                        los_valid=tap_valid, aod_valid=aod_valid)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def export_stats_csv(stats: ChannelStats, path) -> None:
    _csvout.write_csv(path, ("element", "power_db", "ds_ns", "phase_rad", "aod_deg", "tau_ns"),
                      (_csvout.strs(range(1, stats.n_elements + 1)), _csvout.floats(stats.power_db),
                       _csvout.floats(stats.delay_spread_s * 1e9), _csvout.floats(stats.los_phase_rad),
                       _csvout.floats([math.degrees(a) for a in stats.aod_rad.tolist()]),
                       _csvout.floats(stats.tau_los_s * 1e9)))


def pdp_csv(path, n_rows: int, n_bins: int, bandwidth_hz: float) -> _csvout.CellGrid:
    """``pdp.csv`` of ``n_rows`` profiles of ``n_bins`` bins, written one row block at a time.

    Rows (element, bin, delay_ns, power_db); each block's ``10*log10`` is
    taken as that block is written.
    """
    def power_db(rows):
        with np.errstate(divide="ignore"):  # an empty bin is -inf dB
            return (_floatrepr.repr_cells(10.0 * np.log10(rows)),)

    with np.errstate(over="ignore", invalid="ignore"):  # a band ~1e-300 Hz wide
        delay_ns = np.arange(n_bins) * (1.0 / bandwidth_hz) * 1e9
    if not np.all(np.isfinite(delay_ns)):
        raise AnalysisError(f"pdp delay axis must be finite: bins of 1/bandwidth = {1.0 / bandwidth_hz:.3g} s "
                            "overflow float64 in ns")
    return _csvout.CellGrid(path, ("element", "bin", "delay_ns", "power_db"), n_rows,
                            [_csvout.cells(_csvout.strs(range(n_bins))),  # formatted once per file
                             _floatrepr.repr_cells(delay_ns)],
                            power_db)
