import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

import nfclab as nl
from nfclab import _kernels
from nfclab.constants import C_M_PER_S, KNIFE_EDGE_NU_MIN
from nfclab.scene import loads_scene
from nfclab.synth import complex_noise, export_cfr_csv, path_blockage_db, path_table
from reference import synthesize_los_cfr

BARE = """
[array]
n_elements = 4
spacing_d = 0.0125

[rx]
position = 1.0, 6.0, 2.5
"""


def test_knife_edge_loss_values():
    assert nl.knife_edge_loss(-5.0) == 0.0
    assert nl.knife_edge_loss(0.0) == pytest.approx(6.03, abs=5e-3)
    assert abs(nl.knife_edge_loss(-0.78)) < 0.01
    arr = nl.knife_edge_loss(np.array([-5.0, 0.0, 2.0]))
    assert arr[0] == 0.0 and arr[1] == pytest.approx(6.03, abs=5e-3)
    # loss is nonnegative and increasing past the knee
    nus = np.linspace(-0.77, 10, 200)
    losses = nl.knife_edge_loss(nus)
    assert np.all(losses >= 0)
    assert np.all(np.diff(losses) > 0)


def paths_of(table, n):
    """Table indices of element n's paths, in the per-element order LOS, walls, scatterers."""
    return np.flatnonzero(table.row == n - 1)


def test_path_table_empty_environment():
    scene = loads_scene(BARE)
    table = path_table(scene)
    paths = paths_of(table, 1)
    assert len(paths) == 1
    assert paths[0] < scene.array.n_elements  # the LOS group
    assert table.gain[paths[0]] == 1.0
    assert path_blockage_db(scene, table)[paths[0]] == 0.0


def test_zero_gain_wall_path_retained():
    scene = loads_scene(BARE + "\n[wall]\nnormal = 0.0, 1.0, 0.0\noffset = 8.0\ngamma = 0.0\n")
    table = path_table(scene)
    los, wall = paths_of(table, 2)
    assert los < scene.array.n_elements <= wall  # LOS group, then the wall group
    assert table.gain[wall] == 0.0
    # image-method length: element -> mirror(rx) across y=8
    p = nl.element_positions(scene)[1]
    image = np.array([1.0, 10.0, 2.5])
    assert table.length[wall] == pytest.approx(np.linalg.norm(image - p), rel=1e-12)


def test_wall_straddling_endpoints_skipped():
    # plane between element and rx: no specular image path
    scene = loads_scene(BARE + "\n[wall]\nnormal = 0.0, 1.0, 0.0\noffset = 3.0\ngamma = 0.5\n")
    table = path_table(scene)
    assert len(paths_of(table, 1)) == 1
    assert len(table.row) == scene.array.n_elements


def test_scatterer_path_geometry():
    scene = loads_scene(BARE + "\n[scatterer]\nposition = -1.0, 3.0, 2.5\namplitude = 0.4\n")
    table = path_table(scene)
    los, scat = paths_of(table, 1)
    assert los < scene.array.n_elements <= scat
    p1 = nl.element_positions(scene)[0]
    s = np.array([-1.0, 3.0, 2.5])
    rx = np.array(scene.rx)
    expected = np.linalg.norm(s - p1) + np.linalg.norm(rx - s)
    assert table.length[scat] == pytest.approx(expected, rel=1e-12)
    assert table.gain[scat] == 0.4


def test_olos_preset_blocked_element_blockage(olos_scene):
    blockage = path_blockage_db(olos_scene, path_table(olos_scene))[:olos_scene.array.n_elements]
    assert blockage[30 - 1] >= 6.0


def test_single_path_cfr_amplitude_and_phase():
    scene = loads_scene(BARE)
    table = path_table(scene)
    cfr = nl.synthesize_cfr(scene, table)
    freqs = scene.sweep.frequencies()
    r = table.length[0]  # element 1's LOS path
    expected_amp = (C_M_PER_S / freqs) / (4 * math.pi * r)
    assert np.allclose(np.abs(cfr.values[0]), expected_amp, rtol=1e-12)
    # linear phase in f with slope -2*pi*r/c
    phase = np.unwrap(np.angle(cfr.values[0]))
    slopes = np.diff(phase) / np.diff(freqs)
    assert np.allclose(slopes, -2 * math.pi * r / C_M_PER_S, rtol=1e-9)


def test_two_path_interference_matches_closed_form():
    scene = loads_scene(BARE + "\n[wall]\nnormal = 0.0, 1.0, 0.0\noffset = 8.0\ngamma = 0.9\n")
    table = path_table(scene)
    cfr = nl.synthesize_cfr(scene, table)
    freqs = scene.sweep.frequencies()
    expected = np.zeros_like(freqs, dtype=complex)
    for i in paths_of(table, 1):
        lam = C_M_PER_S / freqs
        expected += (table.gain[i] * lam / (4 * math.pi * table.length[i])
                     * np.exp(-2j * math.pi * freqs * table.length[i] / C_M_PER_S))
    assert np.allclose(cfr.values[0], expected, rtol=1e-10)
    # interference fading: |H| oscillates between |a1-a2| and a1+a2
    mags = np.abs(cfr.values[0])
    assert mags.max() / mags.min() > 2.0


def test_equal_amplitude_half_cycle_fading():
    # two unit taps whose lengths differ by c/(2*B): the beat phase moves by
    # exactly pi across the sweep, one full swing from peak to null
    sweep = nl.Sweep()
    freqs = sweep.frequencies()
    dl = C_M_PER_S / (2 * sweep.bandwidth)
    h = np.exp(-2j * math.pi * freqs * 10.0 / C_M_PER_S) \
        + np.exp(-2j * math.pi * freqs * (10.0 + dl) / C_M_PER_S)
    mags = np.abs(h)
    beat = 2 * math.pi * freqs * dl / C_M_PER_S
    assert beat[-1] - beat[0] == pytest.approx(math.pi, rel=1e-12)
    assert np.allclose(mags, 2 * np.abs(np.cos(beat / 2)), atol=1e-12)


def test_los_lab_power_spread(los_cfr):
    power = nl.received_power_db(los_cfr)
    assert power.max() - power.min() <= 0.5


def test_superposition(los_scene):
    walls_only = replace(los_scene, point_scatterers=())
    scats_only = replace(los_scene, walls=())
    los_only = replace(los_scene, walls=(), point_scatterers=())
    full = nl.synthesize_cfr(los_scene, path_table(los_scene)).values
    combo = (nl.synthesize_cfr(walls_only, path_table(walls_only)).values
             + nl.synthesize_cfr(scats_only, path_table(scats_only)).values
             - nl.synthesize_cfr(los_only, path_table(los_only)).values)
    assert np.allclose(full, combo, rtol=1e-12, atol=1e-18)


def test_determinism_bit_identical(olos_scene):
    a = nl.synthesize_cfr(olos_scene, path_table(olos_scene)).values
    b = nl.synthesize_cfr(olos_scene, path_table(olos_scene)).values
    assert np.array_equal(a, b)


def test_noise_seeding(los_scene):
    noisy_scene = replace(los_scene, noise_floor_dbm=-95.0, seed=7)
    a = nl.synthesize_cfr(noisy_scene, path_table(noisy_scene)).values
    b = nl.synthesize_cfr(noisy_scene, path_table(noisy_scene)).values
    reseeded = replace(noisy_scene, seed=8)
    c = nl.synthesize_cfr(reseeded, path_table(reseeded)).values
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    clean = nl.synthesize_cfr(los_scene, path_table(los_scene))
    # the synthesizer's noise is complex_noise added to the clean response
    d = clean.values + complex_noise(clean.values.shape, -95.0, 7)
    assert np.array_equal(a, d)


def test_noise_level_calibration():
    rng_floor = -90.0
    sweep = nl.Sweep(n_points=2001)
    noise = complex_noise((8, sweep.n_points), rng_floor, 3)
    measured = 10 * np.log10(np.mean(np.abs(noise) ** 2))
    assert measured == pytest.approx(rng_floor - 10.0, abs=0.2)  # relative to 10 dBm tx


def test_reciprocity_of_path_lengths():
    env = ("\n[wall]\nnormal = 0.0, 1.0, 0.0\noffset = 8.0\ngamma = 0.5\n"
           "\n[scatterer]\nposition = -1.0, 3.0, 2.5\namplitude = 0.3\n")
    fwd = loads_scene("[array]\nn_elements = 1\norigin = 0.2, 0.0, 2.5\n[rx]\nposition = 1.0, 6.0, 2.5\n" + env)
    rev = loads_scene("[array]\nn_elements = 1\norigin = 1.0, 6.0, 2.5\n[rx]\nposition = 0.2, 0.0, 2.5\n" + env)
    lf = path_table(fwd).length
    lr = path_table(rev).length
    assert len(lf) == len(lr) == 3
    assert np.allclose(sorted(lf), sorted(lr), rtol=1e-12)


def test_blocker_never_increases_amplitude(los_scene, olos_scene):
    clear, shadowed = path_table(los_scene), path_table(olos_scene)
    clear_db, shadowed_db = path_blockage_db(los_scene, clear), path_blockage_db(olos_scene, shadowed)
    for n in (1, 20, 26, 40, 64):
        paths = paths_of(clear, n)
        assert np.array_equal(paths_of(shadowed, n), paths)  # same kinds in the same order
        for i in paths:
            assert shadowed.length[i] == pytest.approx(clear.length[i], rel=1e-12)
            assert shadowed_db[i] >= clear_db[i] - 1e-12


def test_csv_and_npz_roundtrip(tmp_path, los_scene):
    small = replace(los_scene, array=replace(los_scene.array, n_elements=3),
                    sweep=replace(los_scene.sweep, n_points=11))
    cfr = nl.synthesize_cfr(small, path_table(small))
    csv_path = tmp_path / "cfr.csv"
    export_cfr_csv(cfr, csv_path)
    rows = csv_path.read_text().strip().splitlines()
    assert rows[0] == "element,f_hz,re,im"
    assert len(rows) == 1 + 3 * 11
    el, f_hz, re, im = rows[1].split(",")
    assert int(el) == 1 and float(f_hz) == small.sweep.f_start
    assert complex(float(re), float(im)) == cfr.values[0, 0]


def _accumulate_paths_py(out, row_idx, lengths, gains, edge_ptr, edge_geo, freqs):
    """Reference scalar loop: one path, sweep point and edge at a time.

    out      : complex128 (n_rows, n_freqs), accumulated in place
    row_idx  : int64 (n_paths,) output row per path
    lengths  : float64 (n_paths,) total path length [m]
    gains    : float64 (n_paths,) interaction gain
    edge_ptr : int64 (n_paths+1,) CSR offsets into edge_geo
    edge_geo : float64 (n_edges,) knife-edge factors h*sqrt(2(d1+d2)/(d1 d2))
    freqs    : float64 (n_freqs,) sweep grid [Hz]
    """
    n_paths = lengths.shape[0]
    n_freqs = freqs.shape[0]
    for p in range(n_paths):
        row = row_idx[p]
        length = lengths[p]
        gain = gains[p]
        e0 = edge_ptr[p]
        e1 = edge_ptr[p + 1]
        for m in range(n_freqs):
            f = freqs[m]
            lam = C_M_PER_S / f
            sqrt_lam = math.sqrt(lam)
            loss_db = 0.0
            for e in range(e0, e1):
                nu = edge_geo[e] / sqrt_lam
                if nu > KNIFE_EDGE_NU_MIN:
                    t = nu - 0.1
                    loss_db += 6.9 + 20.0 * math.log10(math.sqrt(t * t + 1.0) + t)
            amp = gain * lam / (4.0 * math.pi * length) * 10.0 ** (-loss_db / 20.0)
            phase = -2.0 * math.pi * f * length / C_M_PER_S
            out[row, m] += amp * (math.cos(phase) + 1j * math.sin(phase))
    return out


def _path_amplitude_per_path(gain, length, edge_geo, lam, sqrt_lam) -> np.ndarray:
    """``gain * lambda/(4 pi L) * 10^(-J/20)`` per frequency, J summed over the edges."""
    loss_db = np.zeros_like(lam)
    for geo in edge_geo:
        loss_db += nl.knife_edge_loss(geo / sqrt_lam)
    return gain * lam / (4.0 * math.pi * length) * 10.0 ** (-loss_db / 20.0)


def _accumulate_paths_per_path(out, row_idx, lengths, gains, edge_ptr, edge_geo, freqs):
    """Reference numpy loop: one path at a time, vectorized over frequency.

    This is the kernel without its blocks: the same amplitudes and the same
    ``sweep_phasors`` row per path, added one path at a time.  The block
    kernel must reproduce it byte for byte.
    """
    lam = C_M_PER_S / freqs
    sqrt_lam = np.sqrt(lam)
    for p in range(lengths.shape[0]):
        amp = _path_amplitude_per_path(gains[p], lengths[p], edge_geo[edge_ptr[p]:edge_ptr[p + 1]],
                                       lam, sqrt_lam)
        phasor = _kernels.sweep_phasors([-2.0 * math.pi * lengths[p] / C_M_PER_S], freqs)[0]
        out[row_idx[p]] += amp * phasor
    return out


LD = np.longdouble
PI_LD = 4 * np.arctan(LD(1))
EPS = np.finfo(float).eps
# A kernel sample may differ from the exact sum by sum_p A_p (PHASE_ULPS ulp(theta_p) + AMP_EPS eps).
# The float64 phase theta_p = 2 pi f L_p / c is formed with about three roundings of
# half an ulp each, and the coarse x fine grid adds about one ulp; cos/sin, the
# free-space amplitude and the knife-edge losses add a few eps of A_p.  Measured
# on these tables: at most 2.1 ulp for the kernel and 1.6 for the direct loop.
PHASE_ULPS, AMP_EPS = 4.0, 16.0


def _accumulate_paths_exact(n_rows, row_idx, lengths, gains, edge_ptr, edge_geo, freqs):
    """Long-double path sum of a float64 table and the float64 error bound of each sample.

    Returns ``(ref, bound)``: ``ref`` the clongdouble (n_rows, n_freqs) sum with
    the true pi, ``bound`` the sum over each row's paths of
    ``A_p (PHASE_ULPS ulp(theta_p) + AMP_EPS eps)``.
    """
    f = freqs.astype(LD)
    lam = LD(C_M_PER_S) / f
    sqrt_lam = np.sqrt(lam)
    ref = np.zeros((n_rows, len(f)), dtype=np.clongdouble)
    bound = np.zeros((n_rows, len(f)))
    for p in range(lengths.shape[0]):
        loss_db = np.zeros_like(f)
        for geo in edge_geo[edge_ptr[p]:edge_ptr[p + 1]]:
            nu = LD(geo) / sqrt_lam
            t = nu - LD("0.1")
            with np.errstate(invalid="ignore"):
                loss = LD("6.9") + 20 * np.log10(np.sqrt(t * t + 1) + t)
            loss_db += np.where(nu > KNIFE_EDGE_NU_MIN, loss, 0)
        amp = LD(gains[p]) * lam / (4 * PI_LD * LD(lengths[p])) * LD(10) ** (-loss_db / 20)
        theta = -2 * PI_LD * f * LD(lengths[p]) / LD(C_M_PER_S)
        ref[row_idx[p]] += amp * (np.cos(theta) + 1j * np.sin(theta))
        bound[row_idx[p]] += amp.astype(float) * (PHASE_ULPS * np.spacing(np.abs(theta.astype(float)))
                                                  + AMP_EPS * EPS)
    return ref, bound


def _as_table(row_idx, lengths, gains, edge_ptr, edge_geo, freqs):
    return (np.asarray(row_idx, dtype=np.int64), np.asarray(lengths, dtype=float),
            np.asarray(gains, dtype=float), np.asarray(edge_ptr, dtype=np.int64),
            np.asarray(edge_geo, dtype=float), np.asarray(freqs, dtype=float))


def _assert_kernel_within_bound(n_rows, row_idx, lengths, gains, edge_ptr, edge_geo, freqs):
    """The kernel and the direct cos/sin loop both stay within the rounding bound."""
    table = _as_table(row_idx, lengths, gains, edge_ptr, edge_geo, freqs)
    shape = (n_rows, len(freqs))
    ref, bound = _accumulate_paths_exact(n_rows, *table)
    got = _kernels.accumulate_paths(np.zeros(shape, dtype=complex), *table)
    direct = _accumulate_paths_py(np.zeros(shape, dtype=complex), *table)
    for values in (got, direct):
        assert np.all(np.abs((values - ref).astype(complex)) <= bound)
    return got


def test_kernel_matches_scalar_loop_on_olos_baffle(olos_scene):
    table = path_table(olos_scene)
    assert len(table.edge_geo) > 0  # the knife-edge branch runs
    got = _assert_kernel_within_bound(olos_scene.array.n_elements, *table,
                                      olos_scene.sweep.frequencies())
    assert np.array_equal(got, nl.synthesize_cfr(olos_scene, table).values)


@pytest.mark.parametrize("seed", range(8))
def test_kernel_matches_scalar_loop_on_random_tables(seed):
    rng = np.random.default_rng(seed)
    n_rows, n_paths = int(rng.integers(1, 4)), int(rng.integers(1, 9))
    n_edges = rng.integers(0, 4, size=n_paths)
    # Factors over nu in about [-1.4, 4.6] at 11-15 GHz, with some screen-endpoint +inf.
    edge_geo = rng.uniform(-0.23, 0.65, size=int(n_edges.sum()))
    edge_geo[rng.random(edge_geo.size) < 0.2] = math.inf
    _assert_kernel_within_bound(
        n_rows, rng.integers(0, n_rows, size=n_paths), rng.uniform(0.5, 20.0, size=n_paths),
        rng.uniform(0.0, 1.0, size=n_paths), np.concatenate(([0], np.cumsum(n_edges))),
        edge_geo, np.linspace(11e9, 15e9, int(rng.integers(2, 40))))


@pytest.mark.parametrize("n_freqs", [1, 2, 3, 801, 6401, 32769])
def test_sweep_phasors_match_long_double(n_freqs):
    # |k f| from 1e-12 up to 1e8 rad, plus k = 0; each sample within
    # 2 ulp of its float64 phase plus 4 eps (measured: at most 0.73 and 1.05).
    rng = np.random.default_rng(n_freqs)
    freqs = np.linspace(11e9, 15e9, n_freqs)
    k = rng.choice([-1.0, 1.0], 12) * 10.0 ** rng.uniform(-12.0, 8.0, 12) / freqs[-1]
    k[:2] = 0.0, 1e8 / freqs[-1]
    got = _kernels.sweep_phasors(k, freqs)
    assert got.shape == (len(k), n_freqs)
    theta = np.multiply.outer(k.astype(LD), freqs.astype(LD))
    err = np.abs((got - (np.cos(theta) + 1j * np.sin(theta))).astype(complex))
    assert np.all(err <= 2.0 * np.spacing(np.abs(np.multiply.outer(k, freqs))) + 4.0 * EPS)
    assert np.all(got[0] == 1.0)


@pytest.mark.parametrize("n_freqs", [1, 2, 3, 801, 6401, 32769])
def test_sweep_phasors_accept_linspace_grids(n_freqs):
    # bands from 1 Hz to 1 THz, 1e-9 to 1000 times as wide as their start, either direction
    rng = np.random.default_rng(n_freqs)
    for _ in range(50):
        start = 10.0 ** rng.uniform(0.0, 12.0)
        stop = start * (1.0 + 10.0 ** rng.uniform(-9.0, 3.0))
        ends = (start, stop) if rng.random() < 0.5 else (stop, start)
        assert _kernels.sweep_phasors([1e-9], np.linspace(*ends, n_freqs)).shape == (1, n_freqs)


def test_sweep_phasors_reject_non_uniform_grid():
    k = [-2.0 * math.pi * 10.0 / C_M_PER_S]
    with pytest.raises(ValueError, match="uniform frequency grid"):
        _kernels.sweep_phasors(k, np.geomspace(11e9, 15e9, 801))
    freqs = np.linspace(11e9, 15e9, 801)
    freqs[400] += 1.0  # one point 1 Hz off the grid
    with pytest.raises(ValueError, match="uniform frequency grid"):
        _kernels.sweep_phasors(k, freqs)


def test_los_cfr_equals_full_cfr_without_multipath(olos_scene):
    bare = replace(olos_scene, walls=(), point_scatterers=(), noise_floor_dbm=None)
    assert bare.blockers  # edge factors go through both drivers
    assert np.array_equal(synthesize_los_cfr(bare).values, nl.synthesize_cfr(bare, path_table(bare)).values)


def _random_table(rng, n_rows, n_paths, max_edges=3, row_idx=None):
    """A random CSR path table with ``+inf`` and empty edge runs mixed in.

    Rows are drawn uniformly from ``range(n_rows)`` unless ``row_idx`` gives them.
    """
    n_edges = rng.integers(0, max_edges + 1, size=n_paths)
    n_edges[rng.random(n_paths) < 0.4] = 0  # runs of edge-free paths, so some blocks have none
    edge_geo = rng.uniform(-0.23, 0.65, size=int(n_edges.sum()))
    edge_geo[rng.random(edge_geo.size) < 0.2] = math.inf
    return (rng.integers(0, n_rows, size=n_paths) if row_idx is None else row_idx,
            rng.uniform(0.5, 20.0, size=n_paths),
            rng.uniform(0.0, 1.0, size=n_paths), np.concatenate(([0], np.cumsum(n_edges))),
            edge_geo)


def _assert_kernel_matches_per_path(n_rows, row_idx, lengths, gains, edge_ptr, edge_geo, freqs):
    table = _as_table(row_idx, lengths, gains, edge_ptr, edge_geo, freqs)
    shape = (n_rows, len(freqs))
    got = _kernels.accumulate_paths(np.zeros(shape, dtype=complex), *table)
    want = _accumulate_paths_per_path(np.zeros(shape, dtype=complex), *table)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    return got


@pytest.mark.parametrize("seed", range(20))
def test_block_kernel_matches_per_path_kernel_on_random_tables(seed):
    # Uniform random rows: most blocks hold one path, cut where a row does not follow its predecessor.
    rng = np.random.default_rng(100 + seed)
    n_rows = int(rng.integers(1, 6)) if seed % 2 else int(rng.integers(30, 120))
    freqs = np.linspace(11e9, 15e9, int(rng.integers(2, 2000)))
    n_paths = int(rng.integers(1, 300))
    _assert_kernel_matches_per_path(n_rows, *_random_table(rng, n_rows, n_paths), freqs)


@pytest.mark.parametrize("n_freqs", [2, 3, 801, _kernels.BLOCK_SAMPLES // 2,
                                     _kernels.BLOCK_SAMPLES, _kernels.BLOCK_SAMPLES + 1])
def test_block_kernel_matches_per_path_kernel_across_sweep_lengths(n_freqs):
    # Past the budget a block holds a single path.
    rng = np.random.default_rng(n_freqs)
    n_paths = min(200, 3 * max(1, _kernels.BLOCK_SAMPLES // n_freqs) + 2)
    _assert_kernel_matches_per_path(8, *_random_table(rng, 8, n_paths),
                                    np.linspace(11e9, 15e9, n_freqs))


def test_block_kernel_edge_free_and_mixed_blocks():
    # Distinct rows, so only the budget cuts blocks: one without edges, one with
    # 0, 1 and 4 edges per path, one with 2 edges on every path.
    freqs = np.linspace(11e9, 15e9, 801)
    m = _kernels.BLOCK_SAMPLES // len(freqs)
    counts = np.concatenate([np.zeros(m), np.resize([0, 1, 4], m), np.full(m, 2)]).astype(np.int64)
    edge_geo = np.linspace(-0.3, 0.7, int(counts.sum()))
    edge_geo[::5] = math.inf
    _assert_kernel_matches_per_path(3 * m, np.arange(3 * m), np.linspace(1.0, 9.0, 3 * m),
                                    np.full(3 * m, 0.7), np.concatenate(([0], np.cumsum(counts))),
                                    edge_geo, freqs)


def test_block_kernel_zero_gain_path_signed_zero():
    # A zero-gain path adds signed zeros; added to a zeroed row (the
    # synthesizer's np.zeros) they leave +0.0.
    freqs = np.linspace(11e9, 15e9, 101)
    got = _assert_kernel_matches_per_path(2, [0, 1, 1], [3.0, 4.0, 5.0], [0.0, 0.0, 0.5],
                                          [0, 0, 1, 1], [math.inf], freqs)
    assert np.all(got[0].view(np.uint64) == 0)  # positive zeros only
    assert np.all(got[1] != 0)


def test_block_kernel_matches_per_path_kernel_on_olos_baffle(olos_scene):
    table = path_table(olos_scene)
    assert len(table.edge_geo) > 0
    _assert_kernel_matches_per_path(olos_scene.array.n_elements, *table,
                                    olos_scene.sweep.frequencies())


def _path_table_rows(rng, n_rows, n_groups):
    """Rows grouped like ``path_table``'s: every row, then ascending groups, some with gaps."""
    groups = [np.arange(n_rows)]
    for _ in range(n_groups):  # a wall group skips the elements with no specular point
        groups.append(np.flatnonzero(rng.random(n_rows) < rng.choice([1.0, 0.9, 0.4])))
    return np.concatenate(groups)


@pytest.mark.parametrize("n_freqs", [2, 801, _kernels.BLOCK_SAMPLES // 3, _kernels.BLOCK_SAMPLES,
                                     _kernels.BLOCK_SAMPLES + 1])
@pytest.mark.parametrize("seed", range(4))
def test_block_kernel_matches_per_path_kernel_on_path_table_shaped_tables(seed, n_freqs):
    rng = np.random.default_rng(200 + seed)
    n_rows = int(rng.integers(20, 120))
    rows = _path_table_rows(rng, n_rows, int(rng.integers(1, 5)))
    max_paths = max(1, _kernels.BLOCK_SAMPLES // n_freqs)
    if max_paths > 1:  # the table does exercise blocks of several paths
        assert max(stop - start for start, stop in _kernels._row_runs(rows, max_paths)) > 1
    _assert_kernel_matches_per_path(n_rows, *_random_table(rng, n_rows, len(rows), 4, rows),
                                    np.linspace(11e9, 15e9, n_freqs))


def test_row_runs_cover_the_table_in_budgeted_runs():
    rng = np.random.default_rng(5)
    rows = np.concatenate([_path_table_rows(rng, 40, 3), rng.integers(0, 6, size=100), [7, 7, 8]])
    for max_paths in (1, 4, 7):
        blocks = list(_kernels._row_runs(rows, max_paths))
        assert blocks[0][0] == 0 and blocks[-1][1] == len(rows)
        assert [b[0] for b in blocks[1:]] == [b[1] for b in blocks[:-1]]
        for start, stop in blocks:
            assert 1 <= stop - start <= max_paths
            assert np.array_equal(rows[start:stop], rows[start] + np.arange(stop - start))
            # as long as the budget and the run allow
            assert stop == len(rows) or stop - start == max_paths or rows[stop] != rows[stop - 1] + 1


@pytest.mark.parametrize("preset, n_elements", [("los_lab", None), ("olos_baffle", None),
                                                ("olos_baffle", 1024)])
def test_real_tables_split_into_few_blocks(preset, n_elements):
    # A fallback to one-path blocks would multiply the block count by up to max_paths.
    scene = nl.load_preset(preset)
    if n_elements is not None:
        scene = replace(scene, array=replace(scene.array, n_elements=n_elements))
    rows = path_table(scene).row
    max_paths = max(1, _kernels.BLOCK_SAMPLES // scene.sweep.n_points)
    # a run of consecutive rows keeps row - table index constant
    runs = [len(list(run)) for _, run in itertools.groupby(rows - np.arange(len(rows)))]
    assert len(list(_kernels._row_runs(rows, max_paths))) <= sum(-(-n // max_paths) for n in runs)
    assert max(runs) > max_paths
