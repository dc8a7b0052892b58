import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nfclab as nl
from nfclab.analysis import ChannelStats
from nfclab.stationarity import (DEFAULT_SLOPE_THRESHOLD_DB, StationarityError, _cmd,
                                 cmd_map, export_cmd_map_csv,
                                 export_partition_csv, uniform_partition)
import reference
from reference import correlation_matrix

SWEEP = nl.Sweep(n_points=801)


def cfr_from(values):
    return nl.ChannelFrequencyResponse(values=np.asarray(values, dtype=complex), sweep=SWEEP)


def random_psd(rng, m=4):
    a = rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))
    return a @ a.conj().T


def stats_with(power_db=None, n=64, **arrays):
    zeros = np.zeros(n)
    power = zeros if power_db is None else np.asarray(power_db, dtype=float)
    fields = dict(power_db=power, pdp=np.ones((n, 8)), delay_spread_s=zeros.copy(),
                  los_phase_rad=zeros.copy(), aod_rad=zeros.copy(),
                  tau_los_s=zeros.copy(), los_valid=np.ones(n, bool),
                  aod_valid=np.ones(n, bool))
    fields.update(arrays)
    return ChannelStats(**fields)


# ---------------------------------------------------------------------------
# correlation_matrix
# ---------------------------------------------------------------------------

def test_correlation_matrix_rank_one_for_coherent_field():
    v = np.array([1.0, 1j, -1.0, 2.0], dtype=complex)
    values = np.repeat(v[:, None], SWEEP.n_points, axis=1)
    r = correlation_matrix(cfr_from(values), (1, 4))
    assert np.allclose(r, np.outer(v, v.conj()), rtol=1e-12)
    eigvals = np.linalg.eigvalsh(r)
    assert eigvals[-1] == pytest.approx(float(np.vdot(v, v).real), rel=1e-12)
    assert np.all(eigvals[:-1] < 1e-10 * eigvals[-1])


def test_correlation_matrix_iid_rows_near_identity():
    rng = np.random.default_rng(11)
    values = (rng.normal(size=(4, SWEEP.n_points))
              + 1j * rng.normal(size=(4, SWEEP.n_points))) / math.sqrt(2)
    r = correlation_matrix(cfr_from(values), (1, 4))
    off = r - np.diag(np.diag(r))
    assert np.abs(off).max() < 5 / math.sqrt(SWEEP.n_points)
    assert np.allclose(np.diag(r).real, 1.0, atol=5 / math.sqrt(SWEEP.n_points))


def test_correlation_matrix_hermitian_psd_always():
    rng = np.random.default_rng(12)
    for _ in range(20):
        values = rng.normal(size=(6, 64)) + 1j * rng.normal(size=(6, 64))
        r = correlation_matrix(nl.ChannelFrequencyResponse(values=values, sweep=nl.Sweep(n_points=64)),
                               (2, 5))
        assert np.allclose(r, r.conj().T)
        eigvals = np.linalg.eigvalsh(r)
        assert eigvals.min() >= -1e-10 * np.trace(r).real


def test_correlation_matrix_window_bounds():
    values = np.ones((4, SWEEP.n_points), dtype=complex)
    with pytest.raises(StationarityError):
        correlation_matrix(cfr_from(values), (1, 1))
    with pytest.raises(StationarityError):
        correlation_matrix(cfr_from(values), (3, 6))


# ---------------------------------------------------------------------------
# correlation matrix distance
# ---------------------------------------------------------------------------

def cmd(r1, r2):
    """The distance of one pair of correlation matrices, through the Gram routine."""
    return float(_cmd(r1[None], r2[None])[0, 0])


def test_cmd_identical_and_scaled():
    rng = np.random.default_rng(1)
    r = random_psd(rng)
    assert cmd(r, r) == pytest.approx(0.0, abs=1e-12)
    assert cmd(r, 3.7 * r) == pytest.approx(0.0, abs=1e-12)


def test_cmd_orthogonal_supports():
    r1 = np.diag([1.0, 0.0]).astype(complex)
    r2 = np.diag([0.0, 1.0]).astype(complex)
    assert cmd(r1, r2) == 1.0


def test_cmd_zero_matrix_is_at_distance_one():
    zero, eye = np.zeros((2, 2)), np.eye(2)
    assert cmd(zero, eye) == cmd(eye, zero) == cmd(zero, zero) == 1.0


def test_cmd_properties_random_pairs():
    rng = np.random.default_rng(99)
    for _ in range(200):
        r1, r2 = random_psd(rng), random_psd(rng)
        d12 = cmd(r1, r2)
        d21 = cmd(r2, r1)
        assert abs(d12 - d21) < 1e-9
        assert -1e-9 <= d12 <= 1.0 + 1e-9
        # invariant under simultaneous unitary conjugation
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        d_conj = cmd(q @ r1 @ q.conj().T, q @ r2 @ q.conj().T)
        assert d_conj == pytest.approx(d12, abs=1e-9)


# ---------------------------------------------------------------------------
# partition_by_cmd
# ---------------------------------------------------------------------------

def test_partition_white_field_single_interval():
    rng = np.random.default_rng(21)
    values = (rng.normal(size=(64, 801)) + 1j * rng.normal(size=(64, 801)))
    part = nl.partition_by_cmd(cfr_from(values))
    assert part.intervals == ((1, 64),)
    assert part.criterion == "cmd"


def test_partition_two_scene_concatenation(los_scene):
    bare = replace(los_scene, walls=(), point_scatterers=())
    r = 14.0
    a = replace(bare, rx=(r * math.cos(math.radians(60)), r * math.sin(math.radians(60)), 2.5))
    b = replace(bare, rx=(r * math.cos(math.radians(120)), r * math.sin(math.radians(120)), 2.5))
    splice = 32
    values = np.vstack([nl.synthesize_cfr(a, nl.path_table(a)).values[:splice],
                        nl.synthesize_cfr(b, nl.path_table(b)).values[splice:]])
    part = nl.partition_by_cmd(nl.ChannelFrequencyResponse(values=values, sweep=bare.sweep))
    assert part.n_intervals >= 2
    assert abs(part.boundaries()[0] - splice) <= 2


def test_partition_olos_boundary_near_shadow_edge(olos_cfr):
    part = nl.partition_by_cmd(olos_cfr)
    assert any(24 <= b <= 28 for b in part.boundaries())


def test_partition_short_array_warns():
    values = np.ones((6, 801), dtype=complex)
    part = nl.partition_by_cmd(cfr_from(values), m=4)
    assert part.intervals == ((1, 6),)
    assert part.warnings


def test_partition_all_zero_warns():
    values = np.zeros((64, 801), dtype=complex)
    part = nl.partition_by_cmd(cfr_from(values))
    assert part.intervals == ((1, 64),)
    assert "all-zero" in part.warnings[0]


def test_partition_subnormal_sample_is_not_all_zero():
    values = np.zeros((64, 801), dtype=complex)
    values[17, 400] = 5e-324j  # the smallest subnormal, in the imaginary part only
    part = nl.partition_by_cmd(cfr_from(values))
    assert "all-zero response" not in part.warnings


def test_partition_legality_on_random_inputs():
    rng = np.random.default_rng(31)
    for _ in range(10):
        n = int(rng.integers(4, 40))
        values = rng.normal(size=(n, 101)) * np.exp(1j * rng.uniform(0, 2 * np.pi, size=(n, 101)))
        part = nl.partition_by_cmd(nl.ChannelFrequencyResponse(values=values, sweep=nl.Sweep(n_points=101)),
                                   m=3, tau=float(rng.uniform(0.05, 0.9)))
        assert part.intervals[0][0] == 1
        assert part.intervals[-1][1] == n
        for (s1, e1), (s2, e2) in zip(part.intervals, part.intervals[1:]):
            assert s2 == e1 + 1


def test_partition_interval_count_monotone_in_tau(olos_cfr):
    counts = [nl.partition_by_cmd(olos_cfr, tau=t).n_intervals
              for t in (0.4, 0.2, 0.1, 0.05)]
    assert all(counts[i + 1] >= counts[i] for i in range(len(counts) - 1))


def test_partition_determinism(olos_cfr):
    p1 = nl.partition_by_cmd(olos_cfr)
    p2 = nl.partition_by_cmd(olos_cfr)
    assert p1 == p2


def test_partition_parameter_validation(olos_cfr):
    with pytest.raises(StationarityError):
        nl.partition_by_cmd(olos_cfr, m=1)
    with pytest.raises(StationarityError):
        nl.partition_by_cmd(olos_cfr, tau=1.5)


# ---------------------------------------------------------------------------
# characteristic slope + slope partition
# ---------------------------------------------------------------------------

def test_characteristic_slope_constant_and_linear():
    assert np.allclose(nl.characteristic_slope(np.full(10, 3.3)), 0.0)
    s = 2.0 * np.arange(1, 11)
    assert np.allclose(nl.characteristic_slope(s, w=1), 2.0)


def test_characteristic_slope_quadratic_hand_value():
    s = np.arange(1, 21, dtype=float) ** 2
    k = nl.characteristic_slope(s, w=1)
    assert k[9] == pytest.approx((11 ** 2 - 9 ** 2) / 2)  # element 10 -> 20


def test_characteristic_slope_validation():
    with pytest.raises(ValueError):
        nl.characteristic_slope(np.ones(2))
    with pytest.raises(ValueError):
        nl.characteristic_slope(np.ones(10), w=4)


def test_partition_by_slope_constant_single():
    part = nl.partition_by_slope(stats_with())
    assert part.intervals == ((1, 64),)
    assert part.criterion == "slope"


def test_partition_by_slope_step_at_26():
    power = np.where(np.arange(1, 65) >= 26, -10.0, 0.0)
    part = nl.partition_by_slope(stats_with(power_db=power), gamma_db=15.0)
    assert part.n_intervals == 2
    assert abs(part.boundaries()[0] - 26) <= 2


def test_partition_by_slope_uniform_power_split():
    # slope below threshold everywhere, but 5 dB total spread with gamma=3
    power = np.linspace(0.0, 5.0, 64)
    k = nl.characteristic_slope(power)
    assert np.abs(k).max() <= DEFAULT_SLOPE_THRESHOLD_DB
    part = nl.partition_by_slope(stats_with(power_db=power), gamma_db=3.0)
    assert part.n_intervals >= 2
    for start, end in part.intervals:
        segment = power[start - 1:end]
        assert segment.max() - segment.min() <= 3.0 + 1e-9


# ---------------------------------------------------------------------------
# helpers + exports
# ---------------------------------------------------------------------------

def test_uniform_partition_divisions():
    part = uniform_partition(64, 4)
    assert part.intervals == ((1, 16), (17, 32), (33, 48), (49, 64))
    singles = uniform_partition(5, 5)
    assert singles.intervals == ((1, 1), (2, 2), (3, 3), (4, 4), (5, 5))


def test_cmd_map_and_exports(tmp_path, olos_cfr):
    dmap = cmd_map(olos_cfr)
    n_windows = 64 - 4 + 1
    assert dmap.shape == (n_windows, n_windows)
    assert np.array_equal(dmap, dmap.T)
    assert np.all(np.diag(dmap) == 0.0)
    out = tmp_path / "cmd_map.csv"
    export_cmd_map_csv(dmap, out)
    assert len(out.read_text().strip().splitlines()) == 1 + n_windows ** 2

    part = nl.partition_by_cmd(olos_cfr)
    pcsv = tmp_path / "partition.csv"
    export_partition_csv([part], pcsv)
    lines = pcsv.read_text().strip().splitlines()
    assert lines[0] == "interval_index,start,end,criterion,boundary_score"
    assert len(lines) == 1 + part.n_intervals


def test_cmd_map_exactly_symmetric_on_a_wide_array():
    # 509 windows: wide enough that a blocked or threaded Gram product and
    # dividing by one norm after the other both break the symmetry.
    rng = np.random.default_rng(11)
    values = rng.normal(size=(512, 16)) + 1j * rng.normal(size=(512, 16))
    dmap = cmd_map(nl.ChannelFrequencyResponse(values=values, sweep=nl.Sweep(n_points=16)))
    assert dmap.shape == (509, 509)
    assert np.array_equal(dmap, dmap.T)


def test_export_cmd_map_csv_rejects_asymmetric_map(tmp_path):
    dmap = np.array([[0.0, 0.25], [0.5, 0.0]])
    with pytest.raises(ValueError, match="symmetric"):
        export_cmd_map_csv(dmap, tmp_path / "cmd_map.csv")
    assert not (tmp_path / "cmd_map.csv").exists()


@st.composite
def power_profiles(draw):
    """Received-power vectors of 1-80 elements: plateaus, steps, ramps and noise, some ties."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = int(rng.integers(1, 81))  # uniform: hypothesis would favour the shortest arrays
    steps = rng.choice([-6.0, -1.0, 0.0, 0.0, 0.0, 1.0, 6.0], size=n) * draw(st.floats(0.0, 2.0))
    power = np.cumsum(steps) + rng.normal(size=n) * draw(st.sampled_from([0.0, 0.1, 1.0]))
    return np.round(power, draw(st.integers(0, 3)))


@settings(max_examples=300, deadline=None)
@given(power=power_profiles(), gamma_db=st.floats(0.25, 12.0))
@example(power=np.concatenate([np.zeros(10), np.full(10, -10.0), np.linspace(-10.0, -20.0, 30)]),
         gamma_db=3.0)  # a slope boundary at the step, then uniform-power splits on the ramp
def test_partition_by_slope_matches_reference(power, gamma_db):
    new = nl.partition_by_slope(stats_with(power_db=power, n=len(power)), gamma_db=gamma_db)
    intervals, scores, warnings = reference.partition_by_slope(power, gamma_db)
    assert new.intervals == intervals
    assert new.warnings == warnings
    # NaN marks a uniform-power split; the bytes compare NaN equal to NaN
    assert np.array(new.boundary_scores).tobytes() == np.array(scores).tobytes()


def test_partition_by_slope_short_array_warns():
    part = nl.partition_by_slope(stats_with(n=2))
    assert part.intervals == ((1, 2),)
    assert "too short" in part.warnings[0]
