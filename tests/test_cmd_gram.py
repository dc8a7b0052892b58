"""The Gram-product CMD map and partition agree with the per-pair loops they replaced.

``_ref_correlation_matrix``, ``_ref_correlation_matrix_distance``,
``_ref_cmd_map`` and ``_ref_partition_by_cmd`` are the per-window and per-pair
implementations that the banded window-correlation stack replaced, kept
verbatim (returning plain arrays, with the interval fold of
``reference.merge_short_intervals``) as the reference.  The sums run in
another order, so values agree to 1e-12, not bitwise.  The partition's own
scan and fold are checked bit for bit against ``reference.partition_by_cmd``,
and every distance row its scan computes against the matching ``cmd_map`` row.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nfclab as nl
from nfclab.stationarity import (StationarityError, StationaryPartition, _cmd,
                                 _window_correlations, cmd_map, partition_by_cmd)
from reference import correlation_matrix, merge_short_intervals
from reference import partition_by_cmd as reference_partition_by_cmd

TOL = 1e-12


# ---------------------------------------------------------------------------
# Reference implementations (the per-pair loops, verbatim)
# ---------------------------------------------------------------------------

def _ref_correlation_matrix(cfr, window):
    start, end = window
    m = end - start + 1
    if m < 2:
        raise StationarityError(f"window must span >= 2 elements, got {window}")
    if start < 1 or end > cfr.n_elements:
        raise StationarityError(f"window {window} outside 1..{cfr.n_elements}")
    x = cfr.values[start - 1:end, :]
    r = (x @ x.conj().T) / cfr.sweep.n_points
    r = 0.5 * (r + r.conj().T)  # enforce exact Hermitian symmetry
    return r


def _ref_correlation_matrix_distance(m1, m2):
    if m1.shape != m2.shape:
        raise StationarityError(f"matrix shapes differ: {m1.shape} vs {m2.shape}")
    n1 = float(np.linalg.norm(m1, "fro"))
    n2 = float(np.linalg.norm(m2, "fro"))
    if n1 == 0.0 or n2 == 0.0:
        raise StationarityError("correlation matrix distance undefined for a zero matrix")
    inner = float(np.real(np.trace(m1 @ m2)))
    return min(1.0, max(0.0, 1.0 - inner / (n1 * n2)))


def _ref_cmd_map(cfr, m):
    n_windows = cfr.n_elements - m + 1
    if n_windows < 1:
        raise StationarityError(f"array shorter than one window of {m}")
    mats = [_ref_correlation_matrix(cfr, (s, s + m - 1)) for s in range(1, n_windows + 1)]
    out = np.zeros((n_windows, n_windows))
    for i in range(n_windows):
        for j in range(i + 1, n_windows):
            try:
                d = _ref_correlation_matrix_distance(mats[i], mats[j])
            except StationarityError:
                d = 1.0
            out[i, j] = out[j, i] = d
    return out


def _ref_partition_by_cmd(cfr, m, tau, min_si=None):
    if m < 2:
        raise StationarityError(f"window size must be >= 2, got {m}")
    if not 0.0 < tau < 1.0:
        raise StationarityError(f"threshold must lie in (0, 1), got {tau}")
    if min_si is None:
        min_si = m
    n = cfr.n_elements

    warnings: list[str] = []
    if n < 2 * m:
        return StationaryPartition(intervals=((1, n),), criterion="cmd", boundary_scores=(),
                                   warnings=(f"array of {n} elements shorter than two windows of {m}",))
    if not np.any(np.abs(cfr.values) > 0):
        return StationaryPartition(intervals=((1, n),), criterion="cmd", boundary_scores=(),
                                   warnings=("all-zero response",))

    boundaries: list[int] = []
    scores: list[float] = []
    si_start = 1
    while si_start + m - 1 <= n:
        reference = _ref_correlation_matrix(cfr, (si_start, si_start + m - 1))
        tripped = False
        for t in range(si_start + 1, n - m + 2):
            test = _ref_correlation_matrix(cfr, (t, t + m - 1))
            try:
                d = _ref_correlation_matrix_distance(reference, test)
            except StationarityError:
                d = 1.0  # zero-power window is maximally different
            if d > tau:
                boundaries.append(t)
                scores.append(d)
                si_start = t
                tripped = True
                break
        if not tripped:
            break

    edges = [1] + boundaries + [n + 1]
    intervals = [[edges[i], edges[i + 1] - 1] for i in range(len(edges) - 1)]
    intervals, scores = merge_short_intervals(intervals, scores, min_si)
    return StationaryPartition(intervals=tuple((s, e) for s, e in intervals),
                               criterion="cmd", boundary_scores=tuple(scores),
                               warnings=tuple(warnings))


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

@st.composite
def cfrs(draw):
    """Random complex CFR: 2-40 elements x 2-32 points, row scales over 6 decades,
    some rows zeroed (zero-power windows)."""
    n = draw(st.integers(2, 40))
    n_points = draw(st.integers(2, 32))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = rng.normal(size=(n, n_points)) + 1j * rng.normal(size=(n, n_points))
    values *= 10.0 ** rng.uniform(-3, 3, size=(n, 1))
    values[draw(st.lists(st.integers(0, n - 1), max_size=n // 2))] = 0.0
    return nl.ChannelFrequencyResponse(values=values, sweep=nl.Sweep(n_points=n_points))


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(cfr=cfrs(), m=st.integers(2, 6))
def test_cmd_map_matches_pairwise_loop(cfr, m):
    dmap = cmd_map(cfr, m)
    if cfr.n_elements < m:
        assert dmap.shape == (0, 0)
        return
    ref = _ref_cmd_map(cfr, m)
    assert dmap.shape == ref.shape
    assert np.abs(dmap - ref).max() <= TOL
    assert np.all(np.diag(dmap) == 0.0)
    assert np.array_equal(dmap, dmap.T)


@settings(max_examples=200, deadline=None)
@given(cfr=cfrs(), m=st.integers(2, 6), tau=st.floats(0.02, 0.9))
def test_partition_by_cmd_matches_reference_scan(cfr, m, tau):
    new = partition_by_cmd(cfr, m=m, tau=tau)
    ref = _ref_partition_by_cmd(cfr, m, tau)
    assert new.intervals == ref.intervals
    assert new.warnings == ref.warnings
    assert len(new.boundary_scores) == len(ref.boundary_scores)
    assert np.allclose(new.boundary_scores, ref.boundary_scores, rtol=0.0, atol=TOL)


@settings(max_examples=200, deadline=None)
@given(cfr=cfrs(), m=st.integers(2, 6), tau=st.floats(0.02, 0.9))
def test_partition_by_cmd_matches_reference_fold_bitwise(cfr, m, tau):
    new = partition_by_cmd(cfr, m=m, tau=tau)
    intervals, scores, warnings = reference_partition_by_cmd(cfr, m, tau)
    assert new.intervals == intervals
    assert new.warnings == warnings
    assert np.array(new.boundary_scores).tobytes() == np.array(scores).tobytes()


@settings(max_examples=100, deadline=None)
@given(cfr=cfrs(), m=st.integers(2, 6), data=st.data())
def test_correlation_matrix_is_a_window_of_the_stack(cfr, m, data):
    if cfr.n_elements < m:
        return
    start = data.draw(st.integers(1, cfr.n_elements - m + 1))
    r = correlation_matrix(cfr, (start, start + m - 1))
    ref = _ref_correlation_matrix(cfr, (start, start + m - 1))
    assert np.abs(r - ref).max() <= TOL * max(1.0, np.abs(ref).max())
    assert np.array_equal(r, r.conj().T)


def assert_scan_rows_are_map_rows(cfr, m):
    """Each anchor's scan row is its ``cmd_map`` row from the next window on, byte for byte."""
    dmap = cmd_map(cfr, m)
    stack = _window_correlations(cfr.values, m)
    assert dmap.shape == (len(stack), len(stack))
    for a in range(len(stack) - 1):  # every anchor the scan can reach: one window must follow it
        row = _cmd(stack[a:a + 1], stack[a + 1:])[0]  # as partition_by_cmd's scan computes it
        assert row.tobytes() == dmap[a, a + 1:].tobytes(), a


@settings(max_examples=100, deadline=None)
@given(cfr=cfrs(), m=st.integers(2, 8))
def test_partition_scan_rows_are_cmd_map_rows(cfr, m):
    if cfr.n_elements < m:
        return
    assert_scan_rows_are_map_rows(cfr, m)


@pytest.mark.parametrize("cfr_fixture", ["los_cfr", "olos_cfr"])
def test_partition_scan_rows_are_cmd_map_rows_on_presets(cfr_fixture, request):
    cfr = request.getfixturevalue(cfr_fixture)
    for m in range(2, 9):
        assert_scan_rows_are_map_rows(cfr, m)


def test_cmd_map_rejects_single_element_window():
    cfr = nl.ChannelFrequencyResponse(values=np.ones((8, 4), dtype=complex), sweep=nl.Sweep(n_points=4))
    with pytest.raises(StationarityError):
        cmd_map(cfr, m=1)
    assert cmd_map(cfr, m=9).shape == (0, 0)
