"""``repr_cells`` against ``repr``.

The formatter must give each float64 exactly the bytes ``repr`` gives it:
arbitrary bit patterns, the edges of the layout rules and of Dragonbox's
arithmetic (powers of two and ten and their neighbours, the largest
integers float64 holds exactly, a value for each rarely taken branch), and
the values it hands to ``repr`` itself (zero, subnormals, infinities, NaN).
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import nfclab
from nfclab import _floatrepr
from nfclab._floatrepr import PASS_VALUES, WIDTH, repr_cells


def assert_repr_cells(values):
    values = np.asarray(values, dtype=np.float64)
    cells = repr_cells(values)
    assert cells.shape[:-1] == values.shape and cells.shape[-1] <= WIDTH
    for value, cell in zip(values.ravel().tolist(), cells.reshape(-1, cells.shape[-1])):
        assert cell[cell != 0].tobytes() == repr(value).encode(), (value, cell.tobytes())


def _edge_values():
    powers_of_two = [2.0 ** e for e in range(-1074, 1024)]
    powers_of_ten = [float(f"1e{e}") for e in range(-323, 309)]
    neighbours = [np.nextafter(x, direction) for x in powers_of_ten for direction in (0.0, math.inf)]
    big = 2.0 ** 53
    integers = [big + d for d in range(-8, 9)] + [float(2 ** 53 - d) for d in range(1, 9)]
    named = [-0.0, 0.0, 5e-324, 2e23, 1e16, 1e-5, 1e-4, 1e-3, 0.1, 1e15, 1e17, 9007199254740993.0,
             2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308,
             math.inf, -math.inf, math.nan]
    values = np.array(powers_of_two + powers_of_ten + neighbours + integers + named)
    return np.concatenate([values, -values])


def test_repr_cells_matches_repr_on_the_edges():
    assert_repr_cells(_edge_values())


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
def test_repr_cells_matches_repr_on_any_bit_pattern(bits):
    assert_repr_cells(np.array(bits, dtype=np.uint64).view(np.float64))


def test_repr_cells_matches_repr_on_every_layout():
    # 1..17 significant digits at decimal exponents across every layout, over several passes
    rng = np.random.default_rng(7)
    n_digits = rng.integers(1, 18, size=3 * PASS_VALUES)
    mantissas = [int(rng.integers(10 ** (d - 1), 10 ** d)) for d in n_digits.tolist()]
    exponents = rng.integers(-25, 10, size=len(mantissas)).tolist()
    values = np.array([float(f"{m}e{e}") for m, e in zip(mantissas, exponents)])
    values[::2] *= -1.0
    assert_repr_cells(values.reshape(3, -1))
    assert_repr_cells(rng.normal(size=(2, PASS_VALUES + 1)) * 1e-4)  # CFR-like


def test_repr_cells_of_empty_and_one_value_arrays():
    assert repr_cells(np.zeros((0, 3))).shape == (0, 3, 0)
    for value in (1.5, -0.0, math.nan, 1e-300):
        assert_repr_cells(np.array([value]))


def repr_text(values):
    """The ``repr`` of every value, one per line, from ``repr_cells`` in one compaction."""
    cells = repr_cells(values)
    line = np.full((len(values), cells.shape[1] + 1), ord("\n"), dtype=np.uint8)
    line[:, :-1] = cells
    return line[line != 0].tobytes()


def test_repr_cells_matches_repr_on_rare_dragonbox_branches():
    # one value per branch that random values seldom reach (found by a search over random
    # significands with a scalar Dragonbox that records the branches it takes)
    values = [
        3.1390435453969748e+16,  # right endpoint excluded: r == 0, z an integer, fc odd
        1.083317187204748e+209,  # r == δ, the parity product keeps the 15-16 digits
        5.36356444143283e+16,  # r == δ, kept: the left endpoint an integer, fc even
        4.862705291487831e-100,  # r == δ, the parity product asks for one digit more
        1.8137636709154772e+16,  # r == δ, one digit more: the left endpoint an integer, fc odd
        1.7237227741907818e+19,  # dist divisible by 100, the digit one too high
        5.031308101773078e+18,  # dist divisible by 100, the digit kept
        1199755603449646.8,  # dist divisible by 100, y an integer, the digit even: kept
        2165161090053549.2,  # dist divisible by 100, y an integer, the digit odd: the tie goes to even
        2.9802322387695312e-08,  # shorter interval at binary exponent -77: the tie to even
        2.0 ** 54, 2.0 ** 55,  # shorter interval, the left endpoint an integer (left out of it: same digits)
    ]
    assert_repr_cells(values + [-value for value in values])


def test_repr_cells_matches_repr_on_a_million_values():
    rng = np.random.default_rng(20)
    bits = rng.integers(0, 2 ** 64, size=1 << 19, dtype=np.uint64).view(np.float64)
    cfr = rng.normal(0.0, 1e-4, size=1 << 17)
    powers_db = 10.0 * np.log10(np.abs(rng.normal(0.0, 1e-4, size=1 << 17)) ** 2)
    mantissas = rng.integers(1, 10 ** 7, size=200_000).astype(np.float64)
    exponents = rng.integers(-20, 21, size=len(mantissas))
    short = np.where(exponents < 0, mantissas / 10.0 ** -np.minimum(exponents, 0), mantissas * 10.0 ** exponents)
    powers_of_two = np.ldexp(1.0, np.arange(-1022, 1024))
    neighbours = [np.nextafter(powers_of_two, direction) for direction in (0.0, np.inf)]
    values = np.concatenate([bits, cfr, powers_db, short, powers_of_two, *neighbours])
    values = np.concatenate([values, -values[:(1 << 20) - len(values)]])
    assert len(values) == 1 << 20
    assert repr_text(values) == ("\n".join(map(repr, values.tolist())) + "\n").encode()


def test_repr_cells_cache_is_dragonbox():
    # entry k is the ceiling of 10^k 2^(127 - floor(log2 10^k)), in [2^127, 2^128)
    high, low = _floatrepr._cache()
    assert len(high) == len(low) == 326 + 292 + 1
    for k, (hi, lo) in enumerate(zip(high.tolist(), low.tolist()), start=-292):
        power = 10 ** abs(k)
        floor_log2 = power.bit_length() - 1 if k >= 0 else -power.bit_length()  # 10^|k| is no power of two
        shift = 127 - floor_log2
        num, den = (power << max(shift, 0), 1 << max(-shift, 0)) if k >= 0 else (1 << shift, power)
        entry = (hi << 64) | lo
        assert entry == -(-num // den), k
        assert 2 ** 127 <= entry < 2 ** 128, k


def test_repr_cells_tables_are_built_on_first_use(tmp_path):
    # importing the package and a phase-check (no bulk file) leave the tables unbuilt
    src = Path(nfclab.__file__).resolve().parents[1]
    code = ("import sys; from nfclab import _floatrepr; from nfclab.cli import main\n"
            "assert main(['phase-check', 'los_lab', '--out', sys.argv[1]]) == 0\n"
            "print(_floatrepr._cache.cache_info().currsize, _floatrepr._quads.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code, str(tmp_path)], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 0"
