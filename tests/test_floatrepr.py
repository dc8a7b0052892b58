"""``repr_cells`` against ``repr``, value by value.

The formatter must give each float64 exactly the bytes ``repr`` gives it:
arbitrary bit patterns, the edges of the layout rules and of Schubfach's
arithmetic (powers of two and ten and their neighbours, the largest
integers float64 holds exactly), and the values it hands to ``repr``
itself (zero, subnormals, infinities, NaN).
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


def test_repr_cells_table_is_schubfach_g():
    # g = floor(10^-k 2^(125 - floor(log2 10^-k))) + 1 lies in (2^125, 2^126]
    g1, g0 = _floatrepr._g_table()
    assert len(g1) == len(g0) == 617
    for i, (hi, lo) in enumerate(zip(g1.tolist(), g0.tolist())):
        g = (hi << 63) | lo
        assert 2 ** 125 < g <= 2 ** 126, i


def test_repr_cells_tables_are_built_on_first_use(tmp_path):
    # importing the package and a phase-check (no bulk file) leave the tables unbuilt
    src = Path(nfclab.__file__).resolve().parents[1]
    code = ("import sys; from nfclab import _floatrepr; from nfclab.cli import main\n"
            "assert main(['phase-check', 'los_lab', '--out', sys.argv[1]]) == 0\n"
            "print(_floatrepr._g_table.cache_info().currsize, _floatrepr._quads.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code, str(tmp_path)], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 0"
