"""The CSV dialect of every artifact: comma, ``\\r\\n``, no quoting, ``repr`` floats.

No cell holds a comma, quote or line break, so these are the bytes
``csv.writer`` wrote.  Exporters pass one element or matrix row per block;
each block is joined from whole columns and written at once.
"""

from __future__ import annotations

import numpy as np


def floats(values) -> list[str]:
    return list(map(repr, np.asarray(values, dtype=float).tolist()))


def strs(values) -> list[str]:
    return list(map(str, values))


def _block(columns) -> str:
    """Rows of comma-joined cells; a column of another length raises ValueError."""
    k, n = len(columns), len(columns[0])
    parts = [","] * (2 * k * n)
    for c, column in enumerate(columns):
        parts[2 * c::2 * k] = column
    parts[2 * k - 1::2 * k] = ["\r\n"] * n
    return "".join(parts)


def write_csv(path, header, blocks) -> None:
    """Write ``header``, then each block (a tuple of cell columns) in turn."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\r\n")
        for columns in blocks:
            fh.write(_block(columns))
