"""The CSV dialect of every artifact: comma, ``\\r\\n``, no quoting, ``repr`` floats.

No cell holds a comma, quote or line break, so these are the bytes
``csv.writer`` wrote.  ``write_csv`` writes the header, then byte blocks.
The small files join ``str`` cells into a block (``rows``).  The bulk files
join cell matrices, one cell per row of NUL-padded bytes (``cells`` and
``_floatrepr.repr_cells``), into lines and drop the NULs in one compaction
per block (``lines``).
"""

from __future__ import annotations

import numpy as np

_CRLF = np.frombuffer(b"\r\n", dtype=np.uint8)


def floats(values) -> list[str]:
    return list(map(repr, np.asarray(values, dtype=float).tolist()))


def strs(values) -> list[str]:
    return list(map(str, values))


def rows(columns) -> bytes:
    """Rows of comma-joined ``str`` cells; a column of another length raises ValueError."""
    k, n = len(columns), len(columns[0])
    parts = [","] * (2 * k * n)
    for c, column in enumerate(columns):
        parts[2 * c::2 * k] = column
    parts[2 * k - 1::2 * k] = ["\r\n"] * n
    return "".join(parts).encode()


def cells(column) -> np.ndarray:
    """ASCII ``str`` cells as an ``(n, width)`` uint8 matrix, each row NUL-padded."""
    padded = np.array(column, dtype=bytes)
    return padded.view(np.uint8).reshape(len(padded), padded.itemsize)


def lines(fields) -> np.ndarray:
    """The bytes of the lines of a block of cell matrices, NULs dropped.

    Each field is a uint8 ``(rows, cols, width)`` array of NUL-padded cells,
    or one that broadcasts to ``(rows, cols)`` cells: a per-row label
    ``(rows, 1, width)``, a per-column cell ``(1, cols, width)``.  Line
    (r, c) is the fields' cells (r, c), joined by commas.  Fields of other
    shapes raise ValueError.
    """
    shape = np.broadcast_shapes(*(field.shape[:2] for field in fields))
    line = np.empty((*shape, sum(field.shape[2] + 1 for field in fields) + 1), dtype=np.uint8)
    at = 0
    for field in fields:
        width = field.shape[2]
        line[:, :, at:at + width] = field
        line[:, :, at + width] = ord(",")
        at += width + 1
    line[:, :, at - 1:] = _CRLF
    return line[line != 0]


def write_csv(path, header, blocks) -> None:
    """Write ``header``, then each block of bytes in turn."""
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for block in blocks:
            fh.write(block)
