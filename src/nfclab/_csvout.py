"""The CSV dialect of every artifact: comma, ``\\r\\n``, no quoting, ``repr`` floats.

No cell holds a comma, quote or line break, so these are the bytes
``csv.writer`` wrote.  Every file joins cell matrices, one cell per row of
NUL-padded bytes (``cells`` and ``_floatrepr.repr_cells``), into lines and
drops the NULs in one compaction per block (``lines``).  ``write_csv``
writes a small file's ``str`` columns at once; a ``CellGrid`` writes a bulk
file one row block at a time.
"""

from __future__ import annotations

import numpy as np

from . import _floatrepr, _kernels

_CRLF = np.frombuffer(b"\r\n", dtype=np.uint8)


def floats(values) -> list[str]:
    return list(map(repr, np.asarray(values, dtype=float).tolist()))


def strs(values) -> list[str]:
    return list(map(str, values))


def cells(column) -> np.ndarray:
    """ASCII ``str`` cells as an ``(n, width)`` uint8 matrix, each row NUL-padded."""
    padded = np.array(column, dtype=bytes)
    return padded.view(np.uint8).reshape(len(padded), padded.itemsize)


def lines(fields) -> np.ndarray:
    """The bytes of the lines of a block of cell matrices, NULs dropped.

    Each field is a uint8 ``(rows, cols, width)`` array of NUL-padded cells,
    or one that broadcasts to ``(rows, cols)`` cells: a per-row label
    ``(rows, 1, width)``, a per-column cell ``(1, cols, width)``.  Line
    (r, c) is the fields' cells (r, c), joined by commas.  Fields whose
    ``(rows, cols)`` do not broadcast raise ValueError; a field of fewer than
    three dimensions raises IndexError.
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


def open_csv(path, header):
    """``path`` opened for binary writing, with the ``header`` line written."""
    fh = open(path, "wb")
    try:
        fh.write((",".join(header) + "\r\n").encode())
    except BaseException:
        fh.close()
        raise
    return fh


def write_csv(path, header, columns) -> None:
    """Write ``header``, then a line per row of the ``str`` cell ``columns``; unequal lengths raise ValueError."""
    if len(set(map(len, columns))) > 1:
        raise ValueError(f"columns must have equal lengths, got {[len(column) for column in columns]}")
    with open_csv(path, header) as fh:
        fh.write(lines([cells(column)[:, None] for column in columns]))


class CellGrid:
    """A bulk CSV file of one line per cell of an ``(N, F)`` array, written one row block at a time.

    Line (r, c) holds r + 1, the column cells ``columns[i][c]``, then the
    cells that ``values(rows)`` gives for a block of rows: one
    ``(rows, cols, width)`` cell matrix per field.  ``add(start, stop, rows)``
    takes rows ``[start, stop)`` in order and formats them in passes of at
    most ``_floatrepr.PASS_VALUES`` values: the rows of
    ``_kernels.row_blocks(stop - start, F, PASS_VALUES)``, and a row longer
    than that in column chunks.  A line's bytes do not depend on the pass.
    Use it as a context manager, which closes the file.
    """

    def __init__(self, path, header, n_rows, columns, values):
        self._label = cells(strs(range(1, n_rows + 1)))[:, None]
        self._columns = [column[None] for column in columns]
        self._values = values
        self._fh = open_csv(path, header)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._fh.close()

    def add(self, start, stop, rows) -> None:
        n_cols = rows.shape[1]
        for a, b in _kernels.row_blocks(stop - start, n_cols, _floatrepr.PASS_VALUES):
            # a row longer than a pass goes in column chunks, which keep the lines' order
            for c, d in _kernels.row_blocks(n_cols, 1, _floatrepr.PASS_VALUES // (b - a)):
                self._fh.write(lines((self._label[start + a:start + b],
                                      *(column[:, c:d] for column in self._columns),
                                      *self._values(rows[a:b, c:d]))))
