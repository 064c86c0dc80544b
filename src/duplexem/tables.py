"""Column-wise CSV tables with 17-significant-digit numbers.

The bytes match what ``csv.writer`` writes for rows of ``f"{x:.17g}"``
cells: ',' between cells, '\\r\\n' after every line, and a string cell
quoted only when it holds ',', '"', '\\r' or '\\n'.  Numbers are formatted
a column at a time, and each distinct value (compared bit for bit, so
-0.0 and 0.0 stay apart) is formatted once.
"""

from __future__ import annotations

import numpy as np

_BLOCK_ROWS = 1024   # rows formatted and written per block, to bound memory


def _quote(text: str) -> str:
    if any(ch in text for ch in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _cells(name: str, column: np.ndarray) -> list:
    """The CSV cells of one column, as strings."""
    if column.dtype.kind == "U":
        return [_quote(text) for text in column.tolist()]
    if column.dtype.kind not in "biuf":
        raise ValueError(f"column {name!r} is not real ({column.dtype}); "
                         "write its real and imaginary parts as two columns")
    bits, index = np.unique(column.astype(float).view(np.int64), return_inverse=True)
    text = np.array([f"{x:.17g}" for x in bits.view(float).tolist()], dtype=object)
    return text[index].tolist()


def write_csv(path, header, columns, preamble: str = "") -> None:
    """Write a header line and equal-length columns as CSV rows.

    Each column is a sequence of numbers (bool, int or real float) or of
    strings.  A complex column raises ValueError naming it.  `preamble`
    is written verbatim before the header.
    """
    columns = [np.asarray(col) for col in columns]
    if len(columns) != len(header):
        raise ValueError(f"{len(columns)} columns for {len(header)} header names")
    n_rows = len(columns[0])
    if any(col.shape != (n_rows,) for col in columns):
        raise ValueError("columns must be one-dimensional and of equal length")
    with open(path, "w", newline="") as fh:
        fh.write(preamble)
        fh.write(",".join(map(_quote, header)) + "\r\n")
        for start in range(0, n_rows, _BLOCK_ROWS):
            block = [_cells(name, col[start:start + _BLOCK_ROWS])
                     for name, col in zip(header, columns)]
            fh.write("\r\n".join(map(",".join, zip(*block))))
            fh.write("\r\n")
