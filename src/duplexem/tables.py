"""Column-wise CSV tables with 17-significant-digit numbers.

Byte contract: a file holds exactly what ``csv.writer`` writes to a text
file for the header and for rows of ``f"{x:.17g}"`` number cells: ','
between cells, '\\r\\n' after every line, and a string cell quoted only
when it holds ',', '"', '\\r' or '\\n', or is empty and alone in its line.
Text is UTF-8, and a string cell may not hold a NUL.

Numbers (bool, int and real float columns, each taken as float64) get
their digits from one generator on whole numpy arrays.  For a finite
nonzero x, with ``mant, e2 = frexp(|x|)``, each e2 has one constant
C = 2**e2 * 10**k, with k putting mant * C in [1e16, 2e17).  C is held as
a double-double: the double nearest C, in Veltkamp halves, and the double
nearest the rest, built exactly from Python ints the first time e2
appears.  Dekker's exact TwoProduct splits mant * C into an integer p and
a rest whose computed value is off by less than 4e-15 units: one rounding
of mant times the low part (below 16, so off by at most 2**-50), one of
its sum with Dekker's exact error (below 32, at most 2**-49) and the
2**-106 of the double-double (at most 2**-50).  So N = p + round(rest)
and the fraction f rounded off sum to mant * C within that error.  A
product of 18 digits (N >= 1e17) drops its last one: N becomes
N // 10 + round((N % 10 + f) / 10), with the new fraction carried and
the exponent one higher; N % 10 + f is exact, and the division by ten
adds at most 2**-54 units.  The result is x rounded to 17 significant
digits whenever the final fraction lies farther than 1e-9 from 1/2.  No
double has a product within 1e-9 of 1e17 - 1/2, so N >= 1e17 picks the
right decade even where N itself is one off.

Fallback set: zeros, infinities, nans and those near-ties, which include
every exact tie (rounded half to even), take Python's own
``f"{x:.17g}"``, one value at a time.

The digits, sign, point and exponent are laid out by the ``g`` rules
(fixed notation for decimal exponents -4 to 16, scientific otherwise,
trailing zeros and a bare point dropped, at least two exponent digits) in
fixed slots of a _WIDTH-byte record, with NUL in the slots a value does
not use.  Each block of _BLOCK_ROWS rows sorts each numeric column's bit
patterns (so -0.0 and 0.0, and nan payloads, stay apart) and formats, in one
_records call, one record of a constant column, each cell of one with more
distinct values than half its rows and each distinct value of any other.
It gathers the records and separators into one byte array, drops its NULs
and writes it in one call.  That last step is ``gather_lines``, which also
lays out the [re,im] pairs of ``fockquant.dump_operator_json`` from records
of json's own text of each distinct number.
"""

from __future__ import annotations

import functools

import numpy as np

_BLOCK_ROWS = 1024   # rows formatted and written per block, to bound memory
_WIDTH = 29          # record bytes: sign, "0.000", 17 digits and a point, "e+308"
_TIE = 1e-9          # rounded-off fractions this close to 1/2 take the fallback
_SCALES, _KNOWN = np.zeros((4, 2098)), np.zeros(2098, bool)   # _scale(e2) at e2 + 1073, if known


def _quote(text: str, alone: bool) -> str:
    if any(ch in text for ch in ',"\r\n') or (alone and not text):   # "" alone: not a blank line
        return '"' + text.replace('"', '""') + '"'
    return text


def _split(a):
    """Veltkamp's split of doubles into halves of 26 significant bits."""
    c = 134217729.0 * a                 # 2**27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _scale(e2: int) -> list:
    """[h1, h2, lo, k] of mantissas in [0.5, 1) of binary exponent e2: h1 + h2
    is the double nearest C = 2**e2 * 10**k, split in halves, and lo the
    double nearest the rest, so h1 + h2 + lo matches C to 2**-106 relative.
    k puts 2**(e2-1) * 10**k in [1e16, 1e17), so mant * C is in [1e16, 2e17)."""
    n = e2 - 1     # floor(log10(2**n)), exactly: 2**|n| is never a power of ten
    k = 16 - (len(str(2 ** n)) - 1 if n >= 0 else -len(str(2 ** -n)))
    num = 2 ** max(e2, 0) * 10 ** max(k, 0)
    den = 2 ** max(-e2, 0) * 10 ** max(-k, 0)
    hi = num / den                      # int / int rounds correctly
    p, q = hi.as_integer_ratio()
    return [*_split(hi), (num * q - p * den) / (den * q), k]


def _round_product(mant, h1, h2, lo):
    """(N, f): N the nearest integer to mant * (h1 + h2 + lo), an int64 at
    or above 1e16, and f the fraction rounded off, in [-1/2, 1/2).  The
    error of p = mant * (h1 + h2) is Dekker's, exact."""
    p = mant * (h1 + h2)                # an integer: p >= 1e16 > 2**53
    m1, m2 = _split(mant)
    rest = (((m1 * h1 - p) + m1 * h2 + m2 * h1) + m2 * h2) + mant * lo
    up = np.floor(rest + 0.5)
    return p.astype(np.int64) + up.astype(np.int64), rest - up


@functools.cache
def _quads() -> np.ndarray:
    """The four ASCII digits of 0 to 9999: column i holds those of i."""
    i = np.arange(10000)
    table = (np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10]) + 48).astype(np.uint8)
    table.flags.writeable = False       # cached: shared by every call
    return table


def _digits(n):
    """The 17 decimal digits of int64 values in [1e16, 1e17), as ASCII
    rows: out[j] holds digit j of every value."""
    out = np.empty((17, n.size), np.uint8)
    for j in range(13, 0, -4):          # digits j..j+3, from the last four
        rest = n // 10000
        np.take(_quads(), n - rest * 10000, axis=1, out=out[j:j + 4])
        n = rest
    out[0] = n + 48
    return out


def _decimal(x: np.ndarray) -> tuple:
    """(n, dec, fast): x rounded to 17 digits as n * 10**(dec - 16), with n
    an int64 in [1e16, 1e17), for the finite nonzero values not within
    _TIE of a rounding tie; fast is False at the others.  A product of 18
    digits has its last one rounded away, with the fraction carried."""
    a = np.abs(x)
    fast = np.isfinite(a) & (a != 0)
    mant, e2 = np.frexp(np.where(fast, a, 1.0))
    idx = e2 + 1073                     # e2 runs from -1073 (5e-324) to 1024
    if not _KNOWN[idx].all():           # an e2 seen for the first time
        for i in np.unique(idx[~_KNOWN[idx]]).tolist():
            _SCALES[:, i], _KNOWN[i] = _scale(i - 1073), True
    h1, h2, lo, k = np.take(_SCALES, idx, axis=1)
    n, frac = _round_product(mant, h1, h2, lo)
    dec = (16 - k).astype(np.int16)
    over = np.flatnonzero(n >= 10**17)
    tail = (n[over] % 10 + frac[over]) / 10   # n % 10 + frac is exact
    up = tail >= 0.5
    n[over] = n[over] // 10 + up
    frac[over] = tail - up
    dec[over] += 1
    fast &= np.abs(frac) < 0.5 - _TIE
    return n, dec, fast


@functools.cache
def _affixes() -> np.ndarray:
    """What the g rules make of each decimal exponent d, in column d + 324:
    rows 0-4 the "0.000" prefix and rows 5-9 the exponent, as ASCII with 0
    in unused slots; row 10 the digit that the point follows (17: the point
    is in the prefix) and row 11 the count of digits shown even when zero."""
    columns = []
    for d in range(-324, 309):
        if -4 <= d < 0:                 # 0.000ddd
            prefix, exponent, q, lead = "0." + "0" * (-1 - d), "", 17, 0
        elif 0 <= d < 17:               # ddd.ddd
            prefix, exponent, q, lead = "", "", d, d + 1
        else:                           # d.ddde+dd
            prefix, exponent, q, lead = "", f"e{d:+03d}", 0, 1
        text = prefix.ljust(5, "\0") + exponent.ljust(5, "\0")
        columns.append([*text.encode(), q, lead])
    table = np.array(columns, dtype=np.uint8).T
    table.flags.writeable = False       # cached: shared by every call
    return table


def _records(x: np.ndarray) -> np.ndarray:
    """The text of f"{v:.17g}" for each v of a float64 array, as rows of
    _WIDTH bytes with NUL bytes anywhere between and after the characters:
    sign, "0.000" prefix, 17 digits with a point slot, exponent."""
    n, dec, fast = _decimal(x)
    digits = _digits(n)
    affix = np.take(_affixes(), dec + 324, axis=1)
    q, lead = affix[10], affix[11]
    j = np.arange(17, dtype=np.int16)[:, None]
    sig = ((digits != 48) * (j + 1)).max(axis=0)     # up to the last nonzero digit
    digits *= j < np.maximum(sig, lead)              # trailing zeros dropped

    body = np.zeros((18, x.size), np.uint8)          # the digits, the point after digit q
    body[:17] = digits
    body[1:] -= (j >= q) * (body[1:] - digits)       # uint8 wraps: digits where j >= q
    at = np.flatnonzero(q < 17)
    body[q[at] + 1, at] = (sig[at] > q[at] + 1) * np.uint8(46)
    rec = np.zeros((x.size, _WIDTH), np.uint8)
    out = rec.T
    out[0] = np.signbit(x) * np.uint8(45)
    out[1:6] = affix[:5]
    out[6:24] = body
    out[24:29] = affix[5:10]
    zero = np.flatnonzero(x == 0)                    # "0" and "-0": no digits to round
    rec[zero, 1:] = 0
    rec[zero, 1] = 48

    slow = np.flatnonzero(~fast & (x != 0))
    text = np.array([f"{v:.17g}" for v in x[slow].tolist()], dtype=f"S{_WIDTH}")
    rec[slow] = text.view(np.uint8).reshape(-1, _WIDTH)   # NUL-padded, as the rows
    return rec


def _numbers(name: str, column: np.ndarray) -> np.ndarray:
    if column.dtype.kind not in "biuf":
        raise ValueError(f"column {name!r} is not real ({column.dtype}); "
                         "write its real and imaginary parts as two columns")
    return column.astype(float)


def _strings(name: str, column: np.ndarray, alone: bool) -> np.ndarray:
    """The quoted UTF-8 cells of a string column, as rows of bytes."""
    cells = [_quote(text, alone).encode() for text in column.tolist()]
    if any(b"\0" in cell for cell in cells):
        raise ValueError(f"column {name!r} holds a NUL character")
    return np.array(cells, dtype=bytes).view(np.uint8).reshape(len(cells), -1)


def gather_lines(rows: int, pieces) -> np.ndarray:
    """The bytes of rows lines, each the pieces side by side, with every NUL
    byte dropped.  A piece is bytes, the same in every line, or a pair
    (records, index) of a (k, width) uint8 array of NUL-padded records and
    the rows indices of the record that each line takes (None: line i takes
    record i)."""
    widths = [len(piece) if isinstance(piece, bytes) else piece[0].shape[1]
              for piece in pieces]
    line = np.empty((rows, sum(widths)), np.uint8)
    end = 0
    for piece, width in zip(pieces, widths):
        end += width
        slot = line[:, end - width:end]
        if isinstance(piece, bytes):
            slot[:] = np.frombuffer(piece, np.uint8)
        else:
            slot[:] = piece[0] if piece[1] is None else np.take(*piece, axis=0)
    return line[line != 0]


def _block(header, columns) -> np.ndarray:
    """The bytes of the CSV lines of equal-length column slices."""
    rows = len(columns[0])
    cells = [(_strings(name, col, len(columns) == 1), None) if col.dtype.kind == "U" else None
             for name, col in zip(header, columns)]
    numeric = [i for i, cell in enumerate(cells) if cell is None]
    if numeric:
        bits = np.stack([_numbers(header[i], columns[i]) for i in numeric]).view(np.int64)
        ordered = np.sort(bits, axis=1)             # each column's bit patterns in order
        first = np.ones_like(ordered, bool)
        first[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
        count = first.sum(axis=1)
        dense = 2 * count > rows
        # every cell of a dense column, the distinct values of any other
        values = np.where(dense[:, None], bits, ordered)[dense[:, None] | first]
        rec = _records(values.view(float))
        ends = np.cumsum(np.where(dense, rows, count)).tolist()
        for i, start, end, col, whole in zip(numeric, [0] + ends, ends, bits, dense):
            own = rec[start:end]
            if end - start == 1:                    # constant: one record for every line
                cells[i] = bytes(own[0][own[0] != 0])
            else:
                cells[i] = own, None if whole else np.searchsorted(values[start:end], col)
    pieces, text = [], b""                          # bytes side by side make one piece
    for cell in cells:
        if isinstance(cell, bytes):
            text += cell + b","
        else:
            pieces, text = pieces + [text, cell], b","
    return gather_lines(rows, pieces + [text[:-1] + b"\r\n"])


def write_csv(path, header, columns) -> None:
    """Write a header line and equal-length columns as CSV rows.

    Each column is a sequence of numbers (bool, int or real float) or of
    strings.  A complex column raises ValueError naming it.
    """
    columns = [np.asarray(col) for col in columns]
    if len(columns) != len(header):
        raise ValueError(f"{len(columns)} columns for {len(header)} header names")
    n_rows = len(columns[0])
    if any(col.shape != (n_rows,) for col in columns):
        raise ValueError("columns must be one-dimensional and of equal length")
    with open(path, "wb") as fh:
        fh.write((",".join(_quote(name, len(header) == 1) for name in header) + "\r\n").encode())
        for start in range(0, n_rows, _BLOCK_ROWS):
            fh.write(_block(header, [col[start:start + _BLOCK_ROWS] for col in columns]))
