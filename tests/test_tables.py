import csv
import math
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from duplexem import tables
from duplexem.cavity import CavityModel, FirstSolution, ModeState, dump_field_csv
from duplexem.constants import PhysicalConstants
from duplexem.tables import write_csv


def reference_csv(path, header, rows):
    """Row-by-row csv.writer output with f"{x:.17g}" number cells."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([cell if isinstance(cell, str) else f"{float(cell):.17g}"
                             for cell in row])


def reference_field_csv(field, z, t, path):
    """Cell-by-cell field dump: z, t, Re/Im of the six components per row."""
    e, h = field.e(z, t), field.h(z, t)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        names = ["z", "t"]
        for comp in ("ex", "ey", "ez", "hx", "hy", "hz"):
            names += [f"re_{comp}", f"im_{comp}"]
        writer.writerow(names)
        for i, zi in enumerate(z):
            for j, tj in enumerate(t):
                row = [f"{zi:.17g}", f"{tj:.17g}"]
                for vec in (e, h):
                    for comp in range(3):
                        val = complex(vec[comp, i, j])
                        row += [f"{val.real:.17g}", f"{val.imag:.17g}"]
                writer.writerow(row)


SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308, math.nan,
           -math.nan, math.inf, -math.inf, 1 / 3, 0.1, 2.5e-300, 123456789.0,
           0.0, -0.0, 1 / 3, math.nan]


@pytest.mark.parametrize("block_rows", [4, tables._BLOCK_ROWS])
def test_write_csv_matches_csv_writer(tmp_path, monkeypatch, block_rows):
    monkeypatch.setattr(tables, "_BLOCK_ROWS", block_rows)
    n = len(SPECIAL)
    ints = [0, -3, 7, 2**53 + 1, -(2**62), 1, 1, 0, 42] * 2
    flags = [True, False] * (n // 2)
    labels = ["plain", "a,b", 'say "hi"', "two\nlines", "cr\rhere", "", " pad "] * 3
    columns = [SPECIAL, ints, flags, labels[:n], np.linspace(-1.0, 1.0, n)]
    header = ["special", "int,count", "flag", 'label "q"', "grid"]
    write_csv(tmp_path / "new.csv", header, columns)
    reference_csv(tmp_path / "ref.csv", header, zip(*columns))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


NUMBERS = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, 5e-324, -1.7976931348623157e308, 0.1]),
    st.tuples(st.integers(0, 1), st.integers(1, 2**52 - 1)).map(   # nans, payload and sign kept
        lambda sign_payload: double(sign_payload[0] << 63 | 0x7FF << 52 | sign_payload[1])),
    st.integers(0, 2**64 - 1).map(double),                          # any bit pattern
)
TEXT = st.text(st.sampled_from(list(',"\r\n aé€')), max_size=3)


@st.composite
def mixed_tables(draw):
    """(header, columns) of 1 to 30 rows: constant, few-distinct, all-distinct,
    integer, bool and string columns, and columns constant over their first
    three rows only, so constant in one 3-row block and not in the next."""
    rows = draw(st.integers(1, 30))
    cells = {
        "constant": NUMBERS.map(lambda x: [x] * rows),
        "few": st.lists(NUMBERS, min_size=1, max_size=3).flatmap(
            lambda pool: st.lists(st.sampled_from(pool), min_size=rows, max_size=rows)),
        "distinct": st.lists(NUMBERS, min_size=rows, max_size=rows,
                             unique_by=lambda x: struct.pack("<d", x)),
        "first-block": st.tuples(NUMBERS, st.lists(NUMBERS, min_size=rows, max_size=rows)).map(
            lambda head_rest: ([head_rest[0]] * 3 + head_rest[1])[:rows]),
        "int": st.lists(st.integers(-2**63, 2**63 - 1), min_size=rows, max_size=rows),
        "bool": st.lists(st.booleans(), min_size=rows, max_size=rows),
        "text": st.lists(TEXT, min_size=rows, max_size=rows),
    }
    kinds = draw(st.lists(st.sampled_from(sorted(cells)), min_size=1, max_size=6))
    return draw(st.lists(TEXT, min_size=len(kinds), max_size=len(kinds))), \
        [draw(cells[kind]) for kind in kinds]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(mixed_tables())
def test_write_csv_matches_csv_writer_on_mixed_tables(tmp_path_factory, table):
    header, columns = table
    folder = tmp_path_factory.mktemp("mixed")
    reference_csv(folder / "ref.csv", header, zip(*columns))
    expected = (folder / "ref.csv").read_bytes()
    for block_rows in (1, 3, tables._BLOCK_ROWS):
        with mock.patch.object(tables, "_BLOCK_ROWS", block_rows):
            write_csv(folder / "new.csv", header, columns)
        assert (folder / "new.csv").read_bytes() == expected, block_rows


def test_write_csv_quotes_an_empty_cell_alone_in_its_line(tmp_path):
    # csv.writer writes "" for a lone empty field, which would otherwise read as a blank line
    write_csv(tmp_path / "new.csv", [""], [["", "a", ""]])
    reference_csv(tmp_path / "ref.csv", [""], [[""], ["a"], [""]])
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes() \
        == b'""\r\n""\r\na\r\n""\r\n'


def test_write_csv_header_only(tmp_path):
    write_csv(tmp_path / "new.csv", ["a", "b"], [[], []])
    reference_csv(tmp_path / "ref.csv", ["a", "b"], [])
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_write_csv_rejects_complex_column(tmp_path):
    with pytest.raises(ValueError, match="'re_j3'"):
        write_csv(tmp_path / "bad.csv", ["z", "re_j3"], [[0.0, 1.0], [1.0, 2.0 + 1e-3j]])


def test_write_csv_rejects_ragged_columns(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", ["a", "b"], [[0.0, 1.0], [1.0]])
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", ["a", "b"], [[0.0, 1.0]])


def test_write_csv_rejects_nul_in_strings(tmp_path):
    # the writer squeezes NUL padding out of each block, so a NUL cell would vanish
    with pytest.raises(ValueError, match="'label'"):
        write_csv(tmp_path / "bad.csv", ["x", "label"], [[0.0], ["a\0b"]])


@pytest.mark.parametrize("theta, block_rows", [
    (0.0, tables._BLOCK_ROWS), (0.7, tables._BLOCK_ROWS), (0.0, 4), (0.7, 4),
], ids=["0.0", "0.7", "0.0-block4", "0.7-block4"])
def test_field_csv_matches_cell_by_cell_dump(tmp_path, monkeypatch, theta, block_rows):
    # 5 times per z: 4-row blocks end inside a z run, so z is constant in some blocks
    monkeypatch.setattr(tables, "_BLOCK_ROWS", block_rows)
    rng = np.random.default_rng(5)
    model = CavityModel(1.0, 3, PhysicalConstants.symmetric())
    state = ModeState(rng.normal(size=3) + 1j * rng.normal(size=3),
                      rng.normal(size=3) + 1j * rng.normal(size=3))
    field = FirstSolution(model, state)
    if theta:
        field = field.rotated(theta)
    z, t = np.linspace(0.0, 1.0, 7), np.linspace(0.0, 1.0, 5)
    dump_field_csv(field, z, t, tmp_path / "new.csv")
    reference_field_csv(field, z, t, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def formatted(values):
    """The writer's text of each value, read off its NUL-padded record."""
    with np.errstate(all="raise"):
        records = tables._records(np.asarray(values, dtype=float))
    return [bytes(rec[rec != 0]).decode() for rec in records]


def python_formatted(values):
    return [f"{x:.17g}" for x in np.asarray(values, dtype=float).tolist()]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=500))
def test_digits_match_python_on_any_bit_pattern(patterns):
    values = np.array(patterns, dtype=np.uint64).view(float)
    assert formatted(values) == python_formatted(values)


def test_digits_match_python_at_the_edges():
    tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
    # the tops of decades: the last doubles below 1e23, 1e17, 1e-4 and 1e16, and
    # doubles just below a power of ten whose 17-digit rounding reaches it
    round_up = [9.9999999999999999e22, math.nextafter(1e17, 0), math.nextafter(1e-4, 0),
                math.nextafter(1e16, 0), 1e-305, 1e-243, 1e-176]
    # m / 4 with m odd: 16 integer digits and .25 or .75, a tie at 17 digits
    rng = np.random.default_rng(18)
    ties = (2 * rng.integers(2 * 10**15, 2**52, 2000) + 1) / 4
    # m / 2**k is m * 5**k / 10**k exactly: a tie wherever m * 5**k has 18 digits
    scaled_ties = [m / 2**k for k in range(1, 80) for m in range(1, 2000, 2)
                   if len(str(m * 5**k)) == 18]
    # for each binary exponent, the mantissas within 3 ulp of those whose product
    # with the exponent's constant is 1e17 or 1e17 - 1/2: the 18-digit boundary
    decade_tops = []
    for e2 in range(-1073, 1025):
        *_, k = tables._scale(e2)
        num, den = 2 ** max(e2, 0) * 10 ** max(k, 0), 2 ** max(-e2, 0) * 10 ** max(-k, 0)
        for top in (2 * 10**17, 2 * 10**17 - 1):             # twice the product
            m = top * 2**52 * den // num
            decade_tops += [math.ldexp(j, e2 - 53) for j in range(m - 3, m + 4)
                            if 2**52 <= j < 2**53]
    # the doubles just below 1e17, times powers of ten, round to a power of ten
    near_tens = np.nextafter(1e17, 0) * 10.0 ** np.arange(-300, 291)
    # L / 2**16 with L odd in [655361, 2**20): 18-digit products ending in 5
    carried_ties = np.arange(655361, 2**20, 2) / 2**16
    values = np.concatenate([
        tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf), -tens, round_up, ties,
        scaled_ties, decade_tops, near_tens, carried_ties,
        [(2**53 - 1) / 4, 1e15 + 0.25, 1e15 + 0.75, 5e-324, -5e-324, 1.7976931348623157e308,
         -1.7976931348623157e308, 2.2250738585072014e-308, 0.0, -0.0, math.inf, -math.inf,
         math.nan, 1e16, 1e17, 123456789.0, 0.1, 1 / 3, 1e-4, 1e-5, 2.0**-1074 * 3]])
    assert formatted(values) == python_formatted(values)


def test_field_dump_memory_stays_bounded(tmp_path):
    # 1.1x the peak of the per-value Python formatter this writer replaced
    rng = np.random.default_rng(5)
    model = CavityModel(1.0, 16, PhysicalConstants.symmetric())
    state = ModeState(rng.normal(size=16) + 1j * rng.normal(size=16),
                      rng.normal(size=16) + 1j * rng.normal(size=16))
    field = FirstSolution(model, state).rotated(0.7)
    z, t = np.linspace(0.0, 1.0, 160), np.linspace(0.0, 1.0, 160)
    dump_field_csv(field, z, t, tmp_path / "warm.csv")
    tracemalloc.start()
    try:
        dump_field_csv(field, z, t, tmp_path / "field.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.7e6
