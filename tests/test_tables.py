import csv
import math

import numpy as np
import pytest

from duplexem import tables
from duplexem.cavity import (CavityModel, FirstSolution, ModeState,
                             RotatedSolution, dump_field_csv)
from duplexem.constants import PhysicalConstants
from duplexem.tables import write_csv


def reference_csv(path, header, rows, preamble=""):
    """Row-by-row csv.writer output with f"{x:.17g}" number cells."""
    with open(path, "w", newline="") as fh:
        fh.write(preamble)
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([cell if isinstance(cell, str) else f"{float(cell):.17g}"
                             for cell in row])


def reference_field_csv(field, z, t, path, parity=None):
    """Cell-by-cell field dump: z, t, Re/Im of the six components per row."""
    e, h = field.e(z, t), field.h(z, t)
    with open(path, "w", newline="") as fh:
        if parity:
            fh.write(f"# parity: {parity[0]}, {parity[1]}\n")
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
@pytest.mark.parametrize("preamble", ["", "# parity: P-odd, t-even\n"])
def test_write_csv_matches_csv_writer(tmp_path, monkeypatch, block_rows, preamble):
    monkeypatch.setattr(tables, "_BLOCK_ROWS", block_rows)
    n = len(SPECIAL)
    ints = [0, -3, 7, 2**53 + 1, -(2**62), 1, 1, 0, 42] * 2
    flags = [True, False] * (n // 2)
    labels = ["plain", "a,b", 'say "hi"', "two\nlines", "cr\rhere", "", " pad "] * 3
    columns = [SPECIAL, ints, flags, labels[:n], np.linspace(-1.0, 1.0, n)]
    header = ["special", "int,count", "flag", 'label "q"', "grid"]
    write_csv(tmp_path / "new.csv", header, columns, preamble)
    reference_csv(tmp_path / "ref.csv", header, zip(*columns), preamble)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


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


@pytest.mark.parametrize("theta", [0.0, 0.7])
@pytest.mark.parametrize("parity", [None, ("P-even", "t-odd")])
def test_field_csv_matches_cell_by_cell_dump(tmp_path, theta, parity):
    rng = np.random.default_rng(5)
    model = CavityModel(1.0, 3, PhysicalConstants.symmetric())
    state = ModeState(rng.normal(size=3) + 1j * rng.normal(size=3),
                      rng.normal(size=3) + 1j * rng.normal(size=3))
    field = FirstSolution(model, state)
    if theta:
        field = RotatedSolution(field, theta)
    z, t = np.linspace(0.0, 1.0, 7), np.linspace(0.0, 1.0, 5)
    dump_field_csv(field, z, t, tmp_path / "new.csv", parity=parity)
    reference_field_csv(field, z, t, tmp_path / "ref.csv", parity=parity)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
