"""The benchmark's layer tracer still finds every layer it wraps.

bench/tracing.py replaces program functions by name; a layer that is
renamed or deleted in the program must fail here, not only in a traced
benchmark run.
"""

import json
from pathlib import Path

import duplexem
import duplexem.cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _owners():
    """Every module and class whose attributes the tracer may replace."""
    mods = [duplexem.cli, duplexem.sshliquid, duplexem.cavity, duplexem.currents,
            duplexem.fockquant, duplexem.dualsym, duplexem.resonance]
    classes = [value for mod in mods for value in vars(mod).values()
               if isinstance(value, type) and value.__module__.startswith("duplexem.")]
    return mods + classes


def test_tracer_wraps_every_layer_and_restores_it(tmp_path, capsys, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    from tracing import LAYERS, Tracer

    # a run before install: a parser that bound the handlers when it was
    # first built would keep running the unwrapped ones
    assert duplexem.cli.main(["dual-invariants", "--random", "5",
                              "--out", str(tmp_path / "untraced")]) == 0
    before = [(owner, dict(vars(owner))) for owner in _owners()]
    original = duplexem.sshliquid.gap_residual
    tracer = Tracer()
    try:
        tracer.install(duplexem)   # inside: a layer it cannot find leaves earlier patches
        assert duplexem.sshliquid.gap_residual is not original
        assert duplexem.cli.main(["ssh-solve", "--out", str(tmp_path)]) == 0
        assert duplexem.cli.main(["dual-invariants", "--random", "5",
                                  "--out", str(tmp_path)]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    totals = tracer.totals()
    assert set(totals) == {f"{name}.{kind}" for name, kinds in LAYERS.items() for kind in kinds}
    for layer in ("cli.cmd_ssh_solve", "sshliquid.solve_gap", "sshliquid.gap_residual",
                  "sshliquid.brentq", "sshliquid.ground_energy", "sshliquid.kgrid",
                  "cli.cmd_dual_invariants", "dualsym.invariants", "dualsym.dual_rotate"):
        assert totals[f"{layer}.calls"] >= 1, layer
    assert totals["cli.write_csv.bytes"] == (tmp_path / "gap_solution.csv").stat().st_size \
        + (tmp_path / "dual_invariants.csv").stat().st_size
    assert json.loads((tmp_path / "summary.json").read_text())["samples"] == 5
    for owner, attrs in before:
        now = vars(owner)
        assert now.keys() == attrs.keys(), owner
        assert all(now[name] is value for name, value in attrs.items()), owner
