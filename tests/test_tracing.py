"""The benchmark's layer tracer still finds every layer it wraps.

bench/tracing.py replaces program functions by name; a layer that is
renamed or deleted in the program must fail here, not only in a traced
benchmark run.
"""

import json
import os
import subprocess
import sys
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


# in a new interpreter: cavity-field, then the tracer installed and removed; prints
# the exit code, the modules loaded before install, whether install found the real
# gap-solver module and wrapped it, and the attributes not restored by uninstall
_FRESH_INSTALL = """
import json, sys
import duplexem, duplexem.cli
sys.path.insert(0, sys.argv[1])
from tracing import Tracer

def with_classes(mods):
    return mods + [value for mod in mods for value in vars(mod).values()
                   if isinstance(value, type) and value.__module__.startswith("duplexem.")]

def from_tracer(value):
    return "tracing" in (getattr(value, "__module__", None), type(value).__module__)

code = duplexem.cli.main(["cavity-field", "--out", sys.argv[2]])
loaded = sorted(name for name in ("scipy", "duplexem.sshliquid") if name in sys.modules)
field = with_classes([duplexem.cli, duplexem.cavity, duplexem.currents, duplexem.fockquant,
                      duplexem.dualsym, duplexem.resonance])
before = [dict(vars(owner)) for owner in field]
tracer = Tracer()
tracer.install(duplexem)
ssh = duplexem.sshliquid
real = ssh is sys.modules["duplexem.sshliquid"] and type(ssh) is type(sys)
wrapped = from_tracer(ssh.gap_residual) and from_tracer(ssh.optimize)
tracer.uninstall()
changed = [f"{owner.__name__}.{name}" for owner, attrs in zip(field, before)
           for name in set(attrs) | set(vars(owner)) if vars(owner).get(name) is not attrs.get(name)]
left = [f"{owner.__name__}.{name}" for owner in with_classes([ssh])
        for name, value in vars(owner).items() if from_tracer(value)]
print(json.dumps([code, loaded, real, wrapped, changed, left]))
"""


def test_tracer_installs_on_a_fresh_field_run(tmp_path):
    """The traced cavity-fields benchmark: no command has loaded the gap solver
    when the tracer is installed, and install loads it through the package."""
    env = {**os.environ, "PYTHONPATH": str(BENCH.parent / "src")}
    proc = subprocess.run([sys.executable, "-c", _FRESH_INSTALL, str(BENCH), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300, check=True)
    code, loaded, real, wrapped, changed, left = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    assert loaded == []
    assert real and wrapped
    assert changed == []
    assert left == []
