"""Spans and counts at the layer boundaries of duplexem, recorded from outside.

The program is not modified: `Tracer.install` replaces public functions
and methods with timing wrappers under the names through which their
callers look them up (a function imported by name is wrapped in the
importing module), and `Tracer.uninstall` puts the originals back.

Every call records a span (name, start, end, parent) in flat arrays kept
in memory; per name the tracer also keeps the call count, the self time
(the span's duration minus the time covered by its child spans) and, for
the file writers, the bytes written.
"""

from __future__ import annotations

import os
from array import array
from time import perf_counter

import numpy as np

CLI_COMMANDS = ("dual_invariants", "cavity_field", "quantize", "currents",
                "resonance_fit", "ssh_solve", "ssh_sweep", "verify_all")

FIELD_METHODS = ("e", "h", "de_dz", "de_dt", "dh_dz", "dh_dt")

# name -> its reported metrics, each named after the Tracer attribute holding it
LAYERS = {f"cli.cmd_{name}": ("calls", "self_s") for name in CLI_COMMANDS}
LAYERS.update({name: ("calls", "self_s") for name in (
    "sshliquid.solve_gap", "sshliquid.gap_residual", "sshliquid.gap_kernel",
    "sshliquid.brentq", "elliptic.elliptic_K", "elliptic.elliptic_E",
    "sshliquid.quad", "sshliquid.ground_energy", "sshliquid.ground_energy_smallz",
    "sshliquid.ground_state_energy", "sshliquid.minimize_scalar", "sshliquid.kgrid",
    "cavity.maxwell_residual", "cavity.field_eval", "cavity.mode_q",
    "currents.j", "currents.noether_charge", "currents.spirality",
    "currents.continuity_residual", "currents.charge_drift", "currents.leggauss",
    "fockquant.spacetime_local_operators", "fockquant.field_matrix",
    "fockquant.hermiticity_defect", "dualsym.invariants", "dualsym.dual_rotate",
    "dualsym.hyperbolic_dual", "resonance.fit_dispersion",
)})
LAYERS.update({
    "cli.write_csv": ("self_s", "bytes"),
    "cavity.dump_field_csv": ("self_s", "bytes"),
    "fockquant.dump_operator_json": ("self_s",),
})


class _ModuleView:
    """A module stand-in whose listed attributes are replaced, the rest delegated."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.names = list(LAYERS)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self._patches = []
        self._reset()

    def _reset(self):
        n = len(self.names)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.bytes = [0] * n
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("i")
        self.parent = array("i")
        self._open = []       # indices of the spans still running
        self._child = []      # time covered by the children of each open span

    def wrap(self, name, fn):
        """`fn` recording one span per call under `name`."""
        nid = self._ids[name]
        start, end, name_id, parent = self.start, self.end, self.name_id, self.parent
        open_spans, child, calls, self_s = self._open, self._child, self.calls, self.self_s

        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(open_spans[-1] if open_spans else -1)
            name_id.append(nid)
            end.append(0.0)
            open_spans.append(idx)
            child.append(0.0)
            t0 = perf_counter()
            start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                end[idx] = t1
                open_spans.pop()
                dur = t1 - t0
                self_s[nid] += dur - child.pop()
                calls[nid] += 1
                if child:
                    child[-1] += dur

        return traced

    def wrap_writer(self, name, fn, path_arg):
        """`wrap`, also adding the size of the file named by argument `path_arg`."""
        traced = self.wrap(name, fn)
        nid = self._ids[name]

        def writer(*args, **kwargs):
            result = traced(*args, **kwargs)
            self.bytes[nid] += os.path.getsize(args[path_arg])
            return result

        return writer

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, pkg):
        """Wrap the layer functions of the imported package modules in `pkg`."""
        cli, ssh, cav, cur, fq, ds, res = (pkg.cli, pkg.sshliquid, pkg.cavity, pkg.currents,
                                           pkg.fockquant, pkg.dualsym, pkg.resonance)
        self._reset()  # the wrappers bind the fresh span arrays
        w = self.wrap
        for name in CLI_COMMANDS:
            self._set(cli, f"cmd_{name}", w(f"cli.cmd_{name}", getattr(cli, f"cmd_{name}")))
        self._set(cli, "_write_csv", self.wrap_writer("cli.write_csv", cli._write_csv, 0))
        self._set(cav, "dump_field_csv", self.wrap_writer("cavity.dump_field_csv", cav.dump_field_csv, 3))
        self._set(fq, "dump_operator_json", w("fockquant.dump_operator_json", fq.dump_operator_json))

        for name in ("solve_gap", "gap_residual", "gap_kernel", "ground_energy",
                     "ground_energy_smallz", "ground_state_energy"):
            self._set(ssh, name, w(f"sshliquid.{name}", getattr(ssh, name)))
        for name in ("bogoliubov_coeffs", "band_energies", "stability_classify"):
            self._set(ssh, name, w("sshliquid.kgrid", getattr(ssh, name)))
        self._set(ssh, "optimize", _ModuleView(
            ssh.optimize,
            brentq=w("sshliquid.brentq", ssh.optimize.brentq),
            minimize_scalar=w("sshliquid.minimize_scalar", ssh.optimize.minimize_scalar)))
        self._set(ssh, "integrate", _ModuleView(
            ssh.integrate, quad=w("sshliquid.quad", ssh.integrate.quad)))
        for name in ("elliptic_K", "elliptic_E"):
            traced = w(f"elliptic.{name}", getattr(ssh, name))
            self._set(ssh, name, traced)
            self._set(cli, name, traced)

        self._set(cav, "maxwell_residual", w("cavity.maxwell_residual", cav.maxwell_residual))
        self._set(cav, "mode_q", w("cavity.mode_q", cav.mode_q))
        for cls in vars(cav).values():
            if isinstance(cls, type) and issubclass(cls, cav.FieldOnSegment):
                for name in FIELD_METHODS:
                    if name in cls.__dict__:
                        self._set(cls, name, w("cavity.field_eval", cls.__dict__[name]))

        for name in ("j3", "j4"):
            self._set(cur.ClassicalFourCurrent, name,
                      w("currents.j", cur.ClassicalFourCurrent.__dict__[name]))
        for name in ("noether_charge", "spirality", "continuity_residual", "charge_drift"):
            self._set(cur, name, w(f"currents.{name}", getattr(cur, name)))
        self._set(cur, "_gauss_legendre", w("currents.leggauss", cur._gauss_legendre))

        self._set(fq, "spacetime_local_operators",
                  w("fockquant.spacetime_local_operators", fq.spacetime_local_operators))
        for name in ("e_matrix", "h_matrix"):
            self._set(fq.OperatorField, name,
                      w("fockquant.field_matrix", fq.OperatorField.__dict__[name]))
        self._set(fq.OperatorField, "hermiticity_defect",
                  w("fockquant.hermiticity_defect", fq.OperatorField.hermiticity_defect))

        for name in ("invariants", "dual_rotate", "hyperbolic_dual"):
            self._set(ds, name, w(f"dualsym.{name}", getattr(ds, name)))
        self._set(res, "fit_dispersion", w("resonance.fit_dispersion", res.fit_dispersion))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def totals(self) -> dict:
        """{metric name: value} for every layer, from the spans since `install`."""
        return {f"{name}.{kind}": getattr(self, kind)[nid]
                for nid, name in enumerate(self.names) for kind in LAYERS[name]}

    def save(self, path):
        """Write the recorded spans as arrays: names, name_id, start, end, parent."""
        np.savez(path, names=np.array(self.names), name_id=np.asarray(self.name_id),
                 start=np.asarray(self.start), end=np.asarray(self.end),
                 parent=np.asarray(self.parent))
