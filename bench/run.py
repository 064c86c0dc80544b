"""Benchmark of the duplexem command line, run from the root of a checkout.

    python3 bench/run.py --workload gap-solve --seed 1 --seconds 15 --trace 0

One process imports `duplexem.cli` from `src/` and calls `cli.main(argv)`
in-process, one subcommand per operation, with `--jobs 1` and at most two
BLAS threads.  A run repeats whole rounds of the workload's operations
(see workloads.py) until `--seconds` have passed, then checks every output
against computations made apart from the program.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

--trace 0 reports the end-to-end metrics:
    setup_s      median over fresh interpreters of the wall time until
                 duplexem.cli is imported and the workload's inputs are generated
    run_s        median over the rounds of the time of one round's operations
    op_p50_s     median time of one operation that did not fail
                 (both scaled to the machine's reference speed, calibration.py)
    peak_rss_mb  peak resident memory of this process while the rounds ran
--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics of tracing.py plus the tracing overhead per round.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
SEGMENT_S = 0.5           # operation time between two calibration blocks
ORACLE_WORKLOADS = ("gap-solve", "ground-sweep")


def _limit_blas_threads():
    threads = str(min(2, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads


# before numpy loads: this process and the setup probes it starts.  The
# probes import nothing else of scipy than the program does.
_limit_blas_threads()
sys.path.insert(0, str(BENCH))
from workloads import WORKLOADS, make_ops  # noqa: E402


def _import_program():
    """Import duplexem from this checkout's src/, never from elsewhere."""
    if not (SRC / "duplexem" / "cli.py").is_file():
        sys.exit(f"bench: no duplexem sources in {SRC}")
    sys.path.insert(0, str(SRC))
    import duplexem.cli
    if Path(duplexem.__file__).resolve().parent != SRC / "duplexem":
        sys.exit(f"bench: imported duplexem from {duplexem.__file__}, not from {SRC}")
    return duplexem


def _setup_probe(workload: str, seed: int):
    _import_program()
    make_ops(workload, seed)
    print(repr(time.time()))


def _setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh interpreters of the time to import and generate inputs.

    Unscaled: calibration blocks timed between the probes varied more than
    the probes themselves.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        began = time.time()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=False)
        if proc.returncode != 0:
            sys.exit(f"bench: setup probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]) - began)
    return statistics.median(samples)


def _digest(directory: Path) -> str:
    h = hashlib.sha1()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _run_round(cli, argvs):
    """Run every operation once; (scaled wall times, exit codes).

    A calibration block runs before the first operation and after every
    SEGMENT_S of operations; each operation's wall time is scaled by the
    blocks around its segment.
    """
    import calibration  # here, not at the top: the setup probes must not load it
    times, scales, codes = [], [], []
    before, segment = calibration.block(), 0.0
    for k, argv in enumerate(argvs):
        sink = io.StringIO()
        began = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
        elapsed = time.perf_counter() - began
        times.append(elapsed)
        codes.append(code)
        segment += elapsed
        if segment >= SEGMENT_S or k == len(argvs) - 1:
            after = calibration.block()
            scales += [calibration.scale(before, after)] * (len(times) - len(scales))
            before, segment = after, 0.0
    return [t * s for t, s in zip(times, scales)], codes


def _check(ops, outdirs, codes, digests, unstable):
    """Per operation, the problems found in its outputs."""
    results = []
    for i, op in enumerate(ops):
        try:
            problems = op.check(outdirs[i], codes[i])
        except Exception as exc:  # a malformed output must not stop the other checks
            problems = [f"check raised {exc!r}"]
        if op.twin is not None and digests[i] != digests[op.twin]:
            problems.append(f"outputs differ from those of {ops[op.twin].label}")
        if i in unstable:
            problems.append("outputs or exit code changed between rounds")
        results.append(problems)
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0

    pkg = _import_program()
    setup_s = None if args.trace else _setup_seconds(args.workload, args.seed)
    ops = make_ops(args.workload, args.seed)
    out = OUT / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    argvs, outdirs = [], []
    for i, op in enumerate(ops):
        argv = list(op.argv) + ["--out", str(out / f"op{i}")]
        if op.config is not None:
            path = out / f"op{i}.json"
            path.write_text(json.dumps(op.config))
            argv += ["--config", str(path)]
        argvs.append(argv)
        outdirs.append(out / f"op{i}")

    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    plain, traced, layers = [], [], []   # per round: per-op scaled times; layer totals
    round_codes = []
    digests, unstable = None, set()
    began = time.perf_counter()
    while True:
        tracing = tracer is not None and len(plain) > len(traced)
        if tracing:
            tracer.install(pkg)
        try:
            times, codes = _run_round(pkg.cli, argvs)
        finally:
            if tracing:
                tracer.uninstall()
        if tracing:
            traced.append(times)
            layers.append(tracer.totals())
        else:
            plain.append(times)
        round_codes.append(codes)
        now = [_digest(d) for d in outdirs]
        if digests is None:
            digests = now
        unstable.update(i for i, (a, b) in enumerate(zip(digests, now)) if a != b)
        unstable.update(i for i, (a, b) in enumerate(zip(round_codes[0], codes)) if a != b)
        if time.perf_counter() - began >= args.seconds and (tracer is None or traced):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    correct = True
    notes = []
    if args.workload in ORACLE_WORKLOADS:
        from oracle import self_test
        for form, zeta, error, tol in self_test():
            if not error <= tol:
                correct = False
                notes.append(f"oracle self-test: {form}({zeta:g}) off quadrature by {error:.2e}")
    problems = _check(ops, outdirs, round_codes[-1], digests, unstable)

    attempted = failed = 0
    failed_ops = set()
    for codes in round_codes:
        attempted += len(ops)
        for i, op in enumerate(ops):
            if codes[i] != 0 or (op.fault and problems[i]):
                failed += 1
                failed_ops.add(i)
    rounds = len(round_codes)
    for i, op in enumerate(ops):
        if i in failed_ops:
            tag = f" [{op.fault}]" if op.fault else ""
            reason = "; ".join(problems[i]) or f"exit {round_codes[-1][i]}"
            notes.append(f"failed{tag} {op.label} in every round: {reason}")
        elif problems[i]:
            correct = False
            notes.append(f"wrong output {op.label}: {'; '.join(problems[i])}")
        elif op.fault:
            notes.append(f"{op.fault} no longer shows: {op.label} passed")

    print(f"{args.workload} seed {args.seed}: {rounds} rounds of {len(ops)} operations, "
          f"{attempted} attempted, {failed} failed")
    for note in notes:
        print(note)
    run_s = statistics.median(sum(times) for times in plain)
    if tracer is None:
        passed = [t for times in plain for i, t in enumerate(times) if i not in failed_ops]
        print(f"run_s over {len(plain)} rounds, op_p50_s over {len(passed)} operations")
        metrics = {
            "setup_s": (setup_s, "s"),
            "run_s": (run_s, "s"),
            "op_p50_s": (statistics.median(passed), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        tracer.save(out / "spans.npz")
        traced_s = statistics.median(sum(times) for times in traced)
        print(f"tracing overhead {traced_s - run_s:.4f} s per round (traced {traced_s:.4f} s, "
              f"untraced {run_s:.4f} s); spans of the last traced round in {out / 'spans.npz'}")
        metrics = {"trace.overhead_s": (traced_s - run_s, "s")}
        for name in layers[0]:
            unit = "count" if name.endswith(".calls") else "bytes" if name.endswith(".bytes") else "s"
            metrics[name] = (statistics.median(r[name] for r in layers), unit)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
