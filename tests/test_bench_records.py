"""Every BENCH_<pr>.json at the repository root is a readable benchmark record.

A record holds parent/change pairs of ``bench/run.py`` runs.  Its claim
names a workload and an end-to-end metric that ``BENCHMARK.json``
declares, and the record measured that metric on that workload.
``BENCHMARK.json`` is only read here.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
KEYS = {"change", "machine", "command", "protocol", "claimed", "workloads"}


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[path.name for path in RECORDS])
def test_record_names_its_claim_in_the_benchmark(path):
    record = json.loads(path.read_text())
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert KEYS <= set(record)
    workload, metric = record["claimed"]["workload"], record["claimed"]["metric"]
    assert workload in {w["name"] for w in benchmark["workloads"]}
    assert metric in {m["name"] for m in benchmark["end_to_end"]}
    assert set(record["workloads"]) <= {w["name"] for w in benchmark["workloads"]}
    assert metric in record["workloads"][workload]["metrics"]
