"""Smoke test of the benchmark: every workload at tiny sizes.

    python3 -m pytest hrnrbench/test_bench.py

Checks that every end-to-end and per-layer metric of BENCHMARK.json is
printed with its unit, that the output checks pass, and that another seed
changes the inputs but not the set of metrics.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(ln[len("detail: "):]) for ln in lines if ln.startswith("detail: "))
    return json.loads(lines[-1]), detail, proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke(workload):
    seen = {}
    for seed, trace in ((1, 0), (1, 1), (2, 0), (2, 1)):
        result, detail, stdout = run(workload, seed, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        assert {m: e["unit"] for m, e in result["metrics"].items()} == {m["name"]: m["unit"] for m in spec}
        for name, entry in result["metrics"].items():
            assert f"{name} = " in stdout and stdout.split(f"{name} = ")[1].split("\n")[0].endswith(entry["unit"])
        if not trace:
            # the two unbounded end-to-end metrics are printed with the rest
            assert detail["e2e"]["fail_frac"] == {"value": 0.0, "unit": "ratio"}
            assert detail["e2e"]["uncertain_frac"]["unit"] == "ratio"
        seen[seed, trace] = (detail["provenance"]["inputs_digest"], set(result["metrics"]))
    assert seen[1, 0][0] != seen[2, 0][0]
    assert seen[1, 0][0] == seen[1, 1][0]
    assert seen[1, 0][1] == seen[2, 0][1] and seen[1, 1][1] == seen[2, 1][1]


def test_all_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--all", "--seed", "3", "--seconds", "0.2", "--smoke"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    blocks = proc.stdout.split("workload ")[1:]
    assert [b.split(":")[0] for b in blocks] == WORKLOADS
    names = [m["name"] for m in SPEC["end_to_end"]] + ["fail_frac", "uncertain_frac"]
    for block in blocks:
        rows = {ln.split()[0]: ln.split()[-1] for ln in block.splitlines()[1:]}
        assert set(rows) == set(names)
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        assert all(rows[n] == units.get(n, "ratio") for n in names)
