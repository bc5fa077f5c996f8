"""Smoke test of the end-to-end benchmark (collected by the tier-1 command).

Runs ``run.py --smoke`` (1 pass per workload, 1 cold start) over all five
workloads untraced, and the traced run of the cheapest one, and checks the
*shape* of what they report against BENCHMARK.json: exactly the contract's
workload and metric names, every value finite, no failed run.  It asserts
nothing about magnitudes.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def smoke(tmp_path, *extra):
    out = tmp_path / "document.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--json", str(out),
         *extra],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stdout
    return json.loads(out.read_text())


def check_runs(document, section):
    for run in document["runs"]:
        assert list(run["metrics"]) == [m["name"] for m in section]
        for name, metric in run["metrics"].items():
            assert math.isfinite(metric["value"]), (run["workload"], name)
            assert metric["unit"], (run["workload"], name)
        assert run["attempted"] >= 1
        assert run["failed"] == 0, run["failures"]
        assert run["correct"] is True


def test_smoke_reports_exactly_the_contract(tmp_path):
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    document = smoke(tmp_path)
    assert [run["workload"] for run in document["runs"]] == [
        w["name"] for w in contract["workloads"]]
    assert document["seconds"] == contract["run_seconds"]
    check_runs(document, contract["end_to_end"])

    traced = smoke(tmp_path, "--workload", "served-short", "--trace", "1")
    assert len(traced["runs"]) == 1
    check_runs(traced, contract["per_layer"])
