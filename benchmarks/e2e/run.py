"""End-to-end benchmark: five workloads, five gated metrics, a layer table.

    python3 benchmarks/e2e/run.py [--workload W] [--seed N] [--seconds S]
                                  [--trace 0|1 | --traced] [--selfcheck [N]]
                                  [--smoke] [--json PATH]

Each workload runs in its own fresh child interpreter (``child.py``); this
process only pins the environment, wakes the CPU, spawns the children one at
a time and aggregates what they print.  Every result is verified and any
verification failure makes the exit code non-zero.  With one ``--workload``
and one trace mode the last stdout line is the contract object
``{"correct", "attempted", "failed", "metrics"}`` described in README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Rule 1: one load-generating thread + one worker process on two cores,
#: no BLAS oversubscription.  Exported before any child imports numpy.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

#: Rule 3: busy-spin before any timing; the first sample after an idle gap
#: is the outlier (2.6 s cold start against a 1.55 s median).
SPIN_SECONDS = 2.0

CHILD_TIMEOUT_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env.pop("REPRO_TELEMETRY", None)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + inherited if inherited else "")
    return env


def spin(seconds: float) -> None:
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass


def run_child(workload: str, seed: int, seconds: float, trace: int,
              passes=None, cold_only: bool = False) -> dict:
    command = [sys.executable, str(HERE / "child.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    if passes is not None:
        command += ["--passes", str(passes)]
    if cold_only:
        command.append("--cold-only")
    child = subprocess.Popen(command, env=child_env(), cwd=ROOT, text=True,
                             stdout=subprocess.PIPE)
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # child.py turns SIGTERM into a normal exit, which drains its daemon
        # and reaps the workers; SIGKILL only if that hangs too.
        child.terminate()
        try:
            child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
        raise SystemExit(f"{workload}: child exceeded {CHILD_TIMEOUT_S} s")
    if child.returncode != 0:
        raise SystemExit(f"{workload}: child exited with {child.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_workload(contract: dict, counts: dict, workload: str, seed: int,
                 seconds: float, trace: int, smoke: bool) -> dict:
    """One contract-shaped result for ``workload`` (plus the raw extras)."""
    passes = 1 if smoke else None
    setups = []
    failed = attempted = 0
    if not trace:
        # setup_s is the median of several cold starts; the workload
        # process itself is the last of them.
        for _ in range(0 if smoke else counts["cold_starts"] - 1):
            cold = run_child(workload, seed, seconds, 0, cold_only=True)
            setups.append(cold["setup_s"])
            attempted += cold["attempted"]
            failed += cold["failed"]
    doc = run_child(workload, seed, seconds, trace, passes=passes)
    setups.append(doc["setup_s"])
    values = dict(doc["metrics"])
    if not trace:
        values["setup_s"] = statistics.median(setups)
    wanted = contract["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(values):
        raise SystemExit(
            f"{workload}: reported metrics differ from BENCHMARK.json: "
            f"{sorted(set(names) ^ set(values))}")
    doc.update(
        correct=failed + doc["failed"] == 0,
        attempted=attempted + doc["attempted"],
        failed=failed + doc["failed"],
        metrics={m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                 for m in wanted},
    )
    doc.setdefault("samples", {})["setup_s"] = setups
    return doc


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------
def print_result(doc: dict) -> None:
    mode = "traced" if doc["trace"] else "untraced"
    print(f"== {doc['workload']} ({mode}) seed={doc['seed']} "
          f"passes={doc['passes']}: runs {doc['attempted']} attempted / "
          f"{doc['failed']} failed")
    for reason in doc["failures"]:
        print(f"   FAILED {reason}")
    extras = doc["extras"]
    if doc["trace"]:
        print_layers(doc)
        return
    for name, metric in doc["metrics"].items():
        note = ""
        if name == "setup_s":
            note = "median of cold starts " + " ".join(
                f"{s:.3f}" for s in doc["samples"]["setup_s"])
        elif name == "pass_s_p50":
            note = (f"n={extras['pass_s_n']} min={extras['pass_s_min']:.4f} "
                    f"max={extras['pass_s_max']:.4f}")
            if extras["pass_s_tail"] is None:
                note += "; n<20: no percentile has 10 samples beyond it"
            else:
                note += (f"; pass_s_tail={extras['pass_s_tail']:.4f} at "
                         f"p{extras['pass_s_tail_pct']:.0f}")
        print(f"   {name:<16}{metric['value']:>12.4f} {metric['unit']:<5}{note}")


def print_layers(doc: dict) -> None:
    extras = doc["extras"]
    # Engine-protocol and SCF layers are shares of the direct (in-process)
    # pass they were measured on; on served workloads that is the check pass.
    direct_s = extras["direct_pass_s"]
    for name, metric in doc["metrics"].items():
        seconds = None
        if name.startswith(("api.engine.", "scf.", "qd.hamiltonian.")) \
                and metric["unit"] == "s":
            seconds = metric["value"]
        elif metric["unit"] == "us":
            seconds = extras["step_s_per_pass"][name]
        note = "" if not seconds else \
            f"{100 * seconds / direct_s:5.1f}% of the direct pass"
        print(f"   {name:<40}{metric['value']:>14.6g} {metric['unit']:<6}{note}")
    print(f"   traced pass_s_p50 {extras['traced_pass_s_p50']:.4f} s, untraced "
          f"{extras['untraced_pass_s_p50']:.4f} s "
          f"({extras['traced_passes']} passes each, alternating)")
    print("   self time per traced pass (span - children):")
    for name, seconds in extras["self_time_s_per_pass"].items():
        print(f"      {name:<26}{seconds:>10.4f} s")
    print(f"   self-time coverage of the traced passes: "
          f"{100 * extras['self_time_coverage']:.2f}%")
    for name, row in extras["poll_steps"].items():
        print(f"   {name}: computes in {row['compute_s']:.3f} s, "
              f"served in {row['served_s']:.3f} s")
    if extras["resume_mismatched"]:
        print("   resumed != uninterrupted (not a failure, see README): "
              + ", ".join(extras["resume_mismatched"]))


# ----------------------------------------------------------------------
# Selfcheck: does the instrument repeat?
# ----------------------------------------------------------------------
def spread(values) -> str:
    """IQR as a share of the median (the driver's acceptance statistic)."""
    if len(values) < 4:
        return "n<4"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{100 * (q3 - q1) / statistics.median(values):.2f}%"


def selfcheck(contract, all_counts, workloads, seed, seconds, runs) -> tuple:
    """Two alternating sets of ``runs`` runs per workload, same checkout."""
    sets = {"A": [], "B": []}
    for index in range(runs):
        for label in ("A", "B"):
            for workload in workloads:
                spin(SPIN_SECONDS)
                doc = run_workload(contract, all_counts[workload], workload,
                                   seed + index, seconds, 0, False)
                sets[label].append(doc)
                print(f"   set {label} run {index} {workload}: " + " ".join(
                    f"{k}={v['value']:.4f}" for k, v in doc["metrics"].items()),
                    flush=True)
    print(f"selfcheck: two alternating sets of {runs} runs, seeds "
          f"{seed}..{seed + runs - 1}")
    print(f"{'workload':<16}{'metric':<15}{'median A':>11}{'median B':>11}"
          f"{'diff':>8}{'IQR/med A':>11}{'IQR/med B':>11}{'bound':>7}")
    ok = all(doc["correct"] for docs in sets.values() for doc in docs)
    for workload in workloads:
        for metric in contract["end_to_end"]:
            name = metric["name"]
            a, b = ([doc["metrics"][name]["value"] for doc in sets[label]
                     if doc["workload"] == workload] for label in "AB")
            med_a, med_b = statistics.median(a), statistics.median(b)
            diff = abs(med_b - med_a) / med_a
            verdict = "" if diff <= metric["bound"] else "  EXCEEDS BOUND"
            ok = ok and not verdict
            print(f"{workload:<16}{name:<15}{med_a:>11.4f}{med_b:>11.4f}"
                  f"{100 * diff:>7.2f}%{spread(a):>11}{spread(b):>11}"
                  f"{100 * metric['bound']:>6.0f}%{verdict}")
    return ok, sets["A"] + sets["B"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None,
                        help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="nominal timed-phase length the fixed pass "
                             "counts scale with (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run (per-layer metrics) only")
    parser.add_argument("--traced", action="store_true",
                        help="untraced run, then the traced run")
    parser.add_argument("--selfcheck", type=int, nargs="?", const=3,
                        default=None, metavar="N",
                        help="two alternating sets of N untraced runs each")
    parser.add_argument("--smoke", action="store_true",
                        help="1 pass per workload, 1 cold start, no spin")
    parser.add_argument("--json", dest="json_path", default=None,
                        metavar="PATH", help="write the full document")
    args = parser.parse_args()

    if not (ROOT / "src" / "repro").is_dir():
        print(f"{ROOT / 'src' / 'repro'}: the program under test is not in "
              "this checkout", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        contract = json.load(handle)
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import NOMINAL_SECONDS, WORKLOADS

    if NOMINAL_SECONDS != contract["run_seconds"]:
        raise SystemExit("workloads.NOMINAL_SECONDS and BENCHMARK.json's "
                         "run_seconds disagree: the frozen counts are off")
    names = [w["name"] for w in contract["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            parser.error(f"unknown workload {args.workload!r}; known: {names}")
        names = [args.workload]
    seconds = args.seconds if args.seconds is not None \
        else float(contract["run_seconds"])
    modes = [0, 1] if args.traced else [args.trace]

    if args.selfcheck is not None:
        ok, runs = selfcheck(contract, WORKLOADS, names, args.seed, seconds,
                             args.selfcheck)
    else:
        runs = []
        for workload in names:
            for trace in modes:
                if not args.smoke:
                    spin(SPIN_SECONDS)
                doc = run_workload(contract, WORKLOADS[workload], workload,
                                   args.seed, seconds, trace, args.smoke)
                print_result(doc)
                sys.stdout.flush()
                runs.append(doc)
        ok = all(doc["correct"] for doc in runs)

    if args.json_path is not None:
        document = {
            "schema": "repro-bench-e2e/1",
            "environment": runs[-1]["environment"],
            "seed": args.seed, "seconds": seconds,
            "counts": {name: WORKLOADS[name] for name in names},
            "runs": runs,
        }
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1)
    if len(runs) == 1:
        doc = runs[0]
        print(json.dumps({key: doc[key] for key in
                          ("correct", "attempted", "failed", "metrics")}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
