"""One workload in one fresh interpreter (spawned by ``run.py``).

Flow: imports -> daemon up (served) -> first verified pass (the warm-up;
``setup_s`` stops here) -> timed phase of a fixed pass count -> teardown.
With ``--cold-only`` the process stops after the warm-up: it is one of the
cold-start samples ``setup_s`` is the median of.  With ``--trace 1`` the
timed phase alternates untraced and traced passes and the side probes run.

Prints one JSON object as its last stdout line.
"""

import time

T0 = time.perf_counter()  # the fresh interpreter's first line: setup_s starts

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import sys
from pathlib import Path

# Rule 1: one BLAS thread, set before numpy loads (run.py exports the same;
# repeated here so this file measures the same thing when run alone).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("REPRO_TELEMETRY", None)

import numpy as np
import scipy

from repro.api import ScenarioServer, ServeClient, run_scenario
from repro.perf.workspace import KernelWorkspace

from workloads import (
    SERVER_CONFIG, WORKLOADS, SpecGenerator, bit_identical, runs_per_pass,
    timed_passes, verify,
)

OUT_DIR = Path(__file__).resolve().parent / "out"
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def process_cpu_s(pid: int) -> float:
    """user+sys CPU seconds of another process (``/proc/<pid>/stat``)."""
    try:
        with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


class Direct:
    """In-process ``run_scenario`` on one shared workspace."""

    served = False

    def __init__(self) -> None:
        self.workspace = KernelWorkspace()

    def run_pass(self, specs):
        """The pass's outcomes and the wall time of each of its runs."""
        outcomes, run_s = [], []
        for spec in specs:
            t0 = time.perf_counter()
            outcomes.append(run_scenario(spec, workspace=self.workspace))
            run_s.append(time.perf_counter() - t0)
        return outcomes, run_s

    def workspace_stats(self, outcomes):
        return dict(self.workspace.stats)

    def close(self) -> None:
        pass


class Served:
    """One daemon, one client, closed loop (or one burst per pass)."""

    served = True

    def __init__(self, workload: str) -> None:
        self.burst = workload == "served-burst"
        self.wait_args = WORKLOADS[workload]["wait"]
        self.state_root = OUT_DIR / f"state-{workload}-{os.getpid()}"
        self.server = ScenarioServer(
            self.state_root, port=0, **SERVER_CONFIG).start()
        self.client = ServeClient(port=self.server.port)

    def run_pass(self, specs):
        """The pass's outcomes and the wall time of each of its operations:
        one submit->wait per run, or the one burst."""
        client = self.client
        outcomes, op_s = [], []
        if self.burst:
            t0 = time.perf_counter()
            run_ids = [client.submit(spec)["run_id"] for spec in specs]
            outcomes = [client.wait(run_id, **self.wait_args)
                        for run_id in run_ids]
            return outcomes, [time.perf_counter() - t0]
        for spec in specs:
            t0 = time.perf_counter()
            run_id = client.submit(spec)["run_id"]
            outcomes.append(client.wait(run_id, **self.wait_args))
            op_s.append(time.perf_counter() - t0)
        return outcomes, op_s

    def workspace_stats(self, outcomes):
        """The worker's cumulative cache counters as of the last good run."""
        for outcome in reversed(outcomes):
            if outcome.ok:
                return dict(outcome.metadata["workspace_stats"])
        return {}

    def close(self) -> None:
        self.server.stop(drain=True)
        shutil.rmtree(self.state_root, ignore_errors=True)


def worker_pids(outcomes) -> set:
    return {o.metadata["executor"]["worker_pid"] for o in outcomes
            if o.ok and "executor" in o.metadata}


def total_cpu_s(pids) -> float:
    return time.process_time() + sum(process_cpu_s(pid) for pid in pids)


def hit_ratio(before, after, kind: str) -> float:
    hits = after.get(f"{kind}_hits", 0) - before.get(f"{kind}_hits", 0)
    misses = after.get(f"{kind}_misses", 0) - before.get(f"{kind}_misses", 0)
    return hits / (hits + misses) if hits + misses else 0.0


def tail(samples):
    """The highest percentile with >= 10 samples beyond it (None when the
    sample is too small to have one above the median)."""
    n = len(samples)
    if n < 20:
        return None, None
    ordered = sorted(samples)
    return ordered[n - 11], 100.0 * (n - 10) / n


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')} "
                f"({blas.get('openblas configuration', 'n/a')})",
        "nproc": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


class Tally:
    """Runs attempted / failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(reason)

    def check(self, outcomes, specs) -> None:
        for outcome, spec in zip(outcomes, specs):
            self.attempted += 1
            reason = verify(outcome, spec)
            if reason is not None:
                self.fail(f"{spec.name}: {reason}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--passes", type=int, default=None,
                        help="override the frozen pass count (smoke only)")
    parser.add_argument("--cold-only", action="store_true")
    args = parser.parse_args()
    # run.py stops a hung child with SIGTERM: leave through the finally below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    workload = args.workload
    OUT_DIR.mkdir(exist_ok=True)
    generator = SpecGenerator(workload, args.seed)
    tally = Tally()
    runner = Served(workload) if WORKLOADS[workload]["served"] else Direct()
    try:
        warm_specs = generator.next_pass()
        warm, _ = runner.run_pass(warm_specs)
        tally.check(warm, warm_specs)
        setup_s = time.perf_counter() - T0
        doc = {"workload": workload, "seed": args.seed, "trace": args.trace,
               "setup_s": setup_s}
        if not args.cold_only:
            passes = args.passes or timed_passes(workload, args.seconds)
            doc["passes"] = passes
            doc["environment"] = environment()
            if args.trace:
                measure_traced(runner, generator, warm_specs, warm, passes,
                               tally, doc)
            else:
                measure(runner, generator, warm_specs, warm, passes, tally, doc)
    finally:
        runner.close()
    if not args.cold_only and not args.trace:
        # Workers are reaped by now: RUSAGE_CHILDREN holds the largest one.
        doc["metrics"]["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0
    doc.update(attempted=tally.attempted, failed=tally.failed,
               failures=tally.reasons)
    print(json.dumps(doc))
    return 0


def check_served_against_direct(specs, outcomes, tally) -> None:
    """Once per scenario: the served result must equal the direct result of
    the same spec, bit for bit."""
    seen = set()
    workspace = KernelWorkspace()
    for spec, outcome in zip(specs, outcomes):
        if spec.name in seen or not outcome.ok:
            continue
        seen.add(spec.name)
        if not bit_identical(outcome, run_scenario(spec, workspace=workspace)):
            tally.fail(f"{spec.name}: served result differs from direct")


def measure(runner, generator, warm_specs, warm, passes, tally, doc) -> None:
    """The untraced timed phase: the five end-to-end metrics."""
    if runner.served:
        check_served_against_direct(warm_specs, warm, tally)
    all_specs = [generator.next_pass() for _ in range(passes)]
    pids = worker_pids(warm)
    pass_s, op_s, cpu_marks, outcomes = [], [], [], []
    cpu0 = total_cpu_s(pids)
    phase0 = time.perf_counter()
    for specs in all_specs:
        t0 = time.perf_counter()
        batch, times = runner.run_pass(specs)
        pass_s.append(time.perf_counter() - t0)
        outcomes.append(batch)
        op_s.append(times)
        cpu_marks.append(total_cpu_s(pids))
    phase_s = time.perf_counter() - phase0
    for batch in outcomes:
        pids |= worker_pids(batch)
    cpu_s = total_cpu_s(pids) - cpu0
    failed_before = tally.failed
    for specs, batch in zip(all_specs, outcomes):
        tally.check(batch, specs)
    runs = passes * runs_per_pass(doc["workload"])
    verified = runs - (tally.failed - failed_before)
    tail_s, tail_pct = tail(pass_s)
    doc["metrics"] = {
        "pass_s_p50": statistics.median(pass_s),
        "runs_per_s": verified / phase_s,
        "cpu_s_per_run": cpu_s / runs,
    }
    doc["extras"] = {"pass_s_n": len(pass_s), "pass_s_min": min(pass_s),
                     "pass_s_max": max(pass_s),
                     "pass_s_tail": tail_s, "pass_s_tail_pct": tail_pct,
                     "phase_s": phase_s}
    doc["samples"] = {
        "pass_s": pass_s, "op_s": op_s,
        "pass_cpu_s": [b - a for a, b in zip([cpu0] + cpu_marks, cpu_marks)],
    }


def measure_traced(runner, generator, warm_specs, warm, passes, tally,
                   doc) -> None:
    """The traced run: alternating untraced/traced passes, then the probes."""
    import traced
    from spans import SpanRecorder, self_times

    workload = doc["workload"]
    rec = SpanRecorder()
    probe_ws = KernelWorkspace()

    # Every traced run first spells the warm-up specs out in protocol calls,
    # in-process: it proves the decomposition returns what run_scenario (or
    # the daemon) returned, and on served workloads it is the direct pass the
    # dispatch overhead is measured against.
    direct_ws = getattr(runner, "workspace", probe_ws)
    direct_roots = [len(rec.spans)]
    check = traced.traced_direct_pass(rec, warm_specs, direct_ws, "check")
    for spec, reference, result in zip(warm_specs, warm, check):
        tally.attempted += 1
        if not reference.ok or not bit_identical(reference, result):
            tally.fail(f"{spec.name}: traced decomposition differs")
    direct_s = traced.direct_run_seconds(rec, direct_roots)

    served_trace = traced.ServedTrace()
    half = max(1, passes // 2)
    plain_s, traced_s, traced_roots = [], [], []
    stats0 = runner.workspace_stats(warm)
    last = warm
    unrouted_s = []
    for index in range(half):
        specs = generator.next_pass()
        t0 = time.perf_counter()
        last, times = runner.run_pass(specs)
        plain_s.append(time.perf_counter() - t0)
        unrouted_s.extend(times)
        tally.check(last, specs)
        specs = generator.next_pass()
        traced_roots.append(len(rec.spans))
        t0 = time.perf_counter()
        if runner.served:
            last = served_trace.traced_pass(rec, runner, specs, f"p{index}",
                                            direct_s)
        else:
            last = traced.traced_direct_pass(
                rec, specs, runner.workspace, f"p{index}")
        traced_s.append(time.perf_counter() - t0)
        tally.check(last, specs)
    stats1 = runner.workspace_stats(last)

    traced_p50 = statistics.median(traced_s)
    plain_p50 = statistics.median(plain_s)
    table = self_times(rec.spans, traced_roots)
    layers = {name: 0.0 for name in doc_layer_names()}
    engine_roots = direct_roots if runner.served else traced_roots
    engine, step_s = traced.engine_layers(rec, engine_roots)
    layers.update(engine)
    layers["perf.workspace.phase_hit_ratio"] = hit_ratio(stats0, stats1, "phase")
    layers["perf.workspace.scratch_hit_ratio"] = hit_ratio(stats0, stats1, "scratch")
    layers["trace.overhead_share"] = (traced_p50 - plain_p50) / plain_p50
    layers.update(traced.scf_probe(warm_specs))
    store_layers, mismatched = traced.store_probe(
        warm_specs, OUT_DIR / f"probe-{workload}-{os.getpid()}", probe_ws)
    layers.update(store_layers)
    layers.update(traced.codec_probe(check))
    if runner.served:
        layers.update(served_trace.layers())
        layers.update(traced.daemon_layers(runner.client))
        if runner.burst:
            layers.update(traced.batch_probe(warm_specs))
        if workload == "served-short":
            layers["fleet.router.hop_s_p50"] = traced.router_hop(
                runner.state_root, warm_specs, min(3, passes),
                statistics.median(unrouted_s))
    rec.write(OUT_DIR / f"trace-{workload}.ndjson")

    doc["metrics"] = layers
    doc["extras"] = {
        "traced_pass_s_p50": traced_p50, "untraced_pass_s_p50": plain_p50,
        "traced_passes": half,
        "direct_pass_s": sum(
            rec.spans[i]["end"] - rec.spans[i]["start"] for i in engine_roots
        ) / len(engine_roots),
        "step_s_per_pass": step_s,
        "self_time_coverage": sum(r["self_s"] for r in table.values())
                              / sum(traced_s),
        "self_time_s_per_pass": {
            name: row["self_s"] / half for name, row in sorted(table.items())},
        "resume_mismatched": mismatched,
        "poll_steps": served_trace.poll_steps(),
        "spans": len(rec.spans),
    }


def doc_layer_names():
    """Every per-layer metric name the contract lists (BENCHMARK.json)."""
    path = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
    with open(path, "r", encoding="utf-8") as handle:
        return [m["name"] for m in json.load(handle)["per_layer"]]


if __name__ == "__main__":
    sys.exit(main())
