"""The traced run: decompose each run into public calls, span them, and
probe the layers no end-to-end workload isolates.

Everything here times calls *into* the program (``build_engine``, the
``Engine`` protocol methods, ``ServeClient``, ``CheckpointStore``,
``KohnShamSolver`` ...) and reads what the program publishes (run records,
``/v1/stats``, result metadata).  Unit convention of the layer metrics:
``*_s`` is seconds per pass, ``*_s_p50`` the median of one call or run,
``*_us`` microseconds per native step; counts are per pass.  A layer that is
not on a workload's path reads 0 there.
"""

from __future__ import annotations

import shutil
import statistics
import time
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Sequence

from repro.api import (
    BatchRunner, CheckpointStore, RunResult, ScenarioSpec, ServeClient,
    build_engine, run_scenario,
)
from repro.fleet import FleetRouter
from repro.perf.workspace import KernelWorkspace
from repro.qd import LocalHamiltonian
from repro.qd.hamiltonian import gaussian_external_potential
from repro.scf import KohnShamSolver
from repro.scf.eigensolver import lowest_eigenstates

from spans import SpanRecorder, self_times
from workloads import DEFAULT_WAIT, SERVER_CONFIG, bit_identical

#: scenario -> the step-kernel layer metric its ``engine.step(1)`` measures.
STEP_METRIC = {
    "quickstart-tddft": "qd.tddft.step_us",
    "dcmesh-pulse": "dc.dcmesh.exchange_us",
    "mesh-hopping": "naqmd.mesh.step_us",
    "md-nve": "md.integrators.step_us",
    "md-langevin": "md.langevin.step_us",
    "localmode-switch": "md.localmode.step_us",
    "mlmd-photoswitch": "core.mlmd.step_us",
    "maxwell-vacuum": "maxwell.fdtd1d.step_us",
}

_QUANTUM_ENGINES = ("tddft", "dcmesh", "mesh")

#: Offset mapping the daemon's ``time.time()`` stamps onto the span clock.
_WALL_TO_PERF = time.time() - perf_counter()


def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


# ----------------------------------------------------------------------
# Direct path: the engine protocol, call by call
# ----------------------------------------------------------------------
def traced_run(rec: SpanRecorder, spec: ScenarioSpec,
               workspace: KernelWorkspace, trace: str) -> RunResult:
    """``run_scenario`` spelled out in protocol calls, one span per call.

    Must return observables bit-identical to ``run_scenario(spec)``; the
    harness checks that on the warm-up specs of every traced run.
    """
    steps = spec.runtime.num_steps
    every = spec.runtime.record_every
    with rec.span("run", trace=trace, scenario=spec.name):
        engine = build_engine(spec, workspace=workspace)
        with rec.span("api.engine.prepare"):
            engine.prepare()
        with rec.span("api.engine.record"):
            engine.record()
        done = 0
        while done < steps:
            block = min(every, steps - done)
            with rec.span("api.engine.step", n=block):
                for _ in range(block):
                    engine.step(1)
            done += block
            if done % every == 0:
                with rec.span("api.engine.record"):
                    engine.record()
        with rec.span("api.engine.checkpoint"):
            engine.checkpoint()
        with rec.span("api.engine.result"):
            result = engine.result()
    return result


def traced_direct_pass(rec: SpanRecorder, specs: List[ScenarioSpec],
                       workspace: KernelWorkspace, label: str,
                       ) -> List[RunResult]:
    with rec.span("pass", trace=label):
        return [traced_run(rec, spec, workspace, f"{label}-r{index}")
                for index, spec in enumerate(specs)]


def engine_layers(rec: SpanRecorder, roots: List[int]):
    """``api.engine.*`` and step-kernel metrics of the direct passes rooted
    at ``roots`` (per pass), and each step kernel's seconds per pass."""
    passes = max(1, len(roots))
    table = self_times(rec.spans, roots)

    def per_pass(name: str, field: str = "self_s") -> float:
        return table.get(name, {}).get(field, 0.0) / passes

    layers = {
        "api.engine.prepare_s": per_pass("api.engine.prepare"),
        "api.engine.step_s": per_pass("api.engine.step"),
        "api.engine.steps": per_pass("api.engine.step", "calls"),
        "api.engine.record_s": per_pass("api.engine.record"),
        "api.engine.records": per_pass("api.engine.record", "calls"),
        "api.engine.checkpoint_s": per_pass("api.engine.checkpoint"),
        "api.engine.result_s": per_pass("api.engine.result"),
        "api.engine.loop_self_s": per_pass("run") + per_pass("pass"),
    }
    in_roots = _descendants(rec, roots)
    by_kind: Dict[str, List[float]] = {}
    for span in rec.spans:
        if span["name"] == "api.engine.step" and span["id"] in in_roots:
            scenario = rec.spans[span["parent"]]["scenario"]
            totals = by_kind.setdefault(STEP_METRIC[scenario], [0.0, 0])
            totals[0] += span["end"] - span["start"]
            totals[1] += span["n"]
    step_s = {}
    for metric in STEP_METRIC.values():
        seconds, count = by_kind.get(metric, (0.0, 0))
        layers[metric] = 1e6 * seconds / count if count else 0.0
        step_s[metric] = seconds / passes
    return layers, step_s


def _descendants(rec: SpanRecorder, roots: List[int]) -> set:
    keep = set(roots)
    for span in rec.spans:  # ids are creation-ordered: parents come first
        if span["parent"] in keep:
            keep.add(span["id"])
    return keep


def direct_run_seconds(rec: SpanRecorder, roots: List[int],
                       ) -> Dict[str, float]:
    """Median direct (in-process) run time per scenario."""
    in_roots = _descendants(rec, roots)
    times: Dict[str, List[float]] = {}
    for span in rec.spans:
        if span["name"] == "run" and span["id"] in in_roots:
            times.setdefault(span["scenario"], []).append(
                span["end"] - span["start"])
    return {name: _median(values) for name, values in times.items()}


# ----------------------------------------------------------------------
# Served path: the client's calls, plus what the run record says
# ----------------------------------------------------------------------
class ServedTrace:
    """Accumulates the per-run samples of the traced served passes."""

    def __init__(self) -> None:
        #: layer metric name -> samples; the metric is their median
        self.samples: Dict[str, List[float]] = {
            name: [] for name in (
                "api.client.submit_s_p50", "api.client.wait_s_p50",
                "api.client.result_fetch_s_p50",
                "api.client.wait_overshoot_s_p50",
                "api.server.queue_wait_s_p50", "api.server.turnaround_s_p50",
                "api.server.burst_makespan_s_p50", "api.executor.run_s_p50",
                "api.executor.dispatch_overhead_s_p50")
        }
        #: scenario -> [(compute seconds, served seconds)] of closed-loop runs
        self.per_scenario: Dict[str, List[tuple]] = {}

    def await_run(self, rec: SpanRecorder, runner, run_id: str,
                  direct_s: Dict[str, float]):
        client = runner.client
        with rec.span("api.client.wait", trace=run_id) as wait:
            outcome = client.wait(run_id, **runner.wait_args)
        done_wall = time.time()
        with rec.span("api.client.status", trace=run_id):
            record = client.status(run_id)
        # A second fetch, timed alone: wait() has already paid one.
        with rec.span("api.client.result", trace=run_id) as fetch:
            client.result(run_id)
        submitted, started, finished = (
            record["submitted_at"], record["started_at"], record["finished_at"])
        rec.add("api.server.queue", submitted - _WALL_TO_PERF,
                started - _WALL_TO_PERF, parent=wait["id"])
        rec.add("api.executor.run", started - _WALL_TO_PERF,
                finished - _WALL_TO_PERF, parent=wait["id"])
        s = self.samples
        s["api.client.wait_s_p50"].append(wait["end"] - wait["start"])
        s["api.client.result_fetch_s_p50"].append(fetch["end"] - fetch["start"])
        s["api.client.wait_overshoot_s_p50"].append(done_wall - finished)
        s["api.server.queue_wait_s_p50"].append(started - submitted)
        s["api.server.turnaround_s_p50"].append(finished - submitted)
        s["api.executor.run_s_p50"].append(finished - started)
        s["api.executor.dispatch_overhead_s_p50"].append(
            (finished - started) - direct_s[record["scenario"]])
        return outcome, record

    def traced_pass(self, rec: SpanRecorder, runner,
                    specs: List[ScenarioSpec], label: str,
                    direct_s: Dict[str, float]):
        """``runner.run_pass`` with every client call in a span."""
        client = runner.client
        outcomes = []
        with rec.span("pass", trace=label):
            if runner.burst:
                run_ids = []
                for spec in specs:
                    with rec.span("api.client.submit") as submit:
                        run_ids.append(client.submit(spec)["run_id"])
                    submit["trace"] = run_ids[-1]
                    self.samples["api.client.submit_s_p50"].append(
                        submit["end"] - submit["start"])
                records = []
                for run_id in run_ids:
                    outcome, record = self.await_run(rec, runner, run_id, direct_s)
                    outcomes.append(outcome)
                    records.append(record)
                self.samples["api.server.burst_makespan_s_p50"].append(
                    max(r["finished_at"] for r in records)
                    - min(r["submitted_at"] for r in records))
            else:
                for spec in specs:
                    with rec.span("run", scenario=spec.name) as run:
                        with rec.span("api.client.submit") as submit:
                            run_id = client.submit(spec)["run_id"]
                        run["trace"] = submit["trace"] = run_id
                        self.samples["api.client.submit_s_p50"].append(
                            submit["end"] - submit["start"])
                        outcome, record = self.await_run(
                            rec, runner, run_id, direct_s)
                    outcomes.append(outcome)
                    self.per_scenario.setdefault(spec.name, []).append(
                        (record["finished_at"] - record["started_at"],
                         run["end"] - run["start"]))
        return outcomes

    def poll_steps(self) -> Dict[str, Dict[str, float]]:
        """Per scenario: median compute time and the served time
        ``ServeClient.wait``'s poll schedule rounds it up to."""
        return {
            name: {"compute_s": _median([c for c, _ in pairs]),
                   "served_s": _median([s for _, s in pairs])}
            for name, pairs in self.per_scenario.items()
        }

    def layers(self) -> Dict[str, float]:
        return {name: _median(values) for name, values in self.samples.items()}


def daemon_layers(client: ServeClient) -> Dict[str, float]:
    """What ``/v1/health`` round trips and ``/v1/stats`` say."""
    rtts = []
    for _ in range(20):
        t0 = perf_counter()
        client.health()
        rtts.append(perf_counter() - t0)
    stats = client.stats()
    daemon, store = stats["daemon"], stats["store"]
    runs = max(1, daemon["done"] + daemon["failed"])
    state_bytes = (store["journal"]["bytes"] + store["results"]["bytes"]
                   + store["checkpoints"]["bytes"])
    return {
        "api.server.http_rtt_s_p50": _median(rtts),
        "api.server.warm_hit_rate": float(daemon["pool"]["warm_hit_rate"] or 0.0),
        "api.server.state_bytes_per_run": state_bytes / runs,
        "batch.coalesced_share": daemon["batched_runs"] / runs,
    }


def router_hop(state_root: Path, specs: List[ScenarioSpec], passes: int,
               unrouted_s: float) -> float:
    """Median run time through a ``FleetRouter`` fronting the same daemon,
    minus the unrouted median."""
    router = FleetRouter(state_root, port=0).start()
    try:
        client = ServeClient(port=router.port)
        routed = []
        for _ in range(passes):
            for spec in specs:
                t0 = perf_counter()
                outcome = client.wait(client.submit(spec)["run_id"], **DEFAULT_WAIT)
                routed.append(perf_counter() - t0)
                if not outcome.ok:
                    raise RuntimeError(f"routed run failed: {outcome.error}")
    finally:
        router.stop()
    return _median(routed) - unrouted_s


# ----------------------------------------------------------------------
# Side probes: layers no end-to-end workload isolates
# ----------------------------------------------------------------------
def scf_probe(specs: List[ScenarioSpec]) -> Dict[str, float]:
    """SCF, one eigensolve and one potential update on each quantum spec's
    own grid and external potential, called directly."""
    out = {"scf.run_s": 0.0, "scf.iterations": 0.0, "scf.converged_share": 0.0,
           "scf.eigensolver.solve_s": 0.0,
           "qd.hamiltonian.update_potentials_s": 0.0}
    quantum = [spec for spec in specs if spec.engine in _QUANTUM_ENGINES]
    for spec in quantum:
        material = spec.material
        grid = spec.grid.build()
        hamiltonian = LocalHamiltonian(grid, gaussian_external_potential(
            grid, material.centers, material.depths, material.widths))
        solver = KohnShamSolver(
            hamiltonian, n_electrons=material.n_electrons,
            n_orbitals=material.n_orbitals,
            max_iterations=material.scf_max_iterations,
            tolerance=material.scf_tolerance,
        )
        t0 = perf_counter()
        scf = solver.run()
        out["scf.run_s"] += perf_counter() - t0
        out["scf.iterations"] += scf.iterations
        out["scf.converged_share"] += float(scf.converged) / len(quantum)
        solves, updates = [], []
        for _ in range(3):
            t0 = perf_counter()
            lowest_eigenstates(hamiltonian, material.n_orbitals)
            solves.append(perf_counter() - t0)
            t0 = perf_counter()
            hamiltonian.update_potentials(scf.density)
            updates.append(perf_counter() - t0)
        # SCF makes one eigensolve per iteration and one update more.
        out["scf.eigensolver.solve_s"] += scf.iterations * _median(solves)
        out["qd.hamiltonian.update_potentials_s"] += (
            (scf.iterations + 1) * _median(updates))
    return out


def store_probe(specs: List[ScenarioSpec], root: Path,
                workspace: KernelWorkspace):
    """Per distinct scenario: save a mid-run and the final snapshot, load the
    mid-run one, restore it, finish the run, compare with the uninterrupted
    result.  Returns the layer metrics and the scenarios that mismatched."""
    saves, loads, restores, mismatched = [], [], [], []
    nbytes = 0
    seen = set()
    for spec in specs:
        if spec.name in seen:
            continue
        seen.add(spec.name)
        snapshots: List[Dict[str, Any]] = []
        full = run_scenario(
            spec, workspace=workspace, on_checkpoint=snapshots.append,
            checkpoint_every=max(1, spec.runtime.num_steps // 2),
        )
        store = CheckpointStore(root)
        for snapshot in (snapshots[0], snapshots[-1]):
            t0 = perf_counter()
            store.save(snapshot, run_id="probe")
            saves.append(perf_counter() - t0)
        t0 = perf_counter()
        loaded = store.load(spec.name, "probe", step=snapshots[0]["step"])
        loads.append(perf_counter() - t0)
        engine = build_engine(spec, workspace=workspace)
        engine.prepare()
        t0 = perf_counter()
        engine.restore(loaded)
        restores.append(perf_counter() - t0)
        if not bit_identical(full, engine.resume(loaded)):
            mismatched.append(spec.name)
    if root.is_dir():
        nbytes = sum(p.stat().st_size for p in root.rglob("*") if p.is_file())
        shutil.rmtree(root)
    layers = {
        "store.save_s_p50": _median(saves),
        "store.save_bytes": nbytes / max(1, len(saves)),
        "store.load_s_p50": _median(loads),
        "api.engine.restore_s": _median(restores),
        "store.resume_mismatches": float(len(mismatched)),
    }
    return layers, mismatched


def codec_probe(results: List[RunResult]) -> Dict[str, float]:
    """``RunResult.to_json`` / ``from_json`` over one pass's results."""
    encode = decode = 0.0
    nbytes = 0
    for result in results:
        t0 = perf_counter()
        text = result.to_json()
        t1 = perf_counter()
        RunResult.from_json(text)
        decode += perf_counter() - t1
        encode += t1 - t0
        nbytes += len(text.encode("utf-8"))
    return {"api.result.encode_s": encode, "api.result.decode_s": decode,
            "api.result.bytes": float(nbytes)}


def batch_probe(specs: List[ScenarioSpec]) -> Dict[str, float]:
    """One burst's specs through ``BatchRunner``, stacked and serial."""
    out = {}
    for key, batched in (("batch.stacked_run_s", True),
                         ("batch.serial_run_s", False)):
        runner = BatchRunner(batched=batched,
                             max_batch=SERVER_CONFIG["batch_max"])
        t0 = perf_counter()
        runner.run(specs, raise_on_error=True)
        out[key] = perf_counter() - t0
    return out
