"""End-to-end telemetry: the metrics registry, span tracing, and the
``/v1/metrics`` exposition surface.

Three layers:

* **units** — counters/gauges/histograms with snapshot/merge/subtract
  semantics, quantile estimation, Prometheus text rendering, and the span
  primitives (context propagation, the crash-tolerant NDJSON span log).
* **daemon integration** — an in-process daemon with telemetry enabled
  produces one queryable trace per run (queue wait, worker execution,
  store saves), serves ``/v1/metrics`` as valid Prometheus text, and
  reports a ``telemetry`` section in ``/v1/stats`` that the dashboard
  renders as latency quantiles.
* **chaos** (``-m chaos``) — the two ``telemetry.*`` fault points, span-log
  crash tolerance (a SIGKILLed writer leaves a readable prefix), and trace
  continuity: a daemon SIGKILLed mid-run resumes under the *same*
  ``trace_id``, and a routed submission stolen by a second daemon yields a
  single trace spanning the router, both daemons, worker execution, and
  store saves.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro import faults, telemetry
from repro.api import (
    ExecutionService, ScenarioServer, ServeClient, ServeError, WorkerPool,
    default_registry,
)
from repro.api.executor import execute_payload, worker_payload
from repro.api.cli import main
from repro.analytics.stats import render_dashboard
from repro.fleet import FleetRouter

from test_api import smoke_spec
from test_server import SRC, _await_port, _kill_group, needs_fork

chaos = pytest.mark.chaos


def _telemetry_env(plan: str = "") -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env[telemetry.ENV_VAR] = "1"
    if plan:
        env[faults.ENV_VAR] = plan
    else:
        env.pop(faults.ENV_VAR, None)
    return env


def _spawn_traced_daemon(root: Path, workers: int = 1, *extra: str,
                         plan: str = "") -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", str(workers), "--checkpoint-dir", str(root), *extra],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=_telemetry_env(plan), start_new_session=True,
    )


def _payload(spec, run_id: str) -> dict:
    """A storeless worker payload for one run of ``spec``."""
    return worker_payload(0, spec.to_dict(), run_id, checkpoint_dir=None,
                          checkpoint_every=None, keep=0, retention=None,
                          resume=False, attempt=1)


def _await_checkpoint(client: ServeClient, run_id: str) -> int:
    """Block on the run's event stream until its first checkpoint is on
    disk, and return that checkpoint's step."""
    for event in client.events(run_id):
        if event["event"] == "checkpoint":
            return int(event["step"])
        assert event["event"] in ("status", "ping"), \
            f"{run_id} settled ({event['event']}) without a checkpoint"
    raise AssertionError(f"the event stream of {run_id} ended early")


# ----------------------------------------------------------------------
# Metrics units
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_gauge_histogram_snapshot(self):
        reg = telemetry.MetricsRegistry()
        reg.counter("c", "a counter").inc()
        reg.counter("c").inc(2.5)
        reg.gauge("g", "a gauge").set(7)
        reg.histogram("h", "a histogram").observe(3e-6)
        reg.histogram("h").observe(100.0)
        snap = reg.snapshot()
        assert snap["counters"]["c"] == {"value": 3.5, "help": "a counter"}
        assert snap["gauges"]["g"]["value"] == 7.0
        hist = snap["histograms"]["h"]
        assert hist["count"] == 2
        assert hist["sum"] == pytest.approx(100.0 + 3e-6)
        assert len(hist["counts"]) == len(telemetry.BUCKET_BOUNDS) + 1
        assert sum(hist["counts"]) == 2
        assert snap["bounds"] == list(telemetry.BUCKET_BOUNDS)

    def test_merge_adds_counters_and_buckets_overwrites_gauges(self):
        a, b = telemetry.MetricsRegistry(), telemetry.MetricsRegistry()
        a.counter("c").inc(1)
        a.gauge("g").set(1)
        a.histogram("h").observe(0.5)
        b.counter("c").inc(2)
        b.gauge("g").set(9)
        b.histogram("h").observe(0.5)
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"]["c"]["value"] == 3.0
        assert snap["gauges"]["g"]["value"] == 9.0
        assert snap["histograms"]["h"]["count"] == 2
        assert sum(snap["histograms"]["h"]["counts"]) == 2

    def test_merge_skips_version_skewed_histogram_bounds(self):
        reg = telemetry.MetricsRegistry()
        reg.histogram("h").observe(0.5)
        foreign = {"bounds": [1.0, 2.0],
                   "histograms": {"h": {"counts": [1, 1, 1], "sum": 3.0,
                                        "count": 3, "help": ""}}}
        reg.merge(foreign)
        assert reg.snapshot()["histograms"]["h"]["count"] == 1

    def test_subtract_snapshot_is_a_clamped_delta(self):
        reg = telemetry.MetricsRegistry()
        reg.counter("c").inc(5)
        reg.histogram("h").observe(0.5)
        old = reg.snapshot()
        reg.counter("c").inc(2)
        reg.histogram("h").observe(0.5)
        delta = telemetry.subtract_snapshot(reg.snapshot(), old)
        assert delta["counters"]["c"]["value"] == 2.0
        assert delta["histograms"]["h"]["count"] == 1
        assert sum(delta["histograms"]["h"]["counts"]) == 1
        # A restarted worker (new < old) reports nothing, never negative.
        fresh = telemetry.MetricsRegistry()
        fresh.counter("c").inc(1)
        clamped = telemetry.subtract_snapshot(fresh.snapshot(), old)
        assert clamped["counters"] == {}

    def test_subtract_snapshot_keeps_only_what_changed(self):
        reg = telemetry.MetricsRegistry()
        for name in ("idle", "busy"):
            reg.counter(name).inc()
            reg.gauge(name).set(1.0)
            reg.histogram(name).observe(0.5)
        old = reg.snapshot()
        reg.counter("busy").inc()
        reg.gauge("busy").set(2.0)
        reg.histogram("busy").observe(0.5)
        reg.counter("new").inc()
        delta = telemetry.subtract_snapshot(reg.snapshot(), old)
        assert set(delta["counters"]) == {"busy", "new"}
        assert set(delta["gauges"]) == {"busy"}
        assert set(delta["histograms"]) == {"busy"}
        assert telemetry.subtract_snapshot(old, old)["counters"] == {}

    def test_quantile_estimates_bucket_upper_bounds(self):
        reg = telemetry.MetricsRegistry()
        hist = reg.histogram("h")
        for _ in range(99):
            hist.observe(1e-4)
        hist.observe(10.0)
        snap = reg.snapshot()["histograms"]["h"]
        snap["bounds"] = reg.snapshot()["bounds"]
        p50 = telemetry.quantile(snap, 0.5)
        p99 = telemetry.quantile(snap, 0.99)
        assert p50 is not None and 1e-4 <= p50 < 1e-3
        assert p99 is not None and p99 < 1.0
        assert telemetry.quantile(snap, 1.0) >= 10.0 or \
            telemetry.quantile(snap, 1.0) == pytest.approx(
                float(telemetry.BUCKET_BOUNDS[-1]))
        assert telemetry.quantile({"counts": [], "count": 0}, 0.5) is None

    def test_render_prometheus_is_valid_exposition_text(self):
        reg = telemetry.MetricsRegistry()
        reg.counter("repro_runs_total", "finished runs").inc(3)
        reg.gauge("repro_queue_depth").set(2)
        hist = reg.histogram("repro_wait_seconds", "queue wait")
        hist.observe(1e-5)
        hist.observe(2.0)
        text = telemetry.render_prometheus(reg.snapshot())
        assert text.endswith("\n")
        assert "# HELP repro_runs_total finished runs" in text
        assert "# TYPE repro_runs_total counter" in text
        assert "repro_runs_total 3" in text
        assert "# TYPE repro_queue_depth gauge" in text
        assert "# TYPE repro_wait_seconds histogram" in text
        assert 'repro_wait_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_wait_seconds_count 2" in text
        # Cumulative buckets never decrease.
        cumulative = [int(line.rsplit(" ", 1)[1])
                      for line in text.splitlines()
                      if line.startswith("repro_wait_seconds_bucket")]
        assert cumulative == sorted(cumulative)
        assert cumulative[-1] == 2

    def test_module_helpers_are_noops_while_disabled(self):
        telemetry.reset()
        telemetry.disable()
        telemetry.incr("c")
        telemetry.set_gauge("g", 1.0)
        telemetry.observe("h", 0.5)
        snap = telemetry.snapshot()
        assert not snap["counters"] and not snap["gauges"] \
            and not snap["histograms"]
        telemetry.enable()
        try:
            telemetry.incr("c")
            assert telemetry.snapshot()["counters"]["c"]["value"] == 1.0
        finally:
            telemetry.disable()
            telemetry.reset()

    def test_ground_state_is_visible_in_the_registry(self, live_telemetry):
        from repro.api import run_scenario
        from repro.perf.workspace import KernelWorkspace

        # A fresh workspace: the process-wide one may already hold this
        # ground state from an earlier test, and then no SCF would run.
        workspace = KernelWorkspace()
        spec = default_registry().get("dcmesh-pulse")
        result = run_scenario(spec, num_steps=1, workspace=workspace)
        snap = telemetry.snapshot()
        assert snap["histograms"]["repro_engine_prepare_seconds"]["count"] == 1
        assert snap["histograms"]["repro_scf_run_seconds"]["count"] == 1
        assert snap["counters"]["repro_scf_iterations_total"]["value"] \
            == result.metadata["scf_iterations"]
        assert snap["counters"]["repro_scf_mixer_restarts_total"]["value"] \
            == result.metadata["scf_mixer_restarts"]
        assert snap["counters"][
            "repro_workspace_ground_state_misses_total"]["value"] == 1
        assert "repro_workspace_ground_state_hits_total" not in snap["counters"]
        assert result.metadata["scf_cache"] == "miss"

        # The same material again: one cache hit, and no SCF observation.
        again = run_scenario(spec, num_steps=1, workspace=workspace)
        snap = telemetry.snapshot()
        assert again.metadata["scf_cache"] == "hit"
        assert snap["histograms"]["repro_engine_prepare_seconds"]["count"] == 2
        assert snap["histograms"]["repro_scf_run_seconds"]["count"] == 1
        assert snap["counters"][
            "repro_workspace_ground_state_hits_total"]["value"] == 1
        assert snap["counters"][
            "repro_workspace_ground_state_misses_total"]["value"] == 1

    def test_kinetic_matrix_is_built_once_per_grid(self, live_telemetry,
                                                   monkeypatch):
        import repro.scf.eigensolver as eigensolver
        from repro.api import run_scenario
        from repro.perf.workspace import KernelWorkspace

        # An empty kinetic cache, and a fresh workspace per run so that both
        # runs solve their SCF (no ground-state cache hit).
        monkeypatch.setattr(eigensolver, "_KINETIC_CACHE", {})
        spec = default_registry().get("dcmesh-pulse")
        for _ in range(2):
            result = run_scenario(spec, num_steps=1,
                                  workspace=KernelWorkspace())
            assert result.metadata["scf_cache"] == "miss"
        snap = telemetry.snapshot()
        assert snap["histograms"]["repro_scf_run_seconds"]["count"] == 2
        assert snap["counters"]["repro_scf_iterations_total"]["value"] > 2
        assert snap["counters"]["repro_scf_kinetic_builds_total"]["value"] == 1

    @pytest.mark.parametrize("name", ["quickstart-tddft", "dcmesh-pulse"])
    def test_quantum_steps_are_split_by_qd_kernel(self, live_telemetry, name):
        from repro.api import run_scenario

        spec = smoke_spec(name, num_steps=2)
        run_scenario(spec)
        # One kinetic block per QD step, all DC-MESH domains in one block.
        qd_steps = 2 * (spec.propagator.qd_steps_per_exchange
                        if spec.engine == "dcmesh" else 1)
        histograms = telemetry.snapshot()["histograms"]
        assert histograms["repro_qd_kin_prop_seconds"]["count"] == qd_steps
        assert histograms["repro_qd_v_loc_prop_seconds"]["count"] \
            == 2 * qd_steps
        assert histograms["repro_engine_step_seconds"]["count"] == 2

    def test_forked_worker_does_not_reship_inherited_counts(
            self, live_telemetry, monkeypatch):
        # Under fork a fresh worker starts with the daemon's registry; its
        # first report must be what *it* counted, not what it inherited.
        from repro.api import executor

        monkeypatch.setattr(executor, "_WORKER_WORKSPACE", None)
        monkeypatch.setattr(executor, "_TELEMETRY_BASELINE", None)
        telemetry.incr("repro_serve_submissions_total", 4)
        executor._worker_init()
        telemetry.incr("repro_worker_runs_total", 1)
        counters = executor._telemetry_report()["counters"]
        assert "repro_serve_submissions_total" not in counters
        assert counters["repro_worker_runs_total"]["value"] == 1.0

    def test_inline_runs_attach_no_report(self, live_telemetry):
        # They count straight into this process's registry: a report would
        # only be shipped back here to be thrown away.
        spec = smoke_spec("maxwell-vacuum", num_steps=2)
        payload = _payload(spec, "inline")
        with WorkerPool(0) as pool:
            outcome = pool.submit(payload).result()
        assert "telemetry" not in outcome["ok"]["metadata"]
        counters = telemetry.snapshot()["counters"]
        assert counters["repro_worker_runs_total"]["value"] == 1.0

    @needs_fork
    def test_process_worker_reports_exactly_what_its_run_changed(
            self, live_telemetry):
        first = _payload(smoke_spec("quickstart-tddft", num_steps=2), "a")
        second = _payload(smoke_spec("maxwell-vacuum", num_steps=3), "b")
        with WorkerPool(1) as pool:
            assert "ok" in pool.submit(first).result()
            # The pool folds the worker's report into this registry and
            # strips it from the outcome.
            telemetry.reset()
            outcome = pool.submit(second).result()
        assert "telemetry" not in outcome["ok"]["metadata"]
        report = telemetry.snapshot()
        # What the second run changes, read off a registry it runs on alone.
        telemetry.reset()
        assert "ok" in execute_payload(second)
        alone = telemetry.snapshot()
        for kind in ("counters", "gauges", "histograms"):
            assert set(report[kind]) == set(alone[kind]), kind
        for name, entry in alone["counters"].items():
            assert report["counters"][name]["value"] == entry["value"], name
        for name, entry in alone["histograms"].items():
            assert report["histograms"][name]["count"] == entry["count"], name

    @needs_fork
    def test_execution_service_folds_process_worker_reports(
            self, live_telemetry):
        specs = [smoke_spec("maxwell-vacuum", num_steps=2) for _ in range(2)]
        with ExecutionService(workers=1) as service:
            outcomes = service.run(specs)
        assert all(outcome.ok for outcome in outcomes)
        assert all("telemetry" not in o.metadata for o in outcomes)
        counters = telemetry.snapshot()["counters"]
        assert counters["repro_worker_runs_total"]["value"] == 2.0

    @pytest.mark.parametrize("spec,expected", [
        ("1", True), ("on", True), ("TRUE", True), ("yes", True),
        ("0", False), ("off", False), ("", False), (None, False),
    ])
    def test_configure_parses_environment_values(self, spec, expected):
        was = telemetry.enabled()
        try:
            telemetry.configure(spec)
            assert telemetry.enabled() is expected
        finally:
            telemetry.enable() if was else telemetry.disable()


# ----------------------------------------------------------------------
# Span units
# ----------------------------------------------------------------------
class TestSpans:
    def test_start_finish_and_child_context(self):
        ctx = telemetry.new_context()
        assert ctx["parent"] is None
        parent = telemetry.start_span("outer", ctx, scenario="s", run_id="r")
        child_ctx = telemetry.child_context(ctx, parent)
        assert child_ctx == {"trace_id": ctx["trace_id"],
                             "parent": parent["span_id"]}
        child = telemetry.start_span("inner", child_ctx)
        telemetry.finish_span(child)
        telemetry.finish_span(parent, {"ok": True})
        assert child["parent"] == parent["span_id"]
        assert child["trace_id"] == parent["trace_id"] == ctx["trace_id"]
        assert parent["dur"] >= child["dur"] >= 0.0
        assert parent["attrs"] == {"ok": True}
        assert "_t0" not in parent and "_t0" not in child

    def test_completed_span_uses_external_timestamps(self):
        record = telemetry.completed_span(
            "queue", telemetry.new_context(), ts=123.0, dur=4.5)
        assert record["ts"] == 123.0 and record["dur"] == 4.5

    def test_span_context_manager_marks_failures(self, tmp_path):
        writer = telemetry.SpanWriter(tmp_path / "spans.ndjson")
        ctx = telemetry.new_context()
        with pytest.raises(ValueError):
            with telemetry.span("doomed", ctx, writer=writer):
                raise ValueError("boom")
        with telemetry.span("fine", ctx, writer=writer):
            pass
        spans = telemetry.read_spans(tmp_path / "spans.ndjson")
        by_name = {record["name"]: record for record in spans}
        assert by_name["doomed"]["attrs"]["ok"] is False
        assert "ok" not in by_name["fine"]["attrs"]

    def test_writer_roundtrip_strips_private_keys_and_counts(self, tmp_path):
        telemetry.reset()
        path = tmp_path / "deep" / "spans.ndjson"
        writer = telemetry.SpanWriter(path)
        record = telemetry.start_span("op", telemetry.new_context(),
                                      scenario="s", run_id="r")
        assert writer.write(record) is True  # _t0 still attached: stripped
        (read,) = telemetry.read_spans(path)
        assert "_t0" not in read and read["name"] == "op"
        written = telemetry.snapshot()["counters"][
            "repro_spans_written_total"]["value"]
        assert written == 1.0
        telemetry.reset()

    def test_read_spans_tolerates_torn_tail_and_missing_file(self, tmp_path):
        path = tmp_path / "spans.ndjson"
        assert telemetry.read_spans(path) == []
        writer = telemetry.SpanWriter(path)
        ctx = telemetry.new_context()
        for name in ("a", "b"):
            writer.write(telemetry.completed_span(name, ctx, ts=0.0, dur=0.0))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"trace_id": "torn-mid-wri')  # SIGKILL tail
        spans = telemetry.read_spans(path)
        assert [record["name"] for record in spans] == ["a", "b"]

    def test_render_tree_nests_children_and_surfaces_orphans(self):
        ctx = telemetry.new_context()
        root = telemetry.completed_span("serve.run", ctx, ts=1.0, dur=2.0,
                                        scenario="s", run_id="r")
        child = telemetry.completed_span(
            "store.save", telemetry.child_context(ctx, root),
            ts=1.5, dur=0.1, attrs={"step": 3})
        orphan = telemetry.completed_span(
            "worker.run", {"trace_id": ctx["trace_id"],
                           "parent": "never-landed"}, ts=0.5, dur=1.0)
        text = telemetry.render_tree([child, root, orphan])
        lines = text.splitlines()
        assert lines[0] == f"trace {ctx['trace_id']}"
        assert any(line.startswith("  worker.run") for line in lines)
        assert any(line.startswith("  serve.run") for line in lines)
        assert any(line.startswith("    store.save") and "step=3" in line
                   for line in lines)
        assert telemetry.render_tree([]) == "(no spans)"

    def test_span_log_path_lives_beside_the_manifest(self, tmp_path):
        path = telemetry.span_log_path(tmp_path, "scn", "run-1")
        assert path == tmp_path / "scn" / "run-1" / telemetry.SPAN_LOG_NAME


# ----------------------------------------------------------------------
# Daemon integration: one trace per run, /v1/metrics, stats + dashboard
# ----------------------------------------------------------------------
class TestDaemonTelemetry:
    def test_run_produces_one_trace_and_exposition(self, tmp_path,
                                                   live_telemetry):
        spec = smoke_spec("maxwell-vacuum", num_steps=4)
        with ScenarioServer(tmp_path, port=0, workers=0) as server:
            client = ServeClient(port=server.port, timeout=60.0)
            run_id = client.submit(spec, checkpoint_every=2)["run_id"]
            outcome = client.wait(run_id, timeout=120)
            assert outcome.ok, outcome.error

            payload = client.trace(run_id)
            assert payload["run_id"] == run_id
            assert payload["scenario"] == spec.name
            spans = payload["spans"]
            names = {record["name"] for record in spans}
            assert {"serve.queue", "serve.run",
                    "worker.run", "store.save"} <= names
            assert len({record["trace_id"] for record in spans}) == 1
            worker = next(r for r in spans if r["name"] == "worker.run")
            saves = [r for r in spans if r["name"] == "store.save"]
            assert worker["attrs"]["ok"] is True
            assert all(r["parent"] == worker["span_id"] for r in saves)
            assert telemetry.render_tree(spans) != "(no spans)"

            text = client.metrics()
            assert "# TYPE repro_serve_submissions_total counter" in text
            assert "repro_serve_run_seconds_bucket" in text
            assert 'le="+Inf"' in text

            stats = client.stats()
            section = stats["telemetry"]
            assert section["enabled"] is True
            assert section["spans"]["written"] >= len(spans)
            hists = section["metrics"]["histograms"]
            assert hists["repro_serve_queue_wait_seconds"]["count"] >= 1
            assert hists["repro_serve_run_seconds"]["count"] >= 1

            dashboard = render_dashboard(stats)
            assert "telemetry" in dashboard
            assert "queue wait p50/p95/p99" in dashboard
            assert "run p50/p95/p99" in dashboard

    @pytest.mark.parametrize("workers", (
        0, pytest.param(1, marks=needs_fork)))
    def test_metrics_count_each_run_once(self, tmp_path, live_telemetry,
                                         workers):
        # Inline runs count into the daemon's registry directly; a pool
        # worker's report is merged once.  Either way: one run, one count.
        spec = smoke_spec("maxwell-vacuum", num_steps=2)
        with ScenarioServer(tmp_path, port=0, workers=workers) as server:
            client = ServeClient(port=server.port, timeout=60.0)
            for _ in range(2):
                run_id = client.submit(spec)["run_id"]
                assert client.wait(run_id, timeout=120).ok
            counters = client.stats()["telemetry"]["metrics"]["counters"]
            text = client.metrics()
        assert counters["repro_worker_runs_total"]["value"] == 2.0
        assert counters["repro_engine_steps_total"]["value"] == 4.0
        assert "\nrepro_worker_runs_total 2\n" in text

    def test_client_accepts_per_request_timeouts(self, tmp_path,
                                                 live_telemetry):
        spec = smoke_spec("maxwell-vacuum", num_steps=2)
        with ScenarioServer(tmp_path, port=0, workers=0) as server:
            client = ServeClient(port=server.port, timeout=60.0)
            run_id = client.submit(spec)["run_id"]
            assert client.wait(run_id, timeout=120).ok
            assert client.stats(timeout=30.0)["daemon"]["done"] == 1
            assert "repro_" in client.metrics(timeout=30.0)
            assert client.trace(run_id, timeout=30.0)["run_id"] == run_id

    def test_submitted_trace_context_wins_over_minting(self, tmp_path,
                                                       live_telemetry):
        spec = smoke_spec("maxwell-vacuum", num_steps=2)
        theirs = {"trace_id": "feedfacefeedface", "parent": "abc123"}
        with ScenarioServer(tmp_path, port=0, workers=0) as server:
            client = ServeClient(port=server.port, timeout=60.0)
            run_id = client.submit(spec, trace=theirs)["run_id"]
            assert client.wait(run_id, timeout=120).ok
            spans = client.trace(run_id)["spans"]
            assert spans
            assert {r["trace_id"] for r in spans} == {"feedfacefeedface"}

    def test_malformed_trace_is_400_and_unknown_run_404(self, tmp_path,
                                                        live_telemetry):
        spec = smoke_spec("maxwell-vacuum", num_steps=2)
        with ScenarioServer(tmp_path, port=0, workers=0) as server:
            client = ServeClient(port=server.port, timeout=60.0)
            with pytest.raises(ServeError) as err:
                client.submit(spec, trace={"spans": []})
            assert err.value.status == 400
            with pytest.raises(ServeError) as err:
                client.trace("no-such-run")
            assert err.value.status == 404

    def test_disabled_telemetry_writes_no_spans(self, tmp_path):
        telemetry.disable()
        telemetry.reset()
        spec = smoke_spec("maxwell-vacuum", num_steps=2)
        with ScenarioServer(tmp_path, port=0, workers=0) as server:
            client = ServeClient(port=server.port, timeout=60.0)
            run_id = client.submit(spec)["run_id"]
            assert client.wait(run_id, timeout=120).ok
            assert client.trace(run_id)["spans"] == []
            assert client.stats()["telemetry"]["enabled"] is False
        log = telemetry.span_log_path(
            tmp_path / "checkpoints", spec.name, run_id)
        assert not log.exists()
        telemetry.reset()

    def test_cli_trace_renders_the_span_tree(self, tmp_path, capsys,
                                             live_telemetry):
        spec = smoke_spec("maxwell-vacuum", num_steps=2)
        with ScenarioServer(tmp_path, port=0, workers=0) as server:
            client = ServeClient(port=server.port, timeout=60.0)
            run_id = client.submit(spec)["run_id"]
            assert client.wait(run_id, timeout=120).ok
            port = str(server.port)
            assert main(["trace", run_id, "--port", port]) == 0
            out = capsys.readouterr().out
            assert run_id in out and "worker.run" in out
            json_path = tmp_path / "trace.json"
            assert main(["trace", run_id, "--port", port,
                         "--json", str(json_path)]) == 0
            dumped = json.loads(json_path.read_text())
            assert dumped["run_id"] == run_id and dumped["spans"]

    def test_dashboard_degrades_without_a_telemetry_section(self):
        # An old daemon's stats payload: no telemetry key at all.
        text = render_dashboard({"daemon": {"owner": "x", "uptime_s": 1.0}})
        assert "telemetry" not in text
        # A new daemon with nothing recorded yet: section, no latency rows.
        text = render_dashboard({"telemetry": {
            "enabled": True, "spans": {"written": 0},
            "metrics": {"counters": {}, "gauges": {}, "histograms": {},
                        "bounds": list(telemetry.BUCKET_BOUNDS)}}})
        assert "enabled" in text and "p50" not in text


# ----------------------------------------------------------------------
# Chaos: fault points, crash tolerance, trace continuity
# ----------------------------------------------------------------------
_CRASHY_WRITER = """\
import sys
sys.path.insert(0, sys.argv[1])
from repro import telemetry
writer = telemetry.SpanWriter(sys.argv[2])
context = telemetry.new_context()
for index in range(5):
    writer.write(telemetry.completed_span(
        "op%d" % index, context, ts=float(index), dur=0.1,
        scenario="scn", run_id="run-a"))
print("survived all writes")
"""


@chaos
class TestTelemetryFaults:
    def test_span_write_crash_leaves_a_readable_prefix(self, tmp_path):
        log = tmp_path / "spans.ndjson"
        env = _telemetry_env(plan="telemetry.span.pre_write=crash@3")
        proc = subprocess.run(
            [sys.executable, "-c", _CRASHY_WRITER, SRC, str(log)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == faults.CRASH_EXIT_CODE, proc.stdout
        spans = telemetry.read_spans(log)
        assert [record["name"] for record in spans] == ["op0", "op1"]

    def test_span_write_raise_fails_loud_then_recovers(self, tmp_path):
        writer = telemetry.SpanWriter(tmp_path / "spans.ndjson")
        record = telemetry.completed_span(
            "op", telemetry.new_context(), ts=0.0, dur=0.0)
        faults.configure("telemetry.span.pre_write=raise")
        try:
            with pytest.raises(faults.InjectedFault):
                writer.write(record)
        finally:
            faults.reset()
        assert telemetry.read_spans(tmp_path / "spans.ndjson") == []
        assert writer.write(record) is True

    def test_daemon_swallows_span_write_fault(self, tmp_path, live_telemetry):
        # One-shot raise: the scheduler's first span write trips it; the
        # daemon must not let telemetry fail the submission.
        spec = smoke_spec("maxwell-vacuum", num_steps=2)
        faults.configure("telemetry.span.pre_write=raise@1")
        try:
            with ScenarioServer(tmp_path, port=0, workers=0) as server:
                client = ServeClient(port=server.port, timeout=60.0)
                run_id = client.submit(spec)["run_id"]
                outcome = client.wait(run_id, timeout=120)
                assert outcome.ok, outcome.error
        finally:
            faults.reset()

    def test_metrics_merge_raise_is_loud_at_the_registry(self):
        reg = telemetry.MetricsRegistry()
        faults.configure("telemetry.metrics.pre_merge=raise")
        try:
            with pytest.raises(faults.InjectedFault):
                reg.merge({"counters": {"c": {"value": 1.0}}})
        finally:
            faults.reset()
        assert reg.snapshot()["counters"] == {}

    @needs_fork
    def test_daemon_swallows_worker_merge_fault(self, tmp_path,
                                                live_telemetry):
        # A process worker reports a metrics delta; the pool's fold hits
        # the armed point and the daemon must complete the run anyway.
        spec = smoke_spec("maxwell-vacuum", num_steps=2)
        faults.configure("telemetry.metrics.pre_merge=raise")
        try:
            with ScenarioServer(tmp_path, port=0, workers=1) as server:
                client = ServeClient(port=server.port, timeout=60.0)
                run_id = client.submit(spec)["run_id"]
                outcome = client.wait(run_id, timeout=120)
                assert outcome.ok, outcome.error
        finally:
            faults.reset()


@chaos
@needs_fork
class TestTraceContinuity:
    def test_sigkilled_daemon_resumes_under_the_same_trace_id(
            self, tmp_path):
        root = tmp_path / "state"
        spec = default_registry().get("quickstart-tddft").with_overrides(
            {"runtime.num_steps": 400, "runtime.record_every": 4})
        log = telemetry.span_log_path(
            root / "checkpoints", spec.name, "traced")
        victim = _spawn_traced_daemon(root, 1)
        try:
            client = ServeClient(port=_await_port(victim), timeout=60.0)
            client.submit(spec, run_id="traced", checkpoint_every=20)
            _await_checkpoint(client, "traced")
        finally:
            _kill_group(victim, signal.SIGKILL)

        partial = telemetry.read_spans(log)  # readable despite the SIGKILL
        assert partial
        trace_ids = {record["trace_id"] for record in partial}
        assert len(trace_ids) == 1
        assert not any(r["name"] == "serve.run" for r in partial)

        heir = _spawn_traced_daemon(root, 1)
        try:
            client = ServeClient(port=_await_port(heir), timeout=60.0)
            outcome = client.wait("traced", timeout=300)
            assert outcome.ok, outcome.error
            assert outcome.metadata["executor"]["resumed_from_step"] >= 20
            spans = client.trace("traced")["spans"]
        finally:
            _kill_group(heir)
        assert len(spans) > len(partial)
        assert {record["trace_id"] for record in spans} == trace_ids
        names = [record["name"] for record in spans]
        assert names.count("serve.queue") >= 2  # one dispatch per daemon
        resumed = [r for r in spans if r["name"] == "worker.run"]
        assert any(r["attrs"].get("resume") for r in resumed)

    def test_routed_submission_stolen_mid_run_yields_one_trace(
            self, tmp_path, live_telemetry):
        """The PR's acceptance path: router -> daemon A (SIGKILLed
        mid-run) -> daemon B steals -> one trace spanning all hops."""
        root = tmp_path / "shared"
        spec = default_registry().get("quickstart-tddft").with_overrides(
            {"runtime.num_steps": 400, "runtime.record_every": 4})

        victim = _spawn_traced_daemon(root, 1, "--lease-ttl", "2")
        router = None
        thief = None
        try:
            victim_port = _await_port(victim)
            router = FleetRouter(root, port=0, stats_ttl=0.2).start()
            front = ServeClient(port=router.port, timeout=60.0)
            front.submit(spec, run_id="stolen", checkpoint_every=20)
            _await_checkpoint(ServeClient(port=victim_port, timeout=60.0),
                              "stolen")
            # The thief is LIVE before the victim dies: its startup replay
            # sees a healthy foreign owner, so only the steal loop can
            # adopt the run once the victim is gone.
            thief = ScenarioServer(root, port=0, workers=0, lease_ttl=2.0,
                                   steal_interval=0.1,
                                   owner=f"serve:thief:{os.getpid()}")
            thief.start()
        finally:
            _kill_group(victim, signal.SIGKILL)

        try:
            # Adoption registers the run and notifies the thief's condition.
            with thief._wake:
                assert thief._wake.wait_for(
                    lambda: "stolen" in thief._records, timeout=300), \
                    "never stolen"
            client = ServeClient(port=thief.port, timeout=60.0)
            outcome = client.wait("stolen", timeout=300)
            assert outcome.ok, outcome.error
            spans = client.trace("stolen")["spans"]
            assert thief.stats()["daemon"]["stolen"] == 1
        finally:
            if thief is not None:
                thief.stop(drain=False)
            if router is not None:
                router.stop()

        assert len({record["trace_id"] for record in spans}) == 1
        names = {record["name"] for record in spans}
        assert {"router.submit", "serve.queue", "fleet.adopt",
                "worker.run", "store.save", "serve.run"} <= names
        # Worker execution happened in both daemons' processes: the victim
        # checkpointed (store.save) before dying, the thief finished.
        adopt = next(r for r in spans if r["name"] == "fleet.adopt")
        assert adopt["attrs"]["owner"].startswith("serve:thief:")
        done = next(r for r in spans if r["name"] == "serve.run")
        assert done["attrs"]["status"] == "done"
        assert telemetry.render_tree(spans).startswith("trace ")
