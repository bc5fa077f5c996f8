"""Regression checks over result files, bench trajectories, stats, CLI.

The load-bearing properties:

* **Reading**: a bare RunResult, a batch array and a serve ``{"ok": ...}``
  outcome all load; failures and unrelated JSON are skipped; a run id seen
  twice counts once.
* **Regression gates**: a perturbed conserved series trips
  ``conservation_violations`` / ``repro analytics regress`` (exit 1) at the
  right tier and not below it; a non-finite sample is the worst one.
* **Bench history**: ``bench_trajectory`` reads ``history.ndjson`` as
  ``benchmarks/common.finish`` writes it, in ``ts`` order.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analytics import (
    TOLERANCE_TIERS, bench_trajectory, cohort_violations,
    conservation_violations, load_results,
)
from repro.analytics.cli import cmd_bench, cmd_dashboard, cmd_regress
from repro.analytics.regress import run_id_of, run_summaries, series_columns
from repro.analytics.stats import render_dashboard, store_stats


def make_result(scenario="demo", engine="reference", n=4, base=1.0,
                run_id=None, drift=0.0, seed_param=7):
    """One synthetic RunResult dict with a conserved 'energy' series."""
    times = [0.25 * i for i in range(n)]
    energy = [base + drift * i for i in range(n)]
    result = {
        "scenario": scenario,
        "engine": engine,
        "times": times,
        "observables": {
            "energy": energy,
            "norm": [1.0] * n,
            "positions": [[[0.1 * i, 1.0 + 0.1 * i]] for i in range(n)],
        },
        "metadata": {
            "spec": {"name": scenario, "engine": engine,
                     "seed": seed_param,
                     "runtime": {"num_steps": n, "dt": 0.25},
                     "pulse": {"polarization": [0.0, 0.0, 1.0]}},
        },
    }
    if run_id is not None:
        result["metadata"]["executor"] = {"run_id": run_id}
    return result


def runs(*results):
    """Results keyed by run id, as :func:`load_results` returns them."""
    return {run_id_of(result): result for result in results}


def write_json(path, document):
    path.write_text(json.dumps(document))
    return path


# ----------------------------------------------------------------------
# Reading result files
# ----------------------------------------------------------------------
class TestLoadResults:
    def test_every_file_shape_loads_and_strays_are_skipped(self, tmp_path):
        results_dir = tmp_path / "results"
        results_dir.mkdir()
        # A serve-style wrapper, a bare result, a batch array with a failure,
        # a serve failure outcome and an unrelated JSON file.
        write_json(results_dir / "r0.json",
                   {"run_id": "r0", "finished_at": 1.0, "ok": make_result()})
        write_json(results_dir / "bare.json",
                   make_result(scenario="other", run_id="r1"))
        write_json(results_dir / "batch.json",
                   [make_result(run_id="r2"),
                    {"scenario": "demo", "error": "boom"}])
        write_json(results_dir / "failed.json", {"failure": {"error": "x"}})
        write_json(results_dir / "stray.json", {"just": "config"})
        (results_dir / "broken.json").write_text("{not json")

        loaded = load_results([results_dir])
        assert sorted(loaded) == ["r0", "r1", "r2"]
        assert loaded["r1"]["scenario"] == "other"
        # Naming a file again (or a run twice) does not double-count.
        again = load_results([results_dir, results_dir / "r0.json"])
        assert sorted(again) == ["r0", "r1", "r2"]

    def test_missing_path_is_a_value_error(self, tmp_path):
        with pytest.raises(ValueError, match="no such file"):
            load_results([tmp_path / "nope.json"])

    def test_run_id_priority(self):
        result = make_result(run_id="from-executor")
        assert run_id_of(result) == "from-executor"
        assert run_id_of(result, {"run_id": "from-wrapper"}) == "from-wrapper"
        bare = make_result()
        assert run_id_of(bare).startswith("sha-")
        assert run_id_of(bare) == run_id_of(make_result())

    @pytest.mark.parametrize("document, expected", [
        pytest.param(make_result(run_id="r0"), ["r0"], id="bare-result"),
        pytest.param([make_result(run_id="r0"), make_result(run_id="r1")],
                     ["r0", "r1"], id="batch-array"),
        pytest.param({"run_id": "w0", "ok": make_result(run_id="r0")},
                     ["w0"], id="serve-outcome"),
        pytest.param({"run_id": "w0", "failure": {"error": "boom"}}, [],
                     id="serve-failure"),
        pytest.param([{"scenario": "demo", "engine": "reference",
                       "error": "boom", "traceback": "", "attempts": 1}],
                     [], id="batch-failure"),
        pytest.param({"schema": "repro-bench/1", "bench": "b", "ts": 1.0,
                      "payload": {"rate": 2.0}}, [], id="bench-document"),
        pytest.param({"run_id": "w0", "ok": {"scenario": "demo"}}, [],
                     id="outcome-without-series"),
        pytest.param([1, "two", None], [], id="unrelated-array"),
    ])
    def test_each_file_shape(self, tmp_path, document, expected):
        path = write_json(tmp_path / "one.json", document)
        assert sorted(load_results([path])) == expected

    def test_a_run_id_seen_twice_keeps_the_first(self, tmp_path):
        # Files of a directory load in name order; the first sighting wins.
        write_json(tmp_path / "a.json", make_result(run_id="dup", base=1.0))
        write_json(tmp_path / "b.json", make_result(run_id="dup", base=2.0))
        loaded = load_results([tmp_path])
        assert list(loaded) == ["dup"]
        assert loaded["dup"]["observables"]["energy"][0] == 1.0
        # Named paths load in the order given.
        first_b = load_results([tmp_path / "b.json", tmp_path / "a.json"])
        assert first_b["dup"]["observables"]["energy"][0] == 2.0

    def test_a_directory_expands_to_its_own_json_files(self, tmp_path):
        write_json(tmp_path / "top.json", make_result(run_id="top"))
        (tmp_path / "history.ndjson").write_text(
            json.dumps(make_result(run_id="ndjson")) + "\n")
        write_json(tmp_path / "notes.txt", make_result(run_id="txt"))
        nested = tmp_path / "nested"
        nested.mkdir()
        write_json(nested / "deep.json", make_result(run_id="deep"))
        assert list(load_results([tmp_path])) == ["top"]
        assert sorted(load_results([tmp_path, nested])) == ["deep", "top"]


class TestColumns:
    def test_extra_axes_reduce_per_record(self):
        columns = series_columns(make_result())
        assert sorted(columns) == ["energy", "norm", "positions.absmax",
                                   "positions.l2", "positions.mean"]
        np.testing.assert_allclose(columns["positions.l2"][1],
                                   math.hypot(0.1, 1.1))
        np.testing.assert_allclose(columns["positions.mean"][1], 0.6)
        np.testing.assert_allclose(columns["positions.absmax"][1], 1.1)

    def test_run_summaries(self):
        summary = run_summaries(make_result(drift=1.0))
        assert summary["obs.energy.mean"] == 2.5
        assert summary["obs.energy.final"] == 4.0
        assert summary["obs.energy.absmax"] == 4.0
        assert summary["obs.energy.l2"] == pytest.approx(math.sqrt(30.0))
        # A multi-valued final sample summarises as its norm.
        assert summary["obs.positions.final"] == pytest.approx(
            math.hypot(0.3, 1.3))

    def test_mismatched_series_length_is_typed(self):
        bad = make_result()
        bad["observables"]["energy"] = [1.0]
        with pytest.raises(ValueError, match="records"):
            series_columns(bad)


# ----------------------------------------------------------------------
# Regression checks
# ----------------------------------------------------------------------
class TestRegress:
    def test_tiers_are_the_single_source(self):
        # The golden suite imports these; keep the vocabulary stable.
        assert set(TOLERANCE_TIERS) == {"exact", "standard", "loose"}
        assert TOLERANCE_TIERS["standard"]["rtol"] == 1e-6

    def test_conservation_flags_only_drifting_runs(self):
        results = runs(make_result(run_id="good", drift=0.0),
                       make_result(run_id="bad", drift=1e-3),
                       make_result(scenario="other", run_id="x", drift=1.0))
        violations = conservation_violations(results, "demo", "energy",
                                             tier="standard")
        assert [v["run_id"] for v in violations] == ["bad"]
        worst = violations[0]
        assert worst["worst_drift"] == pytest.approx(3e-3)
        assert worst["worst_row"] == 3 and worst["worst_t"] == 0.75
        # The loose tier absorbs it.
        assert conservation_violations(results, "demo", "energy",
                                       tier="loose") == []

    def test_nan_sample_is_the_worst_one(self):
        bad = make_result(run_id="nan-run", n=5)
        bad["observables"]["energy"][2] = float("nan")
        [violation] = conservation_violations(runs(bad), "demo", "energy",
                                              tier="loose")
        assert violation["run_id"] == "nan-run"
        assert violation["worst_row"] == 2 and violation["worst_t"] == 0.5
        assert math.isnan(violation["worst_value"])
        assert math.isnan(violation["worst_drift"])
        assert violation["violating_records"] == 1

    def test_nan_reference_flags_every_record(self):
        bad = make_result(run_id="nan-ref", n=3)
        bad["observables"]["energy"][0] = float("nan")
        [violation] = conservation_violations(runs(bad), "demo", "energy",
                                              tier="loose")
        assert violation["violating_records"] == violation["records"] == 3
        assert violation["worst_row"] == 0

    def test_run_lacking_the_series_is_flagged(self):
        lacking = make_result(run_id="lacking")
        del lacking["observables"]["energy"]
        results = runs(make_result(run_id="full"), lacking)
        [violation] = conservation_violations(results, "demo", "energy")
        assert violation["run_id"] == "lacking"
        assert violation["violating_records"] == 4

    def test_unknown_series_scenario_and_tier_are_typed(self):
        results = runs(make_result(run_id="r0"))
        with pytest.raises(KeyError, match="unknown column"):
            conservation_violations(results, "demo", "nope")
        with pytest.raises(ValueError, match="no 'missing' results"):
            conservation_violations(results, "missing", "energy")
        with pytest.raises(ValueError, match="tier"):
            conservation_violations(results, "demo", "energy", tier="super")

    def test_cohort_flags_the_outlier_against_its_engine_peers(self):
        results = runs(*[make_result(run_id=f"ref{i}", base=1.0)
                         for i in range(4)],
                       make_result(run_id="outlier", base=2.0),
                       make_result(run_id="opt", engine="optimized",
                                   base=5.0))
        # Same engine cohort of 5: the outlier's mean energy is far from the
        # median; the lone optimized run has no cohort to compare with.
        violations = cohort_violations(results, "demo", "obs.energy.mean",
                                       tier="standard")
        assert [v["run_id"] for v in violations] == ["outlier"]
        assert violations[0]["cohort"] == {"engine": "reference"}
        assert violations[0]["median"] == 1.0
        # Cohorts under 3 runs are skipped entirely.
        small = runs(make_result(run_id="a", base=1.0),
                     make_result(run_id="b", base=99.0))
        assert cohort_violations(small, "demo", "obs.energy.mean") == []
        with pytest.raises(KeyError, match="unknown column"):
            cohort_violations(small, "demo", "final_time")

    def test_exact_tier_flags_any_change(self):
        results = runs(make_result(run_id="flat"),
                       make_result(run_id="ulp", drift=1e-15))
        violations = conservation_violations(results, "demo", "energy",
                                             tier="exact")
        assert [v["run_id"] for v in violations] == ["ulp"]
        assert violations[0]["allowed"] == 0.0
        assert violations[0]["violating_records"] == 3

    def test_reduced_columns_are_checked_like_scalars(self):
        # positions grows 0.1 per record along both axes: its per-record l2
        # norm drifts, the constant norm observable does not.
        results = runs(make_result(run_id="r0"))
        [violation] = conservation_violations(results, "demo",
                                              "positions.l2", tier="loose")
        assert violation["series"] == "positions.l2"
        assert violation["reference"] == pytest.approx(1.0)
        assert violation["worst_row"] == 3
        assert violation["worst_value"] == pytest.approx(math.hypot(0.3, 1.3))
        assert conservation_violations(results, "demo", "norm",
                                       tier="exact") == []

    def test_cohort_median_ignores_non_finite_runs(self):
        peers = [make_result(run_id=f"ref{i}", drift=1.0) for i in range(3)]
        broken = make_result(run_id="broken", drift=1.0)
        broken["observables"]["energy"][-1] = float("nan")
        results = runs(*peers, broken)
        # obs.energy.final of the broken run is NaN: it is out of band, and
        # the cohort of finite values (3) still has its median.
        [violation] = cohort_violations(results, "demo", "obs.energy.final",
                                        tier="standard")
        assert violation["run_id"] == "broken"
        assert violation["cohort_size"] == 3
        assert violation["median"] == 4.0
        assert math.isnan(violation["value"])


def reference_conservation(values, rtol, atol):
    """(violating records, worst row) of one series, sample by sample."""
    reference = values[0]
    if not math.isfinite(reference):
        return len(values), 0
    allowed = atol + rtol * abs(reference)
    bad = [row for row, value in enumerate(values)
           if not math.isfinite(value) or abs(value - reference) > allowed]
    nonfinite = [row for row in bad if not math.isfinite(values[row])]
    if nonfinite:
        return len(bad), nonfinite[0]
    if not bad:
        return 0, None
    return len(bad), max(bad, key=lambda row: abs(values[row] - reference))


series_strategy = st.lists(
    st.one_of(st.floats(min_value=-1e3, max_value=1e3),
              st.sampled_from([float("nan"), float("inf"), -float("inf")])),
    min_size=1, max_size=8,
)


class TestConservationAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(all_series=st.lists(series_strategy, min_size=1, max_size=4),
           tier=st.sampled_from(sorted(TOLERANCE_TIERS)))
    def test_matches_a_sample_by_sample_reference(self, all_series, tier):
        results = {}
        for i, values in enumerate(all_series):
            result = make_result(run_id=f"r{i}", n=len(values))
            result["observables"] = {"energy": list(values)}
            results[f"r{i}"] = result
        bounds = TOLERANCE_TIERS[tier]
        got = {v["run_id"]: v for v in conservation_violations(
            results, "demo", "energy", tier=tier)}
        for i, values in enumerate(all_series):
            bad, worst = reference_conservation(values, bounds["rtol"],
                                                bounds["atol"])
            if not bad:
                assert f"r{i}" not in got
                continue
            row = got[f"r{i}"]
            assert row["violating_records"] == bad
            assert row["records"] == len(values)
            assert row["worst_row"] == worst
            assert row["worst_t"] == 0.25 * worst


@pytest.fixture(scope="module")
def md_batch(tmp_path_factory):
    """One seeded ``repro batch md-nve md-langevin`` of 40 steps, as JSON."""
    from repro.api.cli import main

    path = tmp_path_factory.mktemp("batch") / "batch.json"
    assert main(["batch", "md-nve", "md-langevin", "--set",
                 "runtime.num_steps=40", "--json", str(path),
                 "--quiet"]) == 0
    return path


class TestRealBatch:
    """The CI gate's verdicts on real MD output (the values the warehouse
    path reported before ``regress`` read files directly)."""

    @pytest.mark.parametrize("series, tier, expected", [
        ("total_energy", "loose", None),
        ("kinetic_energy", "loose", (3.573e-02, 1.317e-03, 80.0, 15)),
        ("total_energy", "standard", (2.595e-04, 2.133e-06, 20.0, 20)),
    ])
    def test_md_nve_verdicts(self, md_batch, series, tier, expected):
        results = load_results([md_batch])
        assert sorted(r["scenario"] for r in results.values()) == \
            ["md-langevin", "md-nve"]
        violations = conservation_violations(results, "md-nve", series,
                                             tier=tier)
        if expected is None:
            assert violations == []
            return
        [violation] = violations
        drift, allowed, worst_t, violating = expected
        assert violation["worst_drift"] == pytest.approx(drift, rel=1e-3)
        assert violation["allowed"] == pytest.approx(allowed, rel=1e-3)
        assert violation["worst_t"] == worst_t
        assert (violation["violating_records"], violation["records"]) == \
            (violating, 21)


# ----------------------------------------------------------------------
# Bench trajectories
# ----------------------------------------------------------------------
def bench_doc(bench, ts, payload):
    return {"schema": "repro-bench/1", "bench": bench, "ts": ts,
            "payload": payload}


class TestBenchTrajectory:
    def test_orders_by_ts_and_skips_other_lines(self, tmp_path):
        history = tmp_path / "history.ndjson"
        lines = [json.dumps(bench_doc("b", ts, {"rate": rate,
                                                "nested": {"n": ts}}))
                 for ts, rate in ((3.0, 30.0), (1.0, 10.0), (2.0, 20.0))]
        lines += ["not json", json.dumps({"other": 1}),
                  json.dumps(bench_doc("c", 1.0, {"label": "x"}))]
        history.write_text("\n".join(lines) + "\n")
        rows = bench_trajectory(history)
        assert [(r["bench"], r["metric"]) for r in rows] == \
            [("b", "nested.n"), ("b", "rate")]
        rate = rows[1]
        assert rate["values"] == [10.0, 20.0, 30.0]
        assert rate["ts"] == [1.0, 2.0, 3.0]
        assert rate["latest"] == 30.0 and rate["best"] == 10.0
        assert [r["metric"] for r in bench_trajectory(history, metric="rate")] \
            == ["rate"]
        assert bench_trajectory(history, bench="nope") == []

    def test_a_metric_missing_from_some_runs_is_nan_there(self, tmp_path):
        history = tmp_path / "history.ndjson"
        history.write_text("\n".join(json.dumps(doc) for doc in [
            bench_doc("b", 1.0, {"rate": 5.0, "ok": True}),
            bench_doc("b", 2.0, {"ok": False}),
            bench_doc("b", 3.0, {"rate": 3.0, "ok": True, "label": "x"}),
        ]) + "\n")
        rows = {r["metric"]: r for r in bench_trajectory(history)}
        assert sorted(rows) == ["ok", "rate"]  # strings are not metrics
        rate = rows["rate"]
        assert rate["samples"] == 2
        assert rate["values"][0] == 5.0 and math.isnan(rate["values"][1])
        assert rate["latest"] == 3.0 and rate["worst"] == 5.0
        assert rows["ok"]["values"] == [1.0, 0.0, 1.0]

    def test_missing_history_is_a_value_error(self, tmp_path):
        with pytest.raises(ValueError, match="no such file"):
            bench_trajectory(tmp_path / "history.ndjson")


# ----------------------------------------------------------------------
# CLI commands (driven directly; the subprocess wiring is in test_cli.py)
# ----------------------------------------------------------------------
class TestAnalyticsCli:
    def _seed(self, tmp_path, drift=0.0):
        results = tmp_path / "results"
        results.mkdir(parents=True, exist_ok=True)
        for i in range(3):
            write_json(results / f"r{i}.json",
                       {"run_id": f"r{i}", "ok": make_result(drift=drift)})
        return results

    def test_regress_gate_exit_codes(self, tmp_path, capsys):
        clean = self._seed(tmp_path / "clean")
        assert cmd_regress([clean], "demo", series=["energy"],
                           tier="standard") == 0
        assert "ok:" in capsys.readouterr().out

        dirty = self._seed(tmp_path / "dirty", drift=1e-2)
        assert cmd_regress([dirty], "demo", series=["energy"],
                           tier="standard") == 1
        out = capsys.readouterr().out
        assert "REGRESSION: 3 violation(s)" in out
        assert "run r0: energy drifted 3.000e-02" in out
        assert cmd_regress([dirty], "demo", series=["energy"],
                           cohort=["obs.energy.mean"], as_json=True) == 1
        payload = json.loads(capsys.readouterr().out)
        assert [v["run_id"] for v in payload["violations"]] == \
            ["r0", "r1", "r2"]

    @pytest.mark.parametrize("args, kwargs, message", [
        ((), {}, "--series"),
        (("missing",), {"series": ["energy"]}, "no 'missing' results"),
        ((), {"series": ["nope"]}, "unknown column"),
        ((), {"cohort": ["final_time"]}, "unknown column"),
    ])
    def test_regress_usage_errors_exit_2(self, tmp_path, capsys, args,
                                         kwargs, message):
        results = self._seed(tmp_path)
        scenario = args[0] if args else "demo"
        assert cmd_regress([results], scenario, **kwargs) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    def test_unreadable_inputs_exit_2(self, tmp_path, capsys):
        assert cmd_regress([tmp_path / "nope.json"], "demo",
                           series=["energy"]) == 2
        assert "no such file" in capsys.readouterr().err
        # A corrupt file loads nothing: there are no results to check.
        (tmp_path / "corrupt.json").write_text('{"scenario": "demo", ')
        assert cmd_regress([tmp_path / "corrupt.json"], "demo",
                           series=["energy"]) == 2
        assert "no 'demo' results among 0" in capsys.readouterr().err

    def test_cohort_report_names_the_outlier(self, tmp_path, capsys):
        results = self._seed(tmp_path)
        write_json(results / "r3.json",
                   {"run_id": "r3", "ok": make_result(base=2.0)})
        assert cmd_regress([results], "demo",
                           cohort=["obs.energy.mean"]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION: 1 violation(s) in demo at tier 'standard'" in out
        assert ("run r3: obs.energy.mean = 2 vs cohort median 1 "
                "(allowed deviation 1.001e-06, cohort of 4)") in out

    def test_bench_and_dashboard(self, tmp_path, capsys):
        history = tmp_path / "history.ndjson"
        history.write_text(json.dumps(
            bench_doc("bench_store", 1.0, {"writes_per_s": 42.0})) + "\n")
        assert cmd_bench(history) == 0
        out = capsys.readouterr().out
        assert "bench_store :: writes_per_s" in out and "42" in out
        assert cmd_bench(history, bench="other") == 0
        assert "no repro-bench/1 documents" in capsys.readouterr().out
        assert cmd_bench(tmp_path / "nope.ndjson") == 2

        serve_root = tmp_path / "serve"
        (serve_root / "results").mkdir(parents=True)
        (serve_root / "results" / "r0.json").write_text("{}")
        assert cmd_dashboard(serve_root=serve_root) == 0
        assert "store" in capsys.readouterr().out
        assert cmd_dashboard(serve_root=serve_root, as_json=True) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["store"]["results"]["count"] == 1
        assert cmd_dashboard() == 2  # nothing to report on


# ----------------------------------------------------------------------
# Stats plumbing
# ----------------------------------------------------------------------
class TestStats:
    def test_store_stats_counts_serve_artifacts(self, tmp_path):
        (tmp_path / "queue").mkdir()
        (tmp_path / "results").mkdir()
        (tmp_path / "queue" / "a.json").write_text("{}")
        (tmp_path / "results" / "a.json").write_text('{"ok": {}}')
        stats = store_stats(tmp_path)
        assert stats["journal"]["count"] == 1
        assert stats["results"]["count"] == 1
        assert stats["leases"] == {"live": 0, "stale": 0, "none": 0}

    def test_render_dashboard_covers_all_sections(self):
        text = render_dashboard({
            "daemon": {"owner": "me", "uptime_s": 1.0, "queued": 0,
                       "running": 1, "done": 2, "failed": 0,
                       "queue_depth": 0, "queue_size": 64,
                       "avg_run_s": 0.5,
                       "pool": {"workers": 2, "generations": 1,
                                "submissions": 4, "warm_hit_rate": 0.75}},
            "store": {"root": "/x", "journal": {"count": 1},
                      "results": {"count": 2, "bytes": 10},
                      "checkpoints": {"runs": 3, "bytes": 2048},
                      "leases": {"live": 1, "stale": 0, "none": 2}},
        })
        assert "warm-pool hit rate" in text and "75%" in text
        assert "leases live / stale / none" in text and "1 / 0 / 2" in text
        assert "2.0 KiB" in text
        assert render_dashboard({}) == "(no stats sections available)"


# ----------------------------------------------------------------------
# Benchmarks history satellite
# ----------------------------------------------------------------------
class TestBenchHistory:
    def test_finish_appends_history_line(self, tmp_path, monkeypatch, capsys):
        import benchmarks.common as common

        history = tmp_path / "history.ndjson"
        monkeypatch.setattr(common, "RESULTS_DIR", tmp_path)
        monkeypatch.setattr(common, "HISTORY_PATH", history)
        common.finish("bench_x", {"metric": 1.0}, argv=[])
        common.finish("bench_x", {"metric": 2.0}, argv=[])
        lines = history.read_text().splitlines()
        assert len(lines) == 2
        docs = [json.loads(line) for line in lines]
        assert all(d["schema"] == "repro-bench/1" for d in docs)
        assert all("ts" in d for d in docs)
        # The history is what `repro analytics bench` reads: two invocations
        # are two samples, in ts order.
        [row] = bench_trajectory(history)
        assert (row["bench"], row["metric"]) == ("bench_x", "metric")
        assert row["values"] == [1.0, 2.0]
        assert row["ts"] == sorted(d["ts"] for d in docs)
