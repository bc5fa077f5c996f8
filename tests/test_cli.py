"""End-to-end tests of the ``python -m repro`` command-line runner."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.api import RunResult
from repro.api.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = str(REPO_ROOT / "src")


def run_cli(*args: str, cwd=None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, env=env, cwd=cwd or REPO_ROOT,
        timeout=300,
    )


def test_list_shows_registered_scenarios():
    proc = run_cli("list")
    assert proc.returncode == 0, proc.stderr
    lines = [line for line in proc.stdout.splitlines() if line.startswith("  ")]
    assert len(lines) >= 6
    names = {line.split()[0] for line in lines}
    assert {"quickstart-tddft", "dcmesh-pulse", "mesh-hopping", "md-nve",
            "localmode-switch", "mlmd-photoswitch"} <= names


def test_run_writes_lossless_runresult_json(tmp_path):
    out = tmp_path / "out.json"
    proc = run_cli(
        "run", "quickstart-tddft",
        "--set", "runtime.num_steps=5",
        "--set", "material.scf_max_iterations=5",
        "--json", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    assert "scenario : quickstart-tddft" in proc.stdout
    data = json.loads(out.read_text())
    result = RunResult.from_dict(data)
    assert result.to_dict() == data  # lossless reload
    assert result.scenario == "quickstart-tddft"
    assert result.engine == "tddft"
    assert result.metadata["spec"]["runtime"]["num_steps"] == 5


def test_show_prints_spec_json():
    proc = run_cli("show", "md-nve", "--set", "seed=42")
    assert proc.returncode == 0, proc.stderr
    spec = json.loads(proc.stdout)
    assert spec["name"] == "md-nve"
    assert spec["seed"] == 42


def test_unknown_scenario_fails_cleanly():
    proc = run_cli("run", "no-such-scenario")
    assert proc.returncode == 2
    assert "unknown scenario" in proc.stderr


def test_bad_override_fails_cleanly():
    proc = run_cli("run", "md-nve", "--set", "runtime.nope=1")
    assert proc.returncode == 2
    assert "unknown spec path" in proc.stderr


@pytest.mark.parametrize("argv,expected", [
    (["list"], 0),
    (["run", "maxwell-vacuum", "--steps", "3", "--quiet"], 0),
    (["run", "does-not-exist"], 2),
])
def test_main_inprocess(argv, expected, capsys):
    assert main(argv) == expected
    capsys.readouterr()  # drain

def test_version_flag():
    proc = run_cli("--version")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().startswith("repro ")
    version = proc.stdout.strip().split()[1]
    # Must be the real pyproject version, not the '0+unknown' fallback.
    import re
    assert re.fullmatch(r"\d+\.\d+\.\d+", version), version


def test_run_checkpoint_and_resume(tmp_path):
    store_dir = tmp_path / "ckpts"
    first = run_cli(
        "run", "maxwell-vacuum", "--steps", "4", "--quiet",
        "--checkpoint-dir", str(store_dir), "--checkpoint-every", "2",
    )
    assert first.returncode == 0, first.stderr
    snapshots = sorted(p.name for p in (store_dir / "maxwell-vacuum" / "default").iterdir())
    # .lock is the permanent advisory cross-process mutex, not a leak.
    assert snapshots == [".lock", "MANIFEST.json", "series-000000.seg",
                         "state-00000002.npz", "state-00000004.npz"]

    out = tmp_path / "resumed.json"
    second = run_cli(
        "run", "maxwell-vacuum", "--steps", "8",
        "--checkpoint-dir", str(store_dir), "--resume", "--json", str(out),
    )
    assert second.returncode == 0, second.stderr
    assert "resumed  : from step 4" in second.stdout
    result = RunResult.from_dict(json.loads(out.read_text()))
    assert result.metadata["executor"]["resumed_from_step"] == 4
    assert result.times[-1] == pytest.approx(8.0)


def test_resume_requires_checkpoint_dir():
    proc = run_cli("run", "maxwell-vacuum", "--resume")
    assert proc.returncode == 2
    assert "--resume requires --checkpoint-dir" in proc.stderr


def test_batch_command_merges_outcomes(tmp_path):
    out = tmp_path / "batch.json"
    proc = run_cli(
        "batch", "maxwell-vacuum", "md-nve",
        "--set", "runtime.num_steps=3",
        "--set", "material.repeats=[1,1,1]",
        "--workers", "0", "--json", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    assert "maxwell-vacuum" in proc.stdout and "md-nve" in proc.stdout
    outcomes = json.loads(out.read_text())
    assert [o["scenario"] for o in outcomes] == ["maxwell-vacuum", "md-nve"]
    for outcome in outcomes:
        RunResult.from_dict(outcome)  # every slot is a full RunResult


def test_batch_reports_partial_failure(tmp_path):
    out = tmp_path / "batch.json"
    # Overriding the pulse away breaks dcmesh-pulse but not maxwell-vacuum.
    proc = run_cli(
        "batch", "maxwell-vacuum", "dcmesh-pulse",
        "--set", "runtime.num_steps=2",
        "--set", "pulse.kind=none",
        "--workers", "0", "--max-retries", "0", "--json", str(out),
    )
    assert proc.returncode == 1
    assert "FAILED" in proc.stdout
    outcomes = json.loads(out.read_text())
    assert "error" in outcomes[1] and "pulse" in outcomes[1]["error"]


def test_batch_without_scenarios_fails_cleanly():
    proc = run_cli("batch")
    assert proc.returncode == 2
    assert "batch needs scenario names" in proc.stderr


def test_batch_resume_requires_checkpoint_dir():
    proc = run_cli("batch", "maxwell-vacuum", "--resume")
    assert proc.returncode == 2
    assert "--resume requires --checkpoint-dir" in proc.stderr


# ----------------------------------------------------------------------
# Error paths: every misuse must exit non-zero with actionable stderr
# ----------------------------------------------------------------------
def test_malformed_set_without_equals_fails_cleanly():
    proc = run_cli("run", "md-nve", "--set", "runtime.num_steps")
    assert proc.returncode == 2
    assert "not of the form key=value" in proc.stderr


def test_malformed_set_with_empty_key_fails_cleanly():
    proc = run_cli("run", "md-nve", "--set", "=5")
    assert proc.returncode == 2
    assert "empty key" in proc.stderr


def test_resume_without_any_checkpoint_fails_cleanly(tmp_path):
    store_dir = tmp_path / "empty-store"
    proc = run_cli("run", "maxwell-vacuum", "--resume",
                   "--checkpoint-dir", str(store_dir))
    assert proc.returncode == 2
    assert "no checkpoint for scenario 'maxwell-vacuum'" in proc.stderr
    assert "drop --resume" in proc.stderr  # tells the user the way out


def test_resume_with_unknown_run_id_fails_cleanly(tmp_path):
    store_dir = tmp_path / "ckpts"
    seeded = run_cli("run", "maxwell-vacuum", "--steps", "4", "--quiet",
                     "--checkpoint-dir", str(store_dir),
                     "--checkpoint-every", "2")
    assert seeded.returncode == 0, seeded.stderr
    proc = run_cli("run", "maxwell-vacuum", "--resume",
                   "--checkpoint-dir", str(store_dir), "--run-id", "other")
    assert proc.returncode == 2
    assert "run 'other'" in proc.stderr


@pytest.mark.parametrize("command", (
    ["batch", "maxwell-vacuum"], ["serve", "--checkpoint-dir", "state"]))
def test_backend_flag_is_gone(command, capsys):
    # Worker pools are process pools only; the old knob is an argparse error.
    with pytest.raises(SystemExit) as exc:
        main([*command, "--backend", "thread"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --backend thread" in capsys.readouterr().err


def test_batch_negative_workers_fails_cleanly():
    proc = run_cli("batch", "maxwell-vacuum", "--workers", "-2")
    assert proc.returncode == 2
    assert "workers must be >= 0" in proc.stderr


def test_batch_unknown_scenario_fails_cleanly():
    proc = run_cli("batch", "maxwell-vacuum", "definitely-not-registered")
    assert proc.returncode == 2
    assert "unknown scenario" in proc.stderr


def test_client_commands_without_daemon_fail_cleanly(monkeypatch, capsys):
    # Port 1 is never listening; every client subcommand must exit 3 with
    # the daemon address in the message, not hang or traceback.  One goes
    # through the ``python -m repro`` entry point; the others run in-process
    # with the client's retry backoff recorded instead of slept.
    proc = run_cli("status", "--port", "1")
    assert proc.returncode == 3, proc.stderr
    assert "no repro daemon reachable" in proc.stderr

    sleeps = []
    monkeypatch.setattr("repro.api.client.time.sleep", sleeps.append)
    for argv in (["submit", "md-nve"], ["fetch", "r000000"], ["shutdown"],
                 ["analytics", "dashboard", "--live"]):
        assert main([*argv, "--port", "1"]) == 3, argv
        assert "no repro daemon reachable" in capsys.readouterr().err, argv
    assert sleeps, "the GETs retry a refused connection with backoff"


# ----------------------------------------------------------------------
# repro analytics: argparse wiring (the engine itself is test_analytics.py)
# ----------------------------------------------------------------------
def test_analytics_regress_wiring(tmp_path):
    # One batch-style file: a conserved and a drifting series of one run.
    path = tmp_path / "batch.json"
    path.write_text(json.dumps([{
        "scenario": "demo", "engine": "reference",
        "times": [0.0, 1.0, 2.0],
        "observables": {"flat": [1.0, 1.0, 1.0], "drift": [1.0, 1.5, 2.0]},
        "metadata": {"executor": {"run_id": "cli-a"}},
    }]))
    ok = run_cli("analytics", "regress", str(path), "demo",
                 "--series", "flat", "--tier", "standard")
    assert ok.returncode == 0, ok.stderr
    assert "ok:" in ok.stdout

    gate = run_cli("analytics", "regress", str(path), "demo",
                   "--series", "drift", "--tier", "loose")
    assert gate.returncode == 1, (gate.stdout, gate.stderr)
    assert "run cli-a: drift drifted" in gate.stdout

    # Usage errors: one error: line via the shared subcommand_errors helper,
    # exit 2, never a traceback.
    missing = run_cli("analytics", "regress", str(tmp_path / "nope.json"),
                      "demo", "--series", "flat")
    assert missing.returncode == 2
    assert missing.stderr.startswith("error:")
    assert "Traceback" not in missing.stderr
    no_mode = run_cli("analytics", "regress", str(path), "demo")
    assert no_mode.returncode == 2
    assert "--series" in no_mode.stderr


# ----------------------------------------------------------------------
# --json consistency: bare --json means stdout on every subcommand
# ----------------------------------------------------------------------
def test_status_and_fetch_bare_json_goes_to_stdout(tmp_path, capsys):
    from repro.api import ScenarioServer, ServeClient

    with ScenarioServer(tmp_path / "state", port=0, workers=0) as daemon:
        client = ServeClient(port=daemon.port, timeout=30.0)
        run_id = client.submit("maxwell-vacuum",
                               overrides={"runtime.num_steps": 3})["run_id"]
        assert client.wait(run_id, timeout=60).ok
        port = str(daemon.port)

        assert main(["status", "--port", port, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["runs"][0]["run_id"] == run_id

        assert main(["fetch", run_id, "--port", port, "--json"]) == 0
        result = RunResult.from_dict(json.loads(capsys.readouterr().out))
        assert result.scenario == "maxwell-vacuum"

        assert main(["run", "maxwell-vacuum", "--steps", "2", "--quiet",
                     "--json"]) == 0
        inline = json.loads(capsys.readouterr().out)
        assert inline["scenario"] == "maxwell-vacuum"
