"""Every benchmark script and CLI flag the docs and the CI workflow name exists.

A deleted or renamed script leaves a stale sentence or a CI step that
fails only when someone runs it; this check fails as soon as the file is
gone.  Paths are matched as written (``benchmarks/e2e/run.py``) and as CI
writes them after ``cd benchmarks`` (a bare ``bench_table1_me_t2s.py``).
The same holds for a removed flag: every ``python -m repro <subcommand>
... --flag`` (or a backticked ``repro <subcommand> --flag``) must name a
flag that subcommand's parser in :func:`repro.api.cli._build_parser`
accepts.
"""

from __future__ import annotations

import argparse
import re
from pathlib import Path

import pytest

from repro.api.cli import _build_parser

REPO_ROOT = Path(__file__).resolve().parents[1]

#: The documents that cite benchmark scripts.
DOCUMENTS = (
    [REPO_ROOT / ".github" / "workflows" / "ci.yml", REPO_ROOT / "README.md",
     REPO_ROOT / ".claude" / "skills" / "verify" / "SKILL.md"]
    + sorted((REPO_ROOT / "docs").glob("*.md"))
)

_FULL = re.compile(r"\bbenchmarks/[\w./-]*\w\.py\b")
_BARE = re.compile(r"(?<![\w/])bench_\w+\.py\b")


def cited_scripts(text: str) -> set:
    """Repo-relative paths of the benchmark scripts ``text`` names."""
    cited = set(_FULL.findall(text))
    cited.update(f"benchmarks/{name}" for name in _BARE.findall(text))
    return cited


def test_citations_are_parsed_both_ways():
    text = ("run `benchmarks/e2e/run.py --smoke`; then cd benchmarks &&\n"
            "pytest bench_fig4_dcmesh_scaling.py, not bench_<name>.py")
    assert cited_scripts(text) == {"benchmarks/e2e/run.py",
                                   "benchmarks/bench_fig4_dcmesh_scaling.py"}


@pytest.mark.parametrize("document", [doc for doc in DOCUMENTS if doc.exists()],
                         ids=lambda doc: str(doc.relative_to(REPO_ROOT)))
def test_every_cited_benchmark_script_exists(document):
    missing = sorted(path for path in cited_scripts(document.read_text())
                     if not (REPO_ROOT / path).is_file())
    assert not missing, f"{document.name} cites missing scripts: {missing}"


#: A ``repro`` command line, up to the end of its code span, line, pipe,
#: command separator or shell comment (continuation lines are joined first).
_COMMAND = re.compile(r"(?:python -m |`)repro[ \t]+([^`\n|;&#]*)")


def _subcommands(parser: argparse.ArgumentParser) -> dict:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def unknown_flags(text: str) -> set:
    """``"repro <subcommand> --flag"`` for each cited flag its parser lacks."""
    root, unknown = _build_parser(), set()
    for match in _COMMAND.finditer(text.replace("\\\n", " ")):
        parser, path = root, ["repro"]
        for token in match.group(1).split():
            if token.startswith("--"):
                flag = token.split("=", 1)[0]
                if flag not in parser._option_string_actions:
                    unknown.add(" ".join(path + [flag]))
            elif token in _subcommands(parser):
                parser = _subcommands(parser)[token]
                path.append(token)
    return unknown


def test_flag_citations_are_checked_per_subcommand():
    text = ("PYTHONPATH=src python -m repro batch --all --workers 4 \\\n"
            "    --backend thread\n"
            "`repro serve --batch-max M --backend process`, "
            "`repro fleet route --port P --root DIR`, "
            "python -m repro --version; python -m repro store compact ckpts "
            "--retention=keep=5 --workers 2")
    assert unknown_flags(text) == {"repro batch --backend",
                                   "repro serve --backend",
                                   "repro store compact --workers"}


@pytest.mark.parametrize("document", [doc for doc in DOCUMENTS if doc.exists()],
                         ids=lambda doc: str(doc.relative_to(REPO_ROOT)))
def test_every_cited_cli_flag_exists(document):
    unknown = sorted(unknown_flags(document.read_text()))
    assert not unknown, f"{document.name} cites flags the CLI lacks: {unknown}"
