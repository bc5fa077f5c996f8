"""Every benchmark script the docs and the CI workflow name exists.

A deleted or renamed script leaves a stale sentence or a CI step that
fails only when someone runs it; this check fails as soon as the file is
gone.  Paths are matched as written (``benchmarks/e2e/run.py``) and as CI
writes them after ``cd benchmarks`` (a bare ``bench_table1_me_t2s.py``).
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

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
