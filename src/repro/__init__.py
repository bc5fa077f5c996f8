"""repro: reproduction of "Multiscale Light-Matter Dynamics in Quantum Materials" (SC 2025).

The package mirrors the paper's MLMD software: the DC-MESH module (divide-and-
conquer Maxwell-Ehrenfest-surface-hopping NAQMD) lives in :mod:`repro.grid`,
:mod:`repro.maxwell`, :mod:`repro.qd`, :mod:`repro.scf`, :mod:`repro.dc` and
:mod:`repro.naqmd`; the XS-NNQMD module (excited-state neural-network quantum
MD) lives in :mod:`repro.nn`, :mod:`repro.md` and :mod:`repro.xsnn`; the
divide-conquer-recombine orchestration and the MLMD pipeline live in
:mod:`repro.core`; performance counters and the machine and cost models
behind the scaling studies live in :mod:`repro.perf` and
:mod:`repro.parallel`.

The declarative front door over all of those engines is :mod:`repro.api`:
``ScenarioSpec`` configs, the unified ``Engine`` protocol, named scenarios,
the ``python -m repro run <scenario> [--set key=value]`` command-line runner,
the process-parallel ``ExecutionService`` batch executor and the long-lived
``repro serve`` daemon (warm worker pools, durable submission journal,
checkpoint streaming, crash-resume on restart).

Subpackages are imported lazily so light-weight users (for example, someone
who only needs the topology analysis) do not pay for the whole stack.
"""

from __future__ import annotations

import importlib
from typing import Any


def _detect_version() -> str:
    """The installed distribution version, falling back to pyproject.toml.

    ``importlib.metadata`` answers when the package is pip-installed; running
    straight off a source checkout (``PYTHONPATH=src``) reads the version
    from the checkout's ``pyproject.toml`` instead.
    """
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("repro")
    except Exception:  # PackageNotFoundError or a broken metadata backend
        pass
    try:
        import pathlib

        pyproject = pathlib.Path(__file__).resolve().parents[2] / "pyproject.toml"
        try:
            import tomllib

            with open(pyproject, "rb") as handle:
                return str(tomllib.load(handle)["project"]["version"])
        except ImportError:  # Python 3.10: no tomllib; scan the version line
            import re

            text = pyproject.read_text(encoding="utf-8")
            match = re.search(
                r'^version\s*=\s*"([^"]+)"', text, flags=re.MULTILINE
            )
            if match:
                return match.group(1)
            return "0+unknown"
    except Exception:
        return "0+unknown"


__version__ = _detect_version()

_SUBPACKAGES = (
    "analysis",
    "analytics",
    "api",
    "core",
    "dc",
    "grid",
    "maxwell",
    "md",
    "naqmd",
    "nn",
    "parallel",
    "perf",
    "precision",
    "qd",
    "scf",
    "topology",
    "units",
    "utils",
    "xsnn",
)

__all__ = list(_SUBPACKAGES) + ["__version__"]


def __getattr__(name: str) -> Any:
    if name in _SUBPACKAGES:
        return importlib.import_module(f"repro.{name}")
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(__all__)
