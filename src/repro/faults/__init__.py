"""Deterministic fault injection for the storage and serving stack.

Crash-safety claims are only as good as the set of crash points they were
tested at.  PR 4/5 proved SIGKILL recovery for a handful of hand-picked kill
sites; this subsystem makes the *full* set of interesting fault sites
first-class instead:

* modules **register** named fault points at import time
  (``MANIFEST_COMMIT_PRE = faults.register("manifest.commit.pre_write",
  "...")``) and call :func:`point` at the exact site.  Registration is what
  lets the chaos test harness enumerate every site and prove each one is
  covered by a kill/fault driver — an unregistered ``point()`` call raises,
  so a fault site can never silently drop out of the matrix;
* a **plan** arms points with actions.  ``configure("name=crash")`` (or the
  ``REPRO_FAULTS`` environment variable, read once at import so forked
  *and* spawned subprocess daemons inherit it) maps point names to:

  - ``raise`` — raise :class:`InjectedFault` at the site (exercises the
    error-handling path: typed errors, retries, no wedged daemons);
  - ``crash`` — ``os._exit(86)`` at the site: no ``atexit``, no ``finally``,
    no flushes — the closest a Python process gets to SIGKILLing itself at
    an exact line (exercises the crash-consistency path: journal replay,
    manifest commit points, lease takeover).

  An optional ``@N`` suffix fires on the Nth hit (``"series.append.mid_batch
  =crash@3"``); every armed point is **one-shot** — it disarms after firing,
  so a resumed run replays clean.

The registry is process-global and trigger cost when nothing is armed is one
dict lookup against ``None`` — cheap enough to leave in production code paths
permanently.  The serving daemon additionally accepts a per-submission
``faults`` plan (see :mod:`repro.api.server`), which rides the payload into
the worker process, is armed around that one run only, and is deliberately
*not* journalled: a recovered run resumes without its faults.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, Optional, Tuple, Union

__all__ = [
    "CRASH_EXIT_CODE",
    "ENV_VAR",
    "FaultPlanError",
    "InjectedFault",
    "active_plan",
    "configure",
    "parse_plan",
    "point",
    "points",
    "register",
    "reset",
]

#: Environment variable holding the process's initial fault plan.
ENV_VAR = "REPRO_FAULTS"

#: Exit status of a ``crash`` action — distinctive, so harnesses can tell an
#: injected crash (86) from a genuine bug (tracebacks exit 1) at a glance.
CRASH_EXIT_CODE = 86

_ACTIONS = ("raise", "crash")

#: A parsed plan: point name -> (action, fire-on-Nth-hit).
Plan = Dict[str, Tuple[str, int]]


class InjectedFault(RuntimeError):
    """The exception a ``raise``-armed fault point throws at its site."""

    def __init__(self, name: str) -> None:
        super().__init__(f"injected fault at point {name!r}")
        self.point = name


class FaultPlanError(ValueError):
    """A fault plan string/dict could not be parsed or names no known site."""


_lock = threading.Lock()
_registry: Dict[str, str] = {}
#: point name -> [action, remaining-hits-before-firing]; mutated under _lock.
_armed: Dict[str, list] = {}


def register(name: str, description: str = "") -> str:
    """Declare one fault point; returns ``name`` (assign it to a constant).

    Idempotent for an identical re-registration (module reloads), an error
    for two different sites claiming one name.
    """
    with _lock:
        existing = _registry.get(name)
        if existing is not None and existing != description:
            raise FaultPlanError(
                f"fault point {name!r} is already registered "
                f"({existing!r} vs {description!r})"
            )
        _registry[name] = description
    return name


def points() -> Dict[str, str]:
    """Every registered fault point (name -> description), sorted by name.

    Only points whose defining modules have been imported appear — the chaos
    harness imports the full store/serving stack first.
    """
    with _lock:
        return dict(sorted(_registry.items()))


def parse_plan(spec: Union[str, Dict[str, str], None]) -> Plan:
    """Parse ``"name=action[@N],..."`` (or an equivalent dict) into a plan.

    Unknown point *names* are allowed (the defining module may not be
    imported yet in this process); unknown actions and non-positive hit
    counts are errors.
    """
    if spec is None:
        return {}
    pairs: Dict[str, str]
    if isinstance(spec, str):
        pairs = {}
        for term in spec.split(","):
            term = term.strip()
            if not term:
                continue
            if "=" not in term:
                raise FaultPlanError(
                    f"bad fault term {term!r} (expected name=action[@N])"
                )
            name, action = term.split("=", 1)
            pairs[name.strip()] = action.strip()
    elif isinstance(spec, dict):
        pairs = {str(k): str(v) for k, v in spec.items()}
    else:
        raise FaultPlanError(
            f"fault plan must be a string or dict, not {type(spec).__name__}"
        )
    plan: Plan = {}
    for name, action in pairs.items():
        nth = 1
        if "@" in action:
            action, _, count = action.partition("@")
            try:
                nth = int(count)
            except ValueError as exc:
                raise FaultPlanError(
                    f"bad hit count in fault {name}={action}@{count}"
                ) from exc
            if nth < 1:
                raise FaultPlanError(f"fault {name!r} hit count must be >= 1")
        if action not in _ACTIONS:
            raise FaultPlanError(
                f"unknown fault action {action!r} for point {name!r} "
                f"(known: {', '.join(_ACTIONS)})"
            )
        plan[name] = (action, nth)
    return plan


def configure(spec: Union[str, Dict[str, str], None]) -> None:
    """Replace the process-global armed plan (None/empty disarms everything)."""
    plan = parse_plan(spec)
    with _lock:
        _armed.clear()
        for name, (action, nth) in plan.items():
            _armed[name] = [action, nth]


def reset() -> None:
    """Disarm every fault point."""
    configure(None)


def active_plan() -> bool:
    """True when at least one point is armed (fast pre-check for callers)."""
    return bool(_armed)


def point(name: str) -> None:
    """Trigger a fault site: no-op unless ``name`` is armed.

    The site must have been registered (at module import) — triggering an
    unregistered name raises :class:`FaultPlanError` even when disarmed, so
    the chaos matrix can never miss a site.
    """
    if name not in _registry:
        raise FaultPlanError(f"fault point {name!r} was never registered")
    if not _armed:
        return
    with _lock:
        entry = _armed.get(name)
        if entry is None:
            return
        entry[1] -= 1
        if entry[1] > 0:
            return
        action = entry[0]
        del _armed[name]  # one-shot: a resumed run replays clean
    if action == "crash":
        os._exit(CRASH_EXIT_CODE)
    raise InjectedFault(name)


# Arm the initial plan from the environment exactly once, at import: forked
# workers inherit the armed state directly, spawned ones re-import and re-read.
configure(os.environ.get(ENV_VAR) or None)
