"""The unified run result: times, observables and metadata.

Every engine adapter returns the same :class:`RunResult` container regardless
of which simulation subsystem produced it, so downstream consumers (the CLI,
batch runners, benchmark harnesses, future serving layers) handle one schema.
Results round-trip losslessly through plain dicts / JSON: observable arrays
are stored as nested lists and reconstructed as float ndarrays.

The same machinery serialises engine *state* for checkpoints: complex arrays
(TDDFT orbitals, surface-hopping amplitudes) are encoded as tagged
``{"__complex__": ..., "real": ..., "imag": ...}`` dicts by :func:`_plain` and
decoded back to complex ndarrays by :func:`revive`.  Because Python's JSON
writer emits shortest-round-trip float literals, a ``_plain``/JSON/``revive``
cycle reproduces every float64 bit-exactly — the property the
checkpoint -> restore contract relies on.

:class:`RunFailure` is the error slot of batch execution: when one scenario of
a batch raises, the failure is recorded in that run's slot (scenario, error,
traceback, attempt count) and the remaining runs proceed.
"""

from __future__ import annotations

import json
import traceback as _traceback
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

import numpy as np

#: Tag marking an encoded complex array/scalar inside JSON-able state dicts.
_COMPLEX_TAG = "__complex__"


def _plain(value: Any) -> Any:
    """Recursively convert numpy containers/scalars to JSON-native data.

    Complex arrays and scalars are encoded as tagged real/imag dicts so
    checkpoints of wave-function state survive ``json.dumps``; use
    :func:`revive` to decode them.
    """
    if isinstance(value, np.ndarray):
        if np.iscomplexobj(value):
            return {
                _COMPLEX_TAG: "array",
                "real": value.real.tolist(),
                "imag": value.imag.tolist(),
            }
        return value.tolist()
    if isinstance(value, (complex, np.complexfloating)):
        return {
            _COMPLEX_TAG: "scalar",
            "real": float(value.real),
            "imag": float(value.imag),
        }
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    if isinstance(value, list):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    return value


def revive(value: Any) -> Any:
    """Inverse of :func:`_plain` for tagged values (complex arrays/scalars).

    Untagged containers are walked recursively; lists stay lists (adapters
    call ``np.asarray`` on the leaves they own), so round-tripping arbitrary
    metadata through ``revive`` is safe.
    """
    if isinstance(value, dict):
        tag = value.get(_COMPLEX_TAG)
        if tag == "array" and set(value) == {_COMPLEX_TAG, "real", "imag"}:
            real = np.asarray(value["real"], dtype=float)
            # Assemble components in place rather than `real + 1j*imag`: the
            # addition collapses signed zeros (-0.0 + 0.0 == +0.0) and decays
            # 0-d arrays to scalars, both of which break bit-exact restore.
            out = np.empty(real.shape, dtype=complex)
            out.real = real
            out.imag = np.asarray(value["imag"], dtype=float)
            return out
        if tag == "scalar" and set(value) == {_COMPLEX_TAG, "real", "imag"}:
            return complex(float(value["real"]), float(value["imag"]))
        return {k: revive(v) for k, v in value.items()}
    if isinstance(value, list):
        return [revive(v) for v in value]
    return value


@dataclass
class RunFailure:
    """The error slot of one failed scenario run in a batch.

    Carries enough provenance to diagnose and retry the run: the scenario
    name and engine kind, the formatted exception, the traceback text and how
    many attempts were made.  ``RunFailure`` round-trips through dicts/JSON
    like :class:`RunResult` so batch reports stay one schema.
    """

    scenario: str
    engine: str
    error: str
    traceback: str = ""
    attempts: int = 1

    #: Discriminator shared with RunResult for mixed batch slots.
    ok = False

    @classmethod
    def from_exception(cls, scenario: str, engine: str, exc: BaseException,
                       attempts: int = 1) -> "RunFailure":
        return cls(
            scenario=str(scenario),
            engine=str(engine),
            error=f"{type(exc).__name__}: {exc}",
            traceback="".join(
                _traceback.format_exception(type(exc), exc, exc.__traceback__)
            ),
            attempts=int(attempts),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "engine": self.engine,
            "error": self.error,
            "traceback": self.traceback,
            "attempts": self.attempts,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunFailure":
        return cls(
            scenario=str(data["scenario"]),
            engine=str(data.get("engine", "")),
            error=str(data.get("error", "")),
            traceback=str(data.get("traceback", "")),
            attempts=int(data.get("attempts", 1)),
        )


@dataclass
class RunResult:
    """Observable time series and provenance of one scenario run.

    Attributes
    ----------
    scenario, engine:
        Name of the scenario and the engine kind that produced the run.
    times:
        ``(n_records,)`` sample times in the engine's native time unit.
    observables:
        Mapping of observable name to an array whose leading axis matches
        ``times`` (scalars give ``(n_records,)``, vectors ``(n_records, d)``,
        and so on).
    metadata:
        JSON-able provenance: the full scenario spec dict, engine-specific
        summary values (SCF convergence, switching times, ...) and anything a
        batch runner attaches (workspace cache statistics).

    Timing is not part of a result: engines time themselves through
    :mod:`repro.telemetry`.
    """

    scenario: str
    engine: str
    times: np.ndarray
    observables: Dict[str, np.ndarray]
    metadata: Dict[str, Any] = field(default_factory=dict)

    #: Discriminator shared with RunFailure for mixed batch slots.
    ok = True

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        if self.times.ndim != 1:
            raise ValueError("times must be a 1-D array")
        observables = {}
        for name, series in self.observables.items():
            arr = np.asarray(series, dtype=float)
            if arr.shape[:1] != self.times.shape:
                raise ValueError(
                    f"observable {name!r} has leading shape {arr.shape[:1]}, "
                    f"expected {self.times.shape} to match times"
                )
            observables[str(name)] = arr
        self.observables = observables

    # ------------------------------------------------------------------
    @property
    def num_records(self) -> int:
        return int(self.times.size)

    @property
    def run_id(self) -> Optional[str]:
        """The executor-stamped run id (``metadata.executor.run_id``).

        ``None`` for results produced outside the executor/daemon path —
        ``repro analytics regress`` then names the run by a content hash.
        """
        executor = self.metadata.get("executor") or {}
        value = executor.get("run_id")
        return str(value) if value is not None else None

    def final(self, name: str) -> np.ndarray | float:
        """The last recorded value of one observable (scalar when 0-d)."""
        value = self.observables[name][-1]
        return float(value) if np.ndim(value) == 0 else value

    def summary(self) -> Dict[str, Any]:
        """Compact final-value view used by the CLI report."""
        out: Dict[str, Any] = {"scenario": self.scenario, "engine": self.engine}
        if self.num_records:
            out["final_time"] = float(self.times[-1])
        for name, series in self.observables.items():
            last = series[-1]
            if last.ndim == 0:
                out[name] = float(last)
        return out

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "scenario": self.scenario,
            "engine": self.engine,
            "times": self.times.tolist(),
            "observables": {k: v.tolist() for k, v in self.observables.items()},
            "metadata": _plain(self.metadata),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunResult":
        # Results written before timing moved to telemetry carry a
        # ``timers`` breakdown; it is accepted and dropped.
        known = {"scenario", "engine", "times", "observables", "metadata",
                 "timers"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown RunResult keys: {unknown}")
        for required in ("scenario", "engine", "times", "observables"):
            if required not in data:
                raise ValueError(f"RunResult dict is missing {required!r}")
        return cls(
            scenario=str(data["scenario"]),
            engine=str(data["engine"]),
            times=np.asarray(data["times"], dtype=float),
            observables={
                str(k): np.asarray(v, dtype=float)
                for k, v in dict(data["observables"]).items()
            },
            metadata=dict(data.get("metadata", {})),
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "RunResult":
        return cls.from_dict(json.loads(text))
