"""Weak / strong scaling studies (the machinery behind Fig. 4 and Fig. 5)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Sequence

import numpy as np

from repro.perf.metrics import parallel_efficiency_strong, parallel_efficiency_weak


@dataclass(frozen=True)
class ScalingPoint:
    """One point of a scaling curve."""

    ranks: int
    work_units: float
    wall_seconds: float


@dataclass
class ScalingStudy:
    """Collects scaling points and computes the paper's efficiency metrics.

    ``kind`` is ``"weak"`` (fixed work per rank) or ``"strong"`` (fixed total
    work); the efficiency definitions follow Sec. VII.A exactly.
    """

    kind: str
    label: str = ""
    points: List[ScalingPoint] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.kind not in ("weak", "strong"):
            raise ValueError("kind must be 'weak' or 'strong'")

    # ------------------------------------------------------------------
    def add_point(self, ranks: int, work_units: float, wall_seconds: float) -> None:
        if ranks < 1 or work_units <= 0 or wall_seconds <= 0:
            raise ValueError("ranks, work_units and wall_seconds must be positive")
        self.points.append(ScalingPoint(ranks, work_units, wall_seconds))

    def ranks(self) -> np.ndarray:
        return np.array([p.ranks for p in sorted(self.points, key=lambda p: p.ranks)])

    def wall_seconds(self) -> np.ndarray:
        return np.array(
            [p.wall_seconds for p in sorted(self.points, key=lambda p: p.ranks)]
        )

    def work_units(self) -> np.ndarray:
        return np.array(
            [p.work_units for p in sorted(self.points, key=lambda p: p.ranks)]
        )

    # ------------------------------------------------------------------
    def efficiencies(self) -> np.ndarray:
        """Parallel efficiency at each point relative to the smallest rank count."""
        if len(self.points) < 2:
            raise ValueError("need at least two points to compute efficiencies")
        if self.kind == "weak":
            return parallel_efficiency_weak(
                self.work_units(), self.wall_seconds(), self.ranks()
            )
        return parallel_efficiency_strong(self.wall_seconds(), self.ranks())

    def efficiency_at_largest(self) -> float:
        return float(self.efficiencies()[-1])

    def as_rows(self) -> List[dict]:
        """Serialisable summary rows (one per point) for benchmark output."""
        efficiencies = self.efficiencies() if len(self.points) >= 2 else [1.0] * len(self.points)
        rows = []
        for point, eff in zip(sorted(self.points, key=lambda p: p.ranks), efficiencies):
            rows.append(
                {
                    "label": self.label,
                    "kind": self.kind,
                    "ranks": point.ranks,
                    "work_units": point.work_units,
                    "wall_seconds": point.wall_seconds,
                    "efficiency": float(eff),
                }
            )
        return rows


def run_scaling_study(
    kind: str,
    label: str,
    rank_counts: Sequence[int],
    work_for_ranks: Callable[[int], float],
    time_for_ranks: Callable[[int], float],
) -> ScalingStudy:
    """Build a scaling study by evaluating a cost model over rank counts."""
    study = ScalingStudy(kind=kind, label=label)
    for ranks in rank_counts:
        study.add_point(int(ranks), float(work_for_ranks(ranks)), float(time_for_ranks(ranks)))
    return study
