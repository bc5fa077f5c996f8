"""Floating-point operation accounting.

The paper counts total FLOPs with Intel SDE and divides by wall-clock time per
software layer.  Here kernels report their analytic FLOP counts to a
:class:`FlopCounter`; the same counts feed the DC multiplication rule the paper
uses ("the FLOP count of a total DC-MESH application ... can be counted by
multiplying the number of domains to the FLOP count obtained from a single
domain measurement").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np


def stencil_flops(num_grid_points: int, num_orbitals: int, stencil_width: int,
                  complex_valued: bool = True) -> int:
    """FLOPs of one application of a 1-D finite-difference stencil sweep.

    Each output point combines ``stencil_width`` neighbouring values with one
    multiply and one add each; complex arithmetic costs 4x a real multiply-add
    pair (2 real mults + 2 adds per complex multiply, plus 2 adds).
    """
    per_point = 2 * stencil_width
    if complex_valued:
        per_point *= 4
    return int(per_point) * int(num_grid_points) * int(num_orbitals)


def fft_flops(num_grid_points: int, complex_valued: bool = True) -> int:
    """Approximate FLOPs of one 3-D FFT: 5 N log2 N (complex), half for real."""
    n = int(num_grid_points)
    if n <= 1:
        return 0
    flops = 5.0 * n * np.log2(n)
    if not complex_valued:
        flops *= 0.5
    return int(flops)


@dataclass
class FlopCounter:
    """Accumulates per-kernel FLOP counts.

    The counter is deliberately simple — a dictionary of kernel name to count —
    because that is all the paper's measurement methodology needs: total FLOPs
    per region of interest divided by the region's wall-clock time.
    """

    counts: Dict[str, int] = field(default_factory=dict)

    def add(self, kernel: str, flops: int) -> None:
        if flops < 0:
            raise ValueError("flops must be non-negative")
        self.counts[kernel] = self.counts.get(kernel, 0) + int(flops)

    def __getitem__(self, kernel: str) -> int:
        return self.counts.get(kernel, 0)
