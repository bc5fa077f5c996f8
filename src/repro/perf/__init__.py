"""Performance measurement: FLOP accounting, kernel workspaces, time-to-solution.

The paper's headline numbers are all derived quantities — time-to-solution per
electron (Table I), per atom-weight (Table II), FLOP/s and percent-of-peak
(Tables IV/V), and weak/strong scaling efficiencies (Figs. 4/5).  This
subpackage implements those metric definitions exactly as the paper states
them so benchmark harnesses can print comparable rows.  Wall-clock timing
is not kept here: kernels and engines time themselves through
:mod:`repro.telemetry`, which costs nothing while it is switched off.
"""

from repro.perf.flops import FlopCounter, stencil_flops, fft_flops
from repro.perf.workspace import (
    KernelWorkspace,
    LRUCache,
    get_workspace,
)
from repro.perf.metrics import (
    me_time_to_solution,
    nnqmd_time_to_solution,
    parallel_efficiency_strong,
    parallel_efficiency_weak,
)

__all__ = [
    "FlopCounter",
    "stencil_flops",
    "fft_flops",
    "KernelWorkspace",
    "LRUCache",
    "get_workspace",
    "me_time_to_solution",
    "nnqmd_time_to_solution",
    "parallel_efficiency_strong",
    "parallel_efficiency_weak",
]
