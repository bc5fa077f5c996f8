"""Figure 3: photo-switching of a ferroelectric skyrmion superlattice.

The science result of the paper: a femtosecond pulse switches the topological
polarization texture of PbTiO3.  The benchmark runs the end-to-end MLMD
pipeline twice — pumped and unpumped — and reports the topological charge
trajectory of each.  The reproduced "shape": the pumped superlattice loses its
topological charge within a few hundred femtoseconds, the dark control keeps
it over the same window.
"""

from __future__ import annotations

import pytest

from repro.api import default_registry, run_scenario

from common import finish, print_table

EXCITATION_FRACTION = 0.8
NUM_STEPS = 250


def _run(excitation: float):
    """The ``mlmd-photoswitch`` pipeline on the Fig. 3 superlattice: 2x2
    skyrmions on 20x20x1 cells, relaxed for 200 steps, then NUM_STEPS
    excited-state steps recorded every 5."""
    spec = default_registry().get("mlmd-photoswitch").with_overrides({
        "material.repeats": [20, 20, 1],
        "material.skyrmions_per_axis": [2, 2],
        "propagator.relax_steps": 200,
        "propagator.excitation_fraction": excitation,
    })
    return run_scenario(spec, num_steps=NUM_STEPS, record_every=5)


def test_fig3_photoswitching_of_skyrmion_superlattice(benchmark):
    pumped = benchmark(lambda: _run(EXCITATION_FRACTION))
    dark = _run(0.0)
    pumped_q = pumped.observables["topological_charge"]
    dark_q = dark.observables["topological_charge"]

    rows = []
    for label, result in (("pumped", pumped), ("dark", dark)):
        charge = result.observables["topological_charge"]
        rows.append(
            {
                "run": label,
                "Q_initial": charge[0],
                "Q_final": charge[-1],
                # None: the charge never collapsed.
                "switching_time_fs": result.metadata["switching_time_fs"],
                "final_label": result.metadata["final_label"],
            }
        )
    print_table(
        "Fig. 3: light-induced topological switching",
        ["run", "Q_initial", "Q_final", "switching_time_fs", "final_label"],
        rows,
    )
    series = {
        "times_fs": pumped.times.tolist(),
        "pumped_charge": pumped_q.tolist(),
        "dark_charge": dark_q.tolist(),
        "pumped_excitation": pumped.observables["excitation_fraction"].tolist(),
    }
    finish("fig3_photoswitching", {"rows": rows, "series": series})

    # Both runs start from the same 2x2 skyrmion superlattice (|Q| = 4).
    assert abs(pumped_q[0]) == pytest.approx(4.0, abs=0.2)
    assert abs(dark_q[0]) == pytest.approx(4.0, abs=0.2)
    # The pumped texture switches; the dark control does not.
    assert pumped.metadata["switching_time_fs"] is not None
    assert dark.metadata["switching_time_fs"] is None
    assert abs(pumped_q[-1]) < 0.5 * abs(pumped_q[0])
    assert abs(dark_q[-1]) > 0.9 * abs(dark_q[0])
