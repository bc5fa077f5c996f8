"""Old-vs-new wall time for the vectorized hot kernels.

Each rewritten kernel keeps its pre-vectorization implementation as a
reference rung (mirroring the paper's Table III baseline-vs-optimized ladder);
this benchmark times the retained references against the production paths for

* the neighbour-list build (dict-of-cells Python loop vs the sorted-cell
  offset-array sweep),
* repeated ``propagate_exact`` calls at fixed ``(dt, A)`` (per-call 3-D
  phase and two FFTs vs the cached per-axis operators), and
* the stencil Laplacian (per-term ``np.roll`` copies vs the fused in-place
  engine),
* the batched local-mode step (M serial ``LocalModeLattice.step`` loops vs
  one leading-axis ``step_stacked`` call per step — the kernel under
  same-shape scenario batching),

and writes the rows as JSON via ``common.finish`` like the other
benches.  ``--batch M`` times only the batched local-mode row at M members
(asserting >= 2x) and writes ``results/BENCH_kernel_speedups_batch.json``.
"""

from __future__ import annotations

import sys
import time

import numpy as np

from repro.grid import Grid3D
from repro.grid.stencil import laplacian, laplacian_reference
from repro.md import AtomsSystem, NeighborList
from repro.md.neighborlist import build_pairs_reference
from repro.perf.workspace import KernelWorkspace
from repro.qd import KineticPropagator, WaveFunctions

from common import finish, print_table

N_ATOMS = 2400
BOX = 38.0
CUTOFF = 4.5
SKIN = 0.5

GRID_POINTS = 48
N_ORBITALS = 2
DT = 0.04

STENCIL_BATCH = 4
STENCIL_ORDER = 4

LOCALMODE_MEMBERS = 8
LOCALMODE_SHAPE = (16, 16, 1)
LOCALMODE_STEPS = 50


def _best_of(fn, repeats: int) -> float:
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _bench_neighbor_list() -> dict:
    rng = np.random.default_rng(0)
    atoms = AtomsSystem(
        rng.uniform(0, BOX, (N_ATOMS, 3)),
        np.array(["Ar"] * N_ATOMS, dtype=object),
        np.array([BOX] * 3),
    )
    nl = NeighborList(CUTOFF, SKIN)
    nl.build(atoms)  # warm up caches / BLAS threads
    old = _best_of(lambda: build_pairs_reference(atoms, CUTOFF, SKIN), 3)
    new = _best_of(lambda: nl.build(atoms), 5)
    return {
        "kernel": f"neighbor_list_build (N={N_ATOMS})",
        "old_s": old,
        "new_s": new,
        "speedup": old / new,
        "pairs": int(nl.pairs.shape[0]),
    }


def _bench_propagate_exact() -> dict:
    rng = np.random.default_rng(1)
    grid = Grid3D((GRID_POINTS,) * 3, (20.0,) * 3)
    wavefunctions = WaveFunctions.random(grid, N_ORBITALS, rng)
    propagator = KineticPropagator(grid, dt=DT, workspace=KernelWorkspace())
    a_vec = np.array([0.3, 0.0, 0.0])
    propagator.propagate_exact(wavefunctions.psi, a_vec)  # prime the operator cache
    old = _best_of(lambda: propagator.propagate_exact_reference(wavefunctions.psi, a_vec), 5)
    new = _best_of(lambda: propagator.propagate_exact(wavefunctions.psi, a_vec), 5)
    return {
        "kernel": f"propagate_exact ({GRID_POINTS}^3, fixed dt/A)",
        "old_s": old,
        "new_s": new,
        "speedup": old / new,
    }


def _bench_stencil_laplacian() -> dict:
    rng = np.random.default_rng(2)
    grid = Grid3D((GRID_POINTS,) * 3, (20.0,) * 3)
    batch = (
        rng.standard_normal((STENCIL_BATCH,) + grid.shape)
        + 1j * rng.standard_normal((STENCIL_BATCH,) + grid.shape)
    )
    laplacian(batch, grid, order=STENCIL_ORDER)  # one untimed warm-up sweep
    old = _best_of(lambda: laplacian_reference(batch, grid, order=STENCIL_ORDER), 3)
    new = _best_of(lambda: laplacian(batch, grid, order=STENCIL_ORDER), 5)
    return {
        "kernel": f"stencil_laplacian ({STENCIL_BATCH}x{GRID_POINTS}^3, order {STENCIL_ORDER})",
        "old_s": old,
        "new_s": new,
        "speedup": old / new,
    }


def _bench_batched_localmode(members: int = LOCALMODE_MEMBERS) -> dict:
    from repro.md.localmode import (LocalModeLattice, LocalModeModel,
                                    step_stacked)

    model = LocalModeModel()
    weights = [0.4 + 0.02 * i for i in range(members)]

    def _members():
        lattices, rngs = [], []
        for seed in range(members):
            rng = np.random.default_rng(seed)
            modes = 0.1 * rng.standard_normal(LOCALMODE_SHAPE + (3,))
            lattices.append(LocalModeLattice(modes, model))
            rngs.append(np.random.default_rng(1000 + seed))
        return lattices, rngs

    def _serial():
        lattices, rngs = _members()
        for lattice, weight, rng in zip(lattices, weights, rngs):
            for _ in range(LOCALMODE_STEPS):
                lattice.step(2.0, excitation_weight=weight, damping=0.3,
                             noise_amplitude=0.001, rng=rng)

    def _stacked():
        lattices, rngs = _members()
        modes = np.stack([lat.modes for lat in lattices])
        velocities = np.stack([lat.velocities for lat in lattices])
        for _ in range(LOCALMODE_STEPS):
            step_stacked(modes, velocities, model, 2.0, weights,
                         damping=0.3, noise_amplitude=0.001, rngs=rngs)

    _stacked()  # warm up
    old = _best_of(_serial, 3)
    new = _best_of(_stacked, 5)
    nx, ny, nz = LOCALMODE_SHAPE
    return {
        "kernel": f"localmode_step_batched (M={members}, {nx}x{ny}x{nz}, "
                  f"{LOCALMODE_STEPS} steps)",
        "old_s": old,
        "new_s": new,
        "speedup": old / new,
    }


def main_batch(members: int) -> None:
    row = _bench_batched_localmode(members)
    print_table(
        "Batched local-mode stepping (M serial step loops vs step_stacked)",
        ["kernel", "old_s", "new_s", "speedup"],
        [row],
    )
    finish("kernel_speedups_batch", {"rows": [row], "members": members})
    assert row["speedup"] >= 2.0, (
        f"batched local-mode speedup {row['speedup']:.2f}x below 2x")


def test_kernel_speedups():
    rows = [
        _bench_neighbor_list(),
        _bench_propagate_exact(),
        _bench_stencil_laplacian(),
        _bench_batched_localmode(),
    ]
    print_table(
        "Vectorized-kernel speedups (old reference vs production path)",
        ["kernel", "old_s", "new_s", "speedup"],
        rows,
    )
    finish(
        "kernel_speedups",
        {
            "rows": rows,
            "workload": {
                "neighbor_atoms": N_ATOMS,
                "grid": GRID_POINTS,
                "orbitals": N_ORBITALS,
                "stencil_batch": STENCIL_BATCH,
            },
        },
    )
    by_kernel = {row["kernel"].split(" ")[0]: row["speedup"] for row in rows}
    assert by_kernel["neighbor_list_build"] >= 3.0
    assert by_kernel["propagate_exact"] >= 1.5
    assert by_kernel["stencil_laplacian"] >= 1.5
    assert by_kernel["localmode_step_batched"] >= 2.0


if __name__ == "__main__":
    if "--batch" in sys.argv:
        position = sys.argv.index("--batch")
        count = int(sys.argv[position + 1]) \
            if len(sys.argv) > position + 1 else LOCALMODE_MEMBERS
        main_batch(count)
    else:
        test_kernel_speedups()
