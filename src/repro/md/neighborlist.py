"""Cell-list neighbour search.

The Allegro model is strictly local (everything within a cutoff of ~5-6 A), so
the neighbour list dominates memory (the paper's Sec. V.B.9 notes its 50-200x
prefactor over the position tensor) and a correct, O(N) construction is the
backbone of the MD engine.  The implementation bins atoms into cells of edge
>= cutoff and searches the neighbouring cells with a fully vectorised
sorted-cell/offset-array sweep — no per-pair Python loops anywhere on the hot
path.  Two slower builders are kept as references: a brute-force O(N^2) pair
scan for property-based testing, and the original dict-of-cells Python-loop
cell list (:func:`build_pairs_reference`) as the "old" rung of the
kernel-speedup benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.md.atoms import AtomsSystem


def brute_force_pairs(atoms: AtomsSystem, cutoff: float) -> np.ndarray:
    """All i<j pairs within ``cutoff`` (minimum image), O(N^2) reference."""
    if cutoff <= 0:
        raise ValueError("cutoff must be positive")
    n = atoms.n_atoms
    pairs = []
    for i in range(n):
        delta = atoms.positions[i] - atoms.positions
        delta -= atoms.box * np.round(delta / atoms.box)
        dist2 = np.sum(delta ** 2, axis=1)
        for j in range(i + 1, n):
            if dist2[j] <= cutoff ** 2:
                pairs.append((i, j))
    return np.asarray(pairs, dtype=int).reshape(-1, 2)


def build_pairs_reference(
    atoms: AtomsSystem, cutoff: float, skin: float = 0.0
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The original dict-of-cells builder with its per-pair Python loop.

    Produces exactly the same (pairs, vectors, distances) triple as
    :meth:`NeighborList.build`; kept so the vectorised kernel can be
    cross-checked to machine precision and benchmarked against its baseline,
    mirroring the paper's baseline-vs-optimised ladder.
    """
    reach = cutoff + skin
    box = atoms.box
    positions = atoms.positions % box
    n_cells = np.maximum((box // reach).astype(int), 1)
    cell_size = box / n_cells
    cell_index = np.floor(positions / cell_size).astype(int)
    cell_index = np.minimum(cell_index, n_cells - 1)
    flat_index = (
        cell_index[:, 0] * n_cells[1] * n_cells[2]
        + cell_index[:, 1] * n_cells[2]
        + cell_index[:, 2]
    )
    order = np.argsort(flat_index, kind="stable")
    sorted_cells = flat_index[order]
    cell_atoms: dict[int, np.ndarray] = {}
    start = 0
    while start < order.size:
        stop = start
        cell = sorted_cells[start]
        while stop < order.size and sorted_cells[stop] == cell:
            stop += 1
        cell_atoms[int(cell)] = order[start:stop]
        start = stop

    pairs = []
    vectors = []
    distances = []
    neighbor_offsets = [
        (dx, dy, dz)
        for dx in (-1, 0, 1)
        for dy in (-1, 0, 1)
        for dz in (-1, 0, 1)
    ]
    visited_cell_pairs = set()
    for cell in cell_atoms:
        cz = cell % n_cells[2]
        cy = (cell // n_cells[2]) % n_cells[1]
        cx = cell // (n_cells[1] * n_cells[2])
        atoms_a = cell_atoms[cell]
        for dx, dy, dz in neighbor_offsets:
            nx = (cx + dx) % n_cells[0]
            ny = (cy + dy) % n_cells[1]
            nz = (cz + dz) % n_cells[2]
            neighbor_cell = int(nx * n_cells[1] * n_cells[2] + ny * n_cells[2] + nz)
            if neighbor_cell not in cell_atoms:
                continue
            key = (min(cell, neighbor_cell), max(cell, neighbor_cell))
            same_cell = neighbor_cell == cell
            if not same_cell:
                if key in visited_cell_pairs:
                    continue
                visited_cell_pairs.add(key)
            atoms_b = cell_atoms[neighbor_cell]
            delta = positions[atoms_a][:, None, :] - positions[atoms_b][None, :, :]
            delta -= box * np.round(delta / box)
            dist2 = np.sum(delta ** 2, axis=2)
            within = dist2 <= reach ** 2
            ia, ib = np.nonzero(within)
            for a_local, b_local in zip(ia, ib):
                i = int(atoms_a[a_local])
                j = int(atoms_b[b_local])
                if i == j:
                    continue
                if same_cell and i > j:
                    # Same-cell pairs are seen twice (once per ordering);
                    # keep only i < j.
                    continue
                if i < j:
                    pairs.append((i, j))
                    vectors.append(delta[a_local, b_local])
                else:
                    # Distinct cell pairs are visited only once, so pairs
                    # whose lower-index atom sits in the neighbour cell
                    # must be kept too (stored in canonical i < j order).
                    pairs.append((j, i))
                    vectors.append(-delta[a_local, b_local])
                distances.append(np.sqrt(dist2[a_local, b_local]))
    if not pairs:
        return np.zeros((0, 2), dtype=int), np.zeros((0, 3)), np.zeros(0)
    pair_array = np.asarray(pairs, dtype=int)
    vector_array = np.asarray(vectors, dtype=float)
    distance_array = np.asarray(distances, dtype=float)
    # Deduplicate pairs found through more than one periodic cell route
    # (possible when the box holds fewer than 3 cells per axis).
    unique_index = np.unique(
        pair_array[:, 0] * (atoms.n_atoms + 1) + pair_array[:, 1],
        return_index=True,
    )[1]
    return pair_array[unique_index], vector_array[unique_index], distance_array[unique_index]


@dataclass
class NeighborList:
    """Half neighbour list (i < j) built with a linked-cell algorithm.

    Parameters
    ----------
    cutoff:
        Interaction cutoff in Angstrom.
    skin:
        Extra margin added to the cutoff when binning, so the list stays valid
        while atoms move less than ``skin / 2`` (the standard Verlet-skin
        trick; re-build when that is exceeded).
    """

    cutoff: float
    skin: float = 0.3

    def __post_init__(self) -> None:
        if self.cutoff <= 0:
            raise ValueError("cutoff must be positive")
        if self.skin < 0:
            raise ValueError("skin must be non-negative")
        self._pairs: np.ndarray | None = None
        self._reference_positions: np.ndarray | None = None

    # ------------------------------------------------------------------
    def build(self, atoms: AtomsSystem) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Build the list; returns (pairs, displacement_vectors, distances).

        Pairs are collected out to ``cutoff + skin`` so the list stays complete
        while atoms move by up to ``skin / 2``; callers that need a strict
        cutoff should filter on the returned distances (the bundled force
        fields are smooth/negligible in the skin region, so they simply
        evaluate every listed pair).

        The construction is fully vectorised: atoms are sorted by flat cell
        index, each atom's candidate neighbours are gathered for every cell
        offset at once with ``searchsorted`` range lookups and a batched
        ragged-arange expansion, and the within-reach filter plus i<j
        canonicalisation run as single array operations.
        """
        reach = self.cutoff + self.skin
        box = atoms.box
        positions = atoms.positions % box
        n = atoms.n_atoms
        n_cells = np.maximum((box // reach).astype(int), 1)
        cell_size = box / n_cells
        cell_index = np.floor(positions / cell_size).astype(int)
        cell_index = np.minimum(cell_index, n_cells - 1)
        strides = np.array(
            [n_cells[1] * n_cells[2], n_cells[2], 1], dtype=np.int64
        )
        flat_index = cell_index @ strides
        order = np.argsort(flat_index, kind="stable")
        sorted_cells = flat_index[order]

        # Distinct cell offsets per axis: with fewer than 3 cells along an
        # axis the +/-1 offsets alias the same neighbour cell, so the offset
        # set is trimmed instead of deduplicating pairs found through more
        # than one periodic route.
        per_axis = [
            np.array([0]) if nc == 1 else (np.array([0, 1]) if nc == 2 else np.array([-1, 0, 1]))
            for nc in n_cells
        ]
        offsets = np.stack(
            np.meshgrid(per_axis[0], per_axis[1], per_axis[2], indexing="ij"), axis=-1
        ).reshape(-1, 3)
        # Candidate cells for every atom under every offset: (N, n_offsets).
        neighbor_cells = (cell_index[:, None, :] + offsets[None, :, :]) % n_cells
        neighbor_flat = (neighbor_cells @ strides).ravel()
        # Contiguous [start, stop) span of each candidate cell in sorted order.
        starts = np.searchsorted(sorted_cells, neighbor_flat, side="left")
        stops = np.searchsorted(sorted_cells, neighbor_flat, side="right")
        counts = stops - starts
        total = int(counts.sum())
        # Expand every span with a ragged arange: slot s contributes
        # order[starts[s] : stops[s]] as candidate partners of its atom.
        first = np.repeat(np.arange(n), offsets.shape[0])
        a_idx = np.repeat(first, counts)
        span_base = np.cumsum(counts) - counts
        flat_positions = np.arange(total) - np.repeat(span_base - starts, counts)
        b_idx = order[flat_positions]
        # Each unordered pair appears once per ordering; keep the canonical
        # i < j instance (this also removes self-pairs).
        keep = a_idx < b_idx
        a_idx = a_idx[keep]
        b_idx = b_idx[keep]
        delta = positions[a_idx] - positions[b_idx]
        delta -= box * np.round(delta / box)
        dist2 = np.einsum("ij,ij->i", delta, delta)
        within = dist2 <= reach ** 2
        a_idx = a_idx[within]
        b_idx = b_idx[within]
        delta = delta[within]
        dist2 = dist2[within]
        if a_idx.size:
            pairs = np.stack([a_idx, b_idx], axis=1).astype(int)
            # Canonical key order (and a final dedup guard for degenerate
            # geometries where a candidate survives through several routes).
            unique_index = np.unique(
                pairs[:, 0] * (n + 1) + pairs[:, 1], return_index=True
            )[1]
            self._pairs = pairs[unique_index]
            vectors = delta[unique_index]
            distances = np.sqrt(dist2[unique_index])
        else:
            self._pairs = np.zeros((0, 2), dtype=int)
            vectors = np.zeros((0, 3))
            distances = np.zeros(0)
        self._reference_positions = positions.copy()
        return self._pairs, vectors, distances

    # ------------------------------------------------------------------
    def current_geometry(self, atoms: AtomsSystem) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pairs with displacement vectors / distances recomputed from ``atoms``.

        Between rebuilds the *pair list* stays valid (thanks to the skin) but
        the stored vectors/distances refer to the build-time positions; force
        evaluations must use the current geometry, which this method provides
        without re-binning.
        """
        if self._pairs is None:
            raise RuntimeError("neighbour list has not been built yet")
        positions = atoms.positions % atoms.box
        delta = positions[self._pairs[:, 0]] - positions[self._pairs[:, 1]]
        delta -= atoms.box * np.round(delta / atoms.box)
        distances = np.sqrt(np.sum(delta ** 2, axis=1))
        return self._pairs, delta, distances

    def needs_rebuild(self, atoms: AtomsSystem) -> bool:
        """True when any atom moved more than skin/2 since the last build."""
        if self._reference_positions is None:
            return True
        if self._reference_positions.shape != atoms.positions.shape:
            return True
        delta = atoms.positions % atoms.box - self._reference_positions
        delta -= atoms.box * np.round(delta / atoms.box)
        max_move = float(np.sqrt(np.max(np.sum(delta ** 2, axis=1)))) if delta.size else 0.0
        return max_move > 0.5 * self.skin

    @property
    def pairs(self) -> np.ndarray:
        if self._pairs is None:
            raise RuntimeError("neighbour list has not been built yet")
        return self._pairs

    def state_dict(self) -> dict:
        """The pair list and the positions it was built at (empty if unbuilt).

        Restoring both makes a resumed run evaluate the same pairs in the same
        order and rebuild at the same step as the uninterrupted one.
        """
        if self._pairs is None:
            return {}
        return {
            "pairs": self._pairs.copy(),
            "reference_positions": self._reference_positions.copy(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Inverse of :meth:`state_dict`; an empty state leaves the list unbuilt."""
        if not state:
            self._pairs = self._reference_positions = None
            return
        self._pairs = np.asarray(state["pairs"], dtype=int).reshape(-1, 2)
        self._reference_positions = np.asarray(
            state["reference_positions"], dtype=float
        ).reshape(-1, 3)
