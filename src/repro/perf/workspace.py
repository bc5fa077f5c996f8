"""Reusable kernel workspaces: cached kinetic operators, per-axis spectral
matrices and ground states.

The paper's kin_prop optimisation ladder (Table III) boils down to one
observation: the hot kernels spend a large share of their time re-computing
step-invariant data.  This module centralises that state:

* **Kinetic operator cache** — ``exp(-i dt (k + A/c)^2 / 2)`` depends only on
  the grid, the time step and the (uniform) vector potential, and because
  ``(k + A/c)^2`` is a sum of per-axis terms it factors into three small
  dense matrices ``U_x (x) U_y (x) U_z`` (one ``n_i x n_i`` unitary per
  axis).  Inside one DC domain ``(dt, A)`` is fixed for a whole step (paper
  Eq. 3), so each factor is built once and replayed from an LRU cache keyed
  per axis; the per-axis DFT matrices it is built from are cached per
  ``(n_i, L_i)``, so even a miss is a few microseconds.
* **Spectral matrices** — per ``(n_i, L_i)`` the DFT matrix, its inverse and
  the spectral momentum and kinetic matrices (:class:`DFTBasis`), which the
  current and the kinetic energy apply as matrix products and from which the
  Poisson solve builds its real Hartley matrices.
* **Ground states** — converged Kohn-Sham SCF solutions, keyed on everything
  the solve reads (grid, external potential, electron/orbital counts, SCF
  settings).  The paper's DC-MESH solves the ground state once and hands
  every domain a copy; this cache extends that across runs, so a pulse or
  seed sweep over one material pays for one SCF per workspace.  Entries are
  opaque to the workspace: :func:`repro.api.adapters._ground_state` decides
  what they hold and hands out copies.

A process-wide default workspace is provided by :func:`get_workspace`; kernels
accept an explicit workspace for callers that want isolated caches.

Thread-safety contract
----------------------
The workspace is safe to share between threads (the inline daemons of one
process share one worker workspace, and concurrent ``BatchRunner`` callers
the process-wide :func:`get_workspace`): the operator, spectral-matrix and
ground-state caches have a **lock-free read path** — lookups touch the
underlying dict with single (GIL-atomic) operations and never block; only
insertions take the cache lock.  Cached arrays are immutable (read-only
flags), so a value observed by any thread is always fully built.  The
workspace hands out no writable buffers: kernels allocate their own
temporaries.

Hit/miss counters are maintained without locks and may undercount slightly
under heavy contention; they are diagnostics, not ground truth.
"""

from __future__ import annotations

import threading
import time as _time
from collections import OrderedDict
from typing import Callable, Hashable, NamedTuple, Optional, Tuple

import numpy as np

# The metrics module only (not the telemetry package) to keep this low-level
# import light; recording is zero-cost until telemetry is enabled.
from repro.telemetry import metrics as _telemetry
from repro.units import SPEED_OF_LIGHT_AU

#: LRU capacity of the ground-state cache.  A registry-size entry (orbitals,
#: density, three potentials) is well under 128 kB, so a full cache stays
#: under 1 MB.
GROUND_STATE_ENTRIES = 8


class LRUCache:
    """A small least-recently-used mapping with hit/miss accounting.

    Reads are lock-free: ``get`` touches the backing ``OrderedDict`` only
    through single bytecode-atomic operations, so concurrent readers never
    block each other.  Mutations (``put``/``clear``) serialise on an internal
    lock.  Recency bookkeeping and the hit/miss counters are best-effort under
    concurrency (a racing eviction can make ``move_to_end`` miss), which only
    perturbs eviction order — never the returned values.
    """

    def __init__(self, maxsize: int) -> None:
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._data: OrderedDict[Hashable, object] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Hashable):
        """Return the cached value or ``None``, updating recency and stats."""
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return None
        try:
            self._data.move_to_end(key)
        except KeyError:
            # Lost a race with an eviction; the value we read is still valid.
            pass
        self.hits += 1
        return value

    def put(self, key: Hashable, value) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.maxsize:
                self._data.popitem(last=False)


class DFTBasis(NamedTuple):
    """The spectral matrices of one periodic grid axis (all read-only).

    ``k`` holds the axis' angular wave vectors, ``dft`` and ``inverse`` the
    DFT matrix ``F`` and its inverse, and ``momentum`` and ``kinetic`` the
    spectral ``p = -i d/dx`` and ``p^2 / 2`` (``F^-1 diag(k) F`` and
    ``F^-1 diag(k^2/2) F``).  Applied along their axis by matrix products
    they replace the FFTs of the step: no kernel of a QD step transforms.
    """

    k: np.ndarray
    dft: np.ndarray
    inverse: np.ndarray
    momentum: np.ndarray
    kinetic: np.ndarray


class KernelWorkspace:
    """Shared cache state for the simulation hot kernels.

    Parameters
    ----------
    max_phase_entries:
        LRU capacity of the kinetic-operator cache (one ``U_i`` entry per
        distinct axis key ``(n_i, L_i, dt, A_i)``).
    """

    def __init__(self, max_phase_entries: int = 32) -> None:
        self._phases = LRUCache(max_phase_entries)
        self._dft: dict = {}
        self._dft_lock = threading.Lock()
        self._ground_states = LRUCache(GROUND_STATE_ENTRIES)

    # ------------------------------------------------------------------
    # Per-axis spectral matrices and the kinetic operator cache
    # ------------------------------------------------------------------
    def dft_basis(self, n: int, length: float) -> DFTBasis:
        """The :class:`DFTBasis` of one grid axis (``n`` points over
        ``length``), built once and shared by every caller."""
        key = (int(n), float(length))
        basis = self._dft.get(key)
        if basis is None:
            n = key[0]
            k = 2.0 * np.pi * np.fft.fftfreq(n, d=key[1] / n)
            # F[j, m] = exp(-2 pi i jm / n); jm is reduced mod n first, so
            # every angle lies in [0, 2 pi) and is rounded once.
            index = np.arange(n)
            dft = np.exp(-2j * np.pi * (np.outer(index, index) % n) / n)
            inverse = dft.conj().T / n
            momentum = (inverse * k) @ dft
            kinetic = (inverse * (0.5 * k ** 2)) @ dft
            for array in (k, dft, inverse, momentum, kinetic):
                array.setflags(write=False)
            with self._dft_lock:
                basis = self._dft.setdefault(
                    key, DFTBasis(k, dft, inverse, momentum, kinetic))
        return basis

    def _build_axis_operator(self, n: int, length: float, dt: float,
                             a_i: float) -> np.ndarray:
        k, dft, inverse = self.dft_basis(n, length)[:3]
        phase = np.exp(-0.5j * dt * (k + a_i / SPEED_OF_LIGHT_AU) ** 2)
        operator = (inverse * phase) @ dft
        operator.setflags(write=False)
        return operator

    def _axis_operator(self, n: int, length: float, dt: float,
                       a_i: float) -> np.ndarray:
        key = (n, length, dt, a_i)
        operator = self._phases.get(key)
        if operator is None:
            if _telemetry.enabled():
                t0 = _time.perf_counter()
                operator = self._build_axis_operator(n, length, dt, a_i)
                _telemetry.observe(
                    "repro_workspace_phase_build_seconds",
                    _time.perf_counter() - t0,
                    "one axis' kinetic operator built on a cache miss",
                )
                _telemetry.incr("repro_workspace_phase_misses_total", 1,
                                "kinetic operator cache misses (per axis)")
            else:
                operator = self._build_axis_operator(n, length, dt, a_i)
            self._phases.put(key, operator)
        else:
            _telemetry.incr("repro_workspace_phase_hits_total", 1,
                            "kinetic operator cache hits (per axis)")
        return operator

    def kinetic_operators(self, grid, dt: float,
                          vector_potential: Optional[np.ndarray] = None,
                          ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Cached per-axis factors ``(U_x, U_y, U_z)`` of ``exp(-i dt T(A))``.

        ``(k + A/c)^2`` is a sum of per-axis terms, so for a uniform vector
        potential the kinetic propagator is ``U_x (x) U_y (x) U_z`` with
        ``U_i = F_i^-1 diag(exp(-i dt (k_i + A_i/c)^2 / 2)) F_i`` an
        ``n_i x n_i`` unitary matrix.  Each factor is cached on its own axis
        key ``(n_i, L_i, dt, A_i)``: a z-polarised A that moves rebuilds
        ``U_z`` alone, and the axes of a cubic grid share one matrix.  The
        returned matrices are read-only: they are shared between every
        caller (and every thread) that hits the same key.  A miss costs one
        length-``n_i`` exponential and one small matrix product.
        """
        if vector_potential is None:
            a = (0.0, 0.0, 0.0)
        else:
            a = np.asarray(vector_potential, dtype=float).reshape(3).tolist()
        dt = float(dt)
        return tuple(
            self._axis_operator(n, float(length), dt, float(a_i))
            for n, length, a_i in zip(grid.shape, grid.lengths, a)
        )

    # ------------------------------------------------------------------
    # Ground states
    # ------------------------------------------------------------------
    def ground_state(self, key: Hashable, solve: Callable[[], object]):
        """``(entry, hit)``: the ground state cached under ``key``, or the one
        ``solve()`` returns (stored for the next caller).

        The entry is shared with every later hit, so ``solve`` must return
        something immutable (read-only arrays).  Two threads missing on the
        same key both solve and both store an identical entry.
        """
        entry = self._ground_states.get(key)
        if entry is not None:
            _telemetry.incr("repro_workspace_ground_state_hits_total", 1,
                            "ground-state cache hits (an SCF skipped)")
            return entry, True
        _telemetry.incr("repro_workspace_ground_state_misses_total", 1,
                        "ground-state cache misses (an SCF solved)")
        entry = solve()
        self._ground_states.put(key, entry)
        return entry, False

    @property
    def stats(self) -> dict:
        """Cache statistics (sizes and hit/miss counters)."""
        return {
            "phase_entries": len(self._phases),
            "phase_hits": self._phases.hits,
            "phase_misses": self._phases.misses,
            "ground_state_entries": len(self._ground_states),
            "ground_state_hits": self._ground_states.hits,
            "ground_state_misses": self._ground_states.misses,
        }


_DEFAULT_WORKSPACE = KernelWorkspace()


def get_workspace() -> KernelWorkspace:
    """The process-wide default workspace used when kernels get none."""
    return _DEFAULT_WORKSPACE
