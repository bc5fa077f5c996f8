"""Finite-difference stencil operators on periodic 3-D grids.

Three implementations of the Laplacian are provided on purpose, mirroring the
paper's Table III kin_prop() optimisation ladder:

* :func:`laplacian_naive` — a straightforward Python triple loop.  This is the
  "baseline" row of the ladder.
* :func:`laplacian_reference` — the vectorised ``numpy.roll`` formulation (one
  fresh shifted copy plus one scaled temporary per stencil term).  This was
  the production kernel before the fused engine and is retained as the
  machine-precision cross-check and the "old" rung of the speedup benchmark.
* :func:`laplacian` — the fused engine: in-place ``np.add`` accumulation
  over shifted *views*, so one sweep performs a single scaled multiply per
  symmetric coefficient and two slice-adds per shift into one temporary,
  with no per-term allocations.  All variants operate on an arbitrary
  leading batch axis so a whole block of orbitals reuses the same sweep (the
  structure-of-arrays optimisation of Sec. V.B.2-3).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.grid.grid3d import Grid3D


def finite_difference_coefficients(order: int) -> np.ndarray:
    """Central finite-difference coefficients for the second derivative.

    Parameters
    ----------
    order:
        Accuracy order of the stencil; one of 2, 4, or 6.

    Returns
    -------
    ndarray
        Symmetric coefficient vector of length ``order + 1`` such that
        ``f''(x) ~ sum_k c[k] f(x + (k - order/2) h) / h**2``.
    """
    if order == 2:
        return np.array([1.0, -2.0, 1.0])
    if order == 4:
        return np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
    if order == 6:
        return np.array([2.0, -27.0, 270.0, -490.0, 270.0, -27.0, 2.0]) / 180.0
    raise ValueError(f"unsupported finite-difference order {order}; use 2, 4, or 6")


def _accumulate_shifted(out: np.ndarray, src: np.ndarray, axis: int, offset: int) -> None:
    """``out[..., i, ...] += src[..., (i + offset) % n, ...]`` along ``axis``.

    Equivalent to ``out += np.roll(src, -offset, axis)`` but accumulates the
    two wrapped segments through views instead of materialising the rolled
    copy.
    """
    n = out.shape[axis]
    offset %= n
    if offset == 0:
        out += src
        return
    head = [slice(None)] * out.ndim
    tail = [slice(None)] * out.ndim
    # out[:n-offset] += src[offset:]
    head[axis] = slice(None, n - offset)
    tail[axis] = slice(offset, None)
    out[tuple(head)] += src[tuple(tail)]
    # out[n-offset:] += src[:offset]
    head[axis] = slice(n - offset, None)
    tail[axis] = slice(None, offset)
    out[tuple(head)] += src[tuple(tail)]


def laplacian(field: np.ndarray, grid: Grid3D, order: int = 4,
              out: Optional[np.ndarray] = None) -> np.ndarray:
    """Periodic Laplacian of ``field`` (last three axes are the grid axes).

    ``field`` may have an arbitrary leading batch dimension, e.g. a stack of
    Kohn-Sham orbitals of shape ``(n_orb, nx, ny, nz)``.  When ``out`` is
    given the result is written there (it must have the field's shape and must
    not alias it).  Each symmetric coefficient pair costs one scaled multiply
    into a single temporary and four slice-adds of its wrapped halves.
    """
    field = np.asarray(field)
    if field.shape[-3:] != grid.shape:
        raise ValueError(
            f"field grid shape {field.shape[-3:]} does not match grid {grid.shape}"
        )
    if out is None:
        out = np.empty_like(field)
    elif out.shape != field.shape:
        raise ValueError("out must have the same shape as field")
    elif out is field:
        raise ValueError("out must not alias the input field")
    coeffs = finite_difference_coefficients(order)
    half = len(coeffs) // 2
    inv_h2 = [1.0 / h ** 2 for h in grid.spacing]
    np.multiply(field, float(coeffs[half]) * sum(inv_h2), out=out)
    scaled = np.empty_like(field)
    for axis in range(3):
        ax = field.ndim - 3 + axis
        for offset in range(1, half + 1):
            np.multiply(field, float(coeffs[half + offset]) * inv_h2[axis],
                        out=scaled)
            _accumulate_shifted(out, scaled, ax, offset)
            _accumulate_shifted(out, scaled, ax, -offset)
    return out


def laplacian_reference(field: np.ndarray, grid: Grid3D, order: int = 4) -> np.ndarray:
    """Pre-fusion vectorised Laplacian (one ``np.roll`` copy per term).

    Kept as the "old" rung of the stencil speedup benchmark and as the
    machine-precision reference for the fused engine.
    """
    field = np.asarray(field)
    if field.shape[-3:] != grid.shape:
        raise ValueError(
            f"field grid shape {field.shape[-3:]} does not match grid {grid.shape}"
        )
    coeffs = finite_difference_coefficients(order)
    half = len(coeffs) // 2
    hx, hy, hz = grid.spacing
    out = np.zeros_like(field)
    ax_x, ax_y, ax_z = field.ndim - 3, field.ndim - 2, field.ndim - 1
    for k, c in enumerate(coeffs):
        shift = k - half
        if c == 0.0:
            continue
        out += (c / hx ** 2) * np.roll(field, -shift, axis=ax_x)
        out += (c / hy ** 2) * np.roll(field, -shift, axis=ax_y)
        out += (c / hz ** 2) * np.roll(field, -shift, axis=ax_z)
    return out


def laplacian_naive(field: np.ndarray, grid: Grid3D) -> np.ndarray:
    """Second-order Laplacian via explicit Python loops (Table III baseline).

    Only the 2nd-order stencil is implemented because the purpose of this
    function is to serve as the unoptimised reference point in the
    optimisation-ladder benchmark; production code always uses
    :func:`laplacian`.
    """
    field = np.asarray(field)
    if field.shape != grid.shape:
        raise ValueError("laplacian_naive expects a single field with the grid shape")
    nx, ny, nz = grid.shape
    hx, hy, hz = grid.spacing
    out = np.zeros_like(field)
    inv_hx2 = 1.0 / hx ** 2
    inv_hy2 = 1.0 / hy ** 2
    inv_hz2 = 1.0 / hz ** 2
    for i in range(nx):
        ip = (i + 1) % nx
        im = (i - 1) % nx
        for j in range(ny):
            jp = (j + 1) % ny
            jm = (j - 1) % ny
            for k in range(nz):
                kp = (k + 1) % nz
                km = (k - 1) % nz
                center = field[i, j, k]
                out[i, j, k] = (
                    (field[ip, j, k] - 2.0 * center + field[im, j, k]) * inv_hx2
                    + (field[i, jp, k] - 2.0 * center + field[i, jm, k]) * inv_hy2
                    + (field[i, j, kp] - 2.0 * center + field[i, j, km]) * inv_hz2
                )
    return out

