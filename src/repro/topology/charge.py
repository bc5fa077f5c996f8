"""Lattice topological charge (skyrmion number) of 2-D vector textures.

The skyrmion number of a two-dimensional texture n(x, y) (unit vectors) is

    Q = (1/4 pi) \\int n . (dn/dx x dn/dy) dx dy

On a lattice the numerically robust evaluation is the Berg-Luscher
construction: the plane is triangulated, and each triangle (n1, n2, n3)
contributes the signed solid angle of the spherical triangle spanned by the
three unit vectors.  The total is an integer for any texture that never
passes exactly through zero — topological protection in discrete form, which
the property-based tests exercise.
"""

from __future__ import annotations

import numpy as np

from repro.topology.polarization import normalize_texture
from repro.utils.mathutils import periodic_shift


def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.cross`` of 3-vectors on the last axis, written out.

    The same products and differences ``np.cross`` performs, in the same
    order, without its axis bookkeeping.
    """
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    out = np.empty_like(a)
    out[..., 0] = a1 * b2 - a2 * b1
    out[..., 1] = a2 * b0 - a0 * b2
    out[..., 2] = a0 * b1 - a1 * b0
    return out


def _solid_angle(n1: np.ndarray, n2: np.ndarray, n3: np.ndarray) -> np.ndarray:
    """Signed solid angle of spherical triangles (vectorised, Berg-Luscher).

    Uses the Oosterom-Strackee formula:
    tan(Omega/2) = n1.(n2 x n3) / (1 + n1.n2 + n2.n3 + n3.n1).
    """
    numerator = np.einsum("...i,...i->...", n1, _cross(n2, n3))
    denominator = (
        1.0
        + np.einsum("...i,...i->...", n1, n2)
        + np.einsum("...i,...i->...", n2, n3)
        + np.einsum("...i,...i->...", n3, n1)
    )
    return 2.0 * np.arctan2(numerator, denominator)


def topological_charge_density(texture: np.ndarray) -> np.ndarray:
    """Per-plaquette topological charge of 2-D textures of shape (..., nx, ny, 3).

    Each plaquette (i, j) is split into two triangles; the charge density is
    the sum of their solid angles divided by 4 pi.  Periodic boundaries are
    assumed (the texture wraps), matching the periodic superlattices studied
    in the paper.  Leading axes index a stack of textures; every operation
    acts per plaquette, so each texture's density is bit-identical to
    computing it alone.
    """
    texture = np.asarray(texture, dtype=float)
    if texture.ndim < 3 or texture.shape[-1] != 3:
        raise ValueError("texture must have shape (..., nx, ny, 3)")
    n = normalize_texture(texture)
    right = periodic_shift(n.shape[-3], -1)
    up = periodic_shift(n.shape[-2], -1)
    n_right = n.take(right, axis=-3)
    n_up = n.take(up, axis=-2)
    n_diag = n_right.take(up, axis=-2)
    omega1 = _solid_angle(n, n_right, n_diag)
    omega2 = _solid_angle(n, n_diag, n_up)
    return (omega1 + omega2) / (4.0 * np.pi)


def topological_charge(texture: np.ndarray):
    """Total topological charge Q of a periodic 2-D texture.

    A single ``(nx, ny, 3)`` texture gives a float; a stack
    ``(..., nx, ny, 3)`` gives one charge per texture, each summed over its
    own plaquettes exactly as a lone texture is.
    """
    density = topological_charge_density(texture)
    plaquettes = density.shape[-2] * density.shape[-1]
    charges = density.reshape(-1, plaquettes).sum(axis=1)
    if density.ndim == 2:
        return float(charges[0])
    return charges.reshape(density.shape[:-2])

