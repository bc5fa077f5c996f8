"""Topological analysis of polarization textures (the 'topotronics' observable).

The science result of the paper (Fig. 3) is the light-induced switching of a
polar-skyrmion superlattice: the quantity that changes is the integer
topological charge of the polarization texture.  This subpackage provides the
lattice (Berg-Luscher) topological-charge density, the texture classifier and
the switching detector used by the photo-switching benchmark.
"""

from repro.topology.charge import (
    topological_charge,
    topological_charge_density,
)
from repro.topology.analysis import TextureAnalysis, classify_texture, switching_time

__all__ = [
    "topological_charge",
    "topological_charge_density",
    "TextureAnalysis",
    "classify_texture",
    "switching_time",
]
