"""pycnolab: a desk-scale laboratory for layered and continuously
stratified hydrostatic shallow-water dynamics with thickness diffusivity.

The top level re-exports the few names a first session needs; everything
else is imported from its module (`pycnolab.bilayer`, `pycnolab.harness`,
...).
"""

from .core import LevelGrid, SpatialGrid
from .bilayer import BilayerParams
from .hyperbolicity import StatePoint, classify
from .stratified import embed_bilayer
