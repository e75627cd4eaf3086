"""pycnolab: a desk-scale laboratory for layered and continuously
stratified hydrostatic shallow-water dynamics with thickness diffusivity.
"""

from .core import (
    DEFAULT_LENGTH,
    BlowUpError,
    Field1D,
    Field2D,
    LevelGrid,
    SobolevIndex,
    SpatialGrid,
    mixed_norm,
    sobolev_norm,
    spectral_derivative,
)
from .bilayer import BilayerParams, BilayerState
from .hyperbolicity import (
    HyperbolicityReport,
    StatePoint,
    Symmetrizer,
    atlas,
    characteristic_polynomial,
    classify,
    count_line_intersections,
    critical_froude,
    in_hyperbolic_set,
    symmetrizer,
)
from .stratified import (
    PycnoclineSpec,
    StratifiedProfile,
    StratifiedState,
    embed_bilayer,
    montgomery,
    smooth_pycnocline,
)
from .refined import build_forcing, consistency_residual, solve_refined
from .harness import check_all, fit_slope, sweep_epsilon, sweep_kappa

__version__ = "0.1.0"
