"""bmstab: exact-arithmetic toolkit for Brunn-Minkowski stability experiments.

The package represents compact sets as finite unions of closed lattice cells
(or 1D interval unions) with rational data, so set sums, measures,
symmetrizations, transport maps and hull distances are computed exactly;
real-valued quantities (n-th roots, envelope fits) carry certified error
brackets instead of bare floats.
"""

from .vset import (
    LatticeSet, FiberProfile, measure, symmetric_difference_measure,
    fiber_profile, slice_measure, superlevel_set,
    write_vset, parse_vset,
)
from .minkowski import (
    IntervalSet, DeficitRecord, convex_combination, deficit,
    interval_sumset, kemperman_batch, kemperman_stability, write_iset,
    parse_iset,
)
from .symmetry import SymmetrizedBody, steiner, schwarz, natural, sup_slice_ratio_check
from .transport import (
    DensityProfile, TransportMap, SliceDeficitReport,
    slice_density, monotone_rearrangement, slice_deficit, transport_ratio_integral,
)
from .convexity import (
    Polytope, GridFunction, EnvelopeFit, convex_hull, hull_excess,
    concave_envelope, concavity_fit, four_point_residual, linear_fit,
)
from .stability import (
    ConstantsTable, StabilityReport, constants, hull_distance,
    cos_pipeline, check_stability,
)

__version__ = "0.1.0"
