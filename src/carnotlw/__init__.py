"""Desk-scale verification of projection inequalities on corank-one groups.

The package provides exact group algebra for the two-step groups built from
weighted pairs plus commuting directions, grid-density entropy calculus with
the group's shear pushforwards, Gaussian-saturated multilinear constants,
a planar transform-norm estimate feeding the configuration constant, exact
rational bookkeeping for product combinations, and the chained entropy steps
with their functional consequences (gradient, level-set, isoperimetric).
"""

from .brascamp_lieb import (
    BLDatum,
    BLEstimate,
    GaussianInput,
    bl_constant,
    check_dimension_sampled,
    check_geometric,
    check_scaling,
    corank_linearized_datum,
    datum_from_json,
    datum_to_json,
    gaussian_quotient,
    lw_datum,
    pair_deletion_datum,
)
from .density import (
    BlockDensity,
    GridDensity,
    NumericalError,
    ProductDensity,
    box_indicator,
    chain_rule_residual,
    conditional_entropy_profile,
    coordinate_pushforward,
    corank_pushforward,
    density_from_function,
    dilate_density,
    entropy,
    gaussian_density,
    gaussian_product,
    gibbs_gap,
    interpolate,
    load_density,
    lp_norm,
    marginal,
    normalize,
    random_bumps,
    random_set,
    save_density,
    total_mass,
    triangle_density,
)
from .group import (
    CorankGroup,
    dilate,
    group_from_json,
    group_to_dict,
    project_points,
)
from .harness import (
    Report,
    ScaledData,
    corank_constants,
    duality_bridge_residual,
    euclidean_set_lw,
    isoperimetric_check,
    level_set_check,
    multilinear_lhs,
    product_combine,
    product_combine_line,
    proof_chain_checks,
    pullback_product,
    quad_axis_resolution,
    resolve_rnorm,
    sobolev_check,
    subadditivity_check,
    verify_lw,
    verify_nonlinear_lw,
    verify_set_lw,
)
from .radon import (
    RNORM_SAFETY,
    RadonNormBound,
    SinogramGrid,
    default_family,
    default_radon_norm,
    estimate_radon_norm_lb,
    radon_ratio,
    radon_transform,
    sinogram_norm,
)

__version__ = "0.1.0"
