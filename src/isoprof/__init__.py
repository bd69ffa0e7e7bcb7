"""Exact isoperimetric profiles of marked groups and their finite measured models."""

__version__ = "0.1.0"

from .action_profile import (
    ActionProfileResult,
    BoundaryMassReport,
    BoundedPartition,
    DisintegrationReport,
    IteratedBoundaryReport,
    TilingProfileResult,
    boundary_mass,
    connected_refinement,
    disintegration_identity,
    iterated_boundary,
    profile_action_exact,
    profile_action_tiling,
)
from .bounds import (
    BoundCheck,
    ContainmentReport,
    check_generating_set_comparison,
    check_lower_bound,
    check_tiling_upper_bound,
    generating_set_containment,
    positivity_check,
)
from .errors import (
    BudgetError,
    ConfigError,
    CoverageError,
    EmptySetError,
    IsoprofError,
    MixedGroupError,
    NormalizationError,
    NotApplicableError,
    ParameterError,
    RadiusExceededError,
    StationarityError,
    UnsupportedError,
    WindowExceededError,
    WindowTooSmallError,
)
from .exact import SqrtSum, format_fraction, parse_fraction
from .graphings import (
    HolderBound,
    MeasuredGraphing,
    RNProfile,
    StationaryReport,
    build_heisenberg_quotient,
    build_torus_action,
    build_weighted_cycle,
    holder_pushforward_bound,
    stationary_rn_bounds,
)
from .groups import (
    FreeGroup,
    GroupSubset,
    HeisenbergGroup,
    MarkedGroup,
    ZdGroup,
    group_from_json,
    group_to_json,
)
from .isoperimetry import (
    ProfilePoint,
    ProfileResult,
    boundary_ratio,
    heisenberg_cuboid,
    inner_boundary,
    outer_boundary,
    profile_all_subsets,
    profile_exact,
    profile_upper,
    right_translate,
    zd_cube,
)
from .rokhlin import (
    TowerFamily,
    TowerVerification,
    build_towers,
    tower_family_from_json,
    tower_family_to_json,
    verify_tower_family,
)
from .tilings import (
    ExplicitCenters,
    InvarianceReport,
    LatticeCenters,
    MultiTile,
    TileVerification,
    cube_tile,
    folner_multitile_sequence,
    invariance,
    multitile_from_json,
    multitile_to_json,
    verify_multitile_window,
)
