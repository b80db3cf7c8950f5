"""tricut: balanced bipartitions of 3-colored geometric data, computed exactly."""

from .core import (
    ArcSet,
    CirclePoint,
    Color,
    ColoredLine,
    ColoredPoint,
    GeneralPosition,
    Rat,
    Segment,
    arcset,
    arcset_color_counts,
    check_general_position,
    circle_point,
    dual_line_to_point,
    dual_point_to_line,
    empty_arcset,
    full_circle,
    intersect,
    line,
    line_slope_intercept,
    orient,
    pt,
    winding_number,
)
from .cells import (
    Arrangement,
    ColoredTriangulation,
    Face,
    ParityClass,
    build_arrangement,
    cycle_parity,
    extract_111_segment,
    find_complete_face,
    gen_shielded_counterexample,
    good_type_counts,
    is_complete,
    parity_audit,
    require_simple,
    validate_simple,
)
from .wedges import (
    DoubleWedge,
    brute_oracle_segments,
    brute_oracle_wedges,
    find_111_wedge,
    halving_segment,
    sweep_balanced_wedge,
    wedge_color_counts,
    wedge_contains,
    wedge_dual_segment,
    wedge_point_indices,
)
from .arcs import (
    HalveResult,
    OpPlan,
    bfs_shortest,
    find_k_arcset,
    moment_halve,
    plan_ops,
)
from .llines import (
    LLine,
    LatticePointSet,
    RayDir,
    brute_oracle_llines,
    find_balanced_lline,
    lline,
    lline_counts,
    ortho_hull,
    sided_ordering,
)
from .oracles import (
    VerificationReport,
    arcset_points_key,
    count_segment_crossings,
    enumerate_2arc_sets,
    scan_all_complete_faces,
)
from .generators import GenKind, GenSpec, generate
from . import errors, serialization, svg

__version__ = "0.1.0"
