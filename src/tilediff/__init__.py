"""Difference sets of grid-square tilings of the plane.

Exact machinery for the impossibility of axes-confined integer difference
sets of compact fundamental domains: tiling configurations, their integer
difference sets, discretization of box-union compacta, the torus square
complex with its edge cocycle and coloring, component topology, and a
bounded exhaustive search.
"""

from .model import (
    BoxUnion,
    FileFormatError,
    TileConfig,
    Vec,
    format_boxes,
    format_config,
    normalize,
    parse_boxes,
    parse_config,
    validate,
)
from .diffset import (
    AxesCheck,
    DiffSet,
    LatticeSpan,
    axes_subset,
    difference_set,
    geometric_oracle,
    lattice_span,
    witness_pairs,
)
from .discretize import (
    CellCover,
    GapResult,
    cover_cells,
    epsilon_gap,
    minkowski_diff,
    reduce_to_transversal,
    discretization_exact,
)
from .torus import (
    BLUE,
    RED,
    WHITE,
    EdgeColoring,
    EdgeLabeling,
    OffAxesEdges,
    SquareClasses,
    SquareViolation,
    VertexLabeling,
    color_edges,
    edge_labels,
    format_coloring,
    parse_coloring,
    square_colors,
    vertex_labels,
)
from .topology import (
    AuditReport,
    Component,
    Curve,
    Pi1Image,
    Step,
    boundary_curves,
    column_loop,
    components,
    components_of_classes,
    curve_gain,
    homotopy_class,
    interiors_decomposition,
    pi1_image,
    pinch_graph_is_forest,
    row_loop,
    impossibility_audit,
)
from .search import (
    SearchReport,
    SearchSpec,
    run_search,
    verify_witnesses,
)
from .render import RenderSpec, render_svg

__version__ = "0.1.0"
