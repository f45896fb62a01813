"""Difference sets of grid-square tilings of the plane.

Exact machinery for the impossibility of axes-confined integer difference
sets of compact fundamental domains: tiling configurations, their integer
difference sets, discretization of box-union compacta, the torus square
complex with its edge cocycle and coloring, component topology, and a
bounded exhaustive search.

Importing the package runs no submodule. Each one is registered in
``sys.modules`` with a lazy loader and runs on its first attribute access,
so a caller pays only for the layers it uses. The names re-exported here
resolve through the module-level ``__getattr__`` (PEP 562).
"""

import importlib.util as _util
import sys as _sys

# Re-exported name -> the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(
        (
            "BoxUnion", "FileFormatError", "TileConfig", "Vec", "format_boxes",
            "format_config", "normalize", "parse_boxes", "parse_config",
        ),
        "model",
    ),
    **dict.fromkeys(
        (
            "AuditReport", "AxesCheck", "DiffSet", "LatticeSpan", "axes_subset",
            "difference_set", "geometric_oracle", "impossibility_audit", "lattice_span",
            "witness_pairs",
        ),
        "diffset",
    ),
    **dict.fromkeys(
        (
            "CellCover", "GapResult", "cover_cells", "epsilon_gap", "minkowski_diff",
            "reduce_to_transversal", "discretization_exact",
        ),
        "discretize",
    ),
    **dict.fromkeys(
        (
            "BLUE", "RED", "WHITE", "EdgeColoring", "EdgeLabeling", "OffAxesEdges",
            "SquareClasses", "VertexLabeling", "color_edges",
            "edge_labels", "format_coloring", "parse_coloring", "square_colors",
            "vertex_labels",
        ),
        "torus",
    ),
    **dict.fromkeys(
        (
            "Component", "Curve", "Step", "boundary_curves", "components",
            "components_of_classes", "homotopy_class", "interiors_decomposition", "pi1_image",
        ),
        "topology",
    ),
    **dict.fromkeys(("SearchReport", "SearchSpec", "run_search", "verify_witnesses"), "search"),
    **dict.fromkeys(("RenderSpec", "render_svg"), "render"),
}

__all__ = list(_EXPORTS)

for _name in dict.fromkeys(_EXPORTS.values()):
    _spec = _util.find_spec(f"{__name__}.{_name}")
    _spec.loader = _util.LazyLoader(_spec.loader)
    globals()[_name] = _sys.modules[_spec.name] = _util.module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_name])
del _name, _spec


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_EXPORTS[name]], name)


def __dir__():
    return sorted({*globals(), *_EXPORTS})


__version__ = "0.1.0"
