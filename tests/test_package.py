"""The package surface: re-exported names, and which submodules a
command-line call runs."""

import json
import os
import subprocess
import sys

import pytest

import tilediff
from tilediff import TileConfig, format_config
from conftest import PACKAGE_ROOT

# Every name the package re-exported when it imported all its submodules
# eagerly, with the submodule that defines it.
EXPORTS = {
    "model": (
        "BoxUnion", "FileFormatError", "TileConfig", "Vec", "format_boxes",
        "format_config", "normalize", "parse_boxes", "parse_config", "validate",
    ),
    "diffset": (
        "AuditReport", "AxesCheck", "DiffSet", "LatticeSpan", "axes_subset",
        "difference_set", "geometric_oracle", "impossibility_audit", "lattice_span",
        "witness_pairs",
    ),
    "discretize": (
        "CellCover", "GapResult", "cover_cells", "epsilon_gap", "minkowski_diff",
        "reduce_to_transversal", "discretization_exact",
    ),
    "torus": (
        "BLUE", "RED", "WHITE", "EdgeColoring", "EdgeLabeling", "OffAxesEdges",
        "SquareClasses", "SquareViolation", "VertexLabeling", "color_edges",
        "edge_labels", "format_coloring", "parse_coloring", "square_colors",
        "vertex_labels",
    ),
    "topology": (
        "Component", "Curve", "Pi1Image", "Step", "boundary_curves", "column_loop",
        "components", "components_of_classes", "curve_gain", "homotopy_class",
        "interiors_decomposition", "pi1_image", "pinch_graph_is_forest", "row_loop",
    ),
    "search": ("SearchReport", "SearchSpec", "run_search", "verify_witnesses"),
    "render": ("RenderSpec", "render_svg"),
}


@pytest.mark.parametrize("module", EXPORTS)
def test_every_export_is_its_defining_modules_object(module):
    for name in EXPORTS[module]:
        assert getattr(tilediff, name) is getattr(getattr(tilediff, module), name), name
        assert name in dir(tilediff)


def test_version_stays_and_unknown_names_raise():
    assert tilediff.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no_such_name"):
        tilediff.no_such_name


def test_star_import_gives_every_export():
    namespace = {}
    exec("from tilediff import *", namespace)
    for module, names in EXPORTS.items():
        for name in names:
            assert namespace[name] is getattr(getattr(tilediff, module), name), name


# Records the tilediff files whose module body runs while importing the
# CLI and calling main(ARGV); prints their stems as a JSON list.
MODULE_BODIES = """
import contextlib, io, json, os, sys
ran = set()
def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_name == "<module>":
        ran.add(code.co_filename)
sys.setprofile(profile)
from tilediff.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(sys.argv[1:])
sys.setprofile(None)
import tilediff
package = os.path.dirname(os.path.abspath(tilediff.__file__))
print(json.dumps(sorted(
    os.path.splitext(os.path.basename(f))[0]
    for f in ran if os.path.dirname(os.path.abspath(f)) == package
)))
"""


def _module_bodies(argv, cwd) -> set:
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_ROOT)}
    result = subprocess.run(
        [sys.executable, "-c", MODULE_BODIES, *argv],
        capture_output=True, text=True, cwd=cwd, env=env, check=True,
    )
    return set(json.loads(result.stdout))


def test_search_runs_only_the_modules_it_uses(tmp_path):
    ran = _module_bodies(["search", "--n", "2", "--bound", "1", "--json"], tmp_path)
    assert ran == {"__init__", "cli", "model", "diffset", "search"}


def test_check_runs_only_the_modules_it_uses(tmp_path):
    (tmp_path / "zero2.txt").write_text(format_config(TileConfig.uniform(2)))
    ran = _module_bodies(["check", "zero2.txt", "--json"], tmp_path)
    assert ran == {"__init__", "cli", "model", "diffset"}


def test_analyze_on_a_config_runs_only_the_modules_it_uses(tmp_path):
    (tmp_path / "zero2.txt").write_text(format_config(TileConfig.uniform(2)))
    ran = _module_bodies(["analyze", "zero2.txt", "--json"], tmp_path)
    assert ran == {"__init__", "cli", "model", "diffset"}


def test_topology_still_binds_the_audit():
    # The benchmark's tracer (bench/tracing.py) looks the audit up as
    # tilediff.topology.impossibility_audit and wraps every binding of it.
    assert tilediff.topology.impossibility_audit is tilediff.diffset.impossibility_audit
