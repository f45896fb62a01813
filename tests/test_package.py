"""The package surface: re-exported names, and which submodules a
command-line call runs."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import tilediff
from tilediff import TileConfig, format_config
from conftest import PACKAGE_ROOT

# Every name the package re-exports, with the submodule that defines it.
EXPORTS = {
    "model": (
        "BoxUnion", "FileFormatError", "TileConfig", "Vec", "format_config",
        "normalize", "parse_boxes", "parse_config",
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
        "BLUE", "RED", "WHITE", "EdgeColoring", "EdgeLabeling",
        "SquareClasses", "VertexLabeling", "color_edges",
        "edge_labels", "parse_coloring", "square_colors",
        "vertex_labels",
    ),
    "topology": (
        "Component", "Curve", "Step", "boundary_curves", "components",
        "components_of_classes", "homotopy_class", "interiors_decomposition", "pi1_image",
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


def _load_bench(name: str, monkeypatch):
    """Load bench/NAME.py by path as the module NAME, the name its siblings
    import it by; its dataclasses look it up in sys.modules too."""
    path = Path(__file__).resolve().parents[1] / "bench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_every_function_the_benchmark_traces_exists(monkeypatch):
    # bench/tracing.py looks each traced function up by module and name, so a
    # deleted or renamed one would stop every traced benchmark run.
    tracing = _load_bench("tracing", monkeypatch)
    assert tracing.TRACED
    for module, name, _, _ in tracing.TRACED:
        module_object = importlib.import_module(f"tilediff.{module}")
        assert callable(getattr(module_object, name, None)), f"{module}.{name}"


def test_the_benchmark_checkers_accept_real_outputs(monkeypatch, tmp_path, capsys):
    # bench/checks.py reads geometric_oracle(...).vectors, TileConfig.from_map,
    # run_search, SearchSpec and verify_witnesses; a change to any of them
    # would fail every job of its workload.
    workloads = _load_bench("workloads", monkeypatch)
    checks = _load_bench("checks", monkeypatch)
    from tilediff.cli import main

    def outcome(job):
        code = main(list(job.argv))
        return SimpleNamespace(code=code, stdout=capsys.readouterr().out)

    monkeypatch.chdir(tmp_path)
    check = workloads.build("check", 1)
    # One job below the oracle's limit at each end, and one above it.
    jobs = [next(job for job in check.jobs if job.meta["n"] == n) for n in (4, 8, 10)]
    assert jobs[1].meta["n"] <= checks.ORACLE_MAX_N < jobs[2].meta["n"]
    for job in jobs:
        (tmp_path / job.argv[1]).write_text(check.files[job.argv[1]])
        assert checks.check_check(job, outcome(job)) is None, job.name
    checker = checks.SearchChecker()
    jobs = [job for job in workloads.build("search", 1).jobs
            if job.name.startswith("witnesses-") or job.name == "plain-2-1"]
    assert len(jobs) == 4
    for job in jobs:
        assert checker(job, outcome(job)) is None, job.name


# Records the tilediff files whose module body runs while importing the
# CLI and calling main(ARGV), which may exit; prints them as a JSON list of
# dotted names under the package: "cli", "commands.search", and "commands"
# for the subpackage's __init__. The package's own __init__ is "__init__".
MODULE_BODIES = """
import contextlib, io, json, os, sys
ran = set()
def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_name == "<module>":
        ran.add(code.co_filename)
sys.setprofile(profile)
from tilediff.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
    main(sys.argv[1:])
sys.setprofile(None)
import tilediff
package = os.path.dirname(os.path.abspath(tilediff.__file__))
names = []
for f in ran:
    relative = os.path.relpath(os.path.abspath(f), package)
    if relative.startswith(os.pardir) or not relative.endswith(".py"):
        continue
    parts = relative[:-3].split(os.sep)
    if parts[-1] == "__init__" and len(parts) > 1:
        parts.pop()
    names.append(".".join(parts))
print(json.dumps(sorted(names)))
"""


def _run_json(script: str, argv, cwd):
    """Run `script` with ARGV in a fresh interpreter; parse what it prints."""
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_ROOT)}
    result = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True, text=True, cwd=cwd, env=env, check=True,
    )
    return json.loads(result.stdout)


def _module_bodies(argv, cwd) -> set:
    return set(_run_json(MODULE_BODIES, argv, cwd))


def test_search_runs_only_the_modules_it_uses(tmp_path):
    # The default pruned search at A = I never reaches a leaf, so it builds
    # no TileConfig and no difference set, and it never loads the plain
    # engine. The plain engine builds both at its first leaf, and the pruned
    # one hands n = 1 to it; --witnesses builds a TileConfig for each record.
    # Only the search handler runs.
    argv = ["search", "--n", "2", "--bound", "1", "--json"]
    used = {"__init__", "cli", "commands", "commands.search", "lift", "search"}
    assert _module_bodies(argv, tmp_path) == used
    assert _module_bodies([*argv, "--engine", "plain"], tmp_path) == used | {
        "plain", "model", "diffset",
    }
    assert _module_bodies([*argv, "--witnesses"], tmp_path) == used | {"model"}
    one = ["search", "--n", "1", "--bound", "1", "--json"]
    assert _module_bodies(one, tmp_path) == used | {"plain", "model", "diffset"}


def test_check_runs_only_the_modules_it_uses(tmp_path):
    (tmp_path / "zero2.txt").write_text(format_config(TileConfig.uniform(2)))
    ran = _module_bodies(["check", "zero2.txt", "--json"], tmp_path)
    assert ran == {"__init__", "cli", "commands", "commands.check", "model", "diffset", "lift"}


def test_analyze_on_a_config_runs_only_the_modules_it_uses(tmp_path):
    (tmp_path / "zero2.txt").write_text(format_config(TileConfig.uniform(2)))
    ran = _module_bodies(["analyze", "zero2.txt", "--json"], tmp_path)
    assert ran == {"__init__", "cli", "commands", "commands.analyze", "model", "diffset", "lift"}


def test_help_runs_no_handler(tmp_path):
    # The full parser prints the help from COMMANDS alone.
    assert _module_bodies(["search", "--help"], tmp_path) == {"__init__", "cli"}


# Prints, as a JSON list, the modules that importing the CLI and calling
# main(ARGV) add to sys.modules; whatever site imports at start-up is
# already there before, so it is not counted.
MODULES_ADDED = """
import contextlib, io, json, sys
before = set(sys.modules)
from tilediff.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(sys.argv[1:])
print(json.dumps(sorted(set(sys.modules) - before)))
"""


@pytest.mark.parametrize("argv", [
    ["search", "--n", "2", "--bound", "1", "--json"],
    ["check", "zero2.txt", "--json"],
    ["analyze", "zero2.txt", "--json"],
    ["discretize", "unit.boxes", "--json"],
])
def test_search_check_and_analyze_never_import_dataclasses(argv, tmp_path):
    # Building a dataclass execs generated source; the records on these
    # paths are named tuples and plain classes. Only code that builds a
    # Fraction imports `fractions` (and with it `decimal` and `numbers`):
    # of these calls, discretize alone. A well-formed call is read without
    # argparse (and its `gettext`).
    (tmp_path / "zero2.txt").write_text(format_config(TileConfig.uniform(2)))
    (tmp_path / "unit.boxes").write_text("box 0 0 1 1\n")
    added = _run_json(MODULES_ADDED, argv, tmp_path)
    assert "tilediff.cli" in added
    assert ("fractions" in added) is (argv[0] == "discretize")
    for module in ("dataclasses", "argparse", "gettext"):
        assert module not in added, module


def test_topology_still_binds_the_audit():
    # The benchmark's tracer (bench/tracing.py) looks the audit up as
    # tilediff.topology.impossibility_audit and wraps every binding of it.
    assert tilediff.topology.impossibility_audit is tilediff.diffset.impossibility_audit


# Prints, as a JSON pair, whether `json` was loaded before the CLI was
# imported, and whether it was after main(ARGV) returned; `json` itself is
# imported only once both have been read.
JSON_LOADED = """
import contextlib, io, sys
before = "json" in sys.modules
from tilediff.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(sys.argv[1:])
after = "json" in sys.modules
import json
print(json.dumps([before, after]))
"""


@pytest.mark.parametrize("argv, loads", [
    (["search", "--n", "2", "--bound", "1"], False),
    (["check", "zero2.txt"], False),
    (["search", "--n", "2", "--bound", "1", "--json"], True),
])
def test_only_a_json_document_imports_json(argv, loads, tmp_path):
    # The encoder is built by the first document written, so a text-mode
    # call saves the import of `json` and its submodules.
    (tmp_path / "zero2.txt").write_text(format_config(TileConfig.uniform(2)))
    assert _run_json(JSON_LOADED, argv, tmp_path) == [False, loads]
