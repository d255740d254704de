"""The library surface is what the commands and the verify pipeline use.

Every public module-level function or class of ``src/vlab``, and every
public method other than a dunder, must be referenced somewhere in
``src/vlab`` outside its own body.  A name only the tests use belongs under
``tests/`` (``reference.py`` holds the references the tests compare
against), or nowhere.  The exceptions are listed below with their reasons.

No module imports another's private name, every module imports first in a
fresh interpreter (no import cycle), and the hooks of the benchmark's tracer
(``perfbench/tracing.py``, which reads vlab's names from outside) resolve.
``import vlab.cli`` loads no module a command calls: each command imports
its own modules when it runs, and one whose dependency is missing ends in
exit 1, not in a traceback.
"""

import ast
import json
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

import vlab
import vlab.boxscan as boxscan

SRC = Path(vlab.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

#: names kept without a caller in src/vlab, each with the reason
ALLOWED = {
    "vlab.bounds.theta_tilde": "the acceptance suite checks the linear-in-w form",
    "vlab.bounds.h_tilde": "the acceptance suite checks its closed form",
    "vlab.bounds.w_root_of_theta_tilde": "the acceptance suite checks it equals h_tilde",
    "vlab.enclosure.RealEnclosure.contains": "the tests' containment check of a ball",
    "vlab.errors.NoRootInRange": "raised by the w_bound_from_tau reference in tests/reference.py",
}


def _definitions(tree: ast.Module, module: str):
    """(qualified name, bare name, first line, last line) of each public
    module-level function or class and each public non-dunder method."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield (f"{module}.{node.name}.{item.name}", item.name,
                           item.lineno, item.end_lineno)


def _unreferenced():
    defined = []  # (qualified name, bare name, path, first line, last line)
    used = defaultdict(list)  # name -> (path, line) of its Name and Attribute nodes
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
        defined += [(q, name, path, a, b) for q, name, a, b in _definitions(tree, module)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used[node.id].append((path, node.lineno))
            elif isinstance(node, ast.Attribute):
                used[node.attr].append((path, node.lineno))
    return sorted(q for q, name, path, a, b in defined
                  if all(p == path and a <= line <= b for p, line in used[name]))


def test_every_public_name_has_a_caller_in_src():
    assert [q for q in _unreferenced() if q not in ALLOWED] == []


def test_allowlist_is_not_stale():
    # an allowed name that gained a caller, or no longer exists, leaves the list
    assert sorted(ALLOWED) == [q for q in _unreferenced() if q in ALLOWED]


def test_no_private_name_is_imported_across_modules():
    # a name with a leading underscore belongs to its module; a dunder such
    # as __version__ is public
    private = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                private += [f"{path.relative_to(SRC)}:{node.lineno} {alias.name}"
                            for alias in node.names
                            if alias.name.startswith("_") and not alias.name.endswith("__")]
    assert private == []


def _fresh_python(code: str) -> str:
    """Run ``code`` in a new interpreter that imports vlab from this tree;
    its standard output."""
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, check=True, timeout=60).stdout


@pytest.mark.parametrize("module", ["vlab.polyalg", "vlab.paramgeom", "vlab.boxscan",
                                    "vlab.bestapprox.search", "vlab.verify", "vlab.cli",
                                    "vlab.bounds"])
def test_module_imports_first(module):
    # an import cycle through this module fails when it is the first imported
    _fresh_python(f"import {module}")


def test_box_scan_imports_neither_search_nor_polyalg():
    loaded = _fresh_python("import sys, vlab.boxscan\n"
                           "print(sorted(m for m in sys.modules if m.startswith("
                           "('vlab.bestapprox', 'vlab.polyalg'))))")
    assert loaded.strip() == "[]"


# -- the command line imports a command's modules when the command runs ------------------

#: a child's code that runs ``vlab.cli.run(argv)`` with its output kept, then
#: prints the exit code, the output, and the loaded modules of interest
_RUN_CLI = """
import contextlib, io, json, sys
{setup}
import vlab.cli
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    try:
        rc = vlab.cli.run({argv!r})
    except SystemExit as exc:
        rc = exc.code
print(json.dumps({{"rc": rc, "out": out.getvalue(), "err": err.getvalue(),
                  "modules": sorted(m for m in sys.modules
                                    if m.partition(".")[0] in ("vlab", "numpy"))}}))
"""


def _run_fresh(argv, setup=""):
    """``vlab.cli.run(argv)`` in a new interpreter that first runs ``setup``:
    its exit code, stdout, stderr and loaded ``vlab.*`` and ``numpy.*``."""
    return json.loads(_fresh_python(_RUN_CLI.format(setup=setup, argv=list(argv))))


def test_cli_import_loads_only_errors():
    loaded = _fresh_python("import sys, vlab.cli\n"
                           "print(sorted(m for m in sys.modules"
                           " if m.partition('.')[0] in ('vlab', 'numpy')))")
    assert loaded.strip() == "['vlab', 'vlab.cli', 'vlab.errors']"


@pytest.mark.parametrize("argv, rc", [(["bounds", "--format", "csv"], 0),
                                      (["bounds", "--help"], 0), (["--help"], 0),
                                      (["--version"], 0), (["oracle", "--bogus"], 2),
                                      (["bounds", "--n-min", "5", "--n-max", "3"], 2)])
def test_bounds_help_and_usage_errors_load_no_numpy(argv, rc):
    result = _run_fresh(argv)
    assert result["rc"] == rc and result["out"] + result["err"]
    assert not [m for m in result["modules"] if m.partition(".")[0] == "numpy"]


@pytest.mark.parametrize("argv", [["oracle", "--xi", "const:e", "--n", "2", "--height", "20"],
                                  ["sequence", "--xi", "const:e", "--n", "2",
                                   "--max-height", "20"]])
def test_search_commands_load_no_minima_verify_or_bounds(argv):
    result = _run_fresh(argv)
    assert result["rc"] == 0 and result["out"]
    assert {"vlab.paramgeom", "vlab.verify", "vlab.bounds"}.isdisjoint(result["modules"])


def test_lazy_names_are_the_defining_modules_objects():
    # checked in a fresh interpreter, where each access binds the name
    wrong = _fresh_python(
        "import importlib, vlab.cli as cli\n"
        "print([name for name, module in sorted(cli._LAZY.items())\n"
        "       if getattr(cli, name) is not getattr(importlib.import_module(module, 'vlab'),"
        " name)])")
    assert wrong.strip() == "[]"


def test_unknown_cli_attribute_is_an_attribute_error():
    found = _fresh_python("import vlab.cli as cli\n"
                          "print(hasattr(cli, 'no_such_name'), hasattr(cli, '_no_such_name'))\n"
                          "try:\n"
                          "    cli.no_such_name\n"
                          "except AttributeError as exc:\n"
                          "    print(exc)")
    assert found.splitlines() == ["False False",
                                  "module 'vlab.cli' has no attribute 'no_such_name'"]


def test_every_name_a_command_calls_is_bound_for_it():
    # a lazy name a handler reads that its _CALLS entry lacks would be a
    # NameError whenever no earlier command had bound it
    from vlab import cli

    for command, handler in cli._COMMANDS.items():
        names = set(handler.__code__.co_names)
        if "_load_sequence" in names:
            names |= set(cli._load_sequence.__code__.co_names)
        assert names & set(cli._LAZY) == set(cli._CALLS[command]), command


@pytest.mark.parametrize("earlier_run", [False, True])
def test_a_name_set_before_the_run_is_the_one_called(earlier_run):
    # as the benchmark's tracer and the tests replace a name on vlab.cli: a
    # replacement made before the command binds its names, or after an
    # earlier run bound them, is kept
    setup = "import vlab.cli\n"
    if earlier_run:
        setup += ("with contextlib.redirect_stdout(io.StringIO()):\n"
                  "    vlab.cli.run(['bounds', '--n-max', '2', '--format', 'csv'])\n")
    setup += "vlab.cli.format_table_csv = lambda rows: f'{len(rows)} rows\\n'\n"
    result = _run_fresh(["bounds", "--n-max", "4", "--format", "csv"], setup)
    assert (result["rc"], result["out"]) == (0, "3 rows\n")


_NO_NUMPY = "sys.modules['numpy'] = None"


def test_bounds_runs_without_numpy():
    results = [_run_fresh(["bounds", "--format", "csv"], setup) for setup in ("", _NO_NUMPY)]
    assert [(r["rc"], r["out"], r["err"]) for r in results] == [(0, results[0]["out"], "")] * 2


@pytest.mark.parametrize("argv", [
    ["oracle", "--xi", "const:e", "--n", "2", "--height", "250", "--format", "json"],
    ["oracle", "--xi", "const:e", "--n", "2", "--height", "250"],
    ["sequence", "--xi", "const:e", "--n", "2"],
    ["graph", "--seq", "missing.json"],
    ["verify", "--seq", "missing.json", "--format", "json"],
])
def test_missing_numpy_is_an_exit_1_error(argv):
    result = _run_fresh(argv, _NO_NUMPY)
    assert (result["rc"], result["out"]) == (1, "")
    assert "Traceback" not in result["err"] and "numpy" in result["err"]
    if "json" in argv:
        assert json.loads(result["err"])["error"] == "ModuleNotFoundError"
    else:
        assert result["err"].startswith("error: ")


def test_a_vlab_module_that_fails_to_import_is_raised():
    # only a dependency outside vlab is reported as an error line; a module
    # of vlab's own that cannot be imported is a fault and surfaces
    found = _fresh_python("import sys\n"
                          "sys.modules['vlab.paramgeom'] = None\n"
                          "import vlab.cli\n"
                          "try:\n"
                          "    vlab.cli.run(['graph', '--seq', 'missing.json'])\n"
                          "except ModuleNotFoundError as exc:\n"
                          "    print(exc.name)")
    assert found.strip() == "vlab.paramgeom"


def test_benchmark_tracer_hooks_resolve(monkeypatch):
    # the tracer skips a hook whose target is gone and drops its metrics:
    # exactly these four are absent, each for a reason of its own
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
    finally:
        tracer.unhook()
    assert sorted(path for path, _ in tracer.absent) == [
        "vlab.bestapprox.search._exact_box_candidates",
        "vlab.bounds.isolate_all_real_roots",
        "vlab.bounds.isolate_roots",
        "vlab.paramgeom.bareiss_rank",
    ]
    # the tracer's kernel microbenchmarks import the fixed-point view from
    # the record search under its old name
    from vlab.bestapprox.search import _FixedPointXi

    assert _FixedPointXi is boxscan.FixedPointXi
