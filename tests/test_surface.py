"""The library surface is what the commands and the verify pipeline use.

Every public module-level function or class of ``src/vlab``, and every
public method other than a dunder, must be referenced somewhere in
``src/vlab`` outside its own body.  A name only the tests use belongs under
``tests/`` (``reference.py`` holds the references the tests compare
against), or nowhere.  The exceptions are listed below with their reasons.

No module imports another's private name, every module imports first in a
fresh interpreter (no import cycle), and the hooks of the benchmark's tracer
(``perfbench/tracing.py``, which reads vlab's names from outside) resolve.
"""

import ast
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
                                    "vlab.bestapprox.search", "vlab.verify"])
def test_module_imports_first(module):
    # an import cycle through this module fails when it is the first imported
    _fresh_python(f"import {module}")


def test_box_scan_imports_neither_search_nor_polyalg():
    loaded = _fresh_python("import sys, vlab.boxscan\n"
                           "print(sorted(m for m in sys.modules if m.startswith("
                           "('vlab.bestapprox', 'vlab.polyalg'))))")
    assert loaded.strip() == "[]"


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
