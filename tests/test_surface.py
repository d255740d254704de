"""The library surface is what the commands and the verify pipeline use.

Every public module-level function or class of ``src/vlab``, and every
public method other than a dunder, must be referenced somewhere in
``src/vlab`` outside its own body.  A name only the tests use belongs under
``tests/`` (``reference.py`` holds the references the tests compare
against), or nowhere.  The exceptions are listed below with their reasons.
"""

import ast
from collections import defaultdict
from pathlib import Path

import vlab

SRC = Path(vlab.__file__).resolve().parent

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
