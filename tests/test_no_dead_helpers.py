"""No dead code: every module-level private function or class of the
package source is referenced somewhere in it besides its own definition,
every name a module imports at top level is read in that module, and every
error type is raised somewhere in it.  No randomness either: no module
reads ``np.random`` or imports ``random``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hrnr"


def _referenced_names(node: ast.AST) -> list[str]:
    """Names read, attributes taken and names imported within node."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.append(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.append(sub.attr)
        elif isinstance(sub, ast.alias):
            out.append(sub.name)
    return out


def test_every_private_helper_is_referenced():
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(SRC.glob("*.py"))
    }
    helpers = [
        (name, node)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]
    assert helpers
    everywhere = [n for tree in trees.values() for n in _referenced_names(tree)]
    dead = [
        f"{module}::{node.name}"
        for module, node in helpers
        if everywhere.count(node.name) == _referenced_names(node).count(node.name)
    ]
    assert not dead, f"private definitions referenced nowhere else: {dead}"


def test_every_top_level_import_is_read():
    # __init__.py imports to re-export; __future__ imports switch features
    unread = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        read = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in read:
                        unread.append(f"{path.name}::{bound}")
    assert not unread, f"imported names never read: {unread}"


def test_every_error_type_is_raised():
    errors = ast.parse((SRC / "errors.py").read_text(encoding="utf-8"))
    classes = [
        node.name
        for node in errors.body
        if isinstance(node, ast.ClassDef) and node.name != "HrnrError"
    ]
    assert classes
    raised = set()
    for path in SRC.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised.update(_referenced_names(node.exc))
    never = [name for name in classes if name not in raised]
    assert not never, f"error types raised nowhere: {never}"


def _random_sources(tree: ast.AST) -> list[str]:
    """np.random (or numpy.random) reads and imports of random or
    numpy.random within tree."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "random":
            if isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"):
                out.append(f"line {node.lineno}: {node.value.id}.random")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in ("random", "numpy.random"):
                    out.append(f"line {node.lineno}: import {alias.name}")
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
            if node.module in ("random", "numpy.random") or (
                node.module == "numpy" and "random" in names
            ):
                out.append(f"line {node.lineno}: from {node.module} import {', '.join(names)}")
    return out


def test_no_module_draws_random_numbers():
    # every output is a deterministic function of the inputs, which the
    # bit-identical differential tests rely on
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name} {source}" for source in _random_sources(tree)]
    assert not found, f"random number sources in the package: {found}"
