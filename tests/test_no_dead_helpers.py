"""No dead code: every module-level private function, class or assigned
name of the package source is referenced somewhere in it besides its own
definition, every name a module imports at top level is read in that
module, every error type is raised somewhere in it, and every name the
package exports and every public function of its modules is used by the
package, its CLI or the benchmark, or is one of a few user-facing queries,
and every defaulted parameter is passed by some call in the package or
the benchmark, but for a few listed ones.  No parameter carries one
value: none is named as a tolerance, and no private function takes from
every package call the same module-level name or attribute.  No randomness
either: no module reads ``np.random`` or imports ``random``.  No hidden
module state: no function changes what a module-level name holds."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hrnr"

# Exported queries of the paper's objects that no package code, CLI command
# or benchmark workload calls; each stays public for the stated reason.
USER_QUERIES = {
    "is_boundary": "whether a member lies on the boundary of the rank-k range",
    "transform_model": "the model of a T + b, whose rank-k range is a Lambda_k(T) + b",
    "excluding_certificate": "the symbolic exclusion of a point by 2x2 scalar dilations",
    "dim_ran_hchp": "dim ran E(H) of a half closed-half plane, which defines membership",
    "dim_ran_open": "dim ran E of an open half plane, which decides the boundary",
    "scalar_dilation": "the 2x2 unitary with a given top-left entry and eigenvalues",
}


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
    # (module, name, defining node): functions and classes, and the names
    # that module-level assignments bind, tuple targets included
    helpers = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            helpers += [
                (module, name, node)
                for name in names
                if name.startswith("_") and not name.startswith("__")
            ]
    assert helpers
    everywhere = [n for tree in trees.values() for n in _referenced_names(tree)]
    dead = [
        f"{module}::{name}"
        for module, name, node in helpers
        if everywhere.count(name) == _referenced_names(node).count(name)
    ]
    assert not dead, f"private definitions referenced nowhere else: {dead}"


def _definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """Top-level functions, classes and assigned names of a module."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update((t.id, node) for t in targets if isinstance(t, ast.Name))
    return out


def test_every_export_is_used():
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    exported = [
        alias.asname or alias.name
        for node in init.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert exported
    assert set(USER_QUERIES) <= set(exported), "USER_QUERIES names a name that is not exported"
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    trees = {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in paths}
    # per exported name, the nodes whose references to it are no use: its
    # own definition and the module-level assignments of its module, so a
    # name read only to build another module-level value is unused
    own = {}
    for tree in trees.values():
        assignments = [node for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))]
        for name, node in _definitions(tree).items():
            own[name] = assignments + ([] if node in assignments else [node])
    for path in sorted((ROOT / "hrnrbench").glob("*.py")):
        trees[path] = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    everywhere = [n for tree in trees.values() for n in _referenced_names(tree)]
    unused = [
        name
        for name in exported
        if name not in USER_QUERIES
        and everywhere.count(name)
        == sum(_referenced_names(node).count(name) for node in own.get(name, []))
    ]
    assert not unused, f"exported names used nowhere in the package, CLI or benchmark: {unused}"


def test_every_public_function_is_used():
    # a public function of a module that __init__.py does not export is
    # checked here only: re-exporting a function does not use it
    paths = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    trees = {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in paths}
    functions = [
        (path.name, node)
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_")
    ]
    assert functions
    for path in sorted((ROOT / "hrnrbench").glob("*.py")):
        trees[path] = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    everywhere = [n for tree in trees.values() for n in _referenced_names(tree)]
    unused = [
        f"{module}::{node.name}"
        for module, node in functions
        if node.name not in USER_QUERIES
        and everywhere.count(node.name) == _referenced_names(node).count(node.name)
    ]
    assert not unused, f"public functions used nowhere in the package, CLI or benchmark: {unused}"


# Defaulted parameters that no package or benchmark call passes; each stays
# for the stated reason.
UNPASSED_DEFAULTS = {
    "cli.py::main.argv": "the console script passes none; a caller passes its own argument list",
    "dilation.py::excluding_certificate.plane": "a documented option of a user query: the caller's witness",
}


def _defaulted(fn: ast.AST, shift: int) -> list[tuple[int | None, str]]:
    """(position in a call, name) of each parameter of fn that has a
    default; None for keyword-only ones.  A method's calls skip its first
    parameter, self or cls (``shift`` 1)."""
    a = fn.args
    pos = a.posonlyargs + a.args
    out = [(i - shift, p.arg) for i, p in enumerate(pos) if i >= len(pos) - len(a.defaults)]
    return out + [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]


def _passes(call: ast.Call, position: int | None, name: str) -> bool:
    """Whether a call passes the parameter, by keyword or by position; a
    ``*`` or ``**`` argument may pass any."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return position is not None and len(call.args) > position


def test_every_defaulted_parameter_is_passed():
    # a default that only tests override is a test-only knob of the package
    paths = sorted(SRC.glob("*.py")) + sorted((ROOT / "hrnrbench").glob("*.py"))
    trees = {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in paths}
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                callee = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(callee, []).append(node)
    defaulted, methods = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(trees[path]):
            if isinstance(node, ast.ClassDef):
                methods.update(id(sub) for sub in node.body)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                shift = int(id(node) in methods)
                defaulted += [(path.name, node.name, i, name) for i, name in _defaulted(node, shift)]
    assert defaulted
    keys = {f"{module}::{fn}.{name}" for module, fn, _, name in defaulted}
    assert set(UNPASSED_DEFAULTS) <= keys, "UNPASSED_DEFAULTS names no defaulted parameter"
    unpassed = [
        f"{module}::{fn}.{name}"
        for module, fn, position, name in defaulted
        if f"{module}::{fn}.{name}" not in UNPASSED_DEFAULTS
        and not any(_passes(call, position, name) for call in calls.get(fn, []))
    ]
    assert not unpassed, f"defaulted parameters no package or benchmark call passes: {unpassed}"


# Parameters that every package call passes the same module-level value, or
# that are named as tolerances, which stay for the stated reason.
ONE_VALUE_PARAMETERS: dict[str, str] = {}


def _is_tolerance(name: str) -> bool:
    """Whether a parameter is named as a tolerance: eps, eps_* or tol."""
    return name in ("eps", "tol") or name.startswith("eps_")


def _scoped_calls(tree: ast.Module) -> list[tuple[ast.Call, set[str]]]:
    """(call, the names bound in the functions around it) for every call."""
    out = []

    def visit(node, local):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _SCOPES):
                nodes = _scope_nodes(child)
                inner = local | {n.arg for n in nodes if isinstance(n, ast.arg)}
                inner |= {
                    n.id for n in nodes if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load)
                }
                visit(child, inner)
                continue
            if isinstance(child, ast.Call):
                out.append((child, local))
            visit(child, local)

    visit(tree, set())
    return out


def _passed(call: ast.Call, position: int | None, name: str) -> ast.AST | None:
    """The argument a call passes for the parameter, or None when it passes
    none or may pass it through a ``*`` or ``**`` argument."""
    for kw in call.keywords:
        if kw.arg == name:
            return kw.value
    if any(kw.arg is None for kw in call.keywords):
        return None
    if position is None or any(isinstance(arg, ast.Starred) for arg in call.args):
        return None
    return call.args[position] if len(call.args) > position else None


def _module_value(arg: ast.AST, module: set[str], local: set[str]) -> str | None:
    """The source of arg when it is a module-level name, or an attribute of
    one, that no enclosing function binds; None otherwise."""
    node = arg
    while isinstance(node, ast.Attribute):
        node = node.value
    if isinstance(node, ast.Name) and node.id in module and node.id not in local:
        return ast.unparse(arg)
    return None


def test_no_parameter_carries_one_value():
    # a parameter that every package call passes the same module-level name
    # or attribute (a fixed tolerance, a sample count) is an option with one
    # value, and so is any parameter named as a tolerance, since the
    # tolerances are fixed: the function reads the constant itself
    paths = sorted(SRC.glob("*.py"))
    trees = {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in paths}
    calls = {}
    for tree in trees.values():
        module = _module_names(tree)[0]
        for call, local in _scoped_calls(tree):
            f = call.func
            callee = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            calls.setdefault(callee, []).append((call, module, local))
    found, keys = [], set()
    for path, tree in trees.items():
        methods = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                methods.update(id(sub) for sub in node.body)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                shift = int(id(node) in methods)
                params = [(i - shift, p.arg) for i, p in enumerate(a.posonlyargs + a.args)]
                params += [(None, p.arg) for p in a.kwonlyargs]
                for position, name in params[shift:]:
                    key = f"{path.name}::{node.name}.{name}"
                    keys.add(key)
                    if _is_tolerance(name):
                        found.append(f"{key} (named as a tolerance)")
                        continue
                    if not node.name.startswith("_") or node.name.startswith("__"):
                        continue
                    passed = {
                        _module_value(arg, module, local) if arg is not None else None
                        for call, module, local in calls.get(node.name, [])
                        for arg in [_passed(call, position, name)]
                    }
                    if len(passed) == 1 and None not in passed:
                        found.append(f"{key} (always {passed.pop()})")
    assert set(ONE_VALUE_PARAMETERS) <= keys, "ONE_VALUE_PARAMETERS names no parameter"
    found = [f for f in found if f.split(" ")[0] not in ONE_VALUE_PARAMETERS]
    assert not found, f"parameters that carry one value: {found}"


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


# Methods that change the object they are called on.
MUTATORS = {
    "add", "append", "clear", "discard", "extend", "fill", "insert", "pop", "popitem",
    "remove", "resize", "reverse", "setdefault", "setflags", "sort", "update",
    "__delitem__", "__setitem__",
}


def _module_names(tree: ast.Module) -> tuple[set[str], set[str]]:
    """The names a module binds at top level, and of these the ones bound by
    assignment (its data, as opposed to imports, functions and classes)."""
    data = set()
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                data.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
    return bound | data, data


def _root(node: ast.AST) -> str | None:
    """The name at the root of an attribute or subscript chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _scope_nodes(fn: ast.AST) -> list[ast.AST]:
    """The nodes of a function's own scope: its parameters and body, without
    the bodies of the functions and classes nested in it."""
    out = []
    stack = [fn.args] + (fn.body if isinstance(fn.body, list) else [fn.body])
    while stack:
        node = stack.pop()
        out.append(node)
        if not isinstance(node, _SCOPES + (ast.ClassDef,)):
            stack.extend(ast.iter_child_nodes(node))
    return out


def _state_changes(fn: ast.AST, names: set[str], data: set[str], shadowed: set[str]):
    """(line, what) for each change a function, or a function nested in it,
    makes to a module-level name that its scope does not shadow."""
    nodes = _scope_nodes(fn)
    declared = {n for node in nodes if isinstance(node, ast.Global) for n in node.names}
    local = {node.arg for node in nodes if isinstance(node, ast.arg)}
    local |= {
        node.id
        for node in nodes
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load)
    }
    local = (local | shadowed) - declared
    for node in nodes:
        if isinstance(node, ast.Global):
            yield node.lineno, f"global {', '.join(node.names)}"
        elif isinstance(node, (ast.Attribute, ast.Subscript)) and not isinstance(node.ctx, ast.Load):
            root = _root(node)
            if root in names and root not in local:
                verb = "deletes from" if isinstance(node.ctx, ast.Del) else "assigns into"
                yield node.lineno, f"{verb} {root}"
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATORS
        ):
            root = _root(node.func.value)
            if root in data and root not in local:
                yield node.lineno, f"calls {root}.{node.func.attr}"
        if isinstance(node, _SCOPES) and node is not fn:
            yield from _state_changes(node, names, data, local)


def test_no_function_changes_module_state():
    # state kept at module level is shared by every caller in the process,
    # so one call (or one test) changes what the next one sees; a function
    # that remembers results does so through a standard bounded cache
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        names, data = _module_names(tree)
        stack = [tree]
        while stack:  # the outermost functions; _state_changes visits the nested ones
            node = stack.pop()
            if isinstance(node, _SCOPES):
                found += [
                    f"{path.name}:{line} {getattr(node, 'name', 'lambda')} {what}"
                    for line, what in _state_changes(node, names, data, set())
                ]
            else:
                stack.extend(ast.iter_child_nodes(node))
    assert not found, f"functions that change module-level names: {found}"


def _math_maps_into_arrays(tree: ast.AST) -> list[str]:
    """Each ``np.fromiter(map(math.f, ...))`` within tree: a Python loop of
    scalar ``math`` calls over the elements of an array."""
    out = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        if node.func.attr != "fromiter" or not node.args:
            continue
        inner = node.args[0]
        if isinstance(inner, ast.Call) and isinstance(inner.func, ast.Name) and inner.func.id == "map":
            f = inner.args[0] if inner.args else None
            if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id == "math":
                out.append(f"line {node.lineno}: math.{f.attr}")
    return out


def test_no_per_element_math_maps():
    # array arithmetic goes through numpy: a map of a scalar math function
    # over an array's elements runs one Python call per element
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name} {where}" for where in _math_maps_into_arrays(tree)]
    assert not found, f"per-element math maps in the package: {found}"
