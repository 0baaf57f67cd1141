"""The tolerances are fixed: every function reads ``geometry.DEFAULT_TOL``,
so no function of the numerical modules takes a ``tol`` parameter."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hrnr"


@pytest.mark.parametrize("name", ["geometry", "spectral", "core", "dilation"])
def test_no_tol_parameter(name):
    path = SRC / f"{name}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            if any(p.arg == "tol" for p in params):
                found.append(f"{getattr(node, 'name', '<lambda>')} (line {node.lineno})")
    assert not found, f"{name}.py takes a tol parameter in {found}"
