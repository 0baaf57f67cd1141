"""The tolerances are fixed: every function reads ``geometry.DEFAULT_TOL``,
so no function of the numerical modules takes a ``tol`` parameter, and
``DEFAULT_TOL`` is a read-only table of three values."""

import ast
import dataclasses
from pathlib import Path

import pytest

import hrnr

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


def test_default_tolerances_are_a_fixed_table():
    table = {"eps_geom": 1e-9, "eps_eig": 1e-8, "eps_unitary": 1e-10}
    tol = hrnr.DEFAULT_TOL
    assert dataclasses.asdict(tol) == table
    for field in table:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(tol, field, 1.0)
    assert dataclasses.asdict(tol) == table
    # no tolerance type to build a second table from
    assert type(tol) not in [getattr(hrnr, name) for name in dir(hrnr)]
