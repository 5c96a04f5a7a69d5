"""The rules that keep the reference in ``oracle.py`` independent of the
package: it imports from lowmach only the public names it lists, with
``from lowmach import``, and names nothing private; and no test module
imports another, the reference aside.  The comparisons with the reference
live beside the code they check (``test_onedim``, ``test_twodim``,
``test_elliptic``, ``test_tridiag``)."""

import ast
import re
from pathlib import Path

HERE = Path(__file__).parent

# solve_periodic_tridiagonal is checked against the reference's dense solve.
ALLOWED = {"EquationOfState", "FluidState1D", "FluidState2D", "SchemeParams", "StepReport",
           "solve_periodic_tridiagonal"}


def rule_breaks(source):
    """What in ``source`` breaks the reference's import rule."""
    breaks, names = [], []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            breaks += [f"import {a.name}" for a in node.names if a.name.split(".")[0] == "lowmach"]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "lowmach":
            if node.module != "lowmach":
                breaks.append(f"from {node.module} import")
            breaks += [f"lowmach.{a.name}" for a in node.names if a.name not in ALLOWED]
        elif isinstance(node, ast.alias):
            names.append(node.asname or node.name)
        elif isinstance(node, ast.Name):
            names.append(node.id)
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.arg):
            names.append(node.arg)
    return breaks + [f"underscore name {name}" for name in names if name.startswith("_")]


def test_oracle_imports_only_the_public_names_it_lists():
    assert rule_breaks((HERE / "oracle.py").read_text()) == []
    for bad in ("import lowmach.elliptic", "from lowmach.core import EquationOfState",
                "from lowmach import step_ap_1d", "from lowmach import _pair",
                "rho = eos._pressure(x)", "def _f(): pass", "def f(_x): pass",
                "import numpy as _np"):
        assert rule_breaks(bad), bad


def test_no_test_module_imports_another_but_the_oracle():
    local = {path.stem for path in HERE.glob("*.py")} - {"oracle"}
    for path in HERE.glob("test_*.py"):
        modules = set(re.findall(r"^\s*(?:from|import)\s+(\w+)", path.read_text(), re.M))
        assert not modules & local, (path.name, modules & local)
