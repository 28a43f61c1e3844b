"""The production modules do exact integer arithmetic only.

Every module of the package is parsed and searched for true division,
float literals, the name float, and imports of fractions or numpy.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "ringrsa"
PRODUCTION = sorted(SRC.glob("*.py"))
FORBIDDEN_MODULES = {"fractions", "numpy"}


def float_uses(source):
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "true division"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"literal {node.value!r}"))
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append((node.lineno, "name float"))
        elif isinstance(node, ast.Import):
            found += [
                (node.lineno, f"import {a.name}")
                for a in node.names
                if a.name.split(".")[0] in FORBIDDEN_MODULES
            ]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] in FORBIDDEN_MODULES:
                found.append((node.lineno, f"from {node.module} import"))
    return found


def test_production_modules_found():
    assert {"ring.py", "lattice.py", "scheme.py", "cli.py"} <= {p.name for p in PRODUCTION}


@pytest.mark.parametrize("path", PRODUCTION, ids=[p.name for p in PRODUCTION])
def test_no_float_arithmetic(path):
    assert float_uses(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source",
    ["x = a / b", "x /= 2", "x = 0.5", "x = float(y)", "import numpy as np",
     "from fractions import Fraction", "import numpy.linalg"],
)
def test_detector_flags(source):
    assert float_uses(source)
