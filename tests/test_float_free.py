"""The production modules do exact integer arithmetic only.

Every module of the package is parsed and searched for true division,
float literals, the name float, and imports of fractions or numpy.  The
source the ring writes for its kernels is parsed too, and may hold only
straight-line integer arithmetic.
"""

import ast
import pathlib

import pytest

from ringrsa import ring
from ringrsa.fields import parse_field_spec

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


# The kernels are the one piece of source the package writes itself, and a
# phi coefficient is the only text in it that comes from outside.
KERNEL_NODES = (
    ast.Module, ast.FunctionDef, ast.arguments, ast.arg, ast.Assign, ast.Tuple,
    ast.Name, ast.Load, ast.Store, ast.BinOp, ast.Add, ast.Mult, ast.Mod, ast.USub,
    ast.Return,
)


def _reduced_coordinates(tree):
    """The `<expr> % m` nodes that are whole coordinates of a returned tuple."""
    return {
        id(elt)
        for node in ast.walk(tree)
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Tuple)
        for elt in node.value.elts
        if isinstance(elt, ast.BinOp) and isinstance(elt.op, ast.Mod)
        and isinstance(elt.right, ast.Name) and elt.right.id == "m"
    }


def foreign_kernel_nodes(source):
    """Nodes outside defs, assignments, tuples, names, int constants, + and *,
    return, and % m as the outermost operation of a returned coordinate."""
    found = []
    tree = ast.parse(source)
    reduced = _reduced_coordinates(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.UnaryOp):
            # a negative coefficient: -<int>, and nothing else under a sign
            if not (isinstance(node.op, ast.USub) and isinstance(node.operand, ast.Constant)):
                found.append(ast.dump(node))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod):
            if id(node) not in reduced:
                found.append(ast.dump(node))
        elif isinstance(node, ast.Constant):
            if type(node.value) is not int:
                found.append(ast.dump(node))
        elif isinstance(node, ast.FunctionDef):
            if node.name not in ("sqr", "mul") or node.decorator_list:
                found.append(node.name)
        elif not isinstance(node, KERNEL_NODES):
            found.append(ast.dump(node))
    return found


@pytest.mark.parametrize(
    "spec",
    ["quadratic:d=-5", "cyclotomic:m=5", "cyclotomic:m=16",
     "generic:phi=-3," + "9" * 100 + ",0,-7"],  # a field spec's longest coefficient
    ids=["quadratic", "cyclotomic5", "cyclotomic16", "generic"],
)
def test_kernel_source_is_straight_line_arithmetic(spec):
    phi = parse_field_spec(spec).ring.phi_coeffs
    source = ring._kernel_source(phi)
    assert foreign_kernel_nodes(source) == []
    assert float_uses(source) == []
    tree = ast.parse(source)
    assert [n.name for n in tree.body] == ["sqr", "mul"]
    # one % m per returned coordinate, n of them in each kernel
    assert len(_reduced_coordinates(tree)) == 2 * len(phi)


@pytest.mark.parametrize(
    "source",
    ["def sqr(a):\n    return a - 1", "def sqr(a):\n    return a.b",
     "def sqr(a):\n    return f(a)", "def sqr(a):\n    return -a",
     "def sqr(a):\n    return '1'", "import os", "def g(a):\n    return a",
     "def sqr(a, m):\n    return (a0 % 3,)", "def sqr(a, m):\n    return (a0 % b0,)",
     "def sqr(a, m):\n    return (a0 % m + a1 % m,)",
     "def sqr(a, m):\n    return ((a0 % m) * a1 % m,)",
     "def sqr(a, m):\n    h = a0 % m\n    return (h % m,)"],
)
def test_kernel_detector_flags(source):
    assert foreign_kernel_nodes(source)
