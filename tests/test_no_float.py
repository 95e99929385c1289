"""No float enters a decision: the package source uses exact arithmetic only.

Parses every module of the package and rejects a float or complex literal,
a call to ``float`` or ``complex``, an import of ``numpy`` or ``cmath``, and
any use of ``math`` other than the integer functions ``lcm``, ``gcd`` and
``isqrt``.  The tests may use floats as oracles; the package may not.
"""

import ast
from pathlib import Path

import torusquot

MATH_ALLOWED = {"lcm", "gcd", "isqrt"}
SOURCES = sorted(Path(torusquot.__file__).parent.glob("*.py"))


def float_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"literal {node.value!r}"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("float", "complex")):
            yield node.lineno, f"call to {node.func.id}()"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in ("numpy", "cmath"):
                    yield node.lineno, f"import {alias.name}"
        elif isinstance(node, ast.ImportFrom) and node.module:
            root = node.module.split(".")[0]
            if root in ("numpy", "cmath"):
                yield node.lineno, f"import from {node.module}"
            elif root == "math" and {a.name for a in node.names} - MATH_ALLOWED:
                yield node.lineno, "import from math"
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr not in MATH_ALLOWED):
            yield node.lineno, f"math.{node.attr}"


def test_no_float_in_the_package():
    assert {p.name for p in SOURCES} >= {"cyclo.py", "chartab.py", "torusq.py"}
    found = [(path.name, line, what) for path in SOURCES
             for line, what in float_uses(ast.parse(path.read_text(), filename=str(path)))]
    assert found == []


def test_the_guard_sees_each_kind_of_float():
    for snippet in ("x = 0.5", "x = 2j", "y = float(x)", "y = complex(1, 2)",
                    "import numpy as np", "import cmath", "from numpy import linalg",
                    "y = math.sqrt(2)", "from math import pi"):
        assert list(float_uses(ast.parse(snippet))), snippet
    assert not list(float_uses(ast.parse("import math\ny = math.lcm(2, 3) + math.isqrt(9)")))
