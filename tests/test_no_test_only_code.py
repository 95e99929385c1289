"""The package holds no code that only the tests use.

Parses every module of the package and lists each module-level function
whose name is referenced nowhere else in the package, as a name or an
attribute, and each method of a module-level class referenced nowhere else
as an attribute (``.name``): a bare name of the same spelling is a local
variable, not a use of the method.  The public API, the names in
``torusquot.__all__``, and the console scripts of ``pyproject.toml`` are
used from outside, and dunder methods by the language.  Code that only the
tests need belongs in ``tests/`` as a helper or an oracle.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import torusquot

PACKAGE = Path(torusquot.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"

ALLOWED = {
    # the element API of the exported Monomial and Dense classes, next to
    # their identity() constructors
    "is_identity",
}


def script_functions(text):
    """The functions named by the [project.scripts] table, 'module:function'."""
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    return set(re.findall(r":(\w+)\"", section.group(1))) if section else set()


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions(tree):
    """(node, the references that use it): a function is used by its name
    or as an attribute (module.f), a method only as an attribute."""
    for node in tree.body:
        if isinstance(node, FUNCTIONS):
            yield node, (node.name, "." + node.name)
        elif isinstance(node, ast.ClassDef):
            yield from ((n, ("." + n.name,)) for n in node.body if isinstance(n, FUNCTIONS))


def references(tree):
    """Each name as itself, each attribute as '.attr'."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield "." + node.attr


def unreferenced(trees, exported):
    """Names defined in the trees and referenced only inside their own body."""
    uses = Counter(name for tree in trees for name in references(tree))
    found = []
    for tree in trees:
        for node, keys in definitions(tree):
            name = node.name
            if (name.startswith("__") and name.endswith("__")) or name in exported:
                continue
            own = Counter(references(node))
            if all(uses[k] == own[k] for k in keys):
                found.append(name)
    return sorted(found)


def test_no_test_only_code_in_the_package():
    assert {p.name for p in SOURCES} >= {"chartab.py", "modp.py", "cli.py"}
    exported = set(torusquot.__all__) | script_functions(PYPROJECT.read_text()) | ALLOWED
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in SOURCES]
    assert unreferenced(trees, exported) == []


def test_the_guard_sees_unreferenced_code():
    used = ast.parse("def helper():\n    return 1\n\nx = helper()\n")
    unused = ast.parse("class A:\n    def method(self):\n        return self.method()\n\n"
                       "    def __len__(self):\n        return 0\n\n"
                       "def lone(n):\n    return lone(n - 1)\n\n"
                       "def exported():\n    pass\n")
    assert unreferenced([used, unused], {"exported"}) == ["lone", "method"]
    assert script_functions('[project.scripts]\ntool = "pkg.cli:main_entry"\n\n[tool.x]\n'
                            'y = "a:b"\n') == {"main_entry"}


def test_a_local_name_is_no_use_of_a_method():
    # a method is used only as an attribute; a function also by its name
    tree = ast.parse("class A:\n    def scale(self):\n        return 1\n\n"
                     "    def used(self):\n        return 2\n\n"
                     "def form(a):\n    scale = a.used()\n    return scale\n\n"
                     "def helper():\n    return 3\n\n"
                     "def caller(m):\n    return helper() + m.helper\n")
    assert unreferenced([tree], {"caller"}) == ["form", "scale"]
