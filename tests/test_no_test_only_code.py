"""The package holds no code that only the tests use.

Parses every module of the package and lists each module-level function
whose name is referenced nowhere else in the package, as a name or an
attribute, and each method of a module-level class referenced nowhere else
as an attribute (``.name``): a bare name of the same spelling is a local
variable, not a use of the method.  An attribute ``m.f`` whose base ``m``
is a name bound by importing a package module (``from . import modp``)
is a use of that module's function ``f`` and of no method.  The public
API, the names in ``torusquot.__all__``, and the console scripts of
``pyproject.toml`` are used from outside, and dunder methods by the
language.  Code that only the tests need belongs in ``tests/`` as a
helper or an oracle.

A method name that more than one class defines counts the uses of all of
them, so the names that classes share must be the recorded set
``SHARED_NAMES``, each with a package call site for every definition.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import torusquot

PACKAGE = Path(torusquot.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
PYPROJECT = PACKAGE.parents[1] / "pyproject.toml"

# The method and property names that more than one package class defines.
# A use of ``.name`` counts for every class that defines the name, so a
# shared name could hide a method that only the tests call.  Each entry
# names a package call site of each definition.  A name leaves the set
# when all but one of its definitions go; a new one is added only with a
# call site for each of its definitions.
SHARED_NAMES = {
    # Character: CharacterTable.conjugate_index; Cyclotomic: the traces of
    # torusq.conjugate_pair_rep; Element: the matrices of conjugate_pair_rep
    "conjugate",
    # Character: chartab.CharacterTable.degrees; Element: torusq.assemble;
    # AnalyticRep: torusq.invariant_form; SymplecticForm: torusq.preserves_form
    "degree",
    # AnalyticRep: torusq._complex_halves; SymplecticForm:
    # torusq._json_value and groupfile.serialize_group
    "matrix",
    # CharacterTable: cli.cmd_chartable; QuotientReport: cli.cmd_analyze
    "to_dict",
}


def script_functions(text):
    """The functions named by the [project.scripts] table, 'module:function'."""
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S)
    return set(re.findall(r":(\w+)\"", section.group(1))) if section else set()


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions(module, tree):
    """(node, the references that use it): a function is used by its name
    or as an attribute (module.f, or .f on a base that is no module), a
    method only as an attribute on a base that is no module."""
    for node in tree.body:
        if isinstance(node, FUNCTIONS):
            yield node, (node.name, "." + node.name, f"{module}.{node.name}")
        elif isinstance(node, ast.ClassDef):
            yield from ((n, ("." + n.name,)) for n in node.body if isinstance(n, FUNCTIONS))


def module_names(tree, modules):
    """The names the tree's imports bind to package modules, mapped to the
    module: ``from . import m`` binds m, ``from . import m as x`` binds x."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level and node.module is None:
            bound.update((a.asname or a.name, a.name) for a in node.names if a.name in modules)
    return bound


def references(tree, bound):
    """Each name as itself; an attribute as 'module.attr' when its base is a
    name in ``bound``, else as '.attr'."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            base = node.value
            if isinstance(base, ast.Name) and base.id in bound:
                yield f"{bound[base.id]}.{node.attr}"
            else:
                yield "." + node.attr


def unreferenced(trees, exported):
    """Names defined in the trees, a dict from module name to tree, and
    referenced only inside their own body."""
    bound = {m: module_names(tree, trees) for m, tree in trees.items()}
    uses = Counter(name for m, tree in trees.items() for name in references(tree, bound[m]))
    found = []
    for m, tree in trees.items():
        for node, keys in definitions(m, tree):
            name = node.name
            if (name.startswith("__") and name.endswith("__")) or name in exported:
                continue
            own = Counter(references(node, bound[m]))
            if all(uses[k] == own[k] for k in keys):
                found.append(name)
    return sorted(found)


def shared_names(trees):
    """The non-dunder method and property names that more than one class of
    the trees, a dict from module name to tree, defines."""
    owners = {}
    for m, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                for n in node.body:
                    if isinstance(n, FUNCTIONS) and not n.name.startswith("__"):
                        owners.setdefault(n.name, set()).add(f"{m}.{node.name}")
    return {name for name, classes in owners.items() if len(classes) > 1}


def test_no_test_only_code_in_the_package():
    assert {p.name for p in SOURCES} >= {"chartab.py", "modp.py", "cli.py"}
    exported = set(torusquot.__all__) | script_functions(PYPROJECT.read_text())
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    assert unreferenced(trees, exported) == []


def test_shared_method_names_are_the_recorded_ones():
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    assert shared_names(trees) == SHARED_NAMES


def test_the_guard_sees_shared_names():
    # a name two classes define, in one module or in two; a dunder and a
    # module-level function are no method of a class
    one = ast.parse("class A:\n    def elements(self):\n        return 1\n\n"
                    "    def __len__(self):\n        return 0\n\n"
                    "class B:\n    @property\n    def elements(self):\n        return 2\n\n"
                    "    def __len__(self):\n        return 0\n\n"
                    "def own(self):\n    return 3\n")
    other = ast.parse("class C:\n    def own(self):\n        return 4\n\n"
                      "    def degree(self):\n        return 5\n")
    third = ast.parse("class D:\n    @property\n    def degree(self):\n        return 6\n")
    assert shared_names({"one": one, "other": other}) == {"elements"}
    assert shared_names({"one": one, "other": other, "third": third}) == {"elements", "degree"}


def test_the_guard_sees_unreferenced_code():
    used = ast.parse("def helper():\n    return 1\n\nx = helper()\n")
    unused = ast.parse("class A:\n    def method(self):\n        return self.method()\n\n"
                       "    def __len__(self):\n        return 0\n\n"
                       "def lone(n):\n    return lone(n - 1)\n\n"
                       "def exported():\n    pass\n")
    assert unreferenced({"used": used, "unused": unused}, {"exported"}) == ["lone", "method"]
    assert script_functions('[project.scripts]\ntool = "pkg.cli:main_entry"\n\n[tool.x]\n'
                            'y = "a:b"\n') == {"main_entry"}


def test_a_local_name_is_no_use_of_a_method():
    # a method is used only as an attribute; a function also by its name
    tree = ast.parse("class A:\n    def scale(self):\n        return 1\n\n"
                     "    def used(self):\n        return 2\n\n"
                     "def form(a):\n    scale = a.used()\n    return scale\n\n"
                     "def helper():\n    return 3\n\n"
                     "def caller(m):\n    return helper() + m.helper\n")
    assert unreferenced({"a": tree}, {"caller"}) == ["form", "scale"]


def test_a_module_attribute_is_no_use_of_a_method():
    # cyclo.rref uses the function rref of cyclo, not a method of that
    # name, nor a function of that name in another module
    cyclo = ast.parse("def rref(m):\n    return m\n")
    groups = ast.parse("from . import cyclo as cy\n\n"
                       "class Dense:\n    def rref(self):\n        return cy.rref(self)\n\n"
                       "def rref(m):\n    return m\n")
    assert unreferenced({"cyclo": cyclo, "groups": groups}, set()) == ["rref", "rref"]
    assert module_names(groups, {"cyclo": cyclo}) == {"cy": "cyclo"}
