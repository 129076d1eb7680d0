"""Only poly.py knows the integer form of a Polynomial, and only diffop.py
the forms a DiffOp holds.

The integer form (its slot, the accessors and the kernels that build it or
run on it) is private to heunops.poly; every other module goes through the
public API (eval, vanishes_at, dot, arithmetic), so the form can change in
one place.  The private names are read off poly.py itself: its slot and
accessors, and every module-level function whose name starts with an
underscore, so a new kernel is covered as soon as it is written.

Likewise a DiffOp's slots (its reduced coefficients, its common-denominator
form and its derivative table) are read off diffop.py and spelled nowhere
else; other modules read an operator through coeffs, order, is_zero and
over_common_denominator.  A module may still spell a name it declares as a
slot of its own classes: Polynomial's _coeffs is not a DiffOp's.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "heunops"

POLY = ast.parse((SRC / "poly.py").read_text(encoding="utf-8"))

PRIVATE = {"_ints", "_form", "_int_form"} | {
    node.name for node in POLY.body
    if isinstance(node, ast.FunctionDef) and node.name.startswith("_")}


def _slots(tree, cls=None):
    """The names declared in __slots__ by the classes of a module, or by
    the class named cls only."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef) or cls not in (None, node.name):
            continue
        for stmt in node.body:
            if (isinstance(stmt, ast.Assign)
                    and [getattr(t, "id", None) for t in stmt.targets]
                    == ["__slots__"]):
                yield from ast.literal_eval(stmt.value)


DIFFOP_SLOTS = set(_slots(
    ast.parse((SRC / "diffop.py").read_text(encoding="utf-8")), "DiffOp"))


def _names(tree):
    """Every identifier a module spells: names, attributes, imports,
    definitions, arguments and keywords."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
            if node.asname:
                yield node.asname
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.arg):
            yield node.arg
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg


MODULES = sorted(SRC.glob("*.py"))


def test_the_package_sources_are_found():
    assert SRC / "poly.py" in MODULES and len(MODULES) > 1
    # the kernels are found by name, the slot and accessors by hand
    assert {"_from_form", "_convolve", "_gaussian_horner",
            "_rational_gcd"} <= PRIVATE
    assert DIFFOP_SLOTS == {"_coeffs", "_common", "_table"}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "poly.py"],
                         ids=lambda p: p.name)
def test_integer_form_stays_in_poly(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    assert sorted(PRIVATE.intersection(_names(tree))) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "diffop.py"],
                         ids=lambda p: p.name)
def test_operator_forms_stay_in_diffop(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    foreign = DIFFOP_SLOTS - set(_slots(tree))
    assert sorted(foreign.intersection(_names(tree))) == []
