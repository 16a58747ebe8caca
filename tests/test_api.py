"""The library's public functions are the ones the program uses.

A public top-level function of a library module, or a public method of one
of its public classes, must be used somewhere in `src/`, `perfbench/` or
`scripts/` outside its own definition: a function by name or as an
attribute, a method as an attribute.  Uses are read from the code, so a
name inside a string or a comment is not one.  A function that only tests
call is test code.  The exceptions are operations of the paper that the
library offers though no program calls them yet.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = ("graph", "semigroup", "lattice", "filters", "groupoid", "monoid", "cli")
PAPER_OPERATIONS = {
    "graph.SeparatedGraph.downset",
    "lattice.meet",
    "lattice.nat_leq",
    "lattice.join_free",
    "filters.separation_witness",
    "filters.extend_to_infinite",
    "monoid.mon_add",
}


def _public(name):
    return not name.startswith("_")


def _public_functions(module: str):
    """(qualified name, path, first line, last line, whether a method) of
    each public top-level function and each public method of a public
    top-level class."""
    path = ROOT / "src" / "sepgroid" / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and _public(node.name):
            yield f"{module}.{node.name}", path, node.lineno, node.end_lineno, False
        elif isinstance(node, ast.ClassDef) and _public(node.name):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and _public(item.name):
                    qual = f"{module}.{node.name}.{item.name}"
                    yield qual, path, item.lineno, item.end_lineno, True


def _uses():
    """(path, line, name, whether an attribute) of every name the program
    code loads."""
    for top in ("src", "perfbench", "scripts"):
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    yield path, node.lineno, node.id, False
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    yield path, node.lineno, node.attr, True


def _unused_functions():
    uses = list(_uses())
    unused = []
    for module in MODULES:
        for qual, own, first, last, method in _public_functions(module):
            name = qual.rsplit(".", 1)[1]
            if not any(
                used == name and (attr or not method) and not (path == own and first <= line <= last)
                for path, line, used, attr in uses
            ):
                unused.append(qual)
    return unused


def test_every_public_function_has_a_program_caller():
    assert sorted(set(_unused_functions()) - PAPER_OPERATIONS) == []


def test_the_paper_operations_are_still_offered():
    # An exception that names no public function any more is stale.
    public = {qual for m in MODULES for qual, *_ in _public_functions(m)}
    assert PAPER_OPERATIONS <= public
