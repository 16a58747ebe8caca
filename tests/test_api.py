"""The library's public functions are the ones the program uses.

A public top-level function of a library module must be named, as `name(`
or `.name`, somewhere in `src/`, `perfbench/` or `scripts/` outside its own
definition; a function that only tests call is test code.  The exceptions
are operations of the paper that the library offers though no program
calls them yet.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
MODULES = ("graph", "semigroup", "lattice", "filters", "groupoid", "monoid", "cli")
PAPER_OPERATIONS = {
    "lattice.meet",
    "lattice.nat_leq",
    "lattice.join_free",
    "filters.separation_witness",
    "filters.extend_to_infinite",
}


def _program_sources():
    for top in ("src", "perfbench", "scripts"):
        for path in sorted((ROOT / top).rglob("*.py")):
            yield path, path.read_text(encoding="utf-8")


def _public_functions(module: str):
    """(name, first line, last line) of each public top-level function."""
    path = ROOT / "src" / "sepgroid" / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield path, node.name, node.lineno, node.end_lineno


def _unused_functions():
    sources = list(_program_sources())
    unused = []
    for module in MODULES:
        for own, name, first, last in _public_functions(module):
            use = re.compile(rf"(?<![\w.])(?<!def ){name}\(|\.{name}\b")
            for path, text in sources:
                if path == own:
                    lines = text.splitlines()
                    text = "\n".join(lines[: first - 1] + lines[last:])
                if use.search(text):
                    break
            else:
                unused.append(f"{module}.{name}")
    return unused


def test_every_public_function_has_a_program_caller():
    assert sorted(set(_unused_functions()) - PAPER_OPERATIONS) == []


def test_the_paper_operations_are_still_offered():
    # An exception that names no public function any more is stale.
    public = {f"{m}.{name}" for m in MODULES for _, name, _, _ in _public_functions(m)}
    assert PAPER_OPERATIONS <= public
