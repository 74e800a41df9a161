"""Every public top-level function or class in src/ldpmin has a caller.

A name counts as called when src/ names it outside its own definition, or
when bench/ or tests/test_acceptance.py names it: as an
identifier, an attribute, an import, or a string constant that is a dotted
name (as a bench hook resolves ``"protocol.rr_respond_many"``).  Unit tests
do not count: a name only its own tests call gets a caller or goes.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> why it stays without a caller
ALLOWED = {}


def names_in(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield from node.name.split(".")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            parts = node.value.split(".")
            if all(part.isidentifier() for part in parts):
                yield from parts


def test_every_public_name_has_a_caller():
    defined, called = set(), set()
    for path in sorted((ROOT / "src" / "ldpmin").glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = getattr(stmt, "name", None)  # set on def, async def and class only
            if own is not None and not own.startswith("_"):
                defined.add(own)
            called.update(set(names_in(stmt)) - {own})
    outside = [*(ROOT / "bench").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]
    for path in outside:
        called.update(names_in(ast.parse(path.read_text(encoding="utf-8"))))
    assert sorted(defined - called) == sorted(ALLOWED)
