"""Every public top-level function or class in src/ldpmin has a caller, and
only ``params`` reads a schedule token.

A name counts as called when src/ names it outside its own definition, or
when bench/ or tests/test_acceptance.py names it: as an
identifier, an attribute, an import, or a string constant that is a dotted
name (as a bench hook resolves ``"protocol.rr_respond_many"``).  Unit tests
do not count: a name only its own tests call gets a caller or goes.
"""

import ast
from pathlib import Path

import pytest

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


# str methods that take a token apart or test its text
STR_READS = {"partition", "rpartition", "split", "rsplit", "startswith", "endswith",
             "removeprefix", "removesuffix", "find", "index"}


def is_schedule_token(node):
    return (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and (node.value in ("lower_alpha", "unknown_alpha")
                 or node.value.startswith("known_alpha")))


def token_reads(tree):
    """Line numbers where a schedule token is compared against, taken apart or
    looked up: a token as an operand of a comparison or of a str method, a
    dict key or a match case."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr in STR_READS):
            operands = [node.func.value, *node.args]
        elif isinstance(node, ast.Dict):
            operands = [key for key in node.keys if key is not None]
        elif isinstance(node, ast.MatchValue):
            operands = [node.value]
        else:
            continue
        if any(is_schedule_token(sub) for operand in operands for sub in ast.walk(operand)):
            yield node.lineno


def test_only_params_reads_a_schedule_token():
    reads = {path.stem: list(token_reads(ast.parse(path.read_text(encoding="utf-8"))))
             for path in sorted((ROOT / "src" / "ldpmin").glob("*.py"))}
    assert reads.pop("params")  # the check sees params' own reads
    assert {name: lines for name, lines in reads.items() if lines} == {}


@pytest.mark.parametrize("source, found", [
    ('mode == "unknown_alpha"', True),
    ('"lower_alpha" != mode', True),
    ('mode in ("lower_alpha", "unknown_alpha")', True),
    ('mode.partition(":")[0] == "known_alpha"', True),
    ('mode.startswith("known_alpha:")', True),
    ('"known_alpha:2".partition(":")', True),
    ('{"unknown_alpha": 6.0}[mode]', True),
    ('choose_params("lower_alpha", n, epsilon)', False),
    ('param_mode: str = "lower_alpha"', False),
    ('mode == "gauss"', False),
])
def test_token_reads_are_found(source, found):
    assert any(token_reads(ast.parse(source))) == found
