"""Every attribute the traced benchmark wraps must exist in ldpmin.

``bench/`` patches ldpmin's functions by name (``tracer.wrap(owner, "attr",
...)``), so a rename inside the package breaks ``bench/run.py --trace 1``
without failing any package test.  This reads the wrap calls out of the
bench sources and resolves each one against the package.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
# exercises the tracer on a stand-in module, not on ldpmin
NOT_LDPMIN = {"test_bench.py"}


def dotted(node) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return f"{dotted(node.value)}.{node.attr}"
    raise ValueError(f"unsupported wrap owner {ast.dump(node)}")


def wrap_hooks():
    hooks = []
    for path in sorted(BENCH.glob("*.py")):
        if path.name in NOT_LDPMIN:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "wrap" and dotted(node.func.value) == "tracer"):
                owner, attr = node.args[:2]
                hooks.append((path.name, dotted(owner), attr.value))
    return hooks


HOOKS = wrap_hooks()


def test_hooks_found():
    # the sweeps, the loopback generator and the aggregator all trace
    assert {"server.py", "worker.py"} <= {name for name, _, _ in HOOKS}
    assert len(HOOKS) >= 10


@pytest.mark.parametrize("where,owner,attr", HOOKS,
                         ids=[f"{o}.{a}" for _, o, a in HOOKS])
def test_hook_resolves(where, owner, attr):
    module, *path = owner.split(".")
    target = importlib.import_module(f"ldpmin.{module}")
    for name in path:
        target = getattr(target, name)
    assert callable(getattr(target, attr, None)), f"{where}: {owner}.{attr} is gone"
