"""What the benchmark harness in perfbench/ needs from the package.

The harness is read, never imported or run: its tracer wraps the functions
named in LAYERS, and payoff.py calls package functions with fixed keyword
forms. A change that breaks either fails here, in the quick test run, and
not only when the benchmark itself runs.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _module(name):
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def _layers():
    for node in _module("tracer.py").body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no LAYERS")


def _payoff_calls():
    """(module, function, positional count, keyword names) of every
    `<tamperscan module>.<function>(...)` call in payoff.py."""
    tree = _module("payoff.py")
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "tamperscan"
        for alias in node.names
    }
    calls = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in modules
        ):
            keywords = tuple(sorted(k.arg for k in node.keywords))
            calls.add((node.func.value.id, node.func.attr, len(node.args), keywords))
    return sorted(calls)


TRACED = [(layer, name) for layer, names in _layers().items() for name in names]


@pytest.mark.parametrize("layer, name", TRACED, ids=[f"{m}.{f}" for m, f in TRACED])
def test_traced_function_exists(layer, name):
    assert callable(getattr(importlib.import_module(f"tamperscan.{layer}"), name, None))


def test_traced_mc_extremes_takes_config_first():
    from tamperscan.anomaly import mc_extremes

    assert next(iter(inspect.signature(mc_extremes).parameters)) == "config"


def test_payoff_calls_bind():
    """Every package call in payoff.py binds to the current signature, among
    them the `threads=` forms of all three pools and `sweep(..., context=)`."""
    calls = _payoff_calls()
    called = {(m, f) for m, f, _, _ in calls}
    assert {("elastic_net", "cross_validate"), ("anomaly", "mc_extremes"), ("scenarios", "sweep")} <= called
    for module, name, n_args, keywords in calls:
        fn = getattr(importlib.import_module(f"tamperscan.{module}"), name)
        inspect.signature(fn).bind(*[None] * n_args, **dict.fromkeys(keywords))

