"""The benchmark's traced cell measures layers by span name: a function or
method of eovsim that the tracer wraps. A renamed or deleted target would
read as zero, not fail, so every name the benchmark measures must resolve
to a public callable of the package. A tally is called with the positional
arguments of each call it counts, so a target whose signature changed would
crash the traced cell; each tally must take the same positional parameters
as its target."""

import ast
import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

from eovsim import engine

CELL_PY = Path(__file__).resolve().parents[1] / "bench" / "cell.py"


def load_cell():
    spec = importlib.util.spec_from_file_location("bench_cell", CELL_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def measured_span_names():
    cell = load_cell()
    names = [name for names in cell.SELF_TIME.values() for name in names]
    names += list(cell.CALLS.values())
    names += [name for name, _count in cell._tallies(engine).values()]
    return sorted(set(names))


def resolve(span):
    """The callable a span name wraps, asserting that the tracer wraps it."""
    # The tracer wraps the public functions and classes a module defines,
    # and the public members a class body defines itself: an inherited
    # method is not wrapped under the subclass's name.
    module_name, *attrs = span.split(".")
    module = importlib.import_module(f"eovsim.{module_name}")
    assert not any(attr.startswith("_") for attr in attrs), span
    target = vars(module).get(attrs[0])
    assert getattr(target, "__module__", None) == module.__name__, \
        f"{span}: eovsim.{module_name} defines no {attrs[0]}"
    if len(attrs) == 2:
        target = vars(target).get(attrs[1])
        if isinstance(target, property):
            target = target.fget
    assert callable(target), f"{span}: no such function or method"
    return target


def positional_shape(fn):
    """Whether each positional parameter is required, in order; names may
    differ between a tally and its target."""
    params = inspect.signature(fn).parameters.values()
    return [p.default is p.empty for p in params
            if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]


@pytest.mark.parametrize("span", measured_span_names())
def test_measured_span_names_a_public_callable(span):
    resolve(span)


@pytest.mark.parametrize("metric", sorted(load_cell()._tallies(engine)))
def test_tally_takes_the_positional_parameters_of_its_target(metric):
    span, count = load_cell()._tallies(engine)[metric]
    assert positional_shape(count) == positional_shape(resolve(span)), \
        f"{metric}: tally and {span} take different positional parameters"


def bench_hotspot_config() -> dict:
    """The small contended HOTSPOT config of bench/test_bench_checks.py."""
    tree = ast.parse((CELL_PY.parent / "test_bench_checks.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["HOTSPOT"])


def test_traced_cell_passes_its_checks_and_counts_every_layer(tmp_path):
    # Runs bench/cell.py end to end, as the benchmark does: the checks find
    # no error, and no call count or tally reads zero.
    config = tmp_path / "hotspot.json"
    config.write_text(json.dumps(bench_hotspot_config()))
    proc = subprocess.run(
        [sys.executable, str(CELL_PY), "--config", str(config), "--seed", "3",
         "--out", str(tmp_path / "out"), "--trace", "--check"],
        capture_output=True, text=True, check=True, timeout=300)
    cell = json.loads(proc.stdout.splitlines()[-1])
    assert cell["errors"] == []
    bench = load_cell()
    counted = [*bench.CALLS, *bench._tallies(engine)]
    assert [m for m in counted if not cell["layers"][m] > 0] == []
