"""perfbench finds the functions it reports on by name.

``KERNEL_SELF`` and ``PHASE_INCL`` in ``perfbench/run.py`` and the
``ANNOTATORS`` keys in ``perfbench/tracing.py`` name sgconv functions as
``module.function``. A name that no longer exists is never traced, and its
metric reads 0 without an error, so each name must be a public function
defined in a traced sgconv module. The files are parsed, not imported:
importing ``run.py`` pins BLAS threads through environment variables.
"""
import ast
import importlib
import inspect
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def assigned(path, name):
    """The expression assigned to the module-level ``name`` in ``path``."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == name for target in node.targets):
            return node.value
    raise AssertionError(f"{path.name} assigns no {name}")


def bench_function_names():
    run, tracing = PERFBENCH / "run.py", PERFBENCH / "tracing.py"
    annotated = [ast.literal_eval(key) for key in assigned(tracing, "ANNOTATORS").keys]
    return sorted({*ast.literal_eval(assigned(run, "KERNEL_SELF")),
                   *ast.literal_eval(assigned(run, "PHASE_INCL")).values(), *annotated})


TRACED_MODULES = ast.literal_eval(assigned(PERFBENCH / "tracing.py", "LAYERS"))


@pytest.mark.parametrize("qualname", bench_function_names())
def test_bench_names_a_public_sgconv_function(qualname):
    module_name, attr = qualname.split(".")
    assert module_name in TRACED_MODULES
    module = importlib.import_module(f"sgconv.{module_name}")
    fn = getattr(module, attr, None)
    assert not attr.startswith("_")
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__, \
        f"sgconv.{module_name} defines no function {attr}"
