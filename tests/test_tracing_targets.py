"""The benchmark tracer's targets still name package functions.

``perfbench/tracing.py`` wraps package functions by name; a target that a
refactor renamed or removed is skipped at run time and only zeroes its layer
metrics. This test reads the tracer's source (compiling it in memory, so no
bytecode is written next to it) and resolves every target.
"""
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    namespace = {"__name__": "perfbench_tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    return [(module, attr) for module, attr, _ in namespace["TARGETS"]]


@pytest.mark.parametrize("module, attr", _targets())
def test_traced_target_is_a_package_function(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))
