"""Source rules the import-time checks cannot see: one concurrency shape per
kind and the lazy ``scipy`` import, read from the package's syntax trees.

* ``os.fork`` is called only in ``grid._forked``, the one process shape.
* ``ThreadPoolExecutor`` appears only in ``grid._concurrently``, the one thread shape,
  and ``_concurrently`` is called only from ``dfeval.run_battery``, the one
  caller whose thread a benchmark measured to pay.
* No module imports ``threading`` or ``multiprocessing``.
* ``scipy`` is imported only inside ``gof``'s two KS functions.
"""
import ast
from pathlib import Path

import pytest

import paretoproc

PACKAGE = Path(paretoproc.__file__).parent
KS_FUNCTIONS = {"gof.ks_statistic", "gof.two_sample_ks_pvalue"}
SHAPES = {"fork": {"grid._forked"}, "ThreadPoolExecutor": {"grid._concurrently"}}
CALLERS = {"_concurrently": {"dfeval.run_battery"}}


def _uses():
    """(where, what) for every import and every name or attribute in ``SHAPES``
    or ``CALLERS`` in the package; ``where`` is ``module.function`` (``module``
    at module level)."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        if isinstance(node, ast.Import):
            found.extend((where, f"import {a.name}") for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.extend((where, f"import {node.module}.{a.name}") for a in node.names)
        elif isinstance(node, (ast.Name, ast.Attribute)):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name in SHAPES or name in CALLERS:
                found.append((where, name))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.stem)
    return found


USES = _uses()


def _where(predicate):
    return {where for where, what in USES if predicate(what)}


def _imports(what, *roots):
    name = what.removeprefix("import ")
    return what.startswith("import ") and name.split(".")[0] in roots


@pytest.mark.parametrize("kind", sorted(SHAPES))
def test_one_concurrency_shape_per_kind(kind):
    # its one owner uses it, and nothing else names or imports it
    assert _where(lambda what: what == kind or what.endswith(f".{kind}")) == SHAPES[kind]


@pytest.mark.parametrize("shape", sorted(CALLERS))
def test_a_shape_is_used_only_by_its_measured_callers(shape):
    # a new caller brings its own benchmark A/B before it joins the set
    assert _where(lambda what: what == shape) == CALLERS[shape]


def test_no_module_imports_threading_or_multiprocessing():
    assert _where(lambda what: _imports(what, "threading", "multiprocessing")) == set()


def test_scipy_is_imported_only_inside_the_two_ks_functions():
    assert _where(lambda what: _imports(what, "scipy")) == KS_FUNCTIONS
