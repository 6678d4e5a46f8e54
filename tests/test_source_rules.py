"""Source rules the import-time checks cannot see: one concurrency shape per
kind and the lazy ``scipy`` import, read from the package's syntax trees.

* ``os.fork`` is called only in ``grid._forked``, the one process shape.
* ``ThreadPoolExecutor`` appears only in ``grid._concurrently``, the one thread shape,
  and ``_concurrently`` is called only from ``dfeval.run_battery``, the one
  caller whose thread a benchmark measured to pay.
* No module imports ``threading`` or ``multiprocessing``.
* ``scipy`` is imported only inside ``gof``'s two KS functions.
* Caches are bounded: every ``functools.lru_cache`` gives an integer ``maxsize``,
  and ``functools.cache`` decorates only functions with no arguments.
* No result of ``sample_max_stable_batch`` or ``_poisson_max`` is subscripted or
  sliced: a caller that keeps part of each field passes a reducer, so the (n, m)
  maxima are never held for a column or a sup.
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


def _caches():
    """(module.function, cache, decorator, function) for every function decorated with
    ``functools.lru_cache`` or ``functools.cache``, and how often the package
    names either at all."""
    decorated, named = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                named += sum(a.name in ("lru_cache", "cache") for a in node.names)
            elif (isinstance(node, ast.Attribute) and node.attr in ("lru_cache", "cache")
                  and isinstance(node.value, ast.Name) and node.value.id == "functools"):
                named += 1
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for d in node.decorator_list:
                    head = d.func if isinstance(d, ast.Call) else d
                    if isinstance(head, ast.Attribute) and head.attr in ("lru_cache", "cache"):
                        decorated.append((f"{path.stem}.{node.name}", head.attr, d, node))
    return decorated, named


CACHES, CACHES_NAMED = _caches()


def _decorated(kind):
    return [(where, d, fn) for where, cache, d, fn in CACHES if cache == kind]


def test_caches_are_named_only_as_decorators():
    # a cache made by a call, or imported under its bare name, would escape the rules below
    assert len(CACHES) == CACHES_NAMED


def test_every_lru_cache_has_an_integer_maxsize():
    found = _decorated("lru_cache")
    assert {"spectral.draw_setup", "maxstable._mean_field"} <= {where for where, _, _ in found}
    for where, d, _ in found:
        # a bare decorator leaves the size to the default; None is unbounded
        assert isinstance(d, ast.Call), where
        size = d.args[0] if d.args else next((k.value for k in d.keywords if k.arg == "maxsize"), None)
        assert isinstance(size, ast.Constant) and type(size.value) is int, where


def test_functools_cache_decorates_only_functions_without_arguments():
    found = _decorated("cache")
    assert {"cli._build_parser", "cli._scipy_version"} <= {where for where, _, _ in found}
    for where, _, fn in found:
        a = fn.args
        assert not (a.posonlyargs or a.args or a.vararg or a.kwonlyargs or a.kwarg), where


POISSON_MAX = {"sample_max_stable_batch", "_poisson_max"}


def _poisson_max_call(node):
    return isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Name) and node.func.id in POISSON_MAX
        or isinstance(node.func, ast.Attribute) and node.func.attr in POISSON_MAX)


def _poisson_max_subscripts(tree, stem):
    """``module.function:line`` of every subscript or slice, in ``tree``'s functions,
    of a Poisson-max call or of a name assigned one in the same function."""
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        held = {t.id for node in ast.walk(fn) if isinstance(node, ast.Assign)
                and _poisson_max_call(node.value) for t in node.targets if isinstance(t, ast.Name)}
        found |= {f"{stem}.{fn.name}:{node.lineno}" for node in ast.walk(fn)
                  if isinstance(node, ast.Subscript) and (
                      _poisson_max_call(node.value)
                      or isinstance(node.value, ast.Name) and node.value.id in held)}
    return found


def test_the_poisson_max_rule_sees_a_subscripted_call_and_a_subscripted_name():
    code = ("def f(cfg, rng, draw):\n"
            "    eta = sample_max_stable_batch(cfg, 9, rng)\n"
            "    first = maxstable._poisson_max(9, 2, 1.0, 1.0, draw, rng)[0]\n"
            "    return eta[:, 4], first, sample_max_stable_batch(cfg, 9, rng, lambda e: e[:, 4])\n")
    assert _poisson_max_subscripts(ast.parse(code), "m") == {"m.f:3", "m.f:4"}


def test_no_poisson_max_result_is_subscripted_or_sliced():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found |= _poisson_max_subscripts(ast.parse(path.read_text(), str(path)), path.stem)
    assert found == set()
