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
* No result of ``sample_profiles``, or of a call applied to one, has its rows
  picked by a mask or an index array: a caller that reads some rows passes them as
  ``keep``, so the profiles it drops are never evaluated.
* Only ``dfeval.direct_frequency`` passes ``keep`` to ``pareto.per_field_blocks``,
  and only ``dfeval.run_battery`` calls ``direct_frequency``: such a draw stops after
  the block of its last kept draw, so its generator may go to no caller that reads
  it again.
"""
import ast
import textwrap
from pathlib import Path

import pytest

import paretoproc

PACKAGE = Path(paretoproc.__file__).parent
KS_FUNCTIONS = {"gof.ks_statistic", "gof.two_sample_ks_pvalue"}
SHAPES = {"fork": {"grid._forked"}, "ThreadPoolExecutor": {"grid._concurrently"}}
CALLERS = {"_concurrently": {"dfeval.run_battery"}}
# a draw that ends its generator early, and the callers that read no more of it
STREAM_ENDERS = {"direct_frequency": {"dfeval.run_battery"}}


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
            if name in SHAPES or name in CALLERS or name in STREAM_ENDERS:
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


@pytest.mark.parametrize("draw", sorted(STREAM_ENDERS))
def test_a_stream_ending_draw_is_used_only_by_callers_that_drop_its_generator(draw):
    assert _where(lambda what: what == draw) == STREAM_ENDERS[draw]


def _keep_passes(tree, stem):
    """``module.function`` (nested functions joined by dots) of every call of
    ``per_field_blocks`` that passes ``keep``, by name or as its sixth argument."""
    found = set()

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where}.{node.name}"
        if isinstance(node, ast.Call) and (
                isinstance(node.func, ast.Name) and node.func.id == "per_field_blocks"
                or isinstance(node.func, ast.Attribute) and node.func.attr == "per_field_blocks"):
            if len(node.args) >= 6 or any(k.arg == "keep" for k in node.keywords):
                found.add(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, stem)
    return found


def test_the_keep_rule_sees_a_positional_and_a_named_keep():
    code = ("def f(spec, grid, rng, keep):\n"
            "    a = per_field_blocks(spec, grid, 9, rng, len, keep)\n"
            "    def g():\n"
            "        return pareto.per_field_blocks(spec, grid, 9, rng, per_field=len, keep=keep)\n"
            "    return a, g, per_field_blocks(spec, grid, 9, rng, len)\n")
    assert _keep_passes(ast.parse(code), "m") == {"m.f", "m.f.g"}


def test_only_direct_frequency_passes_keep_to_per_field_blocks():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found |= _keep_passes(ast.parse(path.read_text(), str(path)), path.stem)
    assert found == {"dfeval.direct_frequency"}


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


def _profile_draw(node):
    return isinstance(node, ast.Call) and (
        isinstance(node.func, ast.Name) and node.func.id == "sample_profiles"
        or isinstance(node.func, ast.Attribute) and node.func.attr == "sample_profiles")


def _draw_or_reduced(node):
    """A ``sample_profiles`` call, or a call that takes one as an argument."""
    return _profile_draw(node) or isinstance(node, ast.Call) and any(map(_profile_draw, node.args))


def _picks_rows(index):
    """Whether a subscript's row index (the whole index, or its first entry) is
    computed: neither a slice nor a constant, so a mask or an index array."""
    row = index.elts[0] if isinstance(index, ast.Tuple) and index.elts else index
    return not isinstance(row, (ast.Slice, ast.Constant))


def _profile_row_picks(tree, stem):
    """``module.function:line`` of every subscript, in ``tree``'s functions, that picks
    rows of a profile draw (or of a call applied to one) or of a name assigned one."""
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        held = {t.id for node in ast.walk(fn) if isinstance(node, ast.Assign)
                and _draw_or_reduced(node.value) for t in node.targets if isinstance(t, ast.Name)}
        found |= {f"{stem}.{fn.name}:{node.lineno}" for node in ast.walk(fn)
                  if isinstance(node, ast.Subscript) and _picks_rows(node.slice) and (
                      _draw_or_reduced(node.value)
                      or isinstance(node.value, ast.Name) and node.value.id in held)}
    return found


# the rejection arm as it evaluated every candidate's profile and then dropped the
# rejected rows; the other lines pick columns or a constant row, which skips no draw
MASKED_REJECTION = textwrap.dedent("""\
    def draw(size):
        y = sample_radii(size, rng)
        keep = y > r
        return y[keep], np.concatenate([per_draw(sample_profiles(spec, grid, k, rng))[keep[s:s + k]]
                                        for s, k in row_blocks(size, grid.n_sites)])

    def picks(spec, grid, rng, keep, site):
        v = spectral.sample_profiles(spec, grid, 9, rng)
        first = sample_profiles(spec, grid, 1, rng)[0]
        return v[keep], v[~keep, site], v[:, site], first, sample_profiles(spec, grid, 9, rng, keep)
""")


def test_the_profile_row_rule_sees_a_masked_draw_and_a_masked_reduction():
    assert _profile_row_picks(ast.parse(MASKED_REJECTION), "m") == {"m.draw:4", "m.picks:10"}


def test_no_profile_draw_has_its_rows_picked():
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        found |= _profile_row_picks(ast.parse(path.read_text(), str(path)), path.stem)
    assert found == set()
