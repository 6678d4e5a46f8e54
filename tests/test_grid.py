import contextlib
import multiprocessing
import os
import pickle
import subprocess
import sys
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from paretoproc import grid
from paretoproc.dfeval import df_findim
from paretoproc.errors import DomainError, GridMismatch
from paretoproc.grid import (
    Field,
    Grid,
    combine,
    inf_field,
    read_csv_table,
    sup_field,
    write_csv_table,
)
from paretoproc.pareto import sample_simple_pareto_vector
from paretoproc.rng import make_rng
from paretoproc.spectral import SpectralProfileSpec


@pytest.fixture
def grid3():
    return Grid(np.array([0.0, 0.5, 1.0]))


def test_sup_field_direct_maximum(grid3):
    assert sup_field(Field(grid3, [1.0, 3.0, 2.0])) == (3.0, 1)


def test_sup_field_tie_broken_by_smallest_index(grid3):
    assert sup_field(Field(grid3, [5.0, 5.0, 5.0])) == (5.0, 0)


def test_sup_field_negative_values_allowed():
    g = Grid(np.array([0.0, 1.0]))
    assert sup_field(Field(g, [-2.0, -7.0])) == (-2.0, 0)


def test_inf_field_examples(grid3):
    assert inf_field(Field(grid3, [1.0, 3.0, 2.0])) == (1.0, 0)
    g2 = Grid(np.array([0.0, 1.0]))
    assert inf_field(Field(g2, [0.0, 0.0])) == (0.0, 0)
    assert inf_field(Field(grid3, [4.0, -1.0, 7.0])) == (-1.0, 1)


def test_combine_min_and_pow():
    g = Grid(np.array([0.0, 1.0]))
    out = combine(Field(g, [1.0, 2.0]), Field(g, [2.0, 1.0]), "min")
    assert np.array_equal(out.values, [1.0, 1.0])
    out = combine(Field(g, [2.0, 3.0]), Field(g, [2.0, 2.0]), "pow")
    assert np.array_equal(out.values, [4.0, 9.0])


def test_combine_division_by_zero_raises():
    g = Grid(np.array([0.0, 1.0]))
    with pytest.raises(DomainError):
        combine(Field(g, [1.0, 1.0]), Field(g, [0.0, 1.0]), "div")


def test_combine_negative_base_fractional_exponent_raises():
    g = Grid(np.array([0.0, 1.0]))
    with pytest.raises(DomainError):
        combine(Field(g, [-2.0, 1.0]), Field(g, [0.5, 1.0]), "pow")


def test_combine_zero_base_negative_exponent_raises_without_a_warning():
    g = Grid(np.array([0.0, 1.0]))
    with pytest.raises(DomainError, match="non-finite"):
        combine(Field(g, [0.0, 1.0]), Field(g, [-1.0, 1.0]), "pow")


def test_combine_grid_mismatch():
    f = Field(Grid(np.array([0.0, 1.0])), [1.0, 2.0])
    g = Field(Grid(np.array([0.0, 2.0])), [1.0, 2.0])
    with pytest.raises(GridMismatch):
        combine(f, g, "add")


@given(
    st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=8),
    st.data(),
)
def test_sup_of_max_combination(values, data):
    other = data.draw(
        st.lists(st.floats(-1e6, 1e6), min_size=len(values), max_size=len(values))
    )
    g = Grid(np.arange(float(len(values))))
    f1, f2 = Field(g, values), Field(g, other)
    combined = combine(f1, f2, "max")
    assert sup_field(combined).value == max(sup_field(f1).value, sup_field(f2).value)


CONSTANT = SpectralProfileSpec("constant")
# a call taking a site count -> (the count's name, its least): a regular grid,
# and the d-point index grid of a simple Pareto vector's df and of its draw
SITE_COUNTS = {
    "Grid.regular": (Grid.regular, "n_sites", 2),
    "df_findim": (lambda d: df_findim([2.0, 2.0], CONSTANT, d, n_mc=10), "d", 2),
    "sample_simple_pareto_vector": (
        lambda d: sample_simple_pareto_vector(CONSTANT, d, make_rng(0, "vector")), "d", 1),
}


@pytest.mark.parametrize("call, count", [
    (call, count) for call, (_, _, least) in SITE_COUNTS.items()
    for count in (-2, 0, 1, True, 2.0, 2.5) if type(count) is not int or count < least
])
def test_a_site_count_below_its_least_or_not_an_integer_is_named(call, count):
    make, name, least = SITE_COUNTS[call]
    with pytest.raises(ValueError, match=f"{name} must be an integer >= {least}"):
        make(count)


def test_grid_invariants():
    with pytest.raises(ValueError):
        Grid(np.array([1.0]))  # fewer than 2 sites
    with pytest.raises(ValueError):
        Grid(np.array([1.0, 1.0]))  # duplicate sites
    with pytest.raises(ValueError):
        Field(Grid(np.array([0.0, 1.0])), [np.nan, 1.0])


def test_immutability():
    g = Grid(np.array([0.0, 1.0]))
    f = Field(g, [1.0, 2.0])
    with pytest.raises(ValueError):
        f.values[0] = 5.0
    with pytest.raises(ValueError):
        g.sites[0, 0] = 5.0


def test_grids_are_equal_by_their_sites():
    a = Grid(np.array([0.0, 0.5, 1.0]))
    b = Grid([0.0, 0.5, 1.0])  # equal sites, another object
    assert a == b and hash(a) == hash(b) and not a != b
    assert Grid([-0.0, 1.0]) == Grid([0.0, 1.0])
    assert hash(Grid([-0.0, 1.0])) == hash(Grid([0.0, 1.0]))
    assert Grid([1.0, 0.0]) != Grid([0.0, 1.0])  # site order is part of the grid
    # (2,) sites are read as (2, 1); the same bytes in another shape differ
    assert Grid(np.array([0.0, 1.0])) == Grid(np.array([[0.0], [1.0]]))
    assert Grid(np.arange(4.0)) != Grid(np.arange(4.0).reshape(2, 2))
    assert a != [0.0, 0.5, 1.0] and a != "grid" and a.__eq__(a.sites) is NotImplemented


def test_grid_hash_does_not_read_the_sites():
    # every cache lookup hashes the grid; the sites are hashed once, at construction
    g = Grid.regular(101)
    h = hash(g)
    object.__setattr__(g, "sites", None)
    assert hash(g) == h


def test_unpickled_grid_hashes_like_one_built_here():
    # bytes hash differently under another PYTHONHASHSEED, so an unpickled grid
    # hashes its sites again instead of keeping the hash it was pickled with
    src = os.path.dirname(os.path.dirname(grid.__file__))
    env = {**os.environ, "PYTHONHASHSEED": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import pickle, sys; from paretoproc.grid import Grid; "
            "sys.stdout.buffer.write(pickle.dumps(Grid.regular(7)))")
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            check=True, timeout=120)
    g = pickle.loads(result.stdout)
    assert g == Grid.regular(7) and hash(g) == hash(Grid.regular(7))
    assert not g.sites.flags.writeable


def _reference_csv(path, header, columns):
    """The writer as it was before block templates and worker processes: one
    ``row % cells`` per row."""
    cols = np.broadcast_arrays(*[np.asarray(c) for c in columns])
    row = ",".join("%d" if c.dtype.kind in "biu" else "%.17g" for c in cols) + "\r\n"
    step = max(1, grid.ROWS_PER_BLOCK // int(np.prod(cols[0].shape[1:])))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, cols[0].shape[0], step):
            block = [c[start : start + step].ravel().tolist() for c in cols]
            fh.write("".join(row % cells for cells in zip(*block)))


EDGE_FLOATS = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.1,
               np.nan, -np.inf]


def _tables():
    rng = np.random.default_rng(7)
    n, m = 23, 3  # 7-row blocks hold 2 samples, so the last block is short
    values = rng.standard_normal((n, m)) * 10.0 ** rng.integers(-300, 300, (n, m))
    values.ravel()[: len(EDGE_FLOATS)] = EDGE_FLOATS
    return {
        "long": (["sample_id", "site_index", "value"],
                 [np.arange(n)[:, None], np.arange(m), values]),
        "bool": (["query_id", "estimate", "pass"],
                 [np.arange(30), rng.random(30), rng.random(30) < 0.5]),
        "edge": (["i", "x"], [np.arange(len(EDGE_FLOATS)), np.array(EDGE_FLOATS)]),
        "empty": (["sample_id", "site_index", "value"],
                  [np.zeros((0, 1), int), np.arange(m), np.zeros((0, m))]),
        "ragged": (["i", "x"], [np.arange(7 * 5 + 3), rng.random(7 * 5 + 3)]),
    }


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(_tables()))
def test_writer_bytes_match_per_row_formatting(tmp_path, monkeypatch, name, cpus):
    # 7-row blocks, one block per worker at least, make every table span many
    # blocks, and so many workers
    monkeypatch.setattr(grid, "ROWS_PER_BLOCK", 7)
    monkeypatch.setattr(grid, "BLOCKS_PER_PART", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    header, columns = _tables()[name]
    write_csv_table(tmp_path / "new.csv", header, columns)
    _reference_csv(tmp_path / "ref.csv", header, columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_one_block_table_never_opens_a_pool(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("a one-block table forked a worker")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    header, columns = _tables()["long"]  # 69 rows: one block of 4096
    write_csv_table(tmp_path / "new.csv", header, columns)
    _reference_csv(tmp_path / "ref.csv", header, columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the writer forks its workers")
@pytest.mark.parametrize("blocks, forks", [
    pytest.param(2, 0, id="lift_report"),  # lifted.csv of about 60 fields at 101 sites
    pytest.param(2 * grid.BLOCKS_PER_PART - 1, 0, id="one_part_short"),
    pytest.param(2 * grid.BLOCKS_PER_PART, 2, id="two_parts"),
])
def test_writer_pools_only_two_parts_or_more(tmp_path, monkeypatch, blocks, forks):
    m = 101
    n = blocks * (grid.ROWS_PER_BLOCK // m)
    columns = [np.arange(n)[:, None], np.arange(m), np.random.default_rng(3).random((n, m))]
    fork, forked = os.fork, []

    def counted():
        forked.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    write_csv_table(tmp_path / "new.csv", ["sample_id", "site_index", "value"], columns)
    assert len(forked) == forks
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    write_csv_table(tmp_path / "ref.csv", ["sample_id", "site_index", "value"], columns)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _write_long_table_counting_forks(path):
    fork, forks = os.fork, []

    def counted():
        forks.append(1)
        return fork()

    os.fork = counted
    try:
        write_csv_table(path, *_tables()["long"])
    finally:
        os.fork = fork
    return len(forks)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_pool_worker_process_writes_through_forked_workers(tmp_path, monkeypatch):
    # a multiprocessing.Pool worker is daemonic; os.fork, unlike
    # multiprocessing, lets it start workers of its own
    monkeypatch.setattr(grid, "ROWS_PER_BLOCK", 7)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        forks = pool.apply(_write_long_table_counting_forks, (tmp_path / "new.csv",))
    assert forks == 2
    _reference_csv(tmp_path / "ref.csv", *_tables()["long"])
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


_PARENT_PID = os.getpid()


def _in_workers_only(function):
    """``function`` in this process; ``os._exit(1)`` in a forked worker."""
    def wrapper(*args, **kwargs):
        if os.getpid() != _PARENT_PID:
            os._exit(1)
        return function(*args, **kwargs)
    return wrapper


def _pooled_read(monkeypatch, cpus):
    """Patch the reader to share any body of two or more bytes among ``cpus``
    workers, and return a list that records whether each read was pooled."""
    monkeypatch.setattr(grid, "BYTES_PER_PART", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    read_parts, pooled = grid._read_parts, []

    def recorded(fd, start, end):
        table = read_parts(fd, start, end)
        pooled.append(table is not None)
        return table

    monkeypatch.setattr(grid, "_read_parts", recorded)
    return pooled


_ROWS = "".join(f"{i},{i / 7!r}\n" for i in range(40))
_COMMENT = "#" + "x" * 60 + "\n"


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the reader forks its workers")
@pytest.mark.parametrize("body, cpus", [
    pytest.param(_ROWS, 3, id="lf"),
    pytest.param(_ROWS.replace("\n", "\r\n"), 3, id="crlf"),
    pytest.param(_ROWS[:-1], 4, id="no_final_newline"),
    # the middle cut falls in the long last line, so the last range is empty
    pytest.param("0,1\n1,2\n" + "2," + "3" * 80 + "\n", 2, id="cut_on_last_line"),
    # the cuts at 1/3 and 2/3 fall in one comment each: the middle range
    # holds the second comment and no row
    pytest.param("0,1\n" + _COMMENT + _COMMENT + "1,2\n", 3, id="range_without_rows"),
    # both cuts fall in one long comment: the middle range has no byte
    pytest.param("0,1\n" + _COMMENT.replace("x", "xxx") + "1,2", 3, id="empty_range"),
    pytest.param("0,1\r\n\r\n\n1,2\r\n" * 9, 4, id="blank_lines"),
    # no line end in the 64 KiB after the first cut: it moves to the end of
    # the body, behind the second
    pytest.param("0,1\n#" + "x" * 200_000 + "\n" + _ROWS * 170, 3, id="long_line"),
])
def test_pooled_reader_matches_serial_loadtxt(tmp_path, monkeypatch, body, cpus):
    path = tmp_path / "t.csv"
    path.write_bytes(("i,x\n" + body).encode())
    pooled = _pooled_read(monkeypatch, cpus)
    header, table = read_csv_table(path)
    assert pooled == [True] and header == ["i", "x"]
    with open(path) as fh:
        fh.readline()
        expected = np.loadtxt(fh, delimiter=",", ndmin=2)
    assert table.shape == expected.shape and np.array_equal(table, expected)
    _assert_no_child_left()


def _read_error(path):
    with pytest.raises(ValueError) as info:
        read_csv_table(path)
    return str(info.value)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the reader forks its workers")
@pytest.mark.parametrize("bad, where", [
    pytest.param("3,4,5\n", "at row 41", id="ragged_in_one_part"),
    pytest.param("3,rain\n", "at row 40, column 2", id="non_numeric"),
    # every part parses, but the parts disagree on their width
    pytest.param("3,4,5\n" * 40, "at row 41", id="ragged_between_parts"),
])
def test_pooled_reader_error_is_the_serial_one(tmp_path, monkeypatch, bad, where):
    path = tmp_path / "t.csv"
    path.write_text("i,x\n" + _ROWS + bad + _ROWS)
    serial = _read_error(path)
    pooled = _pooled_read(monkeypatch, 2)
    assert _read_error(path) == serial and pooled == [False]
    assert serial.startswith(f"{path}: ") and where in serial
    _assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the reader forks its workers")
def test_dead_reader_worker_still_returns_the_table(tmp_path, monkeypatch):
    path = tmp_path / "t.csv"
    write_csv_table(path, *_tables()["long"])
    expected = read_csv_table(path)[1]
    pooled = _pooled_read(monkeypatch, 2)
    monkeypatch.setattr(np, "loadtxt", _in_workers_only(np.loadtxt))
    assert np.array_equal(read_csv_table(path)[1], expected, equal_nan=True)
    assert pooled == [False]
    _assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the writer forks its workers")
def test_pooled_writer_leaves_no_child(tmp_path, monkeypatch):
    monkeypatch.setattr(grid, "ROWS_PER_BLOCK", 7)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    header, columns = _tables()["long"]
    write_csv_table(tmp_path / "new.csv", header, columns)
    _assert_no_child_left()
    monkeypatch.setattr(grid, "_format_rows", _in_workers_only(grid._format_rows))
    with pytest.raises(OSError, match="new.csv: a CSV formatting worker process died"):
        write_csv_table(tmp_path / "new.csv", header, columns)
    _assert_no_child_left()


_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7e308, -1.7e308])


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the pooled path forks its workers")
@settings(derandomize=True, max_examples=30, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(1, 4)),
                  elements=_FINITE))
def test_csv_round_trip_is_bitwise_in_process_and_pooled(table):
    # patched inside each example: function-scoped fixtures are not reset
    # between the examples of one test
    header = [f"c{j}" for j in range(table.shape[1])]
    read_parts, pooled = grid._read_parts, []

    def recorded(*args):
        parts = read_parts(*args)
        pooled.append(parts is not None)
        return parts

    pool = mock.patch.multiple(grid, ROWS_PER_BLOCK=7, BLOCKS_PER_PART=1, BYTES_PER_PART=1,
                               _read_parts=recorded)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "t.csv")
        for cpus, patch in (({0}, contextlib.nullcontext()), ({0, 1}, pool)):
            with patch, mock.patch.object(os, "sched_getaffinity", lambda pid, c=cpus: c,
                                          create=True):
                write_csv_table(path, header, list(table.T))
                read_header, read = read_csv_table(path)
            assert read_header == header
            assert read.shape == table.shape and read.tobytes() == table.tobytes()
    assert pooled == [True]
    _assert_no_child_left()
