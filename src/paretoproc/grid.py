"""Discretized domain and real-valued functions on it.

A ``Grid`` is an ordered finite set of sites in R^d standing in for a compact
domain; a ``Field`` carries one finite real value per site. Site order is
frozen at construction and is the identity used by every other module; the
coordinates themselves are only needed for labeling and export.

Grids and Fields are immutable after construction (backing arrays are marked
read-only), so they can be shared across workers without synchronization.
Two grids are the same grid when their sites are equal, in the same order;
equal grids hash alike, so a grid keys a cache by its sites.
"""
from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, GridMismatch


@dataclass(frozen=True, eq=False)
class Grid:
    """Ordered sites in R^d, d >= 1. At least two, pairwise distinct."""

    sites: np.ndarray

    def __post_init__(self):
        sites = np.asarray(self.sites, dtype=float)
        if sites.ndim == 1:
            sites = sites[:, None]
        if sites.ndim != 2:
            raise ValueError("sites must be a (n_sites, dim) array")
        if sites.shape[0] < 2:
            raise ValueError("a grid needs at least 2 sites")
        if not np.all(np.isfinite(sites)):
            raise ValueError("site coordinates must be finite")
        if np.unique(sites, axis=0).shape[0] != sites.shape[0]:
            raise ValueError("sites must be pairwise distinct")
        sites = sites + 0.0  # a copy in which -0.0 is 0.0, so equal sites hash alike
        sites.setflags(write=False)
        object.__setattr__(self, "sites", sites)

    @classmethod
    def regular(cls, n_sites: int, lo: float = 0.0, hi: float = 1.0) -> "Grid":
        """Equispaced one-dimensional grid on [lo, hi]."""
        return cls(np.linspace(lo, hi, n_sites))

    @property
    def n_sites(self) -> int:
        return self.sites.shape[0]

    @property
    def dim(self) -> int:
        return self.sites.shape[1]

    def coords(self) -> np.ndarray:
        """First-axis coordinates, convenient for one-dimensional grids."""
        return self.sites[:, 0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Grid):
            return NotImplemented
        return self is other or np.array_equal(self.sites, other.sites)

    def __hash__(self) -> int:
        return hash(self.sites.tobytes())

    def __len__(self) -> int:
        return self.n_sites


@dataclass(frozen=True, eq=False)
class Field:
    """One finite real value per grid site."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n_sites,):
            raise ValueError(
                f"values shape {values.shape} does not match grid with "
                f"{self.grid.n_sites} sites"
            )
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


class FieldExtremum(NamedTuple):
    value: float
    site_index: int


def sup_field(f: Field) -> FieldExtremum:
    """Maximum value and the smallest site index attaining it."""
    i = int(np.argmax(f.values))
    return FieldExtremum(float(f.values[i]), i)


def inf_field(f: Field) -> FieldExtremum:
    """Minimum value and the smallest site index attaining it."""
    i = int(np.argmin(f.values))
    return FieldExtremum(float(f.values[i]), i)


_BINARY_OPS = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": np.divide,
    "min": np.minimum,
    "max": np.maximum,
    "pow": np.power,
}


def combine(f: Field, g: Field, op: str) -> Field:
    """Componentwise combination of two fields on a common grid.

    ``op`` is one of add, sub, mul, div, min, max, pow. Division by zero and
    fractional powers of negative bases raise ``DomainError``.
    """
    if op not in _BINARY_OPS:
        raise ValueError(f"unknown op {op!r}; expected one of {sorted(_BINARY_OPS)}")
    if f.grid != g.grid:
        raise GridMismatch("fields live on different grids")
    a, b = f.values, g.values
    if op == "div" and np.any(b == 0.0):
        raise DomainError("division by zero entry")
    if op == "pow":
        fractional = b != np.floor(b)
        if np.any((a < 0.0) & fractional):
            raise DomainError("negative base with fractional exponent")
    with np.errstate(over="ignore", invalid="ignore"):
        out = _BINARY_OPS[op](a, b)
    if not np.all(np.isfinite(out)):
        raise DomainError(f"componentwise {op} produced non-finite values")
    return Field(f.grid, out)


# ---------------------------------------------------------------------------
# CSV tables, and the forked worker pool that writes and reads large ones.
# ---------------------------------------------------------------------------

ROWS_PER_BLOCK = 4096  # rows formatted per write: bounds a table write's memory
BLOCKS_PER_PART = 4  # smallest share of a writer worker: smaller tables format in-process
BYTES_PER_PART = 1 << 20  # smallest body share of a reader worker: smaller files parse in-process


def _cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _pool_size(parts: int) -> int:
    """Workers for ``parts`` independent parts: one per CPU this process may
    run on, at most one per part, and 1 (in-process) without ``fork``."""
    if parts < 2 or not hasattr(os, "fork"):
        return 1
    return min(_cpus(), parts)


def _concurrently(first, second):
    """``(first(), second())``, with ``second`` on a one-thread executor when
    this process may run on two or more CPUs (numpy releases the GIL inside
    its loops, so the two overlap). Leaving the executor joins its thread, so
    a later ``_forked`` never forks a process that still has threads; an
    exception of either task is raised here, ``first``'s if both fail."""
    if _cpus() < 2:
        return first(), second()
    from concurrent.futures import ThreadPoolExecutor  # about 4 ms, so not at package import

    with ThreadPoolExecutor(1, thread_name_prefix="paretoproc-arm") as pool:
        later = pool.submit(second)
        return first(), later.result()


@contextmanager
def _forked(workers: int, task):
    """Fork ``workers`` processes; yield the read ends of their pipes as binary
    files, in worker order. Worker ``w`` runs ``task(w, out)``, ``out`` the
    write end of its own pipe, and leaves by ``os._exit``: one that fails shows
    as a pipe that ends early. The read ends are closed before the workers are
    reaped, so a worker blocked on a write fails instead of waiting forever."""
    reads, pids = [], []
    try:
        for w in range(workers):
            r, wr = os.pipe()
            reads.append(open(r, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    try:  # keep only this worker's own write end
                        for f in reads:
                            os.close(f.fileno())
                        with open(wr, "wb") as out:
                            task(w, out)
                        os._exit(0)
                    finally:
                        os._exit(1)
                pids.append(pid)
            finally:
                os.close(wr)
        yield reads
    finally:
        for f in reads:
            f.close()
        for pid in pids:
            os.waitpid(pid, 0)


def _recv(pipe, n: int) -> bytes:
    if len(data := pipe.read(n)) < n:
        raise EOFError("a worker process ended early")
    return data


def _format_rows(row: str, block) -> str:
    """The text of one block: ``block`` holds each column's slice, all of one
    shape, and ``row`` the one-row template. One ``%`` over the block's
    template takes the cells interleaved in row order."""
    k = len(block)
    cells = [None] * (k * block[0].size)
    for j, c in enumerate(block):
        cells[j::k] = c.ravel().tolist()
    return (row * block[0].size) % tuple(cells)


def write_csv_table(path, header: list[str], columns) -> None:
    """CSV table with decimal integer cells, ``.17g`` float cells (exact round
    trip) and ``\\r\\n`` line ends. Columns broadcast to a common shape, one
    row per entry in C order: ``(n, 1)`` ids, ``(m,)`` site indices and
    ``(n, m)`` values give the long format with one row per (sample, site).

    A table of two or more ``BLOCKS_PER_PART`` blocks is formatted by one
    forked worker per CPU this process may run on, each with at least that
    many blocks: worker ``w`` formats blocks ``w, w + W, ...`` from the
    columns it inherited and sends each through its pipe, and this process
    writes them in row order. The bytes are those of in-process formatting,
    which a smaller table, a one-CPU process and a platform without ``fork``
    use. A worker that dies is an ``OSError`` naming the file."""
    cols = np.broadcast_arrays(*[np.asarray(c) for c in columns])
    row = ",".join("%d" if c.dtype.kind in "biu" else "%.17g" for c in cols) + "\r\n"
    step = max(1, ROWS_PER_BLOCK // int(np.prod(cols[0].shape[1:])))
    starts = range(0, cols[0].shape[0], step)
    workers = _pool_size(len(starts) // BLOCKS_PER_PART)

    def text(s: int) -> bytes:
        return _format_rows(row, [c[s : s + step] for c in cols]).encode()

    def send(w, out):
        for s in starts[w::workers]:
            block = text(s)
            out.write(len(block).to_bytes(8, "little"))
            out.write(block)

    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        if workers < 2:
            for s in starts:
                fh.write(text(s))
            return
        try:
            with _forked(workers, send) as pipes:
                for i in range(len(starts)):
                    pipe = pipes[i % workers]
                    fh.write(_recv(pipe, int.from_bytes(_recv(pipe, 8), "little")))
        except EOFError as exc:
            raise OSError(f"writing {path}: a CSV formatting worker process died") from exc


def _line_end(fd: int, pos: int, end: int) -> int:
    """Offset just past the first ``\\n`` in the 64 KiB from ``pos``, else ``end``."""
    i = os.pread(fd, 1 << 16, pos).find(b"\n")
    return end if i < 0 else min(pos + i + 1, end)


def _read_parts(fd: int, start: int, end: int):
    """The table in bytes ``[start, end)`` of ``fd``, cut at line ends into
    one range per forked worker; ``None`` when the range is too small to
    share, or when a worker fails or the parts disagree on their columns."""
    workers = _pool_size((end - start) // BYTES_PER_PART)
    if workers < 2:
        return None
    cuts = [start, *sorted(_line_end(fd, start + (end - start) * w // workers, end)
                           for w in range(1, workers)), end]

    def parse(w, out):
        # pread: the file offset is shared with every process forked from this one
        data = os.pread(fd, cuts[w + 1] - cuts[w], cuts[w])
        if len(data) != cuts[w + 1] - cuts[w]:
            raise EOFError
        part = np.loadtxt(data.decode().split("\n"), delimiter=",", ndmin=2)
        out.write(np.array(part.shape, np.int64).tobytes())
        out.write(np.ascontiguousarray(part).data)

    try:
        with _forked(workers, parse) as pipes:
            shapes = [np.frombuffer(_recv(pipe, 16), np.int64) for pipe in pipes]
            widths = {cols for rows, cols in shapes if rows}
            if len(widths) != 1:
                return None
            table = np.empty((sum(rows for rows, _ in shapes), widths.pop()))
            for pipe, part in zip(pipes, np.split(table, np.cumsum([r for r, _ in shapes])[:-1])):
                if pipe.readinto(part) != part.nbytes:
                    return None
    except EOFError:
        return None
    return table


def read_csv_table(path) -> tuple[list[str], np.ndarray]:
    """Header and a float ``(rows, columns)`` array of a CSV table, parsed by
    ``np.loadtxt``. An empty or header-only file gives a ``(0, 1)`` array; a
    bad row raises a ``ValueError`` naming the file. A body of two or more
    ``BYTES_PER_PART`` is parsed in line-aligned parts by forked workers; if
    one fails, the file is parsed again in-process, so an error is numpy's own."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            table = _read_parts(fh.fileno(), fh.tell(), os.fstat(fh.fileno()).st_size)
            if table is not None:
                return header, table
            try:
                return header, np.loadtxt(fh, delimiter=",", ndmin=2)
            except ValueError as exc:
                # keep numpy's first clause; the rest advises a usecols option
                raise ValueError(f"{path}: {str(exc).split(';')[0]}") from exc
