"""Discretized domain and real-valued functions on it.

A ``Grid`` is an ordered finite set of sites in R^d standing in for a compact
domain; a ``Field`` carries one finite real value per site. Site order is
frozen at construction and is the identity used by every other module; the
coordinates themselves are only needed for labeling and export.

Grids and Fields are immutable after construction (backing arrays are marked
read-only), so they can be shared across workers without synchronization.
"""
from __future__ import annotations

import json
import warnings
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
        sites = sites.copy()
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

    def key(self) -> bytes:
        """Stable fingerprint used as a cache key."""
        return self.sites.tobytes()

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


def same_grid(f: Field, g: Field) -> bool:
    return f.grid is g.grid or np.array_equal(f.grid.sites, g.grid.sites)


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
    if not same_grid(f, g):
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
# Serialization. CSV columns: site_index, coord_1..coord_d, value. The JSON
# mirror holds the raw "sites" and "values" arrays.
# ---------------------------------------------------------------------------

ROWS_PER_BLOCK = 4096  # rows formatted per write: bounds a table write's memory


def write_csv_table(path, header: list[str], columns) -> None:
    """CSV table with decimal integer cells, ``.17g`` float cells (exact round
    trip) and ``\\r\\n`` line ends. Columns broadcast to a common shape, one
    row per entry in C order: ``(n, 1)`` ids, ``(m,)`` site indices and
    ``(n, m)`` values give the long format with one row per (sample, site)."""
    cols = np.broadcast_arrays(*[np.asarray(c) for c in columns])
    row = ",".join("%d" if c.dtype.kind in "biu" else "%.17g" for c in cols) + "\r\n"
    step = max(1, ROWS_PER_BLOCK // int(np.prod(cols[0].shape[1:])))
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, cols[0].shape[0], step):
            block = [c[start : start + step].ravel().tolist() for c in cols]
            fh.write("".join(row % cells for cells in zip(*block)))


def field_to_csv(f: Field, path) -> None:
    header = ["site_index"] + [f"coord_{j + 1}" for j in range(f.grid.dim)] + ["value"]
    write_csv_table(path, header, [np.arange(f.grid.n_sites), *f.grid.sites.T, f.values])


def read_csv_table(path) -> tuple[list[str], np.ndarray]:
    """Header and a float ``(rows, columns)`` array of a CSV table, parsed by
    numpy while streaming from the open file. An empty or header-only file
    gives a ``(0, 1)`` array; a bad row raises a ``ValueError`` naming the file."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
            try:
                return header, np.loadtxt(fh, delimiter=",", ndmin=2)
            except ValueError as exc:
                # keep numpy's first clause; the rest advises a usecols option
                raise ValueError(f"{path}: {str(exc).split(';')[0]}") from exc


def field_from_csv(path) -> Field:
    _, table = read_csv_table(path)
    return Field(Grid(table[:, 1:-1]), table[:, -1])


def field_to_json(f: Field) -> str:
    return json.dumps({"sites": f.grid.sites.tolist(), "values": f.values.tolist()})


def field_from_json(doc: str) -> Field:
    data = json.loads(doc)
    return Field(Grid(np.asarray(data["sites"])), np.asarray(data["values"]))
