"""Storm lifting: turn moderately extreme observed fields into fields at a
much higher threshold.

Given n i.i.d. fields, the five steps are: estimate per-site norming
functions (gamma, a, b) from the top k order statistics, normalize each field
with T_{n/k}, keep the fields whose normalized supremum exceeds 1, multiply
them by a large factor t0, and invert the normalization. Peaks-over-threshold
stability makes the lifted fields distributed (approximately, exactly for
Pareto input with true norming) like exceedances of the t0-times-higher
threshold.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DegenerateTail, InsufficientData
from .grid import Field, Grid, _read_only, check_count, read_csv_table, write_csv_table
from .maxstable import sample_moving_maximum_batch
from .rng import make_rng
from .transforms import (
    GAMMA_ZERO_TOL,
    NormingFunctions,
    apply_T_values,
    invert_T_values,
    record_to_json,
)

SUP_ANYWHERE = "sup_anywhere"
SITES = "sites"


@dataclass(frozen=True)
class FieldSample:
    """n i.i.d. observed fields on one grid, stored as an (n, n_sites) matrix."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[1] != self.grid.n_sites:
            raise ValueError("values must be (n_samples, n_sites)")
        if values.shape[0] < 2:
            raise ValueError("need at least 2 fields")
        if not np.all(np.isfinite(values)):
            raise ValueError("field values must be finite")
        object.__setattr__(self, "values", _read_only(values.copy()))

    @property
    def n(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class LiftReport:
    """Outcome of one lifting run, with the normalized intermediates kept as
    read-only (k, n_sites) arrays; row i belongs to field ``selected_ids[i]``."""

    selected_ids: list[int]
    t0: float
    norming: NormingFunctions
    lifted: np.ndarray
    normalized: np.ndarray
    source: FieldSample | None = None


def estimate_norming(data: FieldSample, k: int) -> NormingFunctions:
    """Estimate (gamma, a, b) at level t = n/k from the top order statistics.

    Per site: b is the (n-k)-th ascending order statistic (the empirical
    1 - k/n quantile); gamma is the moment estimator built from the
    log-spacings of the k largest values above it; a comes from the
    quantile-difference formula a_t = gamma (b_t - b_{t/2}) 2^gamma
    / (2^gamma - 1), which reduces to (b_t - b_{t/2}) / log 2 as gamma -> 0.

    Raises ``ValueError`` when k is no integer, ``InsufficientData`` when it is
    out of range and ``DegenerateTail`` when a site has tied or nonpositive top
    order statistics, or a scale that underflows to 0.
    """
    check_count(k, "k")
    n = data.n
    if not (2 <= k and 2 * k <= n - 1):
        raise InsufficientData(
            f"k = {k} out of range for n = {n}: need 2 <= k and 2k <= n - 1"
        )
    ordered = np.sort(data.values, axis=0)
    b = ordered[n - k - 1]          # empirical (1 - k/n) quantile
    b_half = ordered[n - 2 * k - 1]  # empirical (1 - 2k/n) quantile
    if np.any(b <= 0):
        raise DegenerateTail(
            "moment estimator needs positive top-k order statistics at every site"
        )
    log_excess = np.log(ordered[n - k :]) - np.log(b)[None, :]  # (k, m)
    m1 = log_excess.mean(axis=0)
    m2 = (log_excess**2).mean(axis=0)
    if np.any(m2 == 0.0):
        raise DegenerateTail("top-k values tied at some site")
    ratio = m1 * m1 / m2
    if np.any(ratio >= 1.0):
        raise DegenerateTail("degenerate log-spacings at some site")
    gamma = m1 + 1.0 - 0.5 / (1.0 - ratio)

    spread = b - b_half
    if np.any(spread <= 0):
        raise DegenerateTail("tied quantiles leave no scale information at some site")
    near_zero = np.abs(gamma) < GAMMA_ZERO_TOL
    with np.errstate(divide="ignore", invalid="ignore"):
        two_g = np.power(2.0, gamma)
        a = np.where(near_zero, spread / np.log(2.0),
                     gamma * two_g * spread / (two_g - 1.0))
    if not np.all(a > 0.0):  # 2^gamma underflows to 0 at gamma far below -1,000
        raise DegenerateTail("the scale underflows at some site")
    grid = data.grid
    return NormingFunctions(
        Field(grid, gamma), Field(grid, a), Field(grid, b), t=n / k, k=k
    )


def select_exceedances(
    data: FieldSample,
    nf: NormingFunctions,
    policy: str = SUP_ANYWHERE,
    sites=None,
) -> list[int]:
    """Indices of fields whose normalized supremum exceeds 1 (``sup_anywhere``)
    or which exceed the threshold b at every designated site (``sites``)."""
    if policy == SUP_ANYWHERE:
        normalized = apply_T_values(data.values, nf)
        keep = normalized.max(axis=1) > 1.0
    elif policy == SITES:
        if sites is None or len(sites) == 0:
            raise ValueError("sites policy needs a nonempty site list")
        idx = data.grid.site_indices(sites)
        keep = np.all(data.values[:, idx] > nf.b_t.values[idx], axis=1)
    else:
        raise ValueError(f"unknown policy {policy!r}")
    return [int(i) for i in np.flatnonzero(keep)]


def lift(
    data: FieldSample,
    nf: NormingFunctions,
    t0: float,
    policy: str = SUP_ANYWHERE,
    sites=None,
) -> LiftReport:
    """Steps 3-5: select exceeding fields, scale their normalized versions by
    t0 and invert the normalization."""
    if not t0 >= 1.0:
        raise ValueError("t0 must be >= 1")
    selected = select_exceedances(data, nf, policy, sites)
    normalized = _read_only(apply_T_values(data.values[selected], nf))
    with np.errstate(over="ignore"):  # invert_T_values rejects an overflow
        lifted = _read_only(invert_T_values(t0 * normalized, nf))
    return LiftReport(selected, float(t0), nf, lifted, normalized, source=data)


# ---------------------------------------------------------------------------
# End-to-end storm scenario: X(s) = Z(s)^gamma(s) on [0, 1] with a Gaussian
# moving-maximum Z and index function gamma(s) = 1 - s(1-s)^2, run through
# the full estimate / select / lift pipeline.
# ---------------------------------------------------------------------------

def scenario_index_field(grid: Grid) -> Field:
    s = grid.coords()
    return Field(grid, 1.0 - s * (1.0 - s) ** 2)


def sample_scenario_fields(
    n: int, rng: np.random.Generator, n_sites: int = 101
) -> FieldSample:
    grid = Grid.regular(n_sites)
    z = sample_moving_maximum_batch(grid, n, rng)
    gamma = scenario_index_field(grid).values
    return FieldSample(grid, z**gamma)


def run_storm_scenario(
    n: int,
    k: int,
    t0: float = 10.0,
    rng: np.random.Generator | None = None,
    n_sites: int = 101,
) -> LiftReport:
    """Generate n scenario fields and run steps 2-5 with estimated norming."""
    if n < 20:
        raise ValueError("scenario needs n >= 20")
    if rng is None:
        rng = make_rng(0, "storm_scenario")
    data = sample_scenario_fields(n, rng, n_sites)
    nf = estimate_norming(data, k)
    return lift(data, nf, t0)


# ---------------------------------------------------------------------------
# File formats: FieldSample as long CSV (sample_id, site_index, value);
# LiftReport as a directory with norming.json, selected.csv, lifted.csv and
# a manifest.
# ---------------------------------------------------------------------------

def _write_long(path, ids, values: np.ndarray) -> None:
    """One row (sample_id, site_index, value) per sample and site."""
    write_csv_table(path, ["sample_id", "site_index", "value"],
                    [np.asarray(ids, dtype=int)[:, None], np.arange(values.shape[1]), values])


def field_sample_to_csv(data: FieldSample, path) -> None:
    _write_long(path, np.arange(data.n), data.values)


def field_sample_from_csv(path, grid: Grid) -> FieldSample:
    """Read the long CSV. Rows may come in any order; the n sample_ids must be
    0..n-1, each with site_index 0..n_sites-1 exactly once, else ``ValueError``."""
    _, table = read_csv_table(path)
    m = grid.n_sites
    if table.shape[1] != 3 or len(table) % m:
        raise ValueError(f"{path}: expected columns sample_id, site_index, value and {m} rows per sample")
    step_id, step_site = np.diff(table[:, 0]), np.diff(table[:, 1])
    if not np.all((step_id > 0) | ((step_id == 0) & (step_site > 0))):  # else sorting moves no row
        table = table[np.lexsort((table[:, 1], table[:, 0]))]
    ids, sites, values = (table[:, j].reshape(-1, m) for j in range(3))
    if not (np.all(sites == np.arange(m)) and np.all(ids == np.arange(len(ids))[:, None])):
        raise ValueError(f"{path}: sample_id must run 0..{len(ids) - 1}, and every "
                         f"sample_id needs site_index 0..{m - 1} exactly once")
    return FieldSample(grid, values)


def write_lift_report(report: LiftReport, outdir, extra_manifest: dict | None = None) -> None:
    """Report directory; manifest.json holds the report keys and ``extra_manifest``."""
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "norming.json").write_text(record_to_json(report.norming))
    write_csv_table(out / "selected.csv", ["sample_id"], [report.selected_ids])
    _write_long(out / "lifted.csv", report.selected_ids, report.lifted)
    _write_long(out / "normalized.csv", report.selected_ids, report.normalized)
    manifest = {
        "t0": report.t0,
        "k": report.norming.k,
        "t": report.norming.t,
        "n_selected": len(report.selected_ids),
    }
    if extra_manifest:
        manifest.update(extra_manifest)
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
