"""Relative ranking of methods, bootstrap confidence intervals, and
inter-scanner robustness.

Ranking follows the challenge recipe: per-method means for DSC, H95,
a volume metric (log-AVD by default, plain AVD optionally), lesion
recall and lesion F1 are each normalised linearly so the best method
sits at 0 and the worst at 1; the final rank is the mean of the five.
Lower is better everywhere after orientation.

Relative ranks are quantised to nine decimal places. The published
analysis treats the ranking as invariant to a positive rescaling of a
metric column (changing the log base, say); quantisation makes that
hold exactly in floating point instead of only up to rounding noise.

Bootstrap replicates resample subjects with replacement, identically
across methods. Each replicate draws from its own counter-based
stream keyed by (seed, replicate index), by the one bounded draw of
``seg_eval.streams`` on the stream's raw words, so results are
bit-identical regardless of execution order, worker count or numpy
release. The drawn replicates are averaged a block at a time: each
mean is a sum over the table with missing values zeroed, divided by
an exact count of the defined values drawn. All replicates are then
ranked in one pass of the same min-max as the point ranking. The
result has the same bits as ``nanmean`` and ranking one replicate at
a time.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import streams
from .errors import AllMissingError, ArityError, EvaluationWarning
from .metrics import MetricVector

__all__ = [
    "HIGHER_BETTER",
    "SubjectResult",
    "ResultTable",
    "BootstrapConfig",
    "RankTable",
    "InterscannerResult",
    "metric_means",
    "final_rank",
    "rank_with_ci",
    "significance_clusters",
    "interscanner_rank",
]

HIGHER_BETTER = {
    "dsc": True,
    "h95_mm": False,
    "avd_pct": False,
    "lavd": False,
    "recall": True,
    "f1": True,
}

_RANK_DECIMALS = 9
_MAX_REDRAW = 10_000
# float64 values gathered per bootstrap block (512 KiB); 1 MiB blocks
# raised the peak RSS of ranking 20 methods x 110 subjects by ~3 MB.
# A block's means are its NaN-zeroed sums over exact draw counts; the
# ranks of every block come from one min-max pass after the last one
_GATHER_BUDGET = 2**16


def _volume_column(volume_metric: str) -> str:
    if volume_metric in ("lavd",):
        return "lavd"
    if volume_metric in ("avd", "avd_pct"):
        return "avd_pct"
    raise ValueError(f"volume metric must be 'lavd' or 'avd', "
                     f"got {volume_metric!r}")


def selected_metrics(volume_metric: str) -> tuple[str, ...]:
    return ("dsc", "h95_mm", _volume_column(volume_metric), "recall", "f1")


@dataclass(frozen=True)
class SubjectResult:
    method_id: str
    subject_id: str
    scanner_id: str
    metrics: MetricVector


class ResultTable:
    """Per-subject metric records for a set of methods.

    Invariants checked on construction: (method, subject) pairs are
    unique, every method covers the same subject set, and a subject
    maps to one scanner.
    """

    def __init__(self, records: list[SubjectResult]):
        if not records:
            raise ArityError("a result table needs at least one record")
        cell: dict[tuple[str, str], MetricVector] = {}
        scanner_of: dict[str, str] = {}
        per_method: dict[str, set[str]] = {}
        for rec in records:
            key = (rec.method_id, rec.subject_id)
            if key in cell:
                raise ValueError(f"duplicate record for {key}")
            cell[key] = rec.metrics
            prev = scanner_of.setdefault(rec.subject_id, rec.scanner_id)
            if prev != rec.scanner_id:
                raise ValueError(
                    f"subject {rec.subject_id!r} appears under scanners "
                    f"{prev!r} and {rec.scanner_id!r}")
            per_method.setdefault(rec.method_id, set()).add(rec.subject_id)
        subject_sets = {frozenset(s) for s in per_method.values()}
        if len(subject_sets) != 1:
            raise ValueError("methods do not share the same subject set")

        self.records = tuple(records)
        self.methods = tuple(sorted(per_method))
        self.subjects = tuple(sorted(scanner_of))
        self.scanner_of = dict(scanner_of)
        self._cell = cell
        self._columns: dict[str, np.ndarray] = {}

    @property
    def scanners(self) -> tuple[str, ...]:
        return tuple(sorted(set(self.scanner_of.values())))

    def values(self, metrics: tuple[str, ...]) -> np.ndarray:
        """A fresh array (n_methods, n_metrics, n_subjects), missing ->
        NaN, from metric columns built once per table."""
        out = np.empty((len(self.methods), len(metrics), len(self.subjects)))
        for ki, name in enumerate(metrics):
            if name not in self._columns:
                self._columns[name] = np.array(
                    [[getattr(self._cell[(m, s)], name) for s in self.subjects]
                     for m in self.methods], dtype=np.float64)
            out[:, ki] = self._columns[name]
        return out


def _minmax_ranks(values: np.ndarray, higher_better) -> np.ndarray:
    """Min-max normalise over the method axis of a ``(..., methods,
    metrics)`` array so each column's best value maps to 0 and its
    worst to 1; ``higher_better`` holds one flag per metric column.
    A flat column maps every method to 0.
    """
    v = np.where(higher_better, -values, values)
    lo = v.min(axis=-2, keepdims=True)
    hi = v.max(axis=-2, keepdims=True)
    # in place: rank_with_ci passes the means of every replicate at once
    with np.errstate(invalid="ignore", divide="ignore"):
        v -= lo
        v /= hi - lo
    np.round(v, _RANK_DECIMALS, out=v)
    np.copyto(v, 0.0, where=hi == lo)
    return v


def metric_means(table: ResultTable, metrics: tuple[str, ...]
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Per-method mean over subjects with a defined value.

    Returns (means, counts), both (n_methods, n_metrics). A cell in
    which every subject is missing has no defined mean and raises.
    """
    vals = table.values(metrics)
    defined = ~np.isnan(vals)
    counts = defined.sum(axis=2)
    empty = np.argwhere(counts == 0)
    if empty.size:
        mi, ki = empty[0]
        raise AllMissingError(f"method {table.methods[mi]!r} has no defined "
                              f"{metrics[ki]} on any subject")
    with np.errstate(invalid="ignore"):
        means = np.nanmean(vals, axis=2)
    return means, counts


@dataclass(frozen=True)
class BootstrapConfig:
    replicates: int = 2000
    seed: int = 0
    confidence: float = 0.95

    def __post_init__(self):
        for name in ("replicates", "seed"):
            value = getattr(self, name)
            if (isinstance(value, bool)
                    or not isinstance(value, (int, np.integer))):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            # a Python int: streams.rekey masks the seed to 64 bits
            object.__setattr__(self, name, int(value))
        if self.replicates < 0:
            raise ValueError("replicates must be >= 0")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")


@dataclass(frozen=True, eq=False)
class RankTable:
    """Methods ordered best to worst with their rank breakdown."""

    methods: tuple[str, ...]
    positions: tuple[int, ...]           # 1-based; ties share a position
    final: np.ndarray                    # aligned with methods
    metric_ranks: dict[str, np.ndarray]
    means: dict[str, np.ndarray]
    counts: dict[str, np.ndarray]
    volume_metric: str
    final_ci: np.ndarray | None = None   # (n_methods, 2)
    mean_ci: dict[str, np.ndarray] | None = None
    cluster_boundaries: tuple[int, ...] | None = None
    bootstrap: BootstrapConfig | None = None
    redraws: int = 0


def _order_methods(methods: tuple[str, ...], final: np.ndarray):
    order = sorted(range(len(methods)), key=lambda i: (final[i], methods[i]))
    ordered_final = final[order]
    positions = []
    for i, v in enumerate(ordered_final):
        if i and v == ordered_final[i - 1]:
            positions.append(positions[-1])
        else:
            positions.append(i + 1)
    return order, tuple(positions)


def final_rank(table: ResultTable, volume_metric: str = "lavd") -> RankTable:
    """Rank all methods by the mean of the five relative metric ranks."""
    if len(table.methods) < 2:
        raise ArityError("ranking needs at least two methods")
    metrics = selected_metrics(volume_metric)
    means, counts = metric_means(table, metrics)
    ranks = _minmax_ranks(means, [HIGHER_BETTER[m] for m in metrics])
    final = ranks.mean(axis=1)

    order, positions = _order_methods(table.methods, final)
    means_d = {name: means[order, k] for k, name in enumerate(metrics)}
    counts_d = {name: counts[order, k] for k, name in enumerate(metrics)}
    ranks_d = {name: ranks[order, k] for k, name in enumerate(metrics)}

    # report the alternate volume column too when any data exists
    alt = "avd_pct" if _volume_column(volume_metric) == "lavd" else "lavd"
    vals = table.values((alt,))
    if (~np.isnan(vals)).any():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            alt_means = np.nanmean(vals[:, 0, :], axis=1)
        means_d[alt] = alt_means[order]
        counts_d[alt] = (~np.isnan(vals[:, 0, :])).sum(axis=1)[order]

    return RankTable(
        methods=tuple(table.methods[i] for i in order),
        positions=positions, final=final[order], metric_ranks=ranks_d,
        means=means_d, counts=counts_d,
        volume_metric=_volume_column(volume_metric))


def rank_with_ci(table: ResultTable, volume_metric: str = "lavd",
                 config: BootstrapConfig = BootstrapConfig()) -> RankTable:
    """Rank with percentile bootstrap CIs over subjects.

    Subjects are resampled with replacement, the same draw applied to
    every method. A draw that leaves some (method, metric) cell with
    no defined value is discarded and redrawn from the same replicate
    stream; the number of redraws is reported on the result.
    """
    base = final_rank(table, volume_metric)
    if config.replicates == 0:
        return base

    n_subj = len(table.subjects)
    if n_subj < 2:
        raise ArityError("bootstrap needs at least two subjects")
    metrics = selected_metrics(volume_metric)
    vals = table.values(metrics)                 # (M, K, S)

    # draw and average the replicates a block at a time; the counts
    # are exact, every product and partial sum an integer <= n_subj
    missing = np.isnan(vals)
    filled = np.where(missing, 0.0, vals)
    defined = (~missing).reshape(-1, n_subj).astype(np.float64)  # (MK, S)
    block = max(1, _GATHER_BUDGET // vals.size)
    rep_means = np.empty((config.replicates, *vals.shape[:2]))   # (R, M, K)
    block_draws = np.empty((min(block, config.replicates), n_subj), np.int64)
    redraws = 0
    bits = np.random.Philox(key=0)
    for s in range(0, config.replicates, block):
        draws = block_draws[:config.replicates - s]
        # replicate r draws from stream (seed, r + 1); a row with a
        # rejected word or an empty cell is drawn again word by word
        redo = streams.below_rows(bits, config.seed, s + 1, n_subj, draws)
        rows = n_subj * np.arange(len(draws))[:, None]
        mult = np.bincount((draws + rows).ravel(), minlength=draws.size)
        counts = defined @ mult.reshape(draws.shape).T.astype(np.float64)
        redo |= ~counts.all(axis=0)
        for i in np.flatnonzero(redo):
            words = streams.words(streams.rekey(bits, config.seed, s + i + 1))
            for tries in range(_MAX_REDRAW):
                draws[i] = [streams.below(words, n_subj)
                            for _ in range(n_subj)]
                counts[:, i] = defined @ np.bincount(draws[i],
                                                     minlength=n_subj)
                if counts[:, i].all():
                    break
            else:
                raise AllMissingError(
                    f"bootstrap replicate {s + i} kept drawing subject sets "
                    f"with an empty (method, metric) cell")
            redraws += tries
        sums = filled[:, :, draws].sum(axis=3)                # (M, K, B)
        sums /= counts.reshape(sums.shape)
        rep_means[s:s + block] = sums.transpose(2, 0, 1)
    rep_final = _minmax_ranks(
        rep_means, [HIGHER_BETTER[m] for m in metrics]).mean(2)   # (R, M)

    # percentiles over replicates, realigned to the base table's order
    q = [100.0 * (1.0 - config.confidence) / 2.0,
         100.0 * (1.0 + config.confidence) / 2.0]
    order = [table.methods.index(m) for m in base.methods]
    final_ci = np.percentile(rep_final, q, axis=0)[:, order].T
    mean_ci_raw = np.percentile(rep_means, q, axis=0)[:, order]
    mean_ci = {name: mean_ci_raw[:, :, k].T for k, name in enumerate(metrics)}
    boundaries = significance_clusters(final_ci)

    return replace(
        base, final_ci=final_ci, mean_ci=mean_ci,
        cluster_boundaries=boundaries, bootstrap=config, redraws=redraws)


def significance_clusters(rank_ci: np.ndarray) -> tuple[int, ...]:
    """Boundaries between significantly separated groups.

    ``rank_ci`` is (n_methods, 2), ordered best to worst. A boundary
    sits after 1-based position k when interval k is entirely below
    interval k+1 (no overlap).
    """
    ci = np.asarray(rank_ci, dtype=np.float64)
    if ci.ndim != 2 or ci.shape[1] != 2:
        raise ValueError("rank_ci must have shape (n_methods, 2)")
    return tuple(k + 1 for k in range(len(ci) - 1)
                 if ci[k, 1] < ci[k + 1, 0])


@dataclass(frozen=True, eq=False)
class InterscannerResult:
    methods: tuple[str, ...]             # sorted most to least robust
    robustness: np.ndarray               # aligned with methods; lower-better
    dispersions: dict[str, np.ndarray]   # per metric, raw std over scanners
    normalization: str


def interscanner_rank(table: ResultTable, volume_metric: str = "lavd",
                      normalization: str = "minmax") -> InterscannerResult:
    """Rank methods by how stable their metrics are across scanners.

    Per (method, metric): the median over each scanner's subjects
    (missing values skipped), then the population standard deviation
    of those medians. Dispersions are normalised per metric (min-max
    by default, mean ordinal position with ``normalization="ordinal"``)
    and averaged over the five ranked metrics; smaller means sturdier.
    A scanner with no defined value in a cell is left out of it with a
    warning; once every such cell has warned, a cell left with fewer
    than two scanners raises.
    """
    if normalization not in ("minmax", "ordinal"):
        raise ValueError(f"bad normalization {normalization!r}")
    if len(table.methods) < 2:
        raise ArityError("inter-scanner ranking needs at least two methods")
    scanners = table.scanners
    if len(scanners) < 2:
        raise ArityError("inter-scanner ranking needs at least two scanners")

    metrics = selected_metrics(volume_metric)
    vals = table.values(metrics)         # (M, K, S)
    subj_scanner = np.array([scanners.index(table.scanner_of[s])
                             for s in table.subjects])
    with warnings.catch_warnings():      # an all-missing cell stays NaN
        warnings.simplefilter("ignore", RuntimeWarning)
        medians = np.stack([np.nanmedian(vals[:, :, subj_scanner == g], 2)
                            for g in range(len(scanners))], axis=2)

    defined = ~np.isnan(medians)         # (M, K, G)
    for mi, ki, gi in np.argwhere(~defined):
        warnings.warn(
            f"scanner {scanners[gi]!r} has no defined {metrics[ki]} for "
            f"method {table.methods[mi]!r}; excluded from its dispersion",
            EvaluationWarning, stacklevel=2)
    n_defined = defined.sum(axis=2)
    short = np.argwhere(n_defined < 2)
    if short.size:
        mi, ki = short[0]
        raise AllMissingError(
            f"method {table.methods[mi]!r}, metric {metrics[ki]}: fewer "
            f"than two scanners have defined values")

    # population std of each cell's defined medians in scanner order;
    # cells with as many values are reduced together, so every sum
    # groups its terms as np.std of that cell alone would
    disp = np.empty(n_defined.shape)
    for n in np.unique(n_defined):
        cells = n_defined == n
        disp[cells] = np.std(medians[cells][defined[cells]].reshape(-1, n),
                             axis=1)

    if normalization == "minmax":
        norm = _minmax_ranks(disp, False)
    else:
        from scipy.stats import rankdata
        norm = (rankdata(disp, axis=0) - 1.0) / (len(table.methods) - 1)

    robustness = norm.mean(axis=1)
    order, _ = _order_methods(table.methods, robustness)
    return InterscannerResult(
        methods=tuple(table.methods[i] for i in order),
        robustness=robustness[order],
        dispersions={name: disp[order, k] for k, name in enumerate(metrics)},
        normalization=normalization)
