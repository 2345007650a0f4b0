"""Spatial error maps and cohort-level statistics.

The voxelwise maps aggregate where methods miss lesions (false
negatives) and where they hallucinate them (false positives) across a
cohort, given subject by subject as one reference and the predictions
scored against it. The scalar routines cover the cohort summary
table and the hypothesis tests used to compare patient groups: Welch's
unequal-variance t-test and Fisher's exact test.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import (ArityError, EvaluationWarning, ShapeMismatchError,
                     UndefinedMetricError)
from .volume import BinaryMask, connected_components, same_grid

__all__ = [
    "RateMap",
    "fn_fp_maps",
    "Summary",
    "CohortSummary",
    "summarize_cohort",
    "WelchResult",
    "welch_ttest",
    "fisher_exact",
    "train_test_r2",
]


@dataclass(frozen=True, eq=False)
class RateMap:
    """A voxelwise error-rate grid plus its building blocks.

    ``rate`` is numerator/denominator where the denominator is
    positive and 0 elsewhere. ``lesion_count`` holds, per voxel, the
    number of subjects whose reference contains that voxel.
    """

    numerator: np.ndarray
    denominator: np.ndarray
    rate: np.ndarray
    lesion_count: np.ndarray
    spacing: tuple[float, float, float]


def fn_fp_maps(subjects: Iterable[tuple[BinaryMask, Iterable[BinaryMask]]],
               fp_denominator: str = "ref_negative"
               ) -> tuple[RateMap, RateMap]:
    """Aggregate false-negative and false-positive rates over subjects.

    Each subject is (reference, predictions): one reference mask and
    the masks of the methods scored against it, all on a common grid.
    Every (reference, prediction) pair counts once. The FN rate divides
    by how often a voxel was reference foreground; the FP rate divides
    by how often it was reference background, or by the total number of
    pairs with ``fp_denominator="pairs"``. The lesion-count grid adds
    each subject's reference once.

    ``subjects`` and each subject's predictions may be any iterables,
    generators included; each is consumed once, so memory does not grow
    with the number of masks.
    """
    if fp_denominator not in ("ref_negative", "pairs"):
        raise ValueError(f"bad fp_denominator {fp_denominator!r}")
    ref0 = None
    n = 0
    for ref, preds in subjects:
        if ref0 is None:
            ref0 = ref
            # the masks' layout, through np.zeros rather than zeros_like:
            # a calloc'd page of a rate map that stays 0 is never touched
            order = "F" if ref.data.flags.f_contiguous else "C"
            fn_num, fn_den, fp_num, lesion_count = (
                np.zeros(ref.dims, np.int64, order=order) for _ in range(4))
        same_grid(ref0, ref, "map inputs")
        lesion_count += ref.data
        background = ~ref.data
        for pred in preds:
            same_grid(ref, pred, "reference and prediction")
            fn_num += ref.data & ~pred.data
            fn_den += ref.data
            fp_num += pred.data & background
            n += 1
    if n == 0:
        raise ArityError("fn_fp_maps needs at least one pair")

    if fp_denominator == "ref_negative":
        fp_den = n - fn_den
    else:
        fp_den = np.full_like(fn_den, n)

    def _rate(num, den):
        out = np.zeros(num.shape, np.float64, order=order)
        np.divide(num, den, out=out, where=den > 0)
        return out

    spacing = ref0.spacing
    fn = RateMap(fn_num, fn_den, _rate(fn_num, fn_den), lesion_count, spacing)
    fp = RateMap(fp_num, fp_den, _rate(fp_num, fp_den), lesion_count, spacing)
    return fn, fp


@dataclass(frozen=True)
class Summary:
    mean: float
    sd: float
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    n: int
    sd_degenerate: bool = False   # single observation, sd reported as 0


def _summary(values: np.ndarray) -> Summary:
    n = len(values)
    degenerate = n == 1
    sd = 0.0 if degenerate else float(np.std(values, ddof=1))
    q1, med, q3 = (float(np.percentile(values, q)) for q in (25, 50, 75))
    return Summary(mean=float(np.mean(values)), sd=sd,
                   minimum=float(np.min(values)), q1=q1, median=med, q3=q3,
                   maximum=float(np.max(values)), n=n,
                   sd_degenerate=degenerate)


@dataclass(frozen=True, eq=False)
class CohortSummary:
    n: int
    volumes_ml: np.ndarray
    lesion_counts: np.ndarray
    volume: Summary
    count: Summary
    volume_hist: tuple[np.ndarray, np.ndarray]   # (edges, counts)
    count_hist: tuple[np.ndarray, np.ndarray]


def _histogram(values: np.ndarray, width: float):
    top = float(np.max(values))
    n_bins = max(1, int(math.ceil(top / width)))
    edges = np.arange(n_bins + 1, dtype=np.float64) * width
    counts, _ = np.histogram(values, bins=edges)
    return edges, counts


def summarize_cohort(masks: list[BinaryMask], volume_bin_ml: float = 10.0,
                     count_bin: float = 10.0,
                     connectivity: int = 26) -> CohortSummary:
    """Volume and lesion-count distribution of a set of reference
    masks, in the shape of the usual cohort table."""
    if not masks:
        raise ArityError("cohort summary needs at least one mask")
    if volume_bin_ml <= 0 or count_bin <= 0:
        raise ValueError("bin widths must be positive")
    volumes = np.array([m.volume_ml() for m in masks])
    counts = np.array([connected_components(m, connectivity).count
                       for m in masks], dtype=np.float64)
    return CohortSummary(
        n=len(masks), volumes_ml=volumes, lesion_counts=counts,
        volume=_summary(volumes), count=_summary(counts),
        volume_hist=_histogram(volumes, volume_bin_ml),
        count_hist=_histogram(counts, count_bin))


@dataclass(frozen=True)
class WelchResult:
    t: float
    df: float
    p_value: float
    infinite: bool = False   # variances were zero with unequal means


def welch_ttest(a, b) -> WelchResult:
    """Two-sided Welch t-test (unequal variances), through
    ``scipy.stats.ttest_ind(equal_var=False)``.

    Degenerate inputs are mapped to the sensible limits: identical
    constant samples give p = 1, constant samples with different means
    give p = 0 with the ``infinite`` flag set.
    """
    from scipy import stats

    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if len(a) < 2 or len(b) < 2:
        raise ArityError("welch_ttest needs at least two values per group")
    if a.var(ddof=1) == 0.0 and b.var(ddof=1) == 0.0:
        ma, mb = a.mean(), b.mean()
        if ma == mb:
            return WelchResult(t=0.0, df=float("nan"), p_value=1.0)
        return WelchResult(t=math.copysign(float("inf"), ma - mb),
                           df=float("nan"), p_value=0.0, infinite=True)
    with warnings.catch_warnings():
        # one constant group is exact here, not a loss of precision
        warnings.simplefilter("ignore", RuntimeWarning)
        res = stats.ttest_ind(a, b, equal_var=False)
    return WelchResult(t=float(res.statistic), df=float(res.df),
                       p_value=float(res.pvalue))


def fisher_exact(table) -> float:
    """Two-sided Fisher exact p for a 2x2 contingency table, through
    ``scipy.stats.fisher_exact``. Zero margins -> p = 1."""
    from scipy import stats

    (a, b), (c, d) = table
    cells = [[int(a), int(b)], [int(c), int(d)]]
    if min(cells[0] + cells[1]) < 0:
        raise ValueError(f"negative cell in {table}")
    return float(stats.fisher_exact(cells).pvalue)


def train_test_r2(train, test) -> float:
    """Squared Pearson correlation between paired cohort statistics.

    A constant train column leaves the correlation undefined; a
    constant test column is reported as 0 with a warning.
    """
    x = np.asarray(train, dtype=np.float64)
    y = np.asarray(test, dtype=np.float64)
    if x.shape != y.shape:
        raise ShapeMismatchError("train and test must pair up")
    if len(x) < 3:
        raise ArityError("correlation needs at least three pairs")
    vx = x.var()
    vy = y.var()
    if vx == 0.0:
        raise UndefinedMetricError("train column is constant")
    if vy == 0.0:
        warnings.warn("test column is constant; reporting R^2 = 0",
                      EvaluationWarning, stacklevel=2)
        return 0.0
    r = float(np.mean((x - x.mean()) * (y - y.mean())) / math.sqrt(vx * vy))
    return r * r
