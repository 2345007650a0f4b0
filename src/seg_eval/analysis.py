"""Spatial error maps and cohort-level statistics.

The voxelwise maps aggregate where methods miss lesions (false
negatives) and where they hallucinate them (false positives) across a
cohort, given subject by subject as one reference and the predictions
scored against it. The scalar routine builds the cohort summary
table.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import ArityError
from .volume import (BinaryMask, bounding_box, connected_components,
                     same_grid)

__all__ = [
    "ErrorMaps",
    "fn_fp_maps",
    "Summary",
    "CohortSummary",
    "summarize_cohort",
]


@dataclass(frozen=True, eq=False)
class ErrorMaps:
    """Voxelwise false-negative and false-positive rates over a cohort.

    Each rate is its count over its denominator where the denominator
    is positive and +0.0 elsewhere. ``lesion_count`` holds, per voxel,
    the number of subjects whose reference contains that voxel.
    """

    fn_rate: np.ndarray
    fp_rate: np.ndarray
    lesion_count: np.ndarray
    spacing: tuple[float, float, float]


def fn_fp_maps(subjects: Iterable[tuple[BinaryMask, Iterable[BinaryMask]]],
               fp_denominator: str = "ref_negative") -> ErrorMaps:
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
    with the number of masks. Each prediction costs one whole-grid pass,
    adding it to its subject's vote count; the counts are then taken
    only inside the box of the subject's reference or votes, and each
    rate, with its denominator, only inside its numerator's box. So
    work and touched memory scale with the lesion boxes plus that one
    pass per prediction, and every rate equals what a per-pair
    whole-grid loop would give.
    """
    if fp_denominator not in ("ref_negative", "pairs"):
        raise ValueError(f"bad fp_denominator {fp_denominator!r}")
    ref0 = None
    n = 0
    for ref, preds in subjects:
        if ref0 is None:
            ref0 = ref
            # np.zeros rather than zeros_like: a calloc'd page of a map
            # that stays 0 is never written
            fn_num, fn_den, fp_num, lesion_count = (
                np.zeros(ref.dims, np.int64, order="F") for _ in range(4))
            votes = np.zeros(ref.dims, np.int32, order="F")
        same_grid(ref0, ref, "map inputs")
        k = 0
        for pred in preds:
            same_grid(ref, pred, "reference and prediction")
            votes += pred.data
            k += 1
        # each term is 0 outside the box of the reference or the votes
        box = bounding_box(ref.data)
        r = ref.data[box]
        lesion_count[box] += r
        fn_den[box] += k * r
        fn_num[box] += r * (k - votes[box])
        box = bounding_box(votes)
        fp_num[box] += ~ref.data[box] * votes[box]
        votes[box] = 0
        n += k
    if n == 0:
        raise ArityError("fn_fp_maps needs at least one pair")

    def _rate(num, den, box):
        # outside the numerator's box the rate is the +0.0 already there
        out = np.zeros(num.shape, np.float64, order="F")
        np.divide(num[box], den, out=out[box], where=den > 0)
        return out

    fn_box, fp_box = bounding_box(fn_num), bounding_box(fp_num)
    fp_den = n - fn_den[fp_box] if fp_denominator == "ref_negative" else n
    return ErrorMaps(_rate(fn_num, fn_den[fn_box], fn_box),
                     _rate(fp_num, fp_den, fp_box), lesion_count, ref0.spacing)


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
