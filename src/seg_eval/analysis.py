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

from .errors import ArityError, DegenerateInputError, SegEvalError
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

    Each rate (float64) is its count over its denominator where the
    denominator is positive and +0.0 elsewhere. ``lesion_count`` (int32)
    holds, per voxel, the number of subjects whose reference contains
    that voxel.
    """

    fn_rate: np.ndarray
    fp_rate: np.ndarray
    lesion_count: np.ndarray
    spacing: tuple[float, float, float]


# the int32 counts hold any count of pairs or subjects up to this one
_COUNT_MAX = int(np.iinfo(np.int32).max)


def _check_count(count: int, what: str) -> None:
    if count > _COUNT_MAX:
        raise SegEvalError(f"fn_fp_maps counts {what} in int32; more than "
                           f"{_COUNT_MAX} would overflow them")


def _union(a: tuple[slice, ...], b: tuple[slice, ...]) -> tuple[slice, ...]:
    """The smallest box holding boxes ``a`` and ``b``; an empty box (as
    ``bounding_box`` gives, ``0:0`` on every axis) adds nothing."""
    if a[0].start == a[0].stop:
        return b
    if b[0].start == b[0].stop:
        return a
    return tuple(slice(min(p.start, q.start), max(p.stop, q.stop))
                 for p, q in zip(a, b))


def _within(box: tuple[slice, ...],
            frame: tuple[slice, ...]) -> tuple[slice, ...]:
    """``box`` in the coordinates of ``frame``, which holds it."""
    return tuple(slice(b.start - f.start, b.stop - f.start)
                 for b, f in zip(box, frame))


def fn_fp_maps(subjects: Iterable[tuple[BinaryMask, Iterable[BinaryMask]]]
               ) -> ErrorMaps:
    """Aggregate false-negative and false-positive rates over subjects.

    Each subject is (reference, predictions): one reference mask and
    the masks of the methods scored against it, all on a common grid.
    Every (reference, prediction) pair counts once. The FN rate divides
    by how often a voxel was reference foreground; the FP rate divides
    by how often it was reference background. The lesion-count grid
    (int32) adds each subject's reference once.

    ``subjects`` and each subject's predictions may be any iterables,
    generators included; each is consumed once, so memory does not grow
    with the number of masks. Each prediction costs one whole-grid pass,
    adding it to its subject's int32 vote count. The other counts are
    int32 arrays over one frame, the union of every subject's reference
    and vote boxes, which grows (with a copy) when a box falls outside
    it; each subject adds to them only inside its two boxes, and the
    rates are taken only inside the frame. So work and touched memory
    scale with the lesion boxes plus that one pass per prediction, and
    every output equals what a per-pair whole-grid loop would give.
    More than ``2**31 - 1`` pairs or subjects would overflow the counts
    and raise ``SegEvalError``.
    """
    ref0 = None
    n = n_subjects = 0
    frame = (slice(0, 0),) * 3
    counts = np.zeros((0, 0, 0, 4), np.int32, order="F")
    lesion, fn_den, fn_num, fp_num = np.moveaxis(counts, 3, 0)
    for ref, preds in subjects:
        if ref0 is None:
            ref0 = ref
            votes = np.zeros(ref.dims, np.int32, order="F")
        same_grid(ref0, ref, "map inputs")
        n_subjects += 1
        _check_count(n_subjects, "subjects")
        k = 0
        for pred in preds:
            same_grid(ref, pred, "reference and prediction")
            k += 1
            _check_count(n + k, "pairs")
            votes += pred.data
        # each term is 0 outside the box of the reference or the votes
        ref_box, vote_box = bounding_box(ref.data), bounding_box(votes)
        wider = _union(_union(frame, ref_box), vote_box)
        if wider != frame:
            grown = np.zeros(tuple(s.stop - s.start for s in wider) + (4,),
                             np.int32, order="F")
            grown[_within(frame, wider)] = counts
            frame, counts = wider, grown
            lesion, fn_den, fn_num, fp_num = np.moveaxis(counts, 3, 0)
        r = ref.data[ref_box]
        at = _within(ref_box, frame)
        lesion[at] += r
        fn_den[at] += r * np.int32(k)
        fn_num[at] += r * (k - votes[ref_box])
        fp_num[_within(vote_box, frame)] += (~ref.data[vote_box]
                                             * votes[vote_box])
        votes[vote_box] = 0
        n += k
    if n == 0:
        raise ArityError("fn_fp_maps needs at least one pair")
    del votes   # whole-grid and resident: free it before the outputs

    def _whole(dtype):
        # np.zeros rather than zeros_like: a calloc'd page that stays 0
        # outside the frame is never written
        return np.zeros(ref0.dims, dtype, order="F")

    def _rate(num, den):
        # outside the frame every count is 0 and the rate the +0.0 there
        out = _whole(np.float64)
        np.divide(num, den, out=out[frame], where=den > 0)
        return out

    lesion_count = _whole(np.int32)
    lesion_count[frame] = lesion
    return ErrorMaps(_rate(fn_num, fn_den), _rate(fp_num, n - fn_den),
                     lesion_count, ref0.spacing)


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


# a histogram never gets more bins than this, whatever its bin width
_MAX_BINS = 10**6


@dataclass(frozen=True, eq=False)
class CohortSummary:
    n: int
    volumes_ml: np.ndarray
    lesion_counts: np.ndarray
    volume: Summary
    count: Summary
    volume_hist: tuple[np.ndarray, np.ndarray]   # (edges, counts)
    count_hist: tuple[np.ndarray, np.ndarray]


def _histogram(values: np.ndarray, width: float, what: str):
    top = float(np.max(values))
    # compared in float: the bin count of a tiny width may not fit an int
    if top / width > _MAX_BINS:
        raise DegenerateInputError(
            f"{what} bin width {width:g} would need {top / width:.4g} bins "
            f"to reach {top:g}; at most {_MAX_BINS} are allowed")
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
    if not (0 < volume_bin_ml < math.inf and 0 < count_bin < math.inf):
        raise ValueError("bin widths must be finite numbers > 0")
    volumes = np.array([m.volume_ml() for m in masks])
    counts = np.array([connected_components(m, connectivity)[1]
                       for m in masks], dtype=np.float64)
    return CohortSummary(
        n=len(masks), volumes_ml=volumes, lesion_counts=counts,
        volume=_summary(volumes), count=_summary(counts),
        volume_hist=_histogram(volumes, volume_bin_ml, "volume"),
        count_hist=_histogram(counts, count_bin, "lesion-count"))
