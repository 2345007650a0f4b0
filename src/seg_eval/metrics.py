"""Per-subject segmentation metrics.

The five challenge metrics are the Dice coefficient, the 95th
percentile Hausdorff distance in mm, the absolute volume difference in
percent, its log-scale variant, and lesion-level recall/F1 based on
connected components. ``evaluate_pair`` bundles them into one record;
``prepare_reference`` readies a reference once for many predictions.

A metric that is undefined for a particular pair (for instance H95
against an empty prediction) is reported as ``None`` and written as an
empty CSV field; aggregation skips such entries instead of inventing a
penalty value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UndefinedMetricError
# binarize_challenge is unused here, but perfbench/tracing.py wraps it
# under this module's name
from .volume import (BinaryMask, LabelVolume, binarize_challenge,
                     bounding_box, connected_components, same_grid,
                     surface_voxels, directed_surface_distances)

__all__ = [
    "MetricVector",
    "PreparedReference",
    "avd_percent",
    "log_avd",
    "relative_difference",
    "prepare_reference",
    "wmh_in_lesion_box",
    "evaluate_pair",
]


@dataclass(frozen=True)
class MetricVector:
    """All metrics for one (reference, prediction) pair.

    ``None`` marks a metric that is undefined for this pair.
    ``evaluate_pair`` always fills the lesion counts and volumes, but
    records loaded from summary tables may carry None there too.
    """

    dsc: float
    h95_mm: float | None
    avd_pct: float | None
    lavd: float | None
    recall: float
    f1: float
    recall_small: float | None = None
    recall_large: float | None = None
    n_ref_lesions: int | None = None
    n_pred_lesions: int | None = None
    ref_volume_ml: float | None = None
    pred_volume_ml: float | None = None

    def as_dict(self) -> dict:
        return dict(vars(self))   # every field, in declaration order

    @property
    def has_missing(self) -> bool:
        return any(v is None for v in (self.h95_mm, self.avd_pct, self.lavd,
                                       self.recall_small, self.recall_large))


def avd_percent(ref_volume: float, pred_volume: float) -> float:
    """Absolute volume difference relative to the reference, in %."""
    if ref_volume <= 0:
        raise UndefinedMetricError(
            "AVD is undefined for an empty reference volume")
    return abs(pred_volume - ref_volume) / ref_volume * 100.0


def log_avd(ref_volume: float, pred_volume: float) -> float | None:
    """|ln(pred/ref)|. None for an empty prediction; an empty
    reference has no defined value at all."""
    if ref_volume <= 0:
        raise UndefinedMetricError(
            "log-AVD is undefined for an empty reference volume")
    if pred_volume <= 0:
        return None
    return abs(math.log(pred_volume / ref_volume))


def _hits(labels: np.ndarray, count: int) -> np.ndarray:
    """Flags for component ids 1..count: which of them ``labels`` holds.
    Every entry of ``labels`` is a foreground id, so none is 0."""
    hit = np.zeros(count, dtype=bool)
    hit[labels - 1] = True
    return hit


def _recall_f1(ref_hit: np.ndarray, pred_hit: np.ndarray
               ) -> tuple[float, float]:
    """Lesion recall and F1 from the flags of the reference lesions that
    a prediction detects and the predicted lesions that touch one."""
    n_ref, n_pred = ref_hit.size, pred_hit.size
    if n_ref == 0 or n_pred == 0:   # both empty agree perfectly
        return (1.0, 1.0) if n_ref == n_pred else (0.0, 0.0)
    recall = float(ref_hit.sum()) / n_ref
    precision = float(pred_hit.sum()) / n_pred
    return recall, (0.0 if precision + recall == 0
                    else 2.0 * precision * recall / (precision + recall))


def _stratum_recall(hit: np.ndarray, stratum: np.ndarray) -> float | None:
    """The share of the lesions flagged in ``stratum`` that ``hit`` flags
    too; None for an empty stratum."""
    n = np.count_nonzero(stratum)
    return np.count_nonzero(hit & stratum) / n if n else None


def relative_difference(value: float, baseline: float) -> float:
    """(value - baseline) / baseline; the size-split summaries report
    small-lesion recall relative to large-lesion recall this way."""
    if baseline == 0:
        raise UndefinedMetricError(
            "relative difference against a zero baseline")
    return (value - baseline) / baseline


def wmh_in_lesion_box(vol: LabelVolume) -> BinaryMask:
    """The label-1 mask of a challenge volume inside its lesion box: the
    whole-grid mask's voxel count and components, in fewer voxels."""
    return BinaryMask(vol.data[bounding_box(vol.data)] == 1, vol.spacing)


@dataclass(frozen=True, eq=False)
class PreparedReference:
    """A reference's read-only share of :func:`evaluate_pair`: its
    lesion ``box``, the label-1 voxel ``count`` and ``volume_ml``, the
    component ``labels`` of the label-1 crop under ``connectivity`` (the
    whole grid's ids) with each lesion's voxel count in ``sizes``
    (``sizes[k]`` for id k+1, int64), and its ``surface`` in grid
    coordinates with a KD-tree over it in mm. ``surface_index`` holds
    the surface's x-fastest flat grid indices, ascending: H95 finds the
    surface voxels a prediction shares with it there, and their
    distances are exact zeros that are never queried. ``small`` flags
    the lesions of at most the median size, the size-split recall's
    small stratum (the rest are large). Labels are read from
    ``volume``."""

    volume: LabelVolume
    box: tuple[slice, ...]
    count: int
    volume_ml: float
    connectivity: int
    labels: np.ndarray
    sizes: np.ndarray
    small: np.ndarray
    surface: np.ndarray
    surface_index: np.ndarray
    tree: object


def prepare_reference(ref: LabelVolume, connectivity: int = 26
                      ) -> PreparedReference:
    """Crop, label and surface a reference once, for scoring many
    predictions with :func:`evaluate_pair`. ``connectivity`` (6, 18 or
    26) is the lesion neighbourhood of the reference and of every
    prediction scored against it."""
    from scipy.spatial import cKDTree

    box = bounding_box(ref.data)
    wmh = BinaryMask(ref.data[box] == 1, ref.spacing)
    count = wmh.count()
    labels, _ = connected_components(wmh, connectivity)
    # ids 1..n all occur, so this has n entries; none for an empty mask
    sizes = np.bincount(labels[wmh.data])[1:]
    small = sizes <= (np.median(sizes) if sizes.size else 0)
    surface = surface_voxels(wmh) + [sl.start for sl in box]
    surface_index = _flat_index(surface, ref.dims)
    for array in (labels, sizes, small, surface, surface_index):
        array.setflags(write=False)
    tree = cKDTree(surface * np.asarray(ref.spacing)) if count else None
    return PreparedReference(ref, box, count, wmh.volume_ml(), connectivity,
                             labels, sizes, small, surface, surface_index,
                             tree)


def _flat_index(coords: np.ndarray, dims) -> np.ndarray:
    """x-fastest flat grid indices of (K, 3) voxel coordinates; rows in
    x-fastest scan order give ascending indices."""
    return coords @ np.array((1, dims[0], dims[0] * dims[1]))


def _percentile95(d: np.ndarray) -> float:
    """``np.percentile(d, 95.0)`` of a non-empty 1-D float64 array, bit
    for bit: numpy's linear method (Hyndman & Fan type 7), its virtual
    index ``(n - 1) * 0.95`` and its two-sided lerp."""
    index = (d.size - 1) * 0.95
    lo = int(index)
    if lo == d.size - 1:    # one value: numpy takes it as it is
        return float(d[0])
    a, b = np.partition(d, (lo, lo + 1))[lo:lo + 2].tolist()
    t = index - lo
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def _surface_h95(ref: PreparedReference, surf_pred: np.ndarray) -> float:
    """H95 between a prepared reference's surface and a prediction's,
    both non-empty and in grid coordinates: the larger of the two
    directed 95th percentiles, each interpolated linearly between order
    statistics.

    A voxel on both surfaces is at distance exactly 0.0 both ways and is
    never queried. Each other voxel is queried against the whole of the
    other surface, so every distance, and H95 with it, is bit for bit
    what querying every voxel gives. A direction with nothing to query
    builds no tree and makes no query."""
    spacing = ref.volume.spacing
    # one search over the reference's ascending indices finds the voxels
    # shared on both sides
    index = _flat_index(surf_pred, ref.volume.dims)
    at = np.searchsorted(ref.surface_index, index)
    shared = ref.surface_index.take(at, mode="clip") == index
    n_shared = np.count_nonzero(shared)
    d_rp = np.zeros(ref.surface_index.size)
    if n_shared < d_rp.size:
        rows = np.ones(d_rp.size, dtype=bool)
        rows[at[shared]] = False
        d_rp[rows] = directed_surface_distances(ref.surface[rows], surf_pred,
                                                spacing)
    d_pr = np.zeros(index.size)
    if n_shared < d_pr.size:
        rows = ~shared
        d_pr[rows] = ref.tree.query(surf_pred[rows] * np.asarray(spacing),
                                    k=1)[0]
    return max(_percentile95(d_rp), _percentile95(d_pr))


def evaluate_pair(ref: LabelVolume | PreparedReference, pred: LabelVolume
                  ) -> MetricVector:
    """Score one prediction against one reference.

    Reference label 2 (other pathology) is excised from both masks
    before anything is measured. Prediction label 2 is treated as
    background.

    ``ref`` is a reference prepared by :func:`prepare_reference`, whose
    connectivity the prediction's lesions are labelled with, or a label
    volume, prepared here at the default connectivity. Each volume
    is cropped to its own lesion box. Every voxel outside that box is
    background, so a voxel on a face of the crop borders background in
    the whole grid too: surfaces, component ids and (shifted back) H95
    distances are the whole grid's, bit for bit. The label-2 exclusion
    and the overlap are read from the reference's own labels in the
    prediction's box; the overlap voxels, shifted into the reference's
    box, look up its component ids.
    """
    if not isinstance(ref, PreparedReference):
        ref = prepare_reference(ref)
    same_grid(ref.volume, pred, "reference and prediction")
    box = bounding_box(pred.data)
    pred_data = pred.data[box] == 1
    ref_labels = ref.volume.data[box]
    pred_data &= ref_labels != 2
    pred_eval = BinaryMask(pred_data, ref.volume.spacing)
    n_pred_vox = pred_eval.count()
    pred_ids, n_pred = connected_components(pred_eval, ref.connectivity)

    # lesions are hit where reference and prediction overlap; one flat
    # x-fastest scan is faster than a 3-D np.nonzero
    both = (ref_labels == 1) & pred_data
    overlap = np.unravel_index(np.flatnonzero(both.ravel("F")),
                               both.shape, order="F")
    # every overlap voxel is a reference lesion voxel, so in its box
    in_ref = tuple(i + (p.start - r.start)
                   for i, p, r in zip(overlap, box, ref.box))
    ref_hit = _hits(ref.labels[in_ref], ref.sizes.size)
    pred_hit = _hits(pred_ids[overlap], n_pred)
    total = ref.count + n_pred_vox
    dsc = 1.0 if total == 0 else 2.0 * overlap[0].size / total
    h95 = avd = lavd = None
    if ref.count and n_pred_vox:
        h95 = _surface_h95(
            ref, surface_voxels(pred_eval) + [sl.start for sl in box])
    if ref.count:
        avd = avd_percent(ref.count, n_pred_vox)
        lavd = log_avd(ref.count, n_pred_vox)
    recall, f1 = _recall_f1(ref_hit, pred_hit)

    return MetricVector(
        dsc=dsc, h95_mm=h95, avd_pct=avd, lavd=lavd, recall=recall, f1=f1,
        recall_small=_stratum_recall(ref_hit, ref.small),
        recall_large=_stratum_recall(ref_hit, ~ref.small),
        n_ref_lesions=ref.sizes.size,
        n_pred_lesions=n_pred,
        ref_volume_ml=ref.volume_ml,
        pred_volume_ml=pred_eval.volume_ml())
