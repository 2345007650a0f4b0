"""Per-subject segmentation metrics.

The five challenge metrics are the Dice coefficient, the 95th
percentile Hausdorff distance in mm, the absolute volume difference in
percent, its log-scale variant, and lesion-level recall/F1 based on
connected components. ``evaluate_pair`` bundles them into one record.

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
from .volume import (BinaryMask, ComponentLabeling, LabelVolume,
                     binarize_challenge, connected_components, same_grid,
                     surface_voxels, directed_surface_distances)

__all__ = [
    "EvalConfig",
    "MetricVector",
    "LesionMatch",
    "dice",
    "hausdorff95",
    "avd_percent",
    "log_avd",
    "lesion_recall_f1",
    "size_split_recall",
    "relative_difference",
    "evaluate_pair",
]


@dataclass(frozen=True)
class EvalConfig:
    """Knobs for :func:`evaluate_pair`.

    connectivity
        Neighbourhood for lesion components (6, 18 or 26).
    h95_mode
        "directed" takes the max of the two directed 95th percentiles;
        "pooled" takes one percentile over the pooled distances.
    ignore_mode
        "exclude" removes reference label-2 voxels from both masks
        before scoring; "background" leaves them in as background.
    """

    connectivity: int = 26
    h95_mode: str = "directed"
    ignore_mode: str = "exclude"

    def __post_init__(self):
        if self.connectivity not in (6, 18, 26):
            raise ValueError(f"bad connectivity {self.connectivity}")
        if self.h95_mode not in ("directed", "pooled"):
            raise ValueError(f"bad h95_mode {self.h95_mode!r}")
        if self.ignore_mode not in ("exclude", "background"):
            raise ValueError(f"bad ignore_mode {self.ignore_mode!r}")


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
        return {
            "dsc": self.dsc,
            "h95_mm": self.h95_mm,
            "avd_pct": self.avd_pct,
            "lavd": self.lavd,
            "recall": self.recall,
            "f1": self.f1,
            "recall_small": self.recall_small,
            "recall_large": self.recall_large,
            "n_ref_lesions": self.n_ref_lesions,
            "n_pred_lesions": self.n_pred_lesions,
            "ref_volume_ml": self.ref_volume_ml,
            "pred_volume_ml": self.pred_volume_ml,
        }

    @property
    def has_missing(self) -> bool:
        return any(v is None for v in (self.h95_mm, self.avd_pct, self.lavd,
                                       self.recall_small, self.recall_large))


def dice(ref: BinaryMask, pred: BinaryMask) -> float:
    """Dice overlap. Two empty masks agree perfectly, so 1.0."""
    same_grid(ref, pred, "masks")
    total = ref.count() + pred.count()
    if total == 0:
        return 1.0
    inter = int(np.logical_and(ref.data, pred.data).sum())
    return 2.0 * inter / total


def hausdorff95(ref: BinaryMask, pred: BinaryMask,
                mode: str = "directed") -> float | None:
    """95th percentile Hausdorff distance in mm, or None if either
    mask is empty.

    Percentiles use linear interpolation between order statistics.
    """
    same_grid(ref, pred, "masks")
    if ref.count() == 0 or pred.count() == 0:
        return None
    return _surface_h95(surface_voxels(ref), surface_voxels(pred),
                        ref.spacing, mode)


def _surface_h95(surf_ref: np.ndarray, surf_pred: np.ndarray,
                 spacing: tuple[float, float, float], mode: str) -> float:
    """H95 between two non-empty sets of surface voxel coordinates."""
    d_rp = directed_surface_distances(surf_ref, surf_pred, spacing)
    d_pr = directed_surface_distances(surf_pred, surf_ref, spacing)
    if mode == "directed":
        return float(max(np.percentile(d_rp, 95.0),
                         np.percentile(d_pr, 95.0)))
    if mode == "pooled":
        return float(np.percentile(np.concatenate([d_rp, d_pr]), 95.0))
    raise ValueError(f"bad mode {mode!r}")


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


@dataclass(frozen=True, eq=False)
class LesionMatch:
    """Component-level correspondence between reference and prediction.

    A reference lesion counts as detected when at least one predicted
    voxel falls inside it; a predicted component counts as matched when
    it touches at least one reference lesion.
    """

    ref_components: ComponentLabeling
    pred_components: ComponentLabeling
    ref_detected: np.ndarray
    pred_matched: np.ndarray


def lesion_recall_f1(ref: BinaryMask, pred: BinaryMask,
                     connectivity: int = 26
                     ) -> tuple[float, float, LesionMatch]:
    """Lesion-wise recall and F1 over connected components."""
    same_grid(ref, pred, "masks")
    comps_ref = connected_components(ref, connectivity)
    comps_pred = connected_components(pred, connectivity)

    ref_detected = np.zeros(comps_ref.count, dtype=bool)
    pred_matched = np.zeros(comps_pred.count, dtype=bool)
    if comps_ref.count and comps_pred.count:
        hit = np.unique(comps_ref.labels[pred.data])
        ref_detected[hit[hit > 0] - 1] = True
        hit = np.unique(comps_pred.labels[ref.data])
        pred_matched[hit[hit > 0] - 1] = True

    if comps_ref.count == 0 and comps_pred.count == 0:
        recall = f1 = 1.0
    elif comps_ref.count == 0 or comps_pred.count == 0:
        recall = f1 = 0.0
    else:
        recall = float(ref_detected.sum()) / comps_ref.count
        precision = float(pred_matched.sum()) / comps_pred.count
        f1 = (0.0 if precision + recall == 0
              else 2.0 * precision * recall / (precision + recall))
    match = LesionMatch(comps_ref, comps_pred, ref_detected, pred_matched)
    return recall, f1, match


def size_split_recall(match: LesionMatch
                      ) -> tuple[float | None, float | None]:
    """Recall split at the median reference lesion size.

    Small lesions are those at or below the median voxel count, large
    ones strictly above. A stratum with no lesions (all lesions the
    same size leaves the large stratum empty) reports None.
    """
    sizes = match.ref_components.sizes
    if sizes.size == 0:
        raise UndefinedMetricError(
            "size-split recall needs a nonempty reference")
    median = float(np.median(sizes))
    small = sizes <= median
    large = ~small
    detected = match.ref_detected
    recall_small = float(detected[small].mean()) if small.any() else None
    recall_large = float(detected[large].mean()) if large.any() else None
    return recall_small, recall_large


def relative_difference(value: float, baseline: float) -> float:
    """(value - baseline) / baseline; the size-split summaries report
    small-lesion recall relative to large-lesion recall this way."""
    if baseline == 0:
        raise UndefinedMetricError(
            "relative difference against a zero baseline")
    return (value - baseline) / baseline


def _label_profiles(vol: LabelVolume) -> list[np.ndarray]:
    """The largest label in each x, y and z plane of a volume, from two
    reductions that allocate nothing grid-sized."""
    plane = vol.data.max(axis=2, initial=0)
    return [plane.max(axis=1, initial=0), plane.max(axis=0, initial=0),
            vol.data.max(axis=(0, 1), initial=0)]


def _lesion_box(*profiles: list[np.ndarray]) -> tuple[slice, ...]:
    """Bounding box of the voxels with a non-zero label in any of the
    profiled volumes, grown by one voxel and clipped to the grid; the
    origin voxel when every label is 0."""
    box = []
    for axis_profiles in zip(*profiles):
        idx = np.flatnonzero(np.logical_or.reduce(axis_profiles))
        if idx.size == 0:
            return (slice(0, 1),) * 3
        box.append(slice(max(int(idx[0]) - 1, 0),
                         min(int(idx[-1]) + 2, axis_profiles[0].size)))
    return tuple(box)


def evaluate_pair(ref: LabelVolume, pred: LabelVolume,
                  config: EvalConfig = EvalConfig()) -> MetricVector:
    """Score one prediction against one reference.

    Reference label 2 (other pathology) is excised from both masks
    before anything is measured, unless the config says to treat it as
    plain background. Prediction label 2 is tolerated and treated as
    background either way.

    Two reductions per volume give its largest label per plane: they
    check that every label is in {0, 1, 2} and give the bounding box of
    both volumes' non-zero labels. Everything after that, label 2
    handling included, runs in that box plus a one-voxel margin. Every
    box face is then background or the grid boundary, so surfaces and
    component ids match the whole-grid ones; surface coordinates are
    shifted back to the grid so H95 distances are bit-identical. Both
    volumes may be in either memory layout.
    """
    same_grid(ref, pred, "reference and prediction")
    profiles = [_label_profiles(vol) for vol in (ref, pred)]
    for vol, prof in zip((ref, pred), profiles):
        if prof[2].max(initial=0) > 2:
            binarize_challenge(vol)   # raises, naming the first bad voxel
    box = _lesion_box(*profiles)
    ref_box, pred_box = ref.data[box], pred.data[box]
    ref_data, pred_data = ref_box == 1, pred_box == 1
    if config.ignore_mode == "exclude":
        pred_data &= ref_box != 2
    ref_eval = BinaryMask(ref_data, ref.spacing)
    pred_eval = BinaryMask(pred_data, ref.spacing)

    n_ref_vox = ref_eval.count()
    n_pred_vox = pred_eval.count()
    ref_ml = ref_eval.volume_ml()
    pred_ml = pred_eval.volume_ml()

    dsc = dice(ref_eval, pred_eval)
    if n_ref_vox and n_pred_vox:
        origin = [sl.start for sl in box]
        h95 = _surface_h95(surface_voxels(ref_eval) + origin,
                           surface_voxels(pred_eval) + origin,
                           ref.spacing, config.h95_mode)
    else:
        h95 = None
    if n_ref_vox == 0:
        avd = None
        lavd = None
    else:
        avd = avd_percent(n_ref_vox, n_pred_vox)
        lavd = log_avd(n_ref_vox, n_pred_vox)
    recall, f1, match = lesion_recall_f1(ref_eval, pred_eval,
                                         config.connectivity)
    if match.ref_components.count:
        recall_small, recall_large = size_split_recall(match)
    else:
        recall_small = recall_large = None

    return MetricVector(
        dsc=dsc, h95_mm=h95, avd_pct=avd, lavd=lavd, recall=recall, f1=f1,
        recall_small=recall_small, recall_large=recall_large,
        n_ref_lesions=match.ref_components.count,
        n_pred_lesions=match.pred_components.count,
        ref_volume_ml=ref_ml, pred_volume_ml=pred_ml)
