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
from .volume import (BinaryMask, ComponentLabeling, LabelVolume,
                     binarize_challenge, connected_components, same_grid,
                     surface_voxels, directed_surface_distances)

__all__ = [
    "EvalConfig",
    "MetricVector",
    "PreparedReference",
    "LesionMatch",
    "dice",
    "hausdorff95",
    "avd_percent",
    "log_avd",
    "lesion_recall_f1",
    "size_split_recall",
    "relative_difference",
    "prepare_reference",
    "wmh_in_lesion_box",
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
        return dict(vars(self))   # every field, in declaration order

    @property
    def has_missing(self) -> bool:
        return any(v is None for v in (self.h95_mm, self.avd_pct, self.lavd,
                                       self.recall_small, self.recall_large))


def dice(ref: BinaryMask, pred: BinaryMask) -> float:
    """Dice overlap. Two empty masks agree perfectly, so 1.0."""
    same_grid(ref, pred, "masks")
    return _dice(int(np.logical_and(ref.data, pred.data).sum()),
                 ref.count() + pred.count())


def _dice(inter: int, total: int) -> float:
    return 1.0 if total == 0 else 2.0 * inter / total


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
                 spacing: tuple[float, float, float], mode: str,
                 ref_tree=None) -> float:
    """H95 between non-empty surfaces; ``ref_tree`` is a KD-tree over
    ``surf_ref`` in mm, built here when None."""
    d_rp = directed_surface_distances(surf_ref, surf_pred, spacing)
    d_pr = (directed_surface_distances(surf_pred, surf_ref, spacing)
            if ref_tree is None
            else ref_tree.query(surf_pred * np.asarray(spacing), k=1)[0])
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
    match = LesionMatch(comps_ref, comps_pred,
                        _hits(comps_ref.labels[pred.data], comps_ref.count),
                        _hits(comps_pred.labels[ref.data], comps_pred.count))
    return (*_recall_f1(match), match)


def _hits(labels: np.ndarray, count: int) -> np.ndarray:
    """Flags for component ids 1..count: which of them ``labels`` holds."""
    hit = np.zeros(count, dtype=bool)
    ids = np.unique(labels)
    hit[ids[ids > 0] - 1] = True
    return hit


def _recall_f1(match: LesionMatch) -> tuple[float, float]:
    n_ref, n_pred = match.ref_components.count, match.pred_components.count
    if n_ref == 0 or n_pred == 0:   # both empty agree perfectly
        return (1.0, 1.0) if n_ref == n_pred else (0.0, 0.0)
    recall = float(match.ref_detected.sum()) / n_ref
    precision = float(match.pred_matched.sum()) / n_pred
    return recall, (0.0 if precision + recall == 0
                    else 2.0 * precision * recall / (precision + recall))


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


def _label_profiles(vol: LabelVolume) -> tuple[np.ndarray, ...]:
    """The largest label in each x, y and z plane of a volume, by two
    plane-sized reductions; a label above 2 raises, naming its voxel."""
    plane = vol.data.max(axis=2, initial=0)
    profiles = (plane.max(axis=1, initial=0), plane.max(axis=0, initial=0),
                vol.data.max(axis=(0, 1), initial=0))
    if profiles[2].max(initial=0) > 2:
        binarize_challenge(vol)
    return profiles


def _lesion_box(*profiles: tuple[np.ndarray, ...]) -> tuple[slice, ...]:
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


def wmh_in_lesion_box(vol: LabelVolume) -> BinaryMask:
    """The label-1 mask of a challenge volume inside its lesion box: the
    whole-grid mask's voxel count and components, in fewer voxels."""
    return BinaryMask(vol.data[_lesion_box(_label_profiles(vol))] == 1,
                      vol.spacing)


@dataclass(frozen=True, eq=False)
class PreparedReference:
    """A reference's read-only share of :func:`evaluate_pair`: in its
    lesion ``box``, its label-1 (``wmh``) and label-2 (``other``) voxels
    and the components of ``wmh`` (the whole grid's ids and sizes), and
    its ``surface`` in grid coordinates with a KD-tree over it in mm."""

    volume: LabelVolume
    profiles: tuple[np.ndarray, ...]
    box: tuple[slice, ...]
    wmh: BinaryMask
    other: np.ndarray
    count: int
    components: ComponentLabeling
    surface: np.ndarray
    tree: object
    connectivity: int


def prepare_reference(ref: LabelVolume, config: EvalConfig = EvalConfig()
                      ) -> PreparedReference:
    """Check, crop, label and surface a reference once, for scoring
    many predictions with :func:`evaluate_pair`."""
    from scipy.spatial import cKDTree

    profiles = _label_profiles(ref)
    box = _lesion_box(profiles)
    labels = ref.data[box]
    wmh = BinaryMask(labels == 1, ref.spacing)
    other = labels == 2
    count = wmh.count()
    surface = surface_voxels(wmh) + [sl.start for sl in box]
    for array in (*profiles, other, surface):
        array.setflags(write=False)
    tree = cKDTree(surface * np.asarray(ref.spacing)) if count else None
    return PreparedReference(
        ref, profiles, box, wmh, other, count,
        connected_components(wmh, config.connectivity), surface, tree,
        config.connectivity)


def evaluate_pair(ref: LabelVolume | PreparedReference, pred: LabelVolume,
                  config: EvalConfig = EvalConfig()) -> MetricVector:
    """Score one prediction against one reference.

    Reference label 2 (other pathology) is excised from both masks
    before anything is measured, unless the config says to treat it as
    plain background. Prediction label 2 is tolerated and treated as
    background either way.

    ``ref`` is a label volume, prepared here, or a reference prepared
    with the same connectivity by :func:`prepare_reference`. Two
    reductions per volume give its largest label per plane: they check
    that every label is in {0, 1, 2} and give the bounding box of both
    volumes' non-zero labels. The prediction is scored in that box plus
    a one-voxel margin, against the reference's own box inside it. Box
    faces are background or the grid boundary, so surfaces, component
    ids and (shifted back) H95 distances are the whole grid's, bit for
    bit, in either memory layout.
    """
    if not isinstance(ref, PreparedReference):
        ref = prepare_reference(ref, config)
    elif ref.connectivity != config.connectivity:
        raise ValueError(f"reference was prepared with connectivity "
                         f"{ref.connectivity}, not {config.connectivity}")
    same_grid(ref.volume, pred, "reference and prediction")
    box = _lesion_box(ref.profiles, _label_profiles(pred))
    pred_data = pred.data[box] == 1
    # the reference's box in the union box; an all-zero reference's box
    # (the origin voxel, empty) may lie outside and is clamped into it
    at = [max(r.start - u.start, 0) for r, u in zip(ref.box, box)]
    sub = tuple(slice(a, a + n) for a, n in zip(at, ref.wmh.dims))
    if config.ignore_mode == "exclude":
        pred_data[sub][ref.other] = False
    pred_eval = BinaryMask(pred_data, ref.volume.spacing)
    n_pred_vox = pred_eval.count()
    comps_pred = connected_components(pred_eval, config.connectivity)

    # lesions are hit where reference and prediction overlap
    overlap = np.nonzero(ref.wmh.data & pred_data[sub])
    match = LesionMatch(
        ref.components, comps_pred,
        _hits(ref.components.labels[overlap], ref.components.count),
        _hits(comps_pred.labels[sub][overlap], comps_pred.count))
    dsc = _dice(overlap[0].size, ref.count + n_pred_vox)
    h95 = avd = lavd = None
    if ref.count and n_pred_vox:
        h95 = _surface_h95(
            ref.surface, surface_voxels(pred_eval) + [sl.start for sl in box],
            pred_eval.spacing, config.h95_mode, ref.tree)
    if ref.count:
        avd = avd_percent(ref.count, n_pred_vox)
        lavd = log_avd(ref.count, n_pred_vox)
    recall, f1 = _recall_f1(match)
    recall_small, recall_large = (size_split_recall(match)
                                  if ref.components.count else (None, None))

    return MetricVector(
        dsc=dsc, h95_mm=h95, avd_pct=avd, lavd=lavd, recall=recall, f1=f1,
        recall_small=recall_small, recall_large=recall_large,
        n_ref_lesions=ref.components.count,
        n_pred_lesions=comps_pred.count,
        ref_volume_ml=ref.wmh.volume_ml(),
        pred_volume_ml=pred_eval.volume_ml())
