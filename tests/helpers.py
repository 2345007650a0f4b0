"""Small builders shared across test modules."""

from __future__ import annotations

import numpy as np

from seg_eval.metrics import EvalConfig, MetricVector, evaluate_pair
from seg_eval.ranking import ResultTable, SubjectResult
from seg_eval.synth import PerturbOps, PhantomSpec, generate_phantom, \
    perturb_mask
from seg_eval.volume import BinaryMask, LabelVolume, binarize_challenge


def mask_from(coords, dims, spacing=(1.0, 1.0, 1.0)) -> BinaryMask:
    data = np.zeros(dims, dtype=bool)
    for c in coords:
        data[tuple(c)] = True
    return BinaryMask(data, spacing)


def labels_from(wmh_coords, dims, spacing=(1.0, 1.0, 1.0),
                ignore_coords=()) -> LabelVolume:
    data = np.zeros(dims, dtype=np.int32)
    for c in ignore_coords:
        data[tuple(c)] = 2
    for c in wmh_coords:
        data[tuple(c)] = 1
    return LabelVolume(data, spacing)


def score_masks(ref: BinaryMask, pred: BinaryMask,
                config: EvalConfig = EvalConfig()) -> MetricVector:
    """evaluate_pair on two binary masks taken as label-1 volumes."""
    return evaluate_pair(*(LabelVolume(m.data.astype(np.int32), m.spacing)
                           for m in (ref, pred)), config)


def random_mask(rng, dims, density=0.1, spacing=(1.0, 1.0, 1.0)) -> BinaryMask:
    return BinaryMask(rng.random(dims) < density, spacing)


def phantom_pair(seed: int, dims=(24, 24, 16), spacing=(1.0, 1.0, 1.0),
                 n_lesions=4, size_range=(3, 25), ignore_fraction=0.0,
                 ops: PerturbOps | None = None
                 ) -> tuple[LabelVolume, LabelVolume]:
    """A reference phantom and a perturbed prediction as label volumes."""
    spec = PhantomSpec(dims=dims, spacing=spacing, n_lesions=n_lesions,
                       size_range=size_range, seed=seed,
                       ignore_fraction=ignore_fraction)
    ref = generate_phantom(spec)
    wmh, _ = binarize_challenge(ref)
    if ops is None:
        ops = PerturbOps(translate=(1, 0, 0), add_blobs=1, blob_size=5,
                         seed=seed + 1)
    pred_mask = perturb_mask(wmh, ops)
    pred = LabelVolume(pred_mask.data.astype(np.int32), spacing)
    return ref, pred


def table_from_columns(columns: dict[str, dict[str, list[float | None]]],
                       scanner_of=None) -> ResultTable:
    """Build a ResultTable from per-method metric columns.

    ``columns[method][metric]`` is a list over subjects s000, s001, ...
    Metrics not given default to a constant 0.5 so the table is valid.
    """
    records = []
    n_subjects = None
    for method, cols in columns.items():
        for vals in cols.values():
            n_subjects = len(vals)
            break
    assert n_subjects is not None
    base = {"dsc": 0.5, "h95_mm": 0.5, "avd_pct": 0.5, "lavd": 0.5,
            "recall": 0.5, "f1": 0.5}
    for method, cols in columns.items():
        for si in range(n_subjects):
            fields = dict(base)
            for metric, vals in cols.items():
                fields[metric] = vals[si]
            subject = f"s{si:03d}"
            scanner = (scanner_of[subject] if scanner_of is not None
                       else "scannerA")
            records.append(SubjectResult(
                method_id=method, subject_id=subject, scanner_id=scanner,
                metrics=MetricVector(**fields)))
    return ResultTable(records)
