"""Small builders shared across test modules."""

from __future__ import annotations

import gzip
import struct
from pathlib import Path

import numpy as np

from seg_eval.metrics import EvalConfig, MetricVector, evaluate_pair
from seg_eval.ranking import ResultTable, SubjectResult
from seg_eval.synth import PerturbOps, PhantomSpec, generate_phantom, \
    perturb_mask
from seg_eval.volume import BinaryMask, LabelVolume, binarize_challenge


# bits per voxel of each NIfTI datatype code the reader accepts
BITPIX = {2: 8, 4: 16, 8: 32, 16: 32, 64: 64, 256: 8, 512: 16}
DTYPE_BY_CODE = {2: "u1", 4: "i2", 8: "i4", 16: "f4", 64: "f8", 256: "i1",
                 512: "u2"}


def build_file(dims=(2, 2, 1), pixdim=(1.0, 1.0, 3.0), datatype=2,
               bitpix=None, vox_offset=352.0, magic=b"n+1\x00",
               payload=None, byteorder="<", ndim=3, scaling=(0.0, 0.0)):
    """Hand-assembled NIfTI-1 bytes, independent of the writer."""
    if bitpix is None:
        bitpix = BITPIX.get(datatype, 8)
    hdr = bytearray(348)
    struct.pack_into(byteorder + "i", hdr, 0, 348)
    struct.pack_into(byteorder + "8h", hdr, 40,
                     ndim, dims[0], dims[1], dims[2], 1, 1, 1, 1)
    struct.pack_into(byteorder + "2h", hdr, 70, datatype, bitpix)
    struct.pack_into(byteorder + "8f", hdr, 76,
                     1.0, pixdim[0], pixdim[1], pixdim[2], 0, 0, 0, 0)
    struct.pack_into(byteorder + "3f", hdr, 108, vox_offset, *scaling)
    hdr[344:348] = magic
    if payload is None:
        n = dims[0] * dims[1] * dims[2]
        payload = bytes(n * bitpix // 8)
    pad = b"\x00" * max(0, int(vox_offset) - 348)
    return bytes(hdr) + pad + payload


def encode_as(data: np.ndarray, spacing, datatype: int,
              byteorder: str = "<") -> bytes:
    """``data`` as a hand-built file with the given datatype code and
    byte order, payload x-fastest."""
    dt = np.dtype(DTYPE_BY_CODE[datatype]).newbyteorder(byteorder)
    return build_file(dims=data.shape, pixdim=spacing, datatype=datatype,
                      byteorder=byteorder,
                      payload=data.astype(dt).tobytes(order="F"))


def write_labels(path, data: np.ndarray) -> Path:
    """Any labels, those a volume refuses too, as a hand-built uint8
    file on a 1 mm grid at ``path``, gzipped iff it ends in .gz."""
    path = Path(path)
    blob = encode_as(data, (1.0, 1.0, 1.0), 2)
    path.write_bytes(gzip.compress(blob, mtime=0) if path.suffix == ".gz"
                     else blob)
    return path


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
    wmh = binarize_challenge(ref)
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
