"""Minimal single-file NIfTI-1 reader/writer.

Only what the evaluation pipeline needs: 3-D volumes, datatypes uint8,
int8, int16, uint16, int32, float32 and float64 (codes 2, 256, 4, 512,
8, 16, 64), optional gzip container selected by a ``.gz`` suffix. The
payload is stored x-fastest, which is how NIfTI defines its on-disk
order and how every volume and mask holds its data, so a read is an
F-ordered ``reshape`` of the payload and a write hands the array's own
buffer to the file one z plane at a time, copying a plane only to
change its dtype. Every payload is read into a uint8
:class:`~seg_eval.volume.LabelVolume`; a native uint8 one is handed
over as decoded, and a float one is rounded first.

Every voxel value is a label as stored: the scaling fields
``scl_slope``/``scl_inter`` must say so (slope 0 or 1, intercept 0),
and a label outside {0, 1, 2} is rejected. A negative
voxel spacing, which some writers use to mark a flipped axis, is
rejected too, as are spatial units other than mm (or unknown, read as
mm), a ``vox_offset`` below 352 other than 0 (which reads as 352),
since it would start the payload inside the header or the four
extension bytes, and a fractional ``vox_offset``. Every error names the
file.

Written files are deterministic: unused header fields are zeroed and
gzip members carry mtime 0, so identical volumes produce identical
bytes.
"""

from __future__ import annotations

import contextlib
import gzip
import math
import struct
import zlib
from pathlib import Path

import numpy as np

from .errors import (FormatError, InvalidLabelError, TruncatedFileError,
                     UnsupportedDataTypeError)
from .volume import BinaryMask, LabelVolume, _check_labels, _first_where

__all__ = ["read_nifti", "write_nifti", "write_nifti_real"]

HEADER_SIZE = 348
_PAYLOAD_OFFSET = 352   # the header and four extension bytes
_UNIT_NAMES = {1: "metre", 3: "micron"}
_MAGIC_SINGLE = b"n+1\x00"

_DTYPE_BY_CODE = {2: np.uint8, 4: np.int16, 8: np.int32, 16: np.float32,
                  64: np.float64, 256: np.int8, 512: np.uint16}


def _read_container(path: Path) -> bytes:
    if path.suffix == ".gz":
        try:
            with gzip.open(path, "rb") as fh:
                return fh.read()
        except EOFError as exc:
            raise TruncatedFileError(
                f"{path}: gzip stream ends early: {exc}") from exc
        except (gzip.BadGzipFile, zlib.error) as exc:
            raise FormatError(f"{path}: corrupt gzip stream: {exc}") from exc
    return path.read_bytes()


def _round_half_away(values: np.ndarray) -> np.ndarray:
    return np.copysign(np.floor(np.abs(values) + 0.5), values)


def read_nifti(path: str | Path) -> LabelVolume:
    """Read a single-file NIfTI-1 label volume.

    Big-endian headers are detected through the dim[0] range check and
    byte-swapped. Float payloads are rounded to the nearest integer,
    ties away from zero. Non-finite values and labels outside
    {0, 1, 2} are rejected with the file, value and voxel, and a
    negative spacing with the file and axis. The returned data is
    uint8 in the file's x-fastest order (F-contiguous).
    """
    path = Path(path)
    raw = _read_container(path)
    if len(raw) < HEADER_SIZE:
        raise FormatError(f"{path}: file shorter than a NIfTI-1 header")

    magic = raw[344:348]
    if magic == b"ni1\x00":
        raise FormatError(f"{path}: magic 'ni1' marks the header of a "
                          ".hdr/.img pair; header/image pairs are not "
                          "supported")
    if magic != _MAGIC_SINGLE:
        raise FormatError(f"{path}: bad magic {magic!r}")

    ndim_le, = struct.unpack_from("<h", raw, 40)
    if 1 <= ndim_le <= 7:
        bo = "<"
    else:
        ndim_be, = struct.unpack_from(">h", raw, 40)
        if 1 <= ndim_be <= 7:
            bo = ">"
        else:
            raise FormatError(f"{path}: dim[0] = {ndim_le} is not in [1, 7]")

    dim = struct.unpack_from(bo + "8h", raw, 40)
    datatype, bitpix = struct.unpack_from(bo + "2h", raw, 70)
    pixdim = struct.unpack_from(bo + "8f", raw, 76)
    vox_offset, slope, inter = struct.unpack_from(bo + "3f", raw, 108)

    if datatype not in _DTYPE_BY_CODE:
        raise UnsupportedDataTypeError(
            f"{path}: unsupported NIfTI datatype code {datatype}")
    if bitpix != 8 * np.dtype(_DTYPE_BY_CODE[datatype]).itemsize:
        raise FormatError(
            f"{path}: bitpix {bitpix} does not match datatype {datatype}")

    ndim = dim[0]
    if ndim < 3 or any(d > 1 for d in dim[4:4 + max(0, ndim - 3)]):
        raise FormatError(f"{path}: not a single 3-D volume, dim={dim}")
    nx, ny, nz = (int(d) for d in dim[1:4])
    if min(nx, ny, nz) < 1:
        raise FormatError(f"{path}: non-positive spatial dims {(nx, ny, nz)}")

    for i, p in enumerate(pixdim[1:4], start=1):
        if p < 0:
            raise FormatError(
                f"{path}: negative voxel spacing pixdim[{i}] = {p} on the "
                f"{'xyz'[i - 1]} axis; flipped axes are not supported")
    spacing = tuple(float(p) for p in pixdim[1:4])
    if not all(np.isfinite(s) and s > 0 for s in spacing):
        raise FormatError(f"{path}: invalid voxel spacing {spacing}")

    units = raw[123] & 0x07   # the spatial part of xyzt_units
    if units not in (0, 2):
        name = _UNIT_NAMES.get(units, "not a NIfTI-1 unit")
        raise FormatError(
            f"{path}: spatial units code {units} ({name}); voxel spacing "
            f"must be in mm (code 2) or unknown (code 0)")

    if not math.isfinite(vox_offset):
        raise FormatError(f"{path}: vox_offset {vox_offset} is not finite")
    if vox_offset != 0 and vox_offset < _PAYLOAD_OFFSET:
        raise FormatError(
            f"{path}: vox_offset {vox_offset:g} starts the payload inside "
            f"the extension bytes or before them; a single-file NIfTI-1 "
            f"needs 0 (read as {_PAYLOAD_OFFSET}) or at least "
            f"{_PAYLOAD_OFFSET}")
    if vox_offset != int(vox_offset):
        raise FormatError(
            f"{path}: vox_offset {vox_offset:g} is not a whole byte offset")
    if slope not in (0.0, 1.0) or inter != 0.0:   # NaN fails both
        raise FormatError(
            f"{path}: scl_slope {slope} and scl_inter {inter} rescale "
            f"voxel values; labels must be stored unscaled (slope 0 or 1, "
            f"intercept 0)")
    offset = int(vox_offset) or _PAYLOAD_OFFSET
    dt = np.dtype(_DTYPE_BY_CODE[datatype]).newbyteorder(bo)
    nvox = nx * ny * nz
    nbytes = nvox * dt.itemsize
    if len(raw) < offset + nbytes:
        raise TruncatedFileError(
            f"{path}: payload needs {nbytes} bytes at offset {offset}, "
            f"file has {len(raw)}")

    flat = np.frombuffer(raw, dtype=dt, count=nvox, offset=offset)
    data = flat.reshape((nx, ny, nz), order="F")

    try:
        if dt.kind == "f":
            finite = np.isfinite(data)
            if not finite.all():
                at = _first_where(~finite)
                raise InvalidLabelError(
                    f"non-finite voxel value {data[at]} at voxel {at}",
                    value=float(data[at]), coordinate=at)
            data = _round_half_away(data.astype(np.float64))
            _check_labels(data)   # before the cast, so nothing wraps
            data = data.astype(np.uint8, order="F")
        return LabelVolume(data, spacing)
    except InvalidLabelError as exc:
        raise InvalidLabelError(f"{path}: {exc}", exc.value,
                                exc.coordinate) from None


def _pack_header(dims: tuple[int, int, int],
                 spacing: tuple[float, float, float],
                 datatype: int) -> bytes:
    hdr = bytearray(HEADER_SIZE)
    struct.pack_into("<i", hdr, 0, HEADER_SIZE)
    struct.pack_into("<c", hdr, 38, b"r")
    struct.pack_into("<8h", hdr, 40, 3, dims[0], dims[1], dims[2], 1, 1, 1, 1)
    struct.pack_into("<2h", hdr, 70, datatype,
                     8 * np.dtype(_DTYPE_BY_CODE[datatype]).itemsize)
    struct.pack_into("<8f", hdr, 76, 1.0, spacing[0], spacing[1], spacing[2],
                     0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<f", hdr, 108, float(_PAYLOAD_OFFSET))
    struct.pack_into("<2f", hdr, 112, 1.0, 0.0)   # scl_slope / scl_inter
    struct.pack_into("<B", hdr, 123, 2)           # spatial units: mm
    hdr[344:348] = _MAGIC_SINGLE
    return bytes(hdr)


def _write(path: Path, data: np.ndarray,
           spacing: tuple[float, float, float], datatype: int) -> None:
    """Write the header, then ``data`` one z plane at a time, each plane
    cast to the payload dtype and scanned x-fastest, gzipped iff the
    path ends in .gz. A plane of F-contiguous data already of that dtype
    is a view, so no write copies the grid. Deflate output does not
    depend on how its input is split, so the bytes equal those of one
    joined blob."""
    # four zero bytes after the header: no extensions
    header = _pack_header(data.shape, spacing, datatype) + b"\x00" * 4
    dtype = np.dtype(_DTYPE_BY_CODE[datatype]).newbyteorder("<")
    with open(path, "wb") as fh, (
            gzip.GzipFile(filename="", mode="wb", fileobj=fh, mtime=0)
            if path.suffix == ".gz" else contextlib.nullcontext(fh)) as out:
        out.write(header)
        for z in range(data.shape[2]):
            out.write(np.asarray(data[:, :, z], dtype).ravel("F"))


def write_nifti(volume: LabelVolume | BinaryMask, path: str | Path) -> None:
    """Write labels (or a mask as 0/1) as uint8, gzipped iff the path
    ends in .gz."""
    _write(Path(path), volume.data, volume.spacing, 2)


def write_nifti_real(data: np.ndarray, spacing: tuple[float, float, float],
                     path: str | Path) -> None:
    """Write a real-valued 3-D map (rates, weights) as float32."""
    arr = np.asarray(data)
    if arr.ndim != 3:
        raise ValueError(f"expected a 3-D array, got shape {arr.shape}")
    _write(Path(path), arr, tuple(float(s) for s in spacing), 16)
