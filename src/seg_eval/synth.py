"""Synthetic phantoms with known ground truth.

Lesions are random-walk blobs of an exact target size, placed so that
no two come within a 26-neighbourhood of each other; the component
count of the result is therefore exactly the number of lesions asked
for. All randomness is drawn from counter-based Philox streams keyed
by (seed, lesion index), so a phantom is a pure function of its spec.

A blob's draws are taken from its stream's raw 32-bit words by
``streams.below``, the package's one bounded draw, with no numpy call
per draw; the raw words are what numpy keeps fixed across releases.

``_dilate`` answers every "within one voxel" question, for placement
and for ``perturb_mask``, so the module needs no scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .streams import below, rekey, words
from .volume import BinaryMask, LabelVolume, connected_components

__all__ = ["PhantomSpec", "PerturbOps", "generate_phantom", "perturb_mask"]

PLACEMENT_RETRIES = 200
_WALK_STEP_CAP = 400          # per target voxel, before giving up on a walk
_IGNORE_KEY_BASE = 1 << 32    # lesion-index namespace for label-2 blobs

# the 27 offsets of a voxel's 3x3x3 neighbourhood, itself included
_NEIGHBOURS = np.indices((3, 3, 3)).reshape(3, -1).T - 1


@dataclass(frozen=True)
class PhantomSpec:
    dims: tuple[int, int, int] = (32, 32, 32)
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    n_lesions: int = 5
    size_range: tuple[int, int] = (3, 40)
    seed: int = 0
    ignore_fraction: float = 0.0
    """Target ratio of label-2 voxels to label-1 voxels, in [0, 1)."""

    def __post_init__(self):
        dims = np.asarray(self.dims)
        if dims.shape != (3,) or dims.dtype.kind not in "iu" or dims.min() < 1:
            raise ValueError(f"dims must be 3 integers >= 1: {self.dims}")
        lo, hi = self.size_range
        if lo < 1 or hi < lo:
            raise ValueError(f"bad size_range {self.size_range}")
        if self.n_lesions < 0:
            raise ValueError("n_lesions must be >= 0")
        if not 0.0 <= self.ignore_fraction < 1.0:
            raise ValueError("ignore_fraction must be in [0, 1)")


def _walk_blob(stream, dims, inside: bytes, size: int):
    """Grow a connected blob of exactly ``size`` voxels, or None if the
    walk stalls (e.g. wedged into a corner). Voxels are x-fastest flat
    indices into the grid padded by one voxel on every side; ``inside``
    is nonzero on the voxels of the grid itself."""
    nx, ny, _ = dims
    sy, sz = nx + 2, (nx + 2) * (ny + 2)
    steps = (1, -1, sy, -sy, sz, -sz)
    x, y, z = (below(stream, d) for d in dims)
    voxels = [x + 1 + sy * (y + 1) + sz * (z + 1)]
    seen = set(voxels)
    for _ in range(_WALK_STEP_CAP * size):
        if len(voxels) == size:
            break
        cand = voxels[below(stream, len(voxels))] + steps[below(stream, 6)]
        if cand not in seen and inside[cand]:
            seen.add(cand)
            voxels.append(cand)
    if len(voxels) < size:
        return None
    return np.array(voxels, dtype=np.int64)


def _dilate(mask: np.ndarray, border: bool = False) -> np.ndarray:
    """The 3x3x3 box dilation of ``mask``, as one OR pass per axis;
    voxels outside the grid count as ``border``."""
    near = np.full([d + 2 for d in mask.shape], border, order="F")
    near[1:-1, 1:-1, 1:-1] = mask
    near = near[:-2] | near[1:-1] | near[2:]
    near = near[:, :-2] | near[:, 1:-1] | near[:, 2:]
    return near[:, :, :-2] | near[:, :, 1:-1] | near[:, :, 2:]


def _place_blobs(occupied: np.ndarray, size_range, seed: int,
                 key_base: int, n_blobs: int | None,
                 target_voxels: int | None) -> None:
    """Place blobs until either ``n_blobs`` are down or the cumulative
    voxel count reaches ``target_voxels``, marking them in
    ``occupied``.

    Blob ``i`` draws from its own stream (seed, ``key_base + i``). The
    grids are padded by one voxel and indexed as the walk's voxels are,
    so a placed blob's 3x3x3 ring is one scatter with no clipping."""
    dims = occupied.shape
    lo, hi = size_range
    inside, near, blobs = (np.zeros([d + 2 for d in dims], dtype=bool,
                                    order="F") for _ in range(3))
    inside[1:-1, 1:-1, 1:-1] = True
    inside = inside.tobytes(order="F")
    near[1:-1, 1:-1, 1:-1] = _dilate(occupied)  # by an occupied voxel
    near_flat, blobs_flat = (g.reshape(-1, order="F") for g in (near, blobs))
    sy = dims[0] + 2
    ring = _NEIGHBOURS @ (1, sy, sy * (dims[1] + 2))
    bits = np.random.Philox(key=0)
    placed = 0
    total = 0
    while True:
        if n_blobs is not None and placed >= n_blobs:
            break
        if target_voxels is not None and total >= target_voxels:
            break
        if hi > occupied.size:   # no walk could ever finish such a blob
            raise CapacityError(
                f"blob size up to {hi} voxels exceeds the {occupied.size} "
                f"voxels of grid {dims}")
        stream = words(rekey(bits, seed, key_base + placed))
        smallest = (lo if target_voxels is None
                    else min(lo, target_voxels - total))
        for attempt in range(PLACEMENT_RETRIES):
            size = lo + below(stream, hi + 1 - lo)
            if target_voxels is not None:
                size = min(size, target_voxels - total)
            cand = _walk_blob(stream, dims, inside, size)
            if cand is not None and not near_flat[cand].any():
                break
            if attempt == 0 and (occupied.size - np.count_nonzero(
                    near[1:-1, 1:-1, 1:-1]) < smallest):
                raise CapacityError(
                    f"blob {placed} needs at least {smallest} voxels but "
                    f"fewer of grid {dims} lie clear of the occupied ones")
        else:
            raise CapacityError(
                f"could not place blob {placed} after {PLACEMENT_RETRIES} "
                f"attempts; grid {dims} is too crowded for {size_range}")
        blobs_flat[cand] = True
        near_flat[cand[:, None] + ring] = True
        placed += 1
        total += len(cand)
    occupied |= blobs[1:-1, 1:-1, 1:-1]


def generate_phantom(spec: PhantomSpec) -> LabelVolume:
    """Build a challenge-style label volume from a spec.

    The label-1 mask has exactly ``spec.n_lesions`` 26-connected
    components. When ``ignore_fraction`` is positive, label-2 blobs are
    added (disjoint from everything) until their voxel count reaches
    that fraction of the label-1 voxel count.
    """
    occupied = np.zeros(spec.dims, dtype=bool, order="F")
    _place_blobs(occupied, spec.size_range, spec.seed, key_base=0,
                 n_blobs=spec.n_lesions, target_voxels=None)
    data = occupied.astype(np.uint8)
    if spec.ignore_fraction > 0.0:
        target = int(round(spec.ignore_fraction * occupied.sum()))
        if target > 0:
            _place_blobs(occupied, spec.size_range, spec.seed,
                         key_base=_IGNORE_KEY_BASE, n_blobs=None,
                         target_voxels=target)
            data[occupied & (data == 0)] = 2
    return LabelVolume(data, spec.spacing)


@dataclass(frozen=True)
class PerturbOps:
    """A recipe of mask edits, applied in the field order below:
    dilate, erode, drop components, add blobs, translate."""

    dilate: int = 0
    erode: int = 0
    drop_components: tuple[int, ...] = ()
    add_blobs: int = 0
    blob_size: int = 9
    translate: tuple[int, int, int] = (0, 0, 0)
    seed: int = 0
    connectivity: int = 26

    def __post_init__(self):
        if min(self.dilate, self.erode, self.add_blobs) < 0:
            raise ValueError("dilate, erode and add_blobs must be >= 0")
        if self.blob_size < 1:
            raise ValueError("blob_size must be >= 1")
        if self.connectivity not in (6, 18, 26):
            raise ValueError("connectivity must be 6, 18 or 26")


def perturb_mask(mask: BinaryMask, ops: PerturbOps) -> BinaryMask:
    """Derive a degraded prediction from a reference mask."""
    out = mask
    # neighbourhoods are clipped at the grid edge; out-of-grid voxels
    # count as background, so foreground touching the edge erodes away
    for _ in range(ops.dilate):
        out = BinaryMask(_dilate(out.data), out.spacing)
    for _ in range(ops.erode):
        out = BinaryMask(~_dilate(~out.data, border=True), out.spacing)

    if ops.drop_components:
        labels, count = connected_components(out, ops.connectivity)
        for cid in ops.drop_components:
            if not 1 <= cid <= count:
                raise ValueError(
                    f"component id {cid} out of range 1..{count}")
        keep = ~np.isin(labels, np.asarray(ops.drop_components))
        out = BinaryMask(out.data & keep, out.spacing)

    if ops.add_blobs:
        occupied = out.data.copy(order="F")
        _place_blobs(occupied, (ops.blob_size, ops.blob_size), ops.seed,
                     key_base=0, n_blobs=ops.add_blobs, target_voxels=None)
        out = BinaryMask(occupied, out.spacing)

    if any(ops.translate):
        # voxel v moves to v + t; whatever leaves the grid is dropped
        dst, src = [], []
        for t, n in zip(ops.translate, out.dims):
            t = int(t)
            dst.append(slice(max(t, 0), max(n + t, 0)))
            src.append(slice(max(-t, 0), max(n - t, 0)))
        shifted = np.zeros(out.dims, dtype=bool, order="F")
        shifted[tuple(dst)] = out.data[tuple(src)]
        out = BinaryMask(shifted, out.spacing)
    return out
