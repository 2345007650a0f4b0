"""Synthetic phantoms with known ground truth.

Lesions are random-walk blobs of an exact target size, placed so that
no two come within a 26-neighbourhood of each other; the component
count of the result is therefore exactly the number of lesions asked
for. All randomness is drawn from counter-based Philox streams keyed
by (seed, lesion index), so a phantom is a pure function of its spec.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .volume import BinaryMask, LabelVolume, connected_components

__all__ = ["PhantomSpec", "PerturbOps", "generate_phantom", "perturb_mask"]

PLACEMENT_RETRIES = 200
_WALK_STEP_CAP = 400          # per target voxel, before giving up on a walk
_IGNORE_KEY_BASE = 1 << 32    # lesion-index namespace for label-2 blobs

_STEPS = ((1, 0, 0), (-1, 0, 0), (0, 1, 0),
          (0, -1, 0), (0, 0, 1), (0, 0, -1))
# the 27 offsets of a voxel's 3x3x3 neighbourhood, itself included
_NEIGHBOURS = np.indices((3, 3, 3)).reshape(3, -1).T - 1

_BOX_3X3X3 = np.ones((3, 3, 3), dtype=bool)


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
        lo, hi = self.size_range
        if lo < 1 or hi < lo:
            raise ValueError(f"bad size_range {self.size_range}")
        if self.n_lesions < 0:
            raise ValueError("n_lesions must be >= 0")
        if not 0.0 <= self.ignore_fraction < 1.0:
            raise ValueError("ignore_fraction must be in [0, 1)")


def _lesion_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=(seed & (2**64 - 1))
                                                + (index << 64)))


def _walk_blob(rng: np.random.Generator, dims, size: int):
    """Grow a connected blob of exactly ``size`` voxels, or None if the
    walk stalls (e.g. wedged into a corner)."""
    nx, ny, nz = dims
    voxels = [tuple(int(rng.integers(0, d)) for d in dims)]
    seen = set(voxels)
    for _ in range(_WALK_STEP_CAP * size):
        if len(voxels) == size:
            break
        x, y, z = voxels[int(rng.integers(0, len(voxels)))]
        dx, dy, dz = _STEPS[int(rng.integers(0, 6))]
        cand = (x + dx, y + dy, z + dz)
        if (cand not in seen and 0 <= cand[0] < nx and 0 <= cand[1] < ny
                and 0 <= cand[2] < nz):
            seen.add(cand)
            voxels.append(cand)
    if len(voxels) < size:
        return None
    return np.array(voxels, dtype=np.int64)


def _touches_occupied(occupied: np.ndarray, coords: np.ndarray) -> bool:
    """True if any coord is within one voxel (26-neighbourhood) of an
    occupied voxel. Offsets clipped to the grid land on voxels of the
    same clipped neighbourhood."""
    near = np.clip(coords[:, None, :] + _NEIGHBOURS, 0,
                   np.array(occupied.shape) - 1)
    return bool(occupied[near[..., 0], near[..., 1], near[..., 2]].any())


def _place_blobs(occupied: np.ndarray, size_range, seed: int,
                 key_base: int, n_blobs: int | None,
                 target_voxels: int | None) -> None:
    """Place blobs until either ``n_blobs`` are down or the cumulative
    voxel count reaches ``target_voxels``, marking them in
    ``occupied``."""
    dims = occupied.shape
    lo, hi = size_range
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
        rng = _lesion_rng(seed, key_base + placed)
        coords = None
        for _ in range(PLACEMENT_RETRIES):
            size = int(rng.integers(lo, hi + 1))
            if target_voxels is not None:
                size = min(size, target_voxels - total)
            cand = _walk_blob(rng, dims, size)
            if cand is None:
                continue
            if not _touches_occupied(occupied, cand):
                coords = cand
                break
        if coords is None:
            raise CapacityError(
                f"could not place blob {placed} after {PLACEMENT_RETRIES} "
                f"attempts; grid {dims} is too crowded for {size_range}")
        occupied[coords[:, 0], coords[:, 1], coords[:, 2]] = True
        placed += 1
        total += len(coords)


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


def perturb_mask(mask: BinaryMask, ops: PerturbOps) -> BinaryMask:
    """Derive a degraded prediction from a reference mask."""
    from scipy import ndimage

    out = mask
    # neighbourhoods are clipped at the grid edge; out-of-grid voxels
    # count as background, so foreground touching the edge erodes away
    for _ in range(ops.dilate):
        out = BinaryMask(ndimage.binary_dilation(
            out.data, _BOX_3X3X3, border_value=0), out.spacing)
    for _ in range(ops.erode):
        out = BinaryMask(ndimage.binary_erosion(
            out.data, _BOX_3X3X3, border_value=0), out.spacing)

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
