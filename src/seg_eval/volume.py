"""Label volumes, binary masks and the voxel-grid operations on them.

Conventions used throughout the package:

* Arrays are indexed ``(x, y, z)`` and stored x-fastest (F-contiguous),
  the on-disk NIfTI layout: a volume or mask holds its data in that
  layout whatever it is built from, so no other module needs to know
  the layout of its input.
* ``spacing`` is the voxel edge length in millimetres along each axis.
* Challenge label volumes use 0 = background, 1 = WMH, 2 = other
  pathology. Label 2 marks voxels that are excised from both masks
  before scoring (see :func:`seg_eval.metrics.evaluate_pair`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidLabelError, ShapeMismatchError

__all__ = [
    "LabelVolume",
    "BinaryMask",
    "binarize_challenge",
    "bounding_box",
    "surface_voxels",
    "directed_surface_distances",
    "connected_components",
]

# the 3x3x3 cube where |dx| + |dy| + |dz| <= rank, as
# scipy.ndimage.generate_binary_structure(3, rank) builds it
_STRUCTURE = {conn: np.abs(np.indices((3, 3, 3)) - 1).sum(axis=0) <= rank
              for conn, rank in ((6, 1), (18, 2), (26, 3))}


def _check_grid(data: np.ndarray, spacing) -> tuple[float, float, float]:
    if data.ndim != 3:
        raise ValueError(f"expected a 3-D array, got shape {data.shape}")
    spacing = tuple(float(s) for s in spacing)
    if len(spacing) != 3:
        raise ValueError("spacing must have three components")
    if not all(math.isfinite(s) and s > 0 for s in spacing):
        raise ValueError(f"spacing must be positive and finite, got {spacing}")
    return spacing


@dataclass(frozen=True, eq=False)
class LabelVolume:
    """A challenge label volume with voxel spacing in mm.

    ``data`` is a read-only, F-contiguous uint8 array of shape
    ``(nx, ny, nz)`` holding only the labels 0, 1 and 2; any other
    label raises :class:`InvalidLabelError` naming its value and voxel.
    Any integer dtype is accepted. An F-contiguous uint8 array is
    frozen in place, so the caller's array becomes read-only too;
    anything else is copied once. Either way the volume owns read-only
    data, so a prepared reference never goes stale.
    """

    data: np.ndarray
    spacing: tuple[float, float, float]

    def __post_init__(self):
        arr = np.asarray(self.data)
        spacing = _check_grid(arr, self.spacing)
        if not np.issubdtype(arr.dtype, np.integer):
            raise TypeError(f"label data must be integer, got {arr.dtype}")
        _check_labels(arr)
        object.__setattr__(self, "data", _frozen(arr, np.uint8))
        object.__setattr__(self, "spacing", spacing)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape


@dataclass(frozen=True, eq=False)
class BinaryMask:
    """A boolean 3-D grid with voxel spacing in mm.

    ``data`` is a read-only, F-contiguous bool array; F-contiguous bool
    input is frozen in place as in :class:`LabelVolume`, anything else
    (C order, a crop, another dtype) is copied once.
    """

    data: np.ndarray
    spacing: tuple[float, float, float]

    def __post_init__(self):
        arr = np.asarray(self.data)
        spacing = _check_grid(arr, self.spacing)
        if arr.dtype != np.bool_:
            if np.issubdtype(arr.dtype, np.integer):
                arr = arr != 0
            else:
                raise TypeError(f"mask data must be bool, got {arr.dtype}")
        object.__setattr__(self, "data", _frozen(arr, np.bool_))
        object.__setattr__(self, "spacing", spacing)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.data.shape

    def count(self) -> int:
        return int(np.count_nonzero(self.data))

    def volume_ml(self) -> float:
        """Foreground volume in millilitres."""
        sx, sy, sz = self.spacing
        return self.count() * (sx * sy * sz) / 1000.0


def _frozen(arr: np.ndarray, dtype) -> np.ndarray:
    """``arr`` as a read-only F-contiguous ``dtype`` array, copied if not."""
    arr = np.asarray(arr, dtype, order="F")
    arr.setflags(write=False)
    return arr


def same_grid(a, b, what: str = "volumes") -> None:
    """Raise unless two volumes/masks share dims and spacing (1e-6 mm)."""
    if a.dims != b.dims:
        raise ShapeMismatchError(
            f"{what} differ in dims: {a.dims} vs {b.dims}")
    if any(abs(x - y) > 1e-6 for x, y in zip(a.spacing, b.spacing)):
        raise ShapeMismatchError(
            f"{what} differ in spacing: {a.spacing} vs {b.spacing}")


def _first_where(cond: np.ndarray) -> tuple[int, int, int]:
    """Coordinate of the first True voxel in x-fastest scan order."""
    flat = np.flatnonzero(cond.ravel(order="F"))
    idx = np.unravel_index(int(flat[0]), cond.shape, order="F")
    return tuple(int(i) for i in idx)


def _check_labels(arr: np.ndarray) -> None:
    """Raise unless every value of an integer (or whole-valued float)
    array is a challenge label: 0, 1 or 2. One ``max``, plus a ``min``
    unless the dtype is unsigned; the first bad voxel in x-fastest
    order is named."""
    if not arr.size or (arr.max() <= 2
                        and (arr.dtype.kind == "u" or arr.min() >= 0)):
        return
    at = _first_where((arr < 0) | (arr > 2))
    shown = f"{arr[at]:g}" if arr.dtype.kind == "f" else int(arr[at])
    raise InvalidLabelError(
        f"label {shown} at voxel {at} is outside {{0, 1, 2}}",
        value=float(arr[at]), coordinate=at)


def binarize_challenge(volume: LabelVolume) -> BinaryMask:
    """The WMH (label-1) mask of a challenge label volume; label 2 is
    background here."""
    return BinaryMask(volume.data == 1, volume.spacing)


def bounding_box(data: np.ndarray) -> tuple[slice, slice, slice]:
    """Smallest box holding every non-zero voxel of a 3-D array, three
    empty ``0:0`` slices when there is none. Two plane-sized reductions
    give the largest value in each x, y and z plane."""
    plane = data.max(axis=2, initial=0)
    box = []
    for profile in (plane.max(axis=1, initial=0),
                    plane.max(axis=0, initial=0),
                    data.max(axis=(0, 1), initial=0)):
        idx = np.flatnonzero(profile)
        if idx.size == 0:
            return (slice(0, 0),) * 3
        box.append(slice(int(idx[0]), int(idx[-1]) + 1))
    return tuple(box)


def surface_voxels(mask: BinaryMask) -> np.ndarray:
    """Coordinates (K, 3) of foreground voxels with at least one face
    neighbour that is background or outside the volume."""
    m = mask.data
    # a background border, still x-fastest
    p = np.zeros([n + 2 for n in m.shape], dtype=bool, order="F")
    p[1:-1, 1:-1, 1:-1] = m
    interior = p[:-2, 1:-1, 1:-1] & p[2:, 1:-1, 1:-1]
    interior &= p[1:-1, :-2, 1:-1]
    interior &= p[1:-1, 2:, 1:-1]
    interior &= p[1:-1, 1:-1, :-2]
    interior &= p[1:-1, 1:-1, 2:]
    surf = m & ~interior
    # rows in x-fastest scan order from one flat scan of the F-ordered
    # mask, which is faster than a scan of the 3-D array
    return np.stack(np.unravel_index(np.flatnonzero(surf.ravel("F")),
                                     surf.shape, order="F"), axis=1)


def directed_surface_distances(from_coords: np.ndarray,
                               to_coords: np.ndarray,
                               spacing: tuple[float, float, float]
                               ) -> np.ndarray:
    """Euclidean mm distance from each ``from`` voxel to its nearest
    ``to`` voxel. Exact nearest neighbours, no approximation."""
    from scipy.spatial import cKDTree

    from_coords = np.asarray(from_coords, dtype=np.float64)
    to_coords = np.asarray(to_coords, dtype=np.float64)
    if from_coords.size == 0 or to_coords.size == 0:
        raise ValueError("surface distance needs non-empty coordinate sets")
    s = np.asarray(spacing, dtype=np.float64)
    # built for one query: unbalanced (sliding-midpoint) splits build
    # faster, and the nearest-neighbour distances are the same
    tree = cKDTree(to_coords * s, balanced_tree=False)
    dists, _ = tree.query(from_coords * s, k=1)
    return np.atleast_1d(dists)


def connected_components(mask: BinaryMask, connectivity: int = 26
                         ) -> tuple[np.ndarray, int]:
    """Label connected components with deterministic ids: ``(labels,
    count)``, where ``labels`` assigns 1..count to foreground voxels and
    0 to background.

    scipy labels in the order its C-order scan first meets each
    component. Run on the transposed view, that scan is our x-fastest
    scan, so component k is the k-th one met by it with no renumbering.
    The mask is F-ordered, so the transposed view is C-contiguous and
    scipy scans it in place.
    Supported connectivities: 6, 18, 26 (default 26).
    """
    from scipy import ndimage

    if connectivity not in _STRUCTURE:
        raise ValueError(f"connectivity must be 6, 18 or 26, got {connectivity}")
    raw, n = ndimage.label(mask.data.T, structure=_STRUCTURE[connectivity])
    return raw.T, int(n)
