"""Brute-force reference implementations used to check the package.

Everything here is deliberately written along a different route than
the library: union-find instead of scipy labelling, all-pairs distance
matrices instead of KD-trees, exact rational arithmetic instead of log
tricks, plain probability-domain EM instead of the log-domain version.
Slow but obviously correct on small inputs.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction

import numpy as np
from scipy import ndimage

from seg_eval.errors import AllMissingError, EvaluationWarning


# ---------------------------------------------------------------- geometry

def neighbour_offsets(connectivity: int):
    offs = []
    for dx in (-1, 0, 1):
        for dy in (-1, 0, 1):
            for dz in (-1, 0, 1):
                if (dx, dy, dz) == (0, 0, 0):
                    continue
                manhattan = abs(dx) + abs(dy) + abs(dz)
                if connectivity == 6 and manhattan > 1:
                    continue
                if connectivity == 18 and manhattan > 2:
                    continue
                offs.append((dx, dy, dz))
    return offs


class _UnionFind:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def add(self, x):
        self.parent.setdefault(x, x)

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def cc_oracle(mask: np.ndarray, connectivity: int = 26):
    """Connected components by union-find.

    Returns (labels int array, count, sizes list). Ids are assigned in
    first-encounter order of an x-fastest scan, the same canonical
    order the library promises.
    """
    mask = np.asarray(mask, dtype=bool)
    nx, ny, nz = mask.shape
    uf = _UnionFind()
    voxels = [tuple(int(i) for i in v) for v in np.argwhere(mask)]
    vox_set = set(voxels)
    for v in voxels:
        uf.add(v)
    offs = neighbour_offsets(connectivity)
    for (x, y, z) in voxels:
        for dx, dy, dz in offs:
            n = (x + dx, y + dy, z + dz)
            if n in vox_set:
                uf.union((x, y, z), n)

    # x-fastest scan order: x varies quickest, then y, then z
    scan = sorted(voxels, key=lambda v: (v[2], v[1], v[0]))
    labels = np.zeros(mask.shape, dtype=np.int32)
    id_of_root = {}
    sizes = []
    for v in scan:
        root = uf.find(v)
        if root not in id_of_root:
            id_of_root[root] = len(id_of_root) + 1
            sizes.append(0)
        cid = id_of_root[root]
        labels[v] = cid
        sizes[cid - 1] += 1
    return labels, len(id_of_root), sizes


def surface_oracle(mask: np.ndarray) -> np.ndarray:
    """Surface as mask minus its 6-connected erosion (border erodes)."""
    mask = np.asarray(mask, dtype=bool)
    eroded = ndimage.binary_erosion(
        mask, structure=ndimage.generate_binary_structure(3, 1),
        border_value=0)
    return mask & ~eroded


def touches_oracle(occupied: np.ndarray, coords) -> bool:
    """True if any coord has an occupied voxel in its 3x3x3 window,
    clipped to the grid."""
    for x, y, z in coords:
        window = occupied[max(0, x - 1):x + 2,
                          max(0, y - 1):y + 2,
                          max(0, z - 1):z + 2]
        if window.any():
            return True
    return False


def allpairs_directed(from_coords, to_coords, spacing) -> np.ndarray:
    """Min distance from each 'from' point to the 'to' set, by checking
    every pair."""
    a = np.asarray(from_coords, dtype=np.float64) * np.asarray(spacing)
    b = np.asarray(to_coords, dtype=np.float64) * np.asarray(spacing)
    diffs = a[:, None, :] - b[None, :, :]
    return np.sqrt((diffs ** 2).sum(axis=2)).min(axis=1)


def quantile_linear(values, q: float) -> float:
    """Quantile with linear interpolation at rank q*(n-1), by hand, in
    numpy's rounding: the lerp runs from the nearer of the two order
    statistics, so the result equals ``np.percentile``'s bit for bit."""
    xs = sorted(float(v) for v in values)
    n = len(xs)
    if n == 0:
        raise ValueError("empty")
    if n == 1:
        return xs[0]
    r = q * (n - 1)
    lo = int(math.floor(r))
    hi = min(lo + 1, n - 1)
    frac = r - lo
    step = xs[hi] - xs[lo]
    if frac >= 0.5:
        return xs[hi] - step * (1.0 - frac)
    return xs[lo] + step * frac


def h95_oracle(ref_mask, pred_mask, spacing):
    ref_mask = np.asarray(ref_mask, dtype=bool)
    pred_mask = np.asarray(pred_mask, dtype=bool)
    if not ref_mask.any() or not pred_mask.any():
        return None
    surf_r = np.argwhere(surface_oracle(ref_mask))
    surf_p = np.argwhere(surface_oracle(pred_mask))
    d_rp = allpairs_directed(surf_r, surf_p, spacing)
    d_pr = allpairs_directed(surf_p, surf_r, spacing)
    return max(quantile_linear(d_rp, 0.95), quantile_linear(d_pr, 0.95))


# ----------------------------------------------------------------- metrics

def dice_oracle(ref_mask, pred_mask) -> float:
    a = {tuple(v) for v in np.argwhere(np.asarray(ref_mask, dtype=bool))}
    b = {tuple(v) for v in np.argwhere(np.asarray(pred_mask, dtype=bool))}
    if not a and not b:
        return 1.0
    return float(Fraction(2 * len(a & b), len(a) + len(b)))


def recall_f1_oracle(ref_mask, pred_mask, connectivity=26):
    """Lesion recall/F1 through explicit component overlap sets."""
    ref_labels, n_ref, ref_sizes = cc_oracle(ref_mask, connectivity)
    pred_labels, n_pred, _ = cc_oracle(pred_mask, connectivity)

    ref_comps = [set() for _ in range(n_ref)]
    for v in np.argwhere(np.asarray(ref_mask, dtype=bool)):
        ref_comps[ref_labels[tuple(v)] - 1].add(tuple(v))
    pred_comps = [set() for _ in range(n_pred)]
    for v in np.argwhere(np.asarray(pred_mask, dtype=bool)):
        pred_comps[pred_labels[tuple(v)] - 1].add(tuple(v))

    pred_union = set().union(*pred_comps) if pred_comps else set()
    ref_union = set().union(*ref_comps) if ref_comps else set()
    detected = [bool(c & pred_union) for c in ref_comps]
    matched = [bool(c & ref_union) for c in pred_comps]

    if n_ref == 0 and n_pred == 0:
        recall = f1 = 1.0
    elif n_ref == 0 or n_pred == 0:
        recall = f1 = 0.0
    else:
        recall = sum(detected) / n_ref
        precision = sum(matched) / n_pred
        f1 = (0.0 if precision + recall == 0
              else 2 * precision * recall / (precision + recall))
    return recall, f1, detected, matched, ref_sizes


def size_split_oracle(ref_sizes, detected):
    if not ref_sizes:
        return None, None
    med = quantile_linear(ref_sizes, 0.5)
    small = [d for s, d in zip(ref_sizes, detected) if s <= med]
    large = [d for s, d in zip(ref_sizes, detected) if s > med]
    r_small = sum(small) / len(small) if small else None
    r_large = sum(large) / len(large) if large else None
    return r_small, r_large


def evaluate_pair_oracle(ref_labels, pred_labels, spacing,
                         connectivity=26):
    """Full metric vector, re-derived from scratch. Returns a dict."""
    ref_labels = np.asarray(ref_labels)
    pred_labels = np.asarray(pred_labels)
    ignore = ref_labels == 2
    ref_mask = (ref_labels == 1) & ~ignore
    pred_mask = (pred_labels == 1) & ~ignore

    voxvol = spacing[0] * spacing[1] * spacing[2]
    n_ref = int(ref_mask.sum())
    n_pred = int(pred_mask.sum())

    recall, f1, detected, matched, ref_sizes = recall_f1_oracle(
        ref_mask, pred_mask, connectivity)
    r_small, r_large = size_split_oracle(ref_sizes, detected)

    if n_ref == 0:
        avd = None
        lavd = None
    else:
        avd = abs(n_pred - n_ref) / n_ref * 100.0
        lavd = abs(math.log(n_pred / n_ref)) if n_pred > 0 else None

    return {
        "dsc": dice_oracle(ref_mask, pred_mask),
        "h95_mm": h95_oracle(ref_mask, pred_mask, spacing),
        "avd_pct": avd,
        "lavd": lavd,
        "recall": recall,
        "f1": f1,
        "recall_small": r_small,
        "recall_large": r_large,
        "n_ref_lesions": len(ref_sizes),
        "n_pred_lesions": len(matched),
        "ref_volume_ml": n_ref * voxvol / 1000.0,
        "pred_volume_ml": n_pred * voxvol / 1000.0,
    }


# ------------------------------------------------------------------- maps

def maps_oracle(subjects):
    """FN/FP rate maps by the plain loop: every (reference, prediction)
    pair adds its FN, reference-positive and FP voxels on the whole
    grid, in int64. ``subjects`` is a list of (reference, predictions)
    bool arrays. Returns a dict of fn_rate, fp_rate and lesion_count,
    or None when there is no pair.
    """
    ref0 = np.asarray(subjects[0][0], dtype=bool) if subjects else None
    if ref0 is None:
        return None
    fn_num, fn_den, fp_num, lesion_count = (
        np.zeros(ref0.shape, np.int64) for _ in range(4))
    n = 0
    for ref, preds in subjects:
        ref = np.asarray(ref, dtype=bool)
        lesion_count += ref
        for pred in preds:
            pred = np.asarray(pred, dtype=bool)
            fn_num += ref & ~pred
            fn_den += ref
            fp_num += pred & ~ref
            n += 1
    if n == 0:
        return None

    def rate(num, den):
        return np.where(den > 0, num / np.maximum(den, 1), 0.0)

    return {"fn_rate": rate(fn_num, fn_den),
            "fp_rate": rate(fp_num, n - fn_den),
            "lesion_count": lesion_count}


# ----------------------------------------------------------------- ranking

def bootstrap_oracle(vals, higher_better, replicates: int, seed: int):
    """The bootstrap as one replicate at a time: draw subjects from the
    replicate's own Philox stream (redrawing while some (method, metric)
    cell is empty), average, then min-max rank each metric column.

    ``vals`` is (methods, metrics, subjects) with NaN for missing.
    Returns (replicate means (R, M, K), replicate finals (R, M), redraws).
    """
    vals = np.asarray(vals, dtype=np.float64)
    n_methods, n_metrics, n_subj = vals.shape
    rep_means = np.empty((replicates, n_methods, n_metrics))
    rep_final = np.empty((replicates, n_methods))
    redraws = 0
    for r in range(replicates):
        rng = np.random.Generator(np.random.Philox(
            key=(seed & (2**64 - 1)) + ((r + 1) << 64)))
        while True:
            sub = vals[:, :, rng.integers(0, n_subj, n_subj)]
            if (~np.isnan(sub)).sum(axis=2).min() > 0:
                break
            redraws += 1
        with np.errstate(invalid="ignore"):
            means = np.nanmean(sub, axis=2)
        ranks = np.empty_like(means)
        for k in range(n_metrics):
            v = -means[:, k] if higher_better[k] else means[:, k]
            lo, hi = v.min(), v.max()
            ranks[:, k] = (0.0 if hi == lo
                           else np.round((v - lo) / (hi - lo), 9))
        rep_means[r] = means
        rep_final[r] = ranks.mean(axis=1)
    return rep_means, rep_final, redraws


def interscanner_oracle(table, metrics, normalization="minmax"):
    """Inter-scanner robustness one (method, metric, scanner) cell at a
    time: the median of the cell's defined values, skipping (with a
    warning) a scanner that has none, then the population std of the
    medians, normalised per metric column and averaged.

    Returns (methods most to least robust, robustness, dispersions per
    metric), all in that order.
    """
    scanners = table.scanners
    vals = table.values(metrics)         # (M, K, S)
    subj_scanner = np.array([scanners.index(table.scanner_of[s])
                             for s in table.subjects])

    n_methods, n_metrics = len(table.methods), len(metrics)
    disp = np.empty((n_methods, n_metrics))
    for mi, method in enumerate(table.methods):
        for ki, name in enumerate(metrics):
            medians = []
            for gi, scanner in enumerate(scanners):
                col = vals[mi, ki, subj_scanner == gi]
                col = col[~np.isnan(col)]
                if col.size == 0:
                    warnings.warn(
                        f"scanner {scanner!r} has no defined {name} for "
                        f"method {method!r}; excluded from its dispersion",
                        EvaluationWarning, stacklevel=2)
                    continue
                medians.append(np.median(col))
            if len(medians) < 2:
                raise AllMissingError(
                    f"method {method!r}, metric {name}: fewer than two "
                    f"scanners have defined values")
            disp[mi, ki] = np.std(medians)   # population std, ddof 0

    if normalization == "minmax":
        norm = np.empty_like(disp)
        for k in range(n_metrics):
            lo, hi = disp[:, k].min(), disp[:, k].max()
            norm[:, k] = (0.0 if hi == lo
                          else np.round((disp[:, k] - lo) / (hi - lo), 9))
    else:
        from scipy.stats import rankdata
        norm = (rankdata(disp, axis=0) - 1.0) / (n_methods - 1)

    robustness = norm.mean(axis=1)
    order = sorted(range(n_methods),
                   key=lambda i: (robustness[i], table.methods[i]))
    return (tuple(table.methods[i] for i in order), robustness[order],
            {name: disp[order, k] for k, name in enumerate(metrics)})


# ------------------------------------------------------------------ fusion

def staple_oracle(rater_masks, prior, max_iter=100, tol=1e-6):
    """Probability-domain EM on the full grid, no shortcuts.

    Returns (weights grid, p, q, log-likelihood history, iterations).
    Suitable for small grids and moderate rater counts only.
    """
    d = np.stack([np.asarray(m, dtype=np.float64).ravel()
                  for m in rater_masks])          # (J, N)
    n_raters, n_vox = d.shape
    f = prior
    p = np.full(n_raters, 0.999)
    q = np.full(n_raters, 0.999)

    def e_step(p_vec, q_vec):
        pc = np.clip(p_vec, 1e-10, 1 - 1e-10)
        qc = np.clip(q_vec, 1e-10, 1 - 1e-10)
        a = f * np.prod(np.where(d > 0, pc[:, None], 1 - pc[:, None]), axis=0)
        b = (1 - f) * np.prod(np.where(d > 0, 1 - qc[:, None], qc[:, None]),
                              axis=0)
        return a / (a + b), float(np.log(a + b).sum())

    w, ll = e_step(p, q)
    history = [ll]
    iterations = 1
    while iterations < max_iter:
        sw = w.sum()
        sv = (1.0 - w).sum()
        p = (d @ w) / sw
        q = ((1.0 - d) @ (1.0 - w)) / sv
        w_new, ll = e_step(p, q)
        iterations += 1
        history.append(ll)
        delta = float(np.abs(w_new - w).sum()) / n_vox
        w = w_new
        if delta < tol:
            break
    shape = np.asarray(rater_masks[0]).shape
    return w.reshape(shape), p, q, history, iterations


def vote_patterns_oracle(votes: np.ndarray):
    """``(first, inverse, counts)`` of a (K, R) boolean vote table from
    ``np.unique`` over one byte-string key per row: the row's
    ``packbits`` bytes viewed as a single ``np.void`` value, which
    numpy orders by comparing the bytes."""
    packed = np.packbits(votes, axis=1)
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, inverse, counts = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True)
    return first, inverse, counts


def majority_vote(rater_masks) -> np.ndarray:
    stack = np.stack([np.asarray(m, dtype=np.int64) for m in rater_masks])
    return stack.sum(axis=0) * 2 > len(rater_masks)
