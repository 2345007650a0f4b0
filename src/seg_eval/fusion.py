"""STAPLE label fusion.

Expectation-maximisation over rater decisions: the E-step scores each
voxel's probability of being true foreground given per-rater
sensitivity p_j and specificity q_j, the M-step re-estimates p_j and
q_j from those probabilities. Products over raters are carried in the
log domain.

Both steps depend on a voxel only through its vote pattern, the tuple
of rater decisions there. So the EM runs on the distinct patterns, each
weighted by its voxel count: the patterns of the voxels with at least
one vote, plus the all-background pattern of every other voxel. This is
the full-grid EM, exactly, on a few columns; the per-voxel weights are
scattered back from the pattern weights at the end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArityError, DegenerateInputError
from .volume import BinaryMask, same_grid

__all__ = ["StapleParams", "FusionResult", "staple_fuse", "majority_vote"]

_LOG_EPS = 1e-10


@dataclass(frozen=True)
class StapleParams:
    max_iter: int = 100
    tol: float = 1e-6
    threshold: float = 0.5
    prior: float | None = None     # None: mean vote rate over the grid

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not 0 < self.tol < np.inf:
            raise ValueError("tol must be a finite number > 0")
        if not 0 < self.threshold <= 1:
            raise ValueError("threshold must be in (0, 1]")
        if self.prior is not None and not 0.0 < self.prior < 1.0:
            raise ValueError("prior must lie strictly between 0 and 1")


@dataclass(frozen=True, eq=False)
class FusionResult:
    consensus: BinaryMask
    weights: np.ndarray            # P(foreground) per voxel, full grid
    sensitivity: np.ndarray        # p_j per rater
    specificity: np.ndarray        # q_j per rater
    prior: float
    iterations: int
    converged: bool
    log_likelihood: np.ndarray     # one value per E-step


def majority_vote(masks: list[BinaryMask]) -> BinaryMask:
    """Strict-majority baseline: foreground where more than half the
    raters vote yes. A single rater passes through unchanged; an even
    split is background."""
    if not masks:
        raise ArityError("majority vote needs at least one mask")
    for m in masks[1:]:
        same_grid(masks[0], m, "rater masks")
    votes = np.zeros_like(masks[0].data, dtype=np.int32)
    for m in masks:
        votes += m.data
    return BinaryMask(votes * 2 > len(masks), masks[0].spacing)


def _vote_patterns(votes: np.ndarray):
    """The distinct rows of a (K, R) boolean vote table, in the byte
    order of their ``packbits`` keys: ``(first, inverse, counts)`` as
    ``np.unique(..., return_index, return_inverse, return_counts)``
    gives them for those keys.

    Each row's bits are packed and padded to whole 8-byte words read
    big-endian, so comparing words in turn is comparing the bytes; a
    stable sort keeps the first voxel of each pattern first.
    """
    packed = np.packbits(votes, axis=1)
    n_words = -(-packed.shape[1] // 8)
    keys = np.zeros((len(votes), 8 * n_words), dtype=np.uint8)
    keys[:, :packed.shape[1]] = packed
    words = keys.view(">u8")
    order = np.lexsort(words.T[::-1])
    ordered = words[order]
    new = np.ones(len(votes), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(votes), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    starts = np.flatnonzero(new)
    return order[starts], inverse, np.diff(starts, append=len(votes))


def staple_fuse(masks: list[BinaryMask],
                params: StapleParams = StapleParams()) -> FusionResult:
    """Fuse two or more binary segmentations into a consensus."""
    from scipy.special import expit

    if len(masks) < 2:
        raise ArityError(f"fusion needs at least two masks, got {len(masks)}")
    for m in masks[1:]:
        same_grid(masks[0], m, "rater masks")

    dims = masks[0].dims
    spacing = masks[0].spacing
    n_full = int(np.prod(dims))
    n_raters = len(masks)

    # flat x-fastest views: no copy; integer gathers at the voted
    # voxels read each rater once, in memory order
    flat = [m.data.ravel("F") for m in masks]
    union = flat[0] | flat[1]
    for f in flat[2:]:
        union |= f
    at = np.flatnonzero(union)
    if at.size == 0:
        raise DegenerateInputError("every rater mask is empty")
    votes = np.stack([f.take(at) for f in flat], axis=1)   # (K, R)

    if params.prior is not None:
        prior = float(params.prior)
    else:
        n_votes = np.count_nonzero(votes)
        if n_votes == n_raters * n_full:
            raise DegenerateInputError(
                "every rater marks every voxel, so the mean vote rate "
                "prior is 1; give a prior below 1")
        prior = n_votes / (n_raters * n_full)

    first, inverse, counts = _vote_patterns(votes)
    # column 0 is the all-background pattern of the unvoted voxels
    d = np.zeros((n_raters, len(first) + 1), dtype=np.float64)
    d[:, 1:] = votes[first].T
    c = np.concatenate(([n_full - len(votes)], counts)).astype(np.float64)

    log_f = np.log(prior)
    log_1f = np.log1p(-prior)

    def clamped_logs(values: np.ndarray):
        v = np.clip(values, _LOG_EPS, 1.0 - _LOG_EPS)
        return np.log(v), np.log1p(-v)

    p = np.full(n_raters, 0.999)
    q = np.full(n_raters, 0.999)

    def e_step(p_vec, q_vec):
        log_p, log_1p = clamped_logs(p_vec)
        log_q, log_1q = clamped_logs(q_vec)
        # log a_i = log f + sum_j [ d_ij log p_j + (1 - d_ij) log(1 - p_j) ]
        la = log_f + log_1p.sum() + (log_p - log_1p) @ d
        lb = log_1f + log_q.sum() + (log_1q - log_q) @ d
        return expit(la - lb), float(c @ np.logaddexp(la, lb))

    def m_step(w, q_old):
        cw = c * w
        cv = c * (1.0 - w)
        sw, sv = cw.sum(), cv.sum()
        p_new = (d @ cw) / sw if sw > 0 else np.full(n_raters, _LOG_EPS)
        # no background mass leaves nothing to re-estimate q from
        q_new = ((1.0 - d) @ cv) / sv if sv > 0 else q_old
        return p_new, q_new

    w, ll = e_step(p, q)
    history = [ll]
    iterations = 1
    converged = False
    while iterations < params.max_iter:
        p, q = m_step(w, q)
        w_new, ll = e_step(p, q)
        iterations += 1
        history.append(ll)
        delta = float(c @ np.abs(w_new - w)) / n_full
        w = w_new
        if delta < params.tol:
            converged = True
            break

    weights = np.full(n_full, w[0])
    weights[at] = w[1:].take(inverse)
    weights = weights.reshape(dims, order="F")
    consensus = BinaryMask(weights >= params.threshold, spacing)
    return FusionResult(
        consensus=consensus, weights=weights,
        sensitivity=np.asarray(p, dtype=np.float64),
        specificity=np.asarray(q, dtype=np.float64),
        prior=prior, iterations=iterations, converged=converged,
        log_likelihood=np.array(history))
