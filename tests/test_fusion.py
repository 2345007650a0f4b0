import math

import numpy as np
import pytest

from seg_eval.errors import (ArityError, DegenerateInputError,
                             ShapeMismatchError)
from seg_eval.fusion import (StapleParams, _vote_patterns, majority_vote,
                             staple_fuse)
from seg_eval.volume import BinaryMask

from helpers import mask_from, random_mask
from oracles import majority_vote as majority_oracle
from oracles import dice_oracle, staple_oracle, vote_patterns_oracle


def raters_from_truth(truth: np.ndarray, p_list, q_list, seed):
    """Simulated raters: keep foreground with prob p, flip background
    with prob 1-q."""
    out = []
    for j, (p, q) in enumerate(zip(p_list, q_list)):
        rng = np.random.default_rng(seed + j)
        u = rng.random(truth.shape)
        voted = np.where(truth, u < p, u > q)
        out.append(BinaryMask(voted, (1.0, 1.0, 1.0)))
    return out


class TestMajorityVote:
    def test_single_rater_identity(self):
        m = mask_from([(0, 0, 0), (2, 2, 2)], (4, 4, 4))
        assert np.array_equal(majority_vote([m]).data, m.data)

    def test_two_of_three(self):
        a = mask_from([(0, 0, 0), (1, 0, 0)], (3, 3, 1))
        b = mask_from([(0, 0, 0)], (3, 3, 1))
        c = mask_from([(2, 2, 0)], (3, 3, 1))
        fused = majority_vote([a, b, c])
        assert fused.data[0, 0, 0]          # votes (1,1,0)
        assert not fused.data[1, 0, 0]      # votes (1,0,0)
        assert not fused.data[2, 2, 0]      # votes (0,0,1)

    def test_even_tie_is_background(self):
        a = mask_from([(1, 1, 1)], (3, 3, 3))
        b = mask_from([], (3, 3, 3))
        assert majority_vote([a, b]).count() == 0

    def test_matches_oracle(self):
        rng = np.random.default_rng(71)
        masks = [random_mask(rng, (6, 6, 6), density=0.4) for _ in range(5)]
        got = majority_vote(masks)
        assert np.array_equal(got.data,
                              majority_oracle([m.data for m in masks]))

    def test_empty_list_rejected(self):
        with pytest.raises(ArityError):
            majority_vote([])


class TestStapleValidation:
    def test_needs_two_masks(self):
        m = mask_from([(0, 0, 0)], (4, 4, 4))
        with pytest.raises(ArityError):
            staple_fuse([m])

    def test_all_empty_rejected(self):
        empty = mask_from([], (4, 4, 4))
        with pytest.raises(DegenerateInputError):
            staple_fuse([empty, empty])

    def test_all_foreground_rejected(self):
        # the mean vote rate would be a prior of exactly 1
        full = BinaryMask(np.ones((4, 4, 4), dtype=bool), (1.0, 1.0, 1.0))
        with pytest.raises(DegenerateInputError, match="every voxel"):
            staple_fuse([full, full, full])

    def test_all_foreground_with_a_prior(self):
        full = BinaryMask(np.ones((4, 4, 4), dtype=bool), (1.0, 1.0, 1.0))
        res = staple_fuse([full, full, full], StapleParams(prior=0.3))
        assert np.isfinite(res.weights).all()
        assert np.allclose(res.weights, 0.3, rtol=0, atol=1e-12)
        assert np.isfinite(res.specificity).all()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("prior", [None, 0.3])
    @pytest.mark.parametrize("dims", [(5, 6, 7), (16, 16, 4)])
    @pytest.mark.parametrize("n_raters", [65, 100, 130])
    def test_no_background_mass_keeps_the_specificities(self, n_raters, dims,
                                                        prior):
        # so many raters vote 9 voxels in 10 that every voxel is voted
        # and every E-step weight rounds to 1: the M-step has no
        # background to re-estimate q from
        rng = np.random.default_rng(n_raters)
        masks = [random_mask(rng, dims, density=0.9)
                 for _ in range(n_raters)]
        res = staple_fuse(masks, StapleParams(prior=prior))
        assert np.isfinite(res.sensitivity).all()
        assert np.isfinite(res.specificity).all()
        assert np.isfinite(res.weights).all()
        assert res.consensus.data.any()

    def test_grid_mismatch(self):
        a = mask_from([(0, 0, 0)], (4, 4, 4))
        b = mask_from([(0, 0, 0)], (4, 4, 5))
        with pytest.raises(ShapeMismatchError):
            staple_fuse([a, b])

    def test_param_validation(self):
        with pytest.raises(ValueError):
            StapleParams(max_iter=0)
        with pytest.raises(ValueError):
            StapleParams(threshold=0.0)
        with pytest.raises(ValueError):
            StapleParams(prior=1.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
    def test_tol_must_be_finite_and_positive(self, tol):
        # the range --tol accepts: EM could never meet a NaN or
        # non-positive tol, and would always meet an infinite one
        with pytest.raises(ValueError, match="tol"):
            StapleParams(tol=tol)


class TestVotePatterns:
    @pytest.mark.parametrize("n_raters", [2, 8, 9, 17, 20, 63, 64, 65, 130])
    @pytest.mark.parametrize("votes", ["sparse", "dense", "every_voxel"])
    def test_matches_unique_of_byte_keys(self, n_raters, votes):
        rng = np.random.default_rng(n_raters)
        density = {"sparse": 0.05, "dense": 0.9, "every_voxel": 0.3}[votes]
        table = rng.random((600, n_raters)) < density
        if votes == "every_voxel":
            # one vote per row at least, some rows voted by all:
            # no all-background pattern is left
            table[np.arange(600), rng.integers(0, n_raters, 600)] = True
            table[::7] = True
        else:
            table = table[table.any(axis=1)]
        first, inverse, counts = _vote_patterns(table)
        want = vote_patterns_oracle(table)
        for got, expected in zip((first, inverse, counts), want):
            assert np.array_equal(got, expected)
        assert np.array_equal(table[first][inverse], table)


class TestStapleFixedPoints:
    def test_unanimous_raters(self):
        m = mask_from([(2, 2, 2), (2, 3, 2), (5, 5, 5)], (8, 8, 8))
        res = staple_fuse([m, m, m])
        assert np.array_equal(res.consensus.data, m.data)
        assert res.iterations <= 2
        assert res.converged
        assert (res.sensitivity >= 0.999).all()
        assert (res.specificity >= 0.999).all()

    def test_two_agree_one_empty(self):
        m = mask_from([(2, 2, 2), (3, 2, 2)], (8, 8, 8))
        empty = mask_from([], (8, 8, 8))
        res = staple_fuse([m, m, empty])
        assert np.array_equal(res.consensus.data, m.data)

    def test_symmetric_two_of_three_equals_majority(self):
        # each positive voxel is voted by exactly 2 of 3 raters and
        # every rater misses exactly one voxel: fully symmetric
        a = mask_from([(0, 0, 0), (1, 1, 0)], (4, 4, 1))
        b = mask_from([(0, 0, 0), (2, 2, 0)], (4, 4, 1))
        c = mask_from([(1, 1, 0), (2, 2, 0)], (4, 4, 1))
        res = staple_fuse([a, b, c])
        vote = majority_vote([a, b, c])
        assert np.array_equal(res.consensus.data, vote.data)
        # symmetry carries into the estimates
        assert np.ptp(res.sensitivity) < 1e-12
        assert np.ptp(res.specificity) < 1e-12


class TestStapleProperties:
    def test_vote_flip_monotone_at_fixed_parameters(self):
        rng = np.random.default_rng(72)
        params = StapleParams(max_iter=1, prior=0.2)
        for _ in range(10):
            masks = [random_mask(rng, (5, 5, 5), density=0.3)
                     for _ in range(4)]
            if not any(m.count() for m in masks):
                continue
            base = staple_fuse(masks, params)
            zeros = np.argwhere(~masks[0].data)
            if zeros.size == 0:
                continue
            v = tuple(zeros[0])
            flipped = masks[0].data.copy()
            flipped[v] = True
            masks2 = [BinaryMask(flipped, masks[0].spacing)] + masks[1:]
            res2 = staple_fuse(masks2, params)
            assert res2.weights[v] >= base.weights[v]

    def test_log_likelihood_never_decreases(self):
        rng = np.random.default_rng(73)
        for _ in range(8):
            masks = [random_mask(rng, (7, 7, 5), density=0.25)
                     for _ in range(3)]
            if not any(m.count() for m in masks):
                continue
            res = staple_fuse(masks, StapleParams(max_iter=40))
            diffs = np.diff(res.log_likelihood)
            assert (diffs >= -1e-9).all()
            assert len(res.log_likelihood) == res.iterations

    def test_weights_and_rates_in_unit_interval(self):
        rng = np.random.default_rng(74)
        masks = [random_mask(rng, (8, 8, 8), density=0.2) for _ in range(4)]
        res = staple_fuse(masks)
        assert res.weights.min() >= 0.0 and res.weights.max() <= 1.0
        assert (res.sensitivity >= 0.0).all() and (res.sensitivity <= 1.0).all()
        assert (res.specificity >= 0.0).all() and (res.specificity <= 1.0).all()

    def test_rater_permutation_invariance(self):
        rng = np.random.default_rng(75)
        masks = [random_mask(rng, (8, 8, 6), density=0.2) for _ in range(4)]
        res = staple_fuse(masks)
        res_rev = staple_fuse(masks[::-1])
        assert np.allclose(res.weights, res_rev.weights, atol=1e-10)
        assert np.array_equal(res.consensus.data, res_rev.consensus.data)
        assert np.allclose(res.sensitivity, res_rev.sensitivity[::-1],
                           atol=1e-10)
        assert np.allclose(res.specificity, res_rev.specificity[::-1],
                           atol=1e-10)

    def test_bitwise_reproducibility(self):
        rng = np.random.default_rng(76)
        masks = [random_mask(rng, (9, 9, 9), density=0.15) for _ in range(3)]
        a = staple_fuse(masks)
        b = staple_fuse(masks)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.sensitivity, b.sensitivity)
        assert np.array_equal(a.log_likelihood, b.log_likelihood)
        assert a.iterations == b.iterations

    def test_threshold_monotone(self):
        rng = np.random.default_rng(77)
        masks = [random_mask(rng, (8, 8, 8), density=0.25) for _ in range(3)]
        loose = staple_fuse(masks, StapleParams(threshold=0.1))
        tight = staple_fuse(masks, StapleParams(threshold=0.9))
        assert (tight.consensus.data <= loose.consensus.data).all()


class TestStapleAgainstOracle:
    def test_matches_probability_domain_em(self):
        rng = np.random.default_rng(78)
        for trial in range(5):
            masks = [random_mask(rng, (10, 9, 8), density=0.2)
                     for _ in range(3)]
            if not any(m.count() for m in masks):
                continue
            params = StapleParams(prior=0.15, max_iter=60, tol=1e-7)
            res = staple_fuse(masks, params)
            w, p, q, history, iters = staple_oracle(
                [m.data for m in masks], prior=0.15, max_iter=60, tol=1e-7)
            assert res.iterations == iters
            assert np.allclose(res.weights, w, atol=1e-9)
            assert np.allclose(res.sensitivity, p, atol=1e-9)
            assert np.allclose(res.specificity, q, atol=1e-9)
            assert np.allclose(res.log_likelihood, history, atol=1e-6)

    @pytest.mark.parametrize("case", [
        "sparse", "9_raters", "17_raters", "prior_0.6", "all_voxels_voted"])
    def test_default_params_match_oracle(self, case):
        rng = np.random.default_rng(79)
        n_raters, shape, density, prior = 3, (10, 9, 8), 0.2, None
        if case == "sparse":        # most voxels get no vote at all
            shape, density = (16, 14, 12), 0.01
        elif case == "9_raters":    # pattern keys span 2 bytes
            n_raters, density = 9, 0.05
        elif case == "17_raters":   # and 3 bytes
            n_raters, density = 17, 0.03
        elif case == "prior_0.6":
            prior = 0.6
        else:                       # no all-background voxel left
            density = 0.5
        data = [rng.random(shape) < density for _ in range(n_raters)]
        if case == "all_voxels_voted":
            data[0] |= ~np.logical_or.reduce(data)
        masks = [BinaryMask(d, (1.0, 1.0, 1.0)) for d in data]
        union = np.logical_or.reduce(data)
        assert union.all() == (case == "all_voxels_voted")

        res = staple_fuse(masks, StapleParams(prior=prior))
        if prior is None:
            prior = sum(int(d.sum()) for d in data) / (n_raters * union.size)
        assert res.prior == prior
        w, p, q, history, iters = staple_oracle(data, prior=prior)
        assert res.iterations == iters
        assert np.allclose(res.weights, w, rtol=0, atol=1e-9)
        assert np.allclose(res.sensitivity, p, rtol=0, atol=1e-9)
        assert np.allclose(res.specificity, q, rtol=0, atol=1e-9)
        assert np.allclose(res.log_likelihood, history, rtol=0, atol=1e-6)
        if case == "sparse":
            # unvoted voxels carry the oracle's small weight, not a 0
            assert (w[~union] > 0).all()
            assert np.allclose(res.weights[~union], w[~union],
                               rtol=1e-9, atol=0)

    def test_parameter_recovery_on_planted_raters(self):
        # the generative model is fully known here, so the prior is the
        # true prevalence; the AUTO vote-rate proxy overshoots it when
        # raters carry strong false-positive rates and would bias p
        truth = np.zeros((32, 32, 32), dtype=bool)
        truth[8:24, 8:24, 8:24] = True      # 12.5 % foreground
        master = np.random.default_rng(80)
        p_true = master.uniform(0.75, 0.95, size=5)
        q_true = master.uniform(0.75, 0.95, size=5)
        masks = raters_from_truth(truth, p_true, q_true, seed=81)
        res = staple_fuse(masks, StapleParams(max_iter=200, prior=0.125))
        assert res.converged
        assert np.abs(res.sensitivity - p_true).max() < 0.05
        assert np.abs(res.specificity - q_true).max() < 0.05
        fused_dsc = dice_oracle(res.consensus.data, truth)
        for m in masks:
            assert fused_dsc >= dice_oracle(m.data, truth)
