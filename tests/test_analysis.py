import math
import statistics
import warnings

import numpy as np
import pytest
from scipy import stats as scipy_stats

from seg_eval.analysis import (fisher_exact, fn_fp_maps, summarize_cohort,
                               train_test_r2, welch_ttest)
from seg_eval.errors import (ArityError, EvaluationWarning,
                             ShapeMismatchError, UndefinedMetricError)
from seg_eval.volume import BinaryMask

from helpers import mask_from, random_mask
from oracles import (fisher_exact_fraction, quantile_linear, r2_direct,
                     welch_p_quadrature)


class TestRateMaps:
    def test_total_miss(self):
        ref = mask_from([(1, 1, 1), (2, 1, 1)], (4, 4, 4))
        pred = mask_from([], (4, 4, 4))
        fn, fp = fn_fp_maps([(ref, [pred])])
        assert fn.rate[1, 1, 1] == 1.0
        assert fn.rate[2, 1, 1] == 1.0
        assert fn.rate.sum() == 2.0
        assert fp.rate.sum() == 0.0

    def test_perfect_predictions(self):
        rng = np.random.default_rng(101)
        subjects = []
        for _ in range(3):
            m = random_mask(rng, (5, 5, 5), density=0.3)
            subjects.append((m, [m, m]))
        fn, fp = fn_fp_maps(subjects)
        assert fn.rate.sum() == 0.0
        assert fp.rate.sum() == 0.0

    def test_half_missed_voxel(self):
        ref = mask_from([(2, 2, 2)], (5, 5, 5))
        hit = mask_from([(2, 2, 2)], (5, 5, 5))
        miss = mask_from([], (5, 5, 5))
        fn, _ = fn_fp_maps([(ref, [hit, miss])])
        assert fn.rate[2, 2, 2] == 0.5
        assert fn.numerator[2, 2, 2] == 1
        assert fn.denominator[2, 2, 2] == 2

    def test_counts_additive_over_concatenation(self):
        rng = np.random.default_rng(102)
        mk = lambda k: (random_mask(rng, (6, 6, 6), density=0.25),
                        [random_mask(rng, (6, 6, 6), density=0.25)
                         for _ in range(k)])
        group1 = [mk(k) for k in (1, 3, 2)]
        group2 = [mk(k) for k in (2, 1, 1, 3)]
        fn_a, fp_a = fn_fp_maps(group1)
        fn_b, fp_b = fn_fp_maps(group2)
        fn_all, fp_all = fn_fp_maps(group1 + group2)
        assert np.array_equal(fn_all.numerator, fn_a.numerator + fn_b.numerator)
        assert np.array_equal(fn_all.denominator,
                              fn_a.denominator + fn_b.denominator)
        assert np.array_equal(fp_all.numerator, fp_a.numerator + fp_b.numerator)
        assert np.array_equal(fn_all.lesion_count,
                              fn_a.lesion_count + fn_b.lesion_count)

    def test_empty_reference_pairs_leave_fn_rate_alone(self):
        ref = mask_from([(1, 1, 1)], (4, 4, 4))
        pred = mask_from([], (4, 4, 4))
        fn_before, _ = fn_fp_maps([(ref, [pred])])
        empty = mask_from([], (4, 4, 4))
        fn_after, _ = fn_fp_maps([(ref, [pred]), (empty, [empty])])
        assert np.array_equal(fn_before.rate, fn_after.rate)

    def test_subject_dedup_in_lesion_count(self):
        ref = mask_from([(0, 0, 0)], (3, 3, 3))
        pred = mask_from([], (3, 3, 3))
        shared, _ = fn_fp_maps([(ref, [pred, pred])])
        distinct, _ = fn_fp_maps([(ref, [pred]), (ref, [pred])])
        assert shared.lesion_count[0, 0, 0] == 1
        assert distinct.lesion_count[0, 0, 0] == 2
        assert np.array_equal(shared.denominator, distinct.denominator)

    def test_fp_denominator_modes(self):
        ref = mask_from([(0, 0, 0)], (3, 3, 3))
        pred = mask_from([(1, 1, 1)], (3, 3, 3))
        _, by_negative = fn_fp_maps([(ref, [pred, ref])])
        _, by_pairs = fn_fp_maps([(ref, [pred, ref])],
                                 fp_denominator="pairs")
        assert by_negative.denominator[1, 1, 1] == 2
        assert by_negative.denominator[0, 0, 0] == 0   # ref-positive voxel
        assert (by_pairs.denominator == 2).all()
        assert by_pairs.rate[1, 1, 1] == 0.5

    def test_rates_bounded_and_denominator_dominates(self):
        rng = np.random.default_rng(103)
        subjects = [(random_mask(rng, (6, 6, 6), density=0.3),
                     [random_mask(rng, (6, 6, 6), density=0.3)
                      for _ in range(k)])
                    for k in (1, 2, 2)]
        for mode in ("ref_negative", "pairs"):
            fn, fp = fn_fp_maps(subjects, fp_denominator=mode)
            for m in (fn, fp):
                assert m.rate.min() >= 0.0 and m.rate.max() <= 1.0
                assert (m.denominator >= m.numerator).all()

    def test_validation(self):
        with pytest.raises(ArityError):
            fn_fp_maps([])
        a = mask_from([], (3, 3, 3))
        b = mask_from([], (4, 3, 3))
        with pytest.raises(ArityError):
            fn_fp_maps([(a, [])])
        with pytest.raises(ShapeMismatchError):
            fn_fp_maps([(a, [b])])
        with pytest.raises(ShapeMismatchError):
            fn_fp_maps([(a, [a]), (b, [b])])
        with pytest.raises(ValueError, match="fp_denominator"):
            fn_fp_maps([(a, [a])], fp_denominator="everything")

    def test_any_iterable_of_pairs(self):
        rng = np.random.default_rng(108)
        subjects = [(random_mask(rng, (5, 4, 3), 0.3),
                     [random_mask(rng, (5, 4, 3), 0.3) for _ in range(k)])
                    for k in (3, 2, 1)]
        for mode in ("ref_negative", "pairs"):
            want = fn_fp_maps(subjects, mode)
            assert np.array_equal(want[0].lesion_count,
                                  sum(ref.data for ref, _ in subjects))
            got = fn_fp_maps(((ref, (p for p in preds))
                              for ref, preds in subjects), mode)
            for w, g in zip(want, got):
                for field in ("numerator", "denominator", "rate",
                              "lesion_count"):
                    assert np.array_equal(getattr(w, field),
                                          getattr(g, field)), field

    def test_validation_on_a_generator(self):
        a = mask_from([(1, 1, 1)], (3, 3, 3))
        with pytest.raises(ArityError):
            fn_fp_maps(iter([]))
        with pytest.raises(ArityError):
            fn_fp_maps((a, iter([])) for _ in range(2))
        with pytest.raises(ShapeMismatchError):
            fn_fp_maps(iter([(a, (m for m in [a, mask_from([], (3, 3, 4))]))]))


class TestCohortSummary:
    def test_single_subject(self):
        data = np.zeros((10, 10, 10), dtype=bool)
        data.flat[:1000] = True
        summary = summarize_cohort([BinaryMask(data, (1, 1, 1))])
        assert summary.volume.mean == pytest.approx(1.0)
        assert summary.volume.sd == 0.0
        assert summary.volume.sd_degenerate
        assert summary.n == 1

    def test_two_subject_volume_stats(self):
        masks = []
        for n_vox in (2000, 4000):
            data = np.zeros((20, 20, 20), dtype=bool)
            data.flat[:n_vox] = True
            masks.append(BinaryMask(data, (1, 1, 1)))
        summary = summarize_cohort(masks)
        assert summary.volume.mean == pytest.approx(3.0)
        assert summary.volume.median == pytest.approx(3.0)
        assert summary.volume.sd == pytest.approx(statistics.stdev([2.0, 4.0]))

    def test_matches_plain_python_recomputation(self):
        rng = np.random.default_rng(104)
        masks = [random_mask(rng, (12, 12, 8), density=rng.uniform(0.02, 0.2),
                             spacing=(0.96, 0.95, 3.0)) for _ in range(9)]
        summary = summarize_cohort(masks)
        vols = [m.volume_ml() for m in masks]
        assert summary.volume.mean == pytest.approx(statistics.fmean(vols))
        assert summary.volume.sd == pytest.approx(statistics.stdev(vols))
        assert summary.volume.median == pytest.approx(
            quantile_linear(vols, 0.5))
        assert summary.volume.q1 == pytest.approx(quantile_linear(vols, 0.25))
        assert summary.volume.q3 == pytest.approx(quantile_linear(vols, 0.75))
        assert summary.volume.minimum == min(vols)
        assert summary.volume.maximum == max(vols)

    def test_lesion_counts_respect_connectivity(self):
        m = mask_from([(0, 0, 0), (1, 1, 1)], (4, 4, 4))
        c26 = summarize_cohort([m], connectivity=26)
        c6 = summarize_cohort([m], connectivity=6)
        assert c26.lesion_counts[0] == 1
        assert c6.lesion_counts[0] == 2

    def test_histograms_partition_the_cohort(self):
        rng = np.random.default_rng(105)
        masks = [random_mask(rng, (10, 10, 10), density=0.1)
                 for _ in range(7)]
        summary = summarize_cohort(masks, volume_bin_ml=0.1, count_bin=5.0)
        edges, counts = summary.volume_hist
        assert counts.sum() == 7
        assert np.allclose(np.diff(edges), 0.1)
        edges, counts = summary.count_hist
        assert counts.sum() == 7

    def test_volume_scales_with_voxel_volume(self):
        coords = [(1, 1, 1), (2, 2, 2), (3, 1, 2)]
        small = summarize_cohort([mask_from(coords, (5, 5, 5))])
        big = summarize_cohort(
            [mask_from(coords, (5, 5, 5), spacing=(2.0, 2.0, 2.0))])
        assert big.volume.mean == pytest.approx(8 * small.volume.mean)

    def test_validation(self):
        with pytest.raises(ArityError):
            summarize_cohort([])
        with pytest.raises(ValueError):
            summarize_cohort([mask_from([], (3, 3, 3))], volume_bin_ml=0)


class TestWelch:
    def test_identical_samples(self):
        res = welch_ttest([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert res.t == 0.0
        assert res.p_value == pytest.approx(1.0)

    def test_shuffled_equal_sets(self):
        res = welch_ttest([1, 2, 3, 4], [4, 2, 1, 3])
        assert res.t == 0.0
        assert res.p_value == pytest.approx(1.0)

    def test_published_style_case_vs_quadrature(self):
        a = [1.0, 2.0, 3.0, 4.0]
        b = [10.0, 20.0, 30.0, 40.0]
        res = welch_ttest(a, b)
        assert res.p_value == pytest.approx(welch_p_quadrature(a, b),
                                            abs=1e-6)

    def test_random_cases_vs_quadrature_and_scipy(self):
        rng = np.random.default_rng(106)
        for _ in range(20):
            a = rng.normal(0.0, 1.0, rng.integers(3, 30))
            b = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2.0),
                           rng.integers(3, 30))
            res = welch_ttest(a, b)
            assert res.p_value == pytest.approx(welch_p_quadrature(a, b),
                                                abs=1e-9)
            ref = scipy_stats.ttest_ind(a, b, equal_var=False)
            assert res.t == pytest.approx(ref.statistic, abs=1e-12)
            assert res.p_value == pytest.approx(ref.pvalue, abs=1e-12)

    def test_antisymmetry(self):
        a = [0.5, 0.7, 0.9]
        b = [0.4, 0.6, 0.65, 0.7]
        fwd = welch_ttest(a, b)
        rev = welch_ttest(b, a)
        assert fwd.t == pytest.approx(-rev.t)
        assert fwd.p_value == pytest.approx(rev.p_value)
        assert fwd.df == pytest.approx(rev.df)

    def test_zero_variance_branches(self):
        same = welch_ttest([2.0, 2.0], [2.0, 2.0])
        assert same.p_value == 1.0 and not same.infinite
        apart = welch_ttest([2.0, 2.0], [3.0, 3.0])
        assert apart.p_value == 0.0
        assert apart.infinite
        assert apart.t == -math.inf

    def test_one_constant_group_is_finite_and_silent(self):
        a, b = [2.0, 2.0, 2.0], [1.0, 2.0, 4.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = welch_ttest(a, b)
        assert math.isfinite(res.t) and not res.infinite
        assert res.p_value == pytest.approx(welch_p_quadrature(a, b),
                                            abs=1e-9)

    def test_arity(self):
        with pytest.raises(ArityError):
            welch_ttest([1.0], [1.0, 2.0])


class TestFisher:
    def test_symmetric_table(self):
        assert fisher_exact([[5, 5], [5, 5]]) == pytest.approx(1.0)

    def test_perfect_separation(self):
        want = 2.0 / math.comb(20, 10)
        assert fisher_exact([[10, 0], [0, 10]]) == pytest.approx(want,
                                                                 rel=1e-9)
        assert want == pytest.approx(1.0824e-5, rel=1e-3)

    def test_transpose_and_joint_swap_invariance(self):
        rng = np.random.default_rng(107)
        for _ in range(25):
            a, b, c, d = (int(v) for v in rng.integers(0, 12, 4))
            p = fisher_exact([[a, b], [c, d]])
            assert fisher_exact([[a, c], [b, d]]) == pytest.approx(p,
                                                                   rel=1e-9)
            assert fisher_exact([[d, c], [b, a]]) == pytest.approx(p,
                                                                   rel=1e-9)

    def test_matches_exact_enumeration(self):
        rng = np.random.default_rng(108)
        for _ in range(40):
            a, b, c, d = (int(v) for v in rng.integers(0, 15, 4))
            if (a + b == 0 or c + d == 0 or a + c == 0 or b + d == 0):
                continue
            got = fisher_exact([[a, b], [c, d]])
            want = fisher_exact_fraction([[a, b], [c, d]])
            assert got == pytest.approx(want, rel=1e-9)

    def test_matches_scipy(self):
        rng = np.random.default_rng(109)
        for _ in range(20):
            a, b, c, d = (int(v) for v in rng.integers(0, 10, 4))
            got = fisher_exact([[a, b], [c, d]])
            _, want = scipy_stats.fisher_exact([[a, b], [c, d]])
            assert got == pytest.approx(want, rel=1e-9)

    def test_zero_margin(self):
        assert fisher_exact([[0, 0], [3, 4]]) == 1.0
        assert fisher_exact([[0, 3], [0, 4]]) == 1.0

    def test_negative_cell_rejected(self):
        with pytest.raises(ValueError):
            fisher_exact([[1, -1], [2, 3]])


class TestTrainTestR2:
    def test_perfect_line(self):
        x = [1.0, 2.0, 3.0, 4.0]
        y = [10.0, 20.0, 30.0, 40.0]
        assert train_test_r2(x, y) == pytest.approx(1.0)
        assert train_test_r2(x, [-v for v in y]) == pytest.approx(1.0)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(110)
        for _ in range(20):
            x = rng.uniform(0, 1, 15)
            y = 0.8 * x + rng.normal(0, 0.1, 15)
            assert train_test_r2(x, y) == pytest.approx(r2_direct(x, y),
                                                        abs=1e-12)

    def test_constant_test_column_warns(self):
        with pytest.warns(EvaluationWarning):
            assert train_test_r2([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]) == 0.0

    def test_constant_train_column_rejected(self):
        with pytest.raises(UndefinedMetricError):
            train_test_r2([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])

    def test_validation(self):
        with pytest.raises(ShapeMismatchError):
            train_test_r2([1.0, 2.0, 3.0], [1.0, 2.0])
        with pytest.raises(ArityError):
            train_test_r2([1.0, 2.0], [1.0, 2.0])
