import statistics

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from seg_eval.analysis import fn_fp_maps, summarize_cohort
from seg_eval.errors import ArityError, ShapeMismatchError
from seg_eval.volume import BinaryMask

from helpers import mask_from, random_mask
from oracles import maps_oracle, quantile_linear

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


@st.composite
def map_cohorts(draw):
    """A cohort of 0-3 subjects with 0-3 predictions each on one grid of
    up to 7**3. Each mask is empty, filled inside a drawn region whose
    corners are set (its tight box), or filled inside the whole grid
    with two opposite grid corners set, so it has voxels on the grid
    faces."""
    dims = tuple(draw(st.integers(1, 7)) for _ in range(3))

    def mask():
        data = np.zeros(dims, dtype=bool)
        kind = draw(st.sampled_from(("empty", "region", "region", "faces")))
        if kind != "empty":
            region = [slice(0, n) for n in dims]
            if kind == "region":
                region = []
                for n in dims:
                    lo = draw(st.integers(0, n - 1))
                    region.append(slice(lo, draw(st.integers(lo + 1, n))))
            data[tuple(region)] = draw(hnp.arrays(
                np.bool_, tuple(sl.stop - sl.start for sl in region)))
            data[tuple(sl.start for sl in region)] = True
            data[tuple(sl.stop - 1 for sl in region)] = True
        event(f"{kind} mask")
        return BinaryMask(data, (0.96, 0.95, 3.0))

    counts = st.sampled_from((0, 1, 2, 3, 3))
    return [(mask(), [mask() for _ in range(draw(counts))])
            for _ in range(draw(counts))]


MAP_DRAWS = settings(max_examples=200, derandomize=True, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow,
                                            HealthCheck.data_too_large])


@MAP_DRAWS
@given(map_cohorts(), st.booleans())
def test_maps_match_the_whole_grid_oracle(subjects, as_generator):
    """Every RateMap field equals the per-pair whole-grid loop exactly,
    under both denominators, for lists and for generators."""
    oracle_input = [(ref.data, [p.data for p in preds])
                    for ref, preds in subjects]
    for mode in ("ref_negative", "pairs"):
        feed = subjects
        if as_generator:
            feed = ((ref, (p for p in preds)) for ref, preds in subjects)
        want = maps_oracle(oracle_input, mode)
        if want is None:
            event("no pairs")
            with pytest.raises(ArityError):
                fn_fp_maps(feed, mode)
            continue
        for got, expected in zip(fn_fp_maps(feed, mode), want):
            for field, value in expected.items():
                array = getattr(got, field)
                assert array.dtype == value.dtype, field
                assert array.flags.f_contiguous, field
                assert np.array_equal(array, value), field
            assert not np.signbit(got.rate).any()   # +0.0 where undefined


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

