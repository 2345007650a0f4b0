import statistics

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from seg_eval import analysis
from seg_eval.analysis import fn_fp_maps, summarize_cohort
from seg_eval.errors import ArityError, SegEvalError, ShapeMismatchError
from seg_eval.volume import BinaryMask

from helpers import mask_from, random_mask
from oracles import maps_oracle, quantile_linear

class TestRateMaps:
    def test_total_miss(self):
        ref = mask_from([(1, 1, 1), (2, 1, 1)], (4, 4, 4))
        pred = mask_from([], (4, 4, 4))
        maps = fn_fp_maps([(ref, [pred])])
        assert maps.fn_rate[1, 1, 1] == 1.0
        assert maps.fn_rate[2, 1, 1] == 1.0
        assert maps.fn_rate.sum() == 2.0
        assert maps.fp_rate.sum() == 0.0

    def test_perfect_predictions(self):
        rng = np.random.default_rng(101)
        subjects = []
        for _ in range(3):
            m = random_mask(rng, (5, 5, 5), density=0.3)
            subjects.append((m, [m, m]))
        maps = fn_fp_maps(subjects)
        assert maps.fn_rate.sum() == 0.0
        assert maps.fp_rate.sum() == 0.0

    def test_half_missed_voxel(self):
        ref = mask_from([(2, 2, 2)], (5, 5, 5))
        hit = mask_from([(2, 2, 2)], (5, 5, 5))
        miss = mask_from([], (5, 5, 5))
        maps = fn_fp_maps([(ref, [hit, miss])])
        assert maps.fn_rate[2, 2, 2] == 0.5
        assert maps.fn_rate.sum() == 0.5
        assert maps.lesion_count[2, 2, 2] == 1

    def test_counts_additive_over_concatenation(self):
        rng = np.random.default_rng(102)
        mk = lambda k: (random_mask(rng, (6, 6, 6), density=0.25),
                        [random_mask(rng, (6, 6, 6), density=0.25)
                         for _ in range(k)])
        group1 = [mk(k) for k in (1, 3, 2)]
        group2 = [mk(k) for k in (2, 1, 1, 3)]

        def counts(group):
            # each rate times its denominator gives back its error count
            maps = fn_fp_maps(group)
            fn_den = sum(len(preds) * ref.data.astype(np.int64)
                         for ref, preds in group)
            n = sum(len(preds) for _, preds in group)
            return (np.rint(maps.fn_rate * fn_den),
                    np.rint(maps.fp_rate * (n - fn_den)), maps.lesion_count)

        for a, b, both in zip(counts(group1), counts(group2),
                              counts(group1 + group2)):
            assert np.array_equal(both, a + b)

    def test_empty_reference_pairs_leave_fn_rate_alone(self):
        ref = mask_from([(1, 1, 1)], (4, 4, 4))
        pred = mask_from([], (4, 4, 4))
        before = fn_fp_maps([(ref, [pred])])
        empty = mask_from([], (4, 4, 4))
        after = fn_fp_maps([(ref, [pred]), (empty, [empty])])
        assert np.array_equal(before.fn_rate, after.fn_rate)

    def test_subject_dedup_in_lesion_count(self):
        ref = mask_from([(0, 0, 0)], (3, 3, 3))
        pred = mask_from([], (3, 3, 3))
        shared = fn_fp_maps([(ref, [pred, pred])])
        distinct = fn_fp_maps([(ref, [pred]), (ref, [pred])])
        assert shared.lesion_count[0, 0, 0] == 1
        assert distinct.lesion_count[0, 0, 0] == 2
        assert np.array_equal(shared.fn_rate, distinct.fn_rate)
        assert np.array_equal(shared.fp_rate, distinct.fp_rate)

    def test_rates_bounded(self):
        rng = np.random.default_rng(103)
        subjects = [(random_mask(rng, (6, 6, 6), density=0.3),
                     [random_mask(rng, (6, 6, 6), density=0.3)
                      for _ in range(k)])
                    for k in (1, 2, 2)]
        maps = fn_fp_maps(subjects)
        for rate in (maps.fn_rate, maps.fp_rate):
            assert rate.min() >= 0.0 and rate.max() <= 1.0
        assert maps.fn_rate.max() > 0 and maps.fp_rate.max() > 0

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

    def test_any_iterable_of_pairs(self):
        rng = np.random.default_rng(108)
        subjects = [(random_mask(rng, (5, 4, 3), 0.3),
                     [random_mask(rng, (5, 4, 3), 0.3) for _ in range(k)])
                    for k in (3, 2, 1)]
        want = fn_fp_maps(subjects)
        assert np.array_equal(want.lesion_count,
                              sum(ref.data for ref, _ in subjects))
        got = fn_fp_maps(((ref, (p for p in preds))
                          for ref, preds in subjects))
        for field in ("fn_rate", "fp_rate", "lesion_count"):
            assert np.array_equal(getattr(want, field),
                                  getattr(got, field)), field

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
    """Every ErrorMaps array equals the per-pair whole-grid loop exactly,
    in value and dtype, and is stored x-fastest, for lists and for
    generators."""
    feed = subjects
    if as_generator:
        feed = ((ref, (p for p in preds)) for ref, preds in subjects)
    want = maps_oracle([(ref.data, [p.data for p in preds])
                        for ref, preds in subjects])
    if want is None:
        event("no pairs")
        with pytest.raises(ArityError):
            fn_fp_maps(feed)
        return
    assert_matches_oracle(fn_fp_maps(feed), want, subjects[0][0].spacing)


def assert_matches_oracle(got, want, spacing):
    """Every ErrorMaps array equals the oracle's exactly and is stored
    x-fastest; the rates are float64 with +0.0 where undefined, and the
    lesion count is int32 holding the oracle's int64 counts."""
    for field, value in want.items():
        array = getattr(got, field)
        dtype = np.int32 if field == "lesion_count" else value.dtype
        assert array.dtype == dtype, field
        assert array.flags.f_contiguous, field
        assert np.array_equal(array, value), field
    for rate in (got.fn_rate, got.fp_rate):
        assert not np.signbit(rate).any()
    assert got.spacing == spacing


class TestFrame:
    """The counts live in a frame, the union of the lesion boxes seen so
    far, that grows as later subjects reach outside it."""

    DIMS = (9, 8, 7)

    def cohort(self):
        def at(*coords):
            return mask_from(coords, self.DIMS)

        empty = at()
        return [
            # the first frame: a box in the middle of the grid
            (at((4, 4, 3), (5, 4, 3)), [at((4, 4, 3)), at((5, 5, 3))]),
            # an empty reference, its votes outside the frame on the low
            # side of every axis
            (empty, [at((0, 0, 0)), at((1, 0, 0))]),
            # a subject with no predictions
            (at((2, 6, 5)), []),
            # a reference outside the frame on the high side of every
            # axis, and an all-empty prediction beside a hit
            (at((8, 7, 6), (7, 7, 6)), [empty, at((8, 7, 6))]),
        ]

    @pytest.mark.parametrize("as_generator", [False, True])
    def test_growing_frame_matches_the_oracle(self, as_generator):
        subjects = self.cohort()
        want = maps_oracle([(ref.data, [p.data for p in preds])
                            for ref, preds in subjects])
        feed = subjects
        if as_generator:
            feed = ((ref, (p for p in preds)) for ref, preds in subjects)
        maps = fn_fp_maps(feed)
        assert_matches_oracle(maps, want, subjects[0][0].spacing)
        # each corner the later subjects reached is counted
        assert maps.fp_rate[0, 0, 0] > 0 and maps.fn_rate[8, 7, 6] == 0.5
        assert maps.lesion_count[2, 6, 5] == 1

    def test_count_limit_raises_instead_of_wrapping(self, monkeypatch):
        subjects = self.cohort()   # 6 pairs over 4 subjects
        monkeypatch.setattr(analysis, "_COUNT_MAX", 6)
        fn_fp_maps(subjects)
        monkeypatch.setattr(analysis, "_COUNT_MAX", 5)
        with pytest.raises(SegEvalError, match="pairs.*more than 5"):
            fn_fp_maps(subjects)
        monkeypatch.setattr(analysis, "_COUNT_MAX", 3)
        empty = mask_from([], self.DIMS)
        with pytest.raises(SegEvalError, match="subjects"):
            fn_fp_maps([(empty, [empty])] + [(empty, [])] * 3)


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

    def test_a_histogram_has_at_most_a_million_bins(self):
        one = [mask_from([(1, 1, 1)], (3, 3, 3))]   # one lesion
        edges, counts = summarize_cohort(one, count_bin=2.0**-19).count_hist
        assert len(counts) == 2**19 and counts.sum() == 1
        for kw in ({"count_bin": 2.0**-20}, {"count_bin": 1e-12},
                   {"volume_bin_ml": 1e-300}, {"volume_bin_ml": 1e-320}):
            with pytest.raises(SegEvalError, match=(
                    r"bin width \S+ would need \S+ bins to reach \S+; at "
                    r"most 1000000 are allowed")):
                summarize_cohort(one, **kw)

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

