import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import seg_eval.metrics
from seg_eval.errors import InvalidLabelError, ShapeMismatchError
from seg_eval.metrics import (_percentile95, avd_percent, evaluate_pair,
                              log_avd, prepare_reference, relative_difference)
from seg_eval.synth import PerturbOps, perturb_mask
from seg_eval.volume import (BinaryMask, LabelVolume, binarize_challenge,
                             directed_surface_distances, surface_voxels)

from helpers import (labels_from, mask_from, phantom_pair, random_mask,
                     score_masks as score)
from oracles import (cc_oracle, dice_oracle, evaluate_pair_oracle, h95_oracle,
                     recall_f1_oracle, size_split_oracle, surface_oracle)


def blob(coords, dims=(8, 8, 8), spacing=(1.0, 1.0, 1.0)):
    return mask_from(coords, dims, spacing)


class TestDice:
    def test_identical(self):
        m = blob([(1, 1, 1), (2, 1, 1)])
        assert score(m, m).dsc == 1.0

    def test_disjoint(self):
        assert score(blob([(0, 0, 0)]), blob([(5, 5, 5)])).dsc == 0.0

    def test_half_overlap(self):
        a = blob([(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 0, 0)])
        b = blob([(2, 0, 0), (3, 0, 0), (4, 0, 0), (5, 0, 0)])
        assert score(a, b).dsc == 0.5

    def test_both_empty(self):
        assert score(blob([]), blob([])).dsc == 1.0

    def test_one_empty(self):
        assert score(blob([]), blob([(0, 0, 0)])).dsc == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            score(blob([], dims=(4, 4, 4)), blob([], dims=(5, 4, 4)))

    def test_symmetry_range_and_equality_cases(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            a = random_mask(rng, (7, 7, 7), density=0.3)
            b = random_mask(rng, (7, 7, 7), density=0.3)
            d = score(a, b).dsc
            assert score(b, a).dsc == d
            assert 0.0 <= d <= 1.0
            assert (d == 1.0) == bool(np.array_equal(a.data, b.data))
            assert d == pytest.approx(dice_oracle(a.data, b.data), abs=0)


def h95(ref, pred):
    return score(ref, pred).h95_mm


class TestHausdorff95:
    def test_identical_is_zero(self):
        m = blob([(1, 2, 3), (2, 2, 3)])
        assert h95(m, m) == 0.0

    def test_single_voxel_offset_in_plane(self):
        a = blob([(2, 2, 1)], spacing=(1, 1, 3))
        b = blob([(3, 2, 1)], spacing=(1, 1, 3))
        assert h95(a, b) == pytest.approx(1.0)

    def test_single_voxel_offset_through_plane(self):
        a = blob([(2, 2, 1)], spacing=(1, 1, 3))
        b = blob([(2, 2, 2)], spacing=(1, 1, 3))
        assert h95(a, b) == pytest.approx(3.0)

    def test_empty_gives_missing(self):
        assert h95(blob([]), blob([(1, 1, 1)])) is None
        assert h95(blob([(1, 1, 1)]), blob([])) is None
        assert h95(blob([]), blob([])) is None

    def test_symmetry(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            a = random_mask(rng, (9, 9, 9), density=0.15)
            b = random_mask(rng, (9, 9, 9), density=0.15)
            if a.count() == 0 or b.count() == 0:
                continue
            assert h95(a, b) == h95(b, a)

    def test_translation_invariance(self):
        base = [(2, 3, 2), (3, 3, 2), (3, 4, 2)]
        pred = [(4, 3, 2), (4, 4, 3)]
        shift = (3, 2, 4)
        a0, b0 = blob(base, dims=(12, 12, 12)), blob(pred, dims=(12, 12, 12))
        a1 = blob([tuple(c + s for c, s in zip(v, shift)) for v in base],
                  dims=(12, 12, 12))
        b1 = blob([tuple(c + s for c, s in zip(v, shift)) for v in pred],
                  dims=(12, 12, 12))
        assert h95(a0, b0) == pytest.approx(h95(a1, b1))

    def test_spacing_scales_linearly(self):
        coords_a = [(1, 1, 1), (2, 1, 1)]
        coords_b = [(5, 4, 3)]
        a1 = blob(coords_a, spacing=(1, 1, 1))
        b1 = blob(coords_b, spacing=(1, 1, 1))
        a2 = blob(coords_a, spacing=(2.5, 2.5, 2.5))
        b2 = blob(coords_b, spacing=(2.5, 2.5, 2.5))
        assert h95(a2, b2) == pytest.approx(2.5 * h95(a1, b1))

    def test_matches_all_pairs_oracle(self):
        rng = np.random.default_rng(33)
        for _ in range(15):
            a = random_mask(rng, (14, 12, 10), density=0.12,
                            spacing=(0.97, 1.2, 3.0))
            b = random_mask(rng, (14, 12, 10), density=0.12,
                            spacing=(0.97, 1.2, 3.0))
            if a.count() == 0 or b.count() == 0:
                continue
            got = h95(a, b)
            want = h95_oracle(a.data, b.data, a.spacing)
            assert got == pytest.approx(want, abs=1e-9)


# surface distances: sqrt of a sum of squared whole-voxel steps on a
# 0.96 x 0.95 x 3 mm grid, as the KD-tree returns them, with many ties
VOXEL_DISTANCES = st.builds(
    lambda x, y, z: math.sqrt((0.96 * x) ** 2 + (0.95 * y) ** 2
                              + (3.0 * z) ** 2),
    st.integers(0, 40), st.integers(0, 40), st.integers(0, 8))


class TestPercentile95:
    """The H95 percentile is numpy's, bit for bit: equal with ==."""

    @settings(max_examples=300, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(1, 500), elements=st.one_of(
        VOXEL_DISTANCES, st.floats(0, 1e6), st.sampled_from((0.0, 1.0)))))
    def test_matches_numpy(self, d):
        event(f"n {'<= 21' if d.size <= 21 else '> 21'}")
        assert _percentile95(d) == np.percentile(d, 95.0)

    @pytest.mark.parametrize("d", [
        [2.5], [0.0], [1.0, 3.0], [3.0, 1.0], [7.0, 7.0],
        np.arange(21.0)[::-1], np.sqrt(np.arange(21.0)),   # whole index 19
        [4.2] * 21, [1.5] * 500, [0.0] * 9 + [1.0] * 3])
    def test_small_sizes_whole_indices_and_ties(self, d):
        d = np.asarray(d, dtype=np.float64)
        before = d.copy()
        assert _percentile95(d) == np.percentile(d, 95.0)
        assert np.array_equal(d, before)   # the input is not reordered


class TestVolumeDifferences:
    def test_avd_values(self):
        assert avd_percent(10.0, 10.0) == 0.0
        assert avd_percent(10.0, 0.0) == 100.0
        assert avd_percent(10.0, 100.0) == 900.0
        assert avd_percent(10.0, 7.0) == pytest.approx(30.0)

    def test_avd_oversegmentation_unbounded_undersegmentation_capped(self):
        rng = np.random.default_rng(34)
        for _ in range(50):
            ref = rng.uniform(0.1, 50)
            pred = rng.uniform(0, ref)      # undersegmentation
            assert avd_percent(ref, pred) <= 100.0

    def test_avd_empty_reference_is_missing(self):
        assert avd_percent(0.0, 5.0) is None
        assert avd_percent(0.0, 0.0) is None

    def test_lavd_values(self):
        assert log_avd(10.0, 10.0) == 0.0
        assert log_avd(10.0, 20.0) == pytest.approx(math.log(2), abs=1e-12)
        assert log_avd(10.0, 5.0) == pytest.approx(math.log(2), abs=1e-12)

    def test_lavd_empty_prediction_is_missing(self):
        assert log_avd(10.0, 0.0) is None

    def test_lavd_empty_reference_is_missing(self):
        assert log_avd(0.0, 5.0) is None
        assert log_avd(0.0, 0.0) is None

    def test_lavd_depends_only_on_the_ratio(self):
        rng = np.random.default_rng(35)
        for _ in range(50):
            v = rng.uniform(0.1, 100)
            k = rng.uniform(0.1, 10)
            assert log_avd(v, k * v) == pytest.approx(
                log_avd(k * v, k * k * v), rel=1e-12)
            assert log_avd(v, k * v) == pytest.approx(
                log_avd(k * v, v), rel=1e-12)


def recall_f1(ref, pred, connectivity=26):
    m = score(ref, pred, connectivity)
    return m.recall, m.f1


class TestLesionRecallF1:
    def test_perfect_match(self):
        m = blob([(0, 0, 0), (5, 5, 5), (2, 7, 3)])
        got = score(m, m)
        assert got.recall == 1.0 and got.f1 == 1.0
        assert got.n_ref_lesions == got.n_pred_lesions == 3

    def test_one_hit_one_fp(self):
        ref = blob([(0, 0, 0), (6, 6, 6)])
        pred = blob([(0, 0, 0), (3, 3, 3)])
        assert recall_f1(ref, pred) == (0.5, 0.5)

    def test_two_thirds_recall_four_sevenths_f1(self):
        # 3 reference lesions, 2 detected; 4 predicted components, 2
        # matched: recall 2/3, precision 1/2, f1 = 4/7
        ref = blob([(0, 0, 0), (4, 0, 0), (0, 4, 0)], dims=(10, 10, 4))
        pred = blob([(0, 0, 0), (4, 0, 0), (8, 8, 2), (0, 8, 2)],
                    dims=(10, 10, 4))
        recall, f1 = recall_f1(ref, pred)
        assert recall == pytest.approx(2 / 3)
        assert f1 == pytest.approx(4 / 7)

    def test_one_pred_blob_covering_two_ref_lesions(self):
        ref = blob([(2, 2, 2), (4, 2, 2)], dims=(8, 8, 8))
        data = np.zeros((8, 8, 8), dtype=bool)
        data[2:5, 2, 2] = True      # one component touching both
        assert recall_f1(ref, BinaryMask(data, (1, 1, 1))) == (1.0, 1.0)

    def test_empty_conventions(self):
        empty = blob([])
        full = blob([(1, 1, 1)])
        assert recall_f1(empty, empty) == (1.0, 1.0)
        assert recall_f1(full, empty) == (0.0, 0.0)
        assert recall_f1(empty, full) == (0.0, 0.0)

    def test_connectivity_changes_the_count(self):
        # diagonal pair: one lesion at 26, two at 6
        ref = blob([(0, 0, 0), (1, 1, 1)])
        pred = blob([(0, 0, 0)])
        assert recall_f1(ref, pred, 26)[0] == 1.0
        assert recall_f1(ref, pred, 6)[0] == 0.5

    def test_removing_a_false_positive_never_hurts(self):
        rng = np.random.default_rng(36)
        trials = 0
        while trials < 20:
            ref = random_mask(rng, (10, 10, 6), density=0.08)
            pred = random_mask(rng, (10, 10, 6), density=0.08)
            if ref.count() == 0 or pred.count() == 0:
                continue
            recall, f1 = recall_f1(ref, pred)
            *_, matched, _ = recall_f1_oracle(ref.data, pred.data)
            fps = np.flatnonzero(~np.asarray(matched))
            if fps.size == 0:
                continue
            trials += 1
            pred_labels = cc_oracle(pred.data)[0]
            pruned = BinaryMask(pred.data & (pred_labels != fps[0] + 1),
                                pred.spacing)
            recall2, f12 = recall_f1(ref, pruned)
            assert recall2 == recall
            assert f12 >= f1


class TestSizeSplit:
    def test_all_detected(self):
        ref = blob([(0, 0, 0), (4, 4, 4), (5, 4, 4)])   # sizes 1 and 2
        m = score(ref, ref)
        assert (m.recall_small, m.recall_large) == (1.0, 1.0)

    def test_median_split_counting(self):
        # sizes 1, 2 and 9; median 2; only the size-9 lesion detected
        data = np.zeros((20, 8, 4), dtype=bool)
        data[0, 0, 0] = True                 # size 1
        data[4:6, 0, 0] = True               # size 2
        data[10:19, 0, 0] = True             # size 9
        ref = BinaryMask(data, (1, 1, 1))
        m = score(ref, blob([(12, 0, 0)], dims=(20, 8, 4)))
        assert m.recall_small == 0.0
        assert m.recall_large == 1.0
        prepared = prepare_reference(LabelVolume(data.astype(np.uint8),
                                                 (1, 1, 1)))
        assert prepared.sizes.tolist() == [1, 2, 9]
        assert prepared.small.tolist() == [True, True, False]
        assert size_split_oracle([1, 2, 9], [False, False, True]) == (0.0,
                                                                      1.0)

    def test_equal_sizes_leave_large_stratum_empty(self):
        ref = blob([(0, 0, 0), (4, 4, 0)], dims=(8, 8, 2))
        m = score(ref, ref)
        assert m.recall_small == 1.0
        assert m.recall_large is None

    def test_empty_reference_has_no_split(self):
        empty = LabelVolume(np.zeros((8, 8, 8), dtype=np.uint8), (1, 1, 1))
        assert prepare_reference(empty).small.shape == (0,)
        for pred in (blob([]), blob([(1, 1, 1)])):
            m = score(blob([]), pred)
            assert m.recall_small is None and m.recall_large is None

    def test_winner_relative_difference(self):
        assert relative_difference(0.76, 0.94) == pytest.approx(-0.1914894,
                                                                abs=1e-6)

    def test_relative_difference_zero_baseline(self):
        assert relative_difference(0.5, 0.0) is None
        assert relative_difference(0.0, 0.0) is None


class TestEvaluatePair:
    def test_perfect_prediction(self):
        ref, _ = phantom_pair(seed=41)
        m = evaluate_pair(ref, ref)
        assert m.dsc == 1.0
        assert m.h95_mm == 0.0
        assert m.avd_pct == 0.0
        assert m.lavd == 0.0
        assert m.recall == 1.0 and m.f1 == 1.0
        assert not m.has_missing or m.recall_large is None

    def test_empty_prediction_conventions(self):
        ref = labels_from([(1, 1, 1), (3, 3, 3)], (6, 6, 6))
        pred = labels_from([], (6, 6, 6))
        m = evaluate_pair(ref, pred)
        assert m.dsc == 0.0
        assert m.recall == 0.0 and m.f1 == 0.0
        assert m.avd_pct == 100.0
        assert m.h95_mm is None
        assert m.lavd is None
        assert m.has_missing

    def test_volumes_in_ml(self):
        ref = labels_from([(0, 0, 0), (1, 0, 0)], (4, 4, 4),
                          spacing=(2.0, 2.0, 2.0))
        pred = labels_from([(0, 0, 0)], (4, 4, 4), spacing=(2.0, 2.0, 2.0))
        m = evaluate_pair(ref, pred)
        assert m.ref_volume_ml == pytest.approx(2 * 8 / 1000.0)
        assert m.pred_volume_ml == pytest.approx(8 / 1000.0)
        assert m.avd_pct == pytest.approx(50.0)

    def test_ignore_voxels_excised_from_both(self):
        # prediction marks the ignore voxel; with excision that cannot
        # count for or against it
        ref = labels_from([(1, 1, 1)], (6, 6, 6),
                          ignore_coords=[(3, 3, 3)])
        pred = labels_from([(1, 1, 1), (3, 3, 3)], (6, 6, 6))
        m = evaluate_pair(ref, pred)
        assert m.dsc == 1.0
        assert m.f1 == 1.0
        assert m.pred_volume_ml == pytest.approx(1 / 1000.0)

    def test_ignore_on_agreed_background_changes_nothing(self):
        rng = np.random.default_rng(42)
        for seed in range(5):
            ref, pred = phantom_pair(seed=50 + seed)
            base = evaluate_pair(ref, pred)
            agreed_bg = (ref.data == 0) & (pred.data == 0)
            spots = np.argwhere(agreed_bg)
            pick = spots[rng.choice(len(spots), size=8, replace=False)]
            data = ref.data.copy()
            for v in pick:
                data[tuple(v)] = 2
            ref2 = LabelVolume(data, ref.spacing)
            again = evaluate_pair(ref2, pred)
            assert again == type(again)(**base.as_dict())

    def test_pred_label_2_treated_as_background(self):
        ref = labels_from([(1, 1, 1)], (6, 6, 6))
        pred = labels_from([(1, 1, 1)], (6, 6, 6),
                           ignore_coords=[(4, 4, 4)])
        m = evaluate_pair(ref, pred)
        assert m.dsc == 1.0
        assert m.n_pred_lesions == 1

    def test_matches_oracle_on_phantoms(self):
        for seed in range(8):
            ref, pred = phantom_pair(seed=60 + seed, ignore_fraction=0.1)
            got = evaluate_pair(ref, pred).as_dict()
            want = evaluate_pair_oracle(ref.data, pred.data, ref.spacing)
            for key, expected in want.items():
                if expected is None:
                    assert got[key] is None, key
                elif isinstance(expected, int):
                    assert got[key] == expected, key
                else:
                    assert got[key] == pytest.approx(expected, abs=1e-9), key

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            evaluate_pair(labels_from([], (4, 4, 4)),
                          labels_from([], (4, 4, 5)))

    def test_spacing_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            evaluate_pair(labels_from([], (4, 4, 4)),
                          labels_from([], (4, 4, 4), spacing=(1, 1, 2)))


def whole_grid_h95(ref_mask, pred_mask, spacing):
    """H95 from the uncropped masks' surfaces, one KD-tree each way."""
    if not ref_mask.any() or not pred_mask.any():
        return None
    surf_ref = surface_voxels(BinaryMask(ref_mask, spacing))
    surf_pred = surface_voxels(BinaryMask(pred_mask, spacing))
    d_rp = directed_surface_distances(surf_ref, surf_pred, spacing)
    d_pr = directed_surface_distances(surf_pred, surf_ref, spacing)
    return float(max(np.percentile(d_rp, 95.0), np.percentile(d_pr, 95.0)))


def assert_same_as_uncropped(ref, pred, connectivity=26):
    """evaluate_pair, which crops each volume to its lesion box, against
    the whole-grid oracle, with H95 bit-identical to the same surface
    distances taken on the uncropped masks."""
    got = evaluate_pair(prepare_reference(ref, connectivity), pred).as_dict()
    want = evaluate_pair_oracle(ref.data, pred.data, ref.spacing,
                                connectivity)
    for key, expected in want.items():
        if expected is None:
            assert got[key] is None, key
        elif isinstance(expected, int):
            assert got[key] == expected, key
        else:
            assert got[key] == pytest.approx(expected, abs=1e-9), key
    ref_wmh = binarize_challenge(ref)
    pred_wmh = binarize_challenge(pred)
    keep = ref.data != 2
    assert got["h95_mm"] == whole_grid_h95(ref_wmh.data & keep,
                                           pred_wmh.data & keep, ref.spacing)


FACE_DIMS = (9, 8, 7)


def face_blob(axis, side, shift=0):
    """A 2x2x2 block touching one grid face, shifted along the next axis."""
    lo = [3, 3, 2]
    lo[axis] = 0 if side == 0 else FACE_DIMS[axis] - 2
    lo[(axis + 1) % 3] += shift
    return [(lo[0] + i, lo[1] + j, lo[2] + k)
            for i in range(2) for j in range(2) for k in range(2)]


class TestEvaluatePairCrop:
    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("side", [0, 1])
    def test_lesion_touching_a_grid_face(self, axis, side):
        ref = labels_from(face_blob(axis, side) + [(4, 4, 3)], FACE_DIMS)
        pred = labels_from(face_blob(axis, side, shift=1), FACE_DIMS)
        assert_same_as_uncropped(ref, pred)

    def test_single_voxels_at_opposite_corners(self):
        dims = (7, 6, 5)
        first = labels_from([(0, 0, 0)], dims)
        last = labels_from([(6, 5, 4)], dims)
        both = labels_from([(0, 0, 0), (6, 5, 4)], dims)
        for ref, pred in ((first, last), (last, first), (first, first),
                          (last, last), (both, first), (last, both)):
            assert_same_as_uncropped(ref, pred)

    def test_empty_prediction(self):
        ref = labels_from([(5, 5, 5), (5, 6, 5), (2, 7, 1)], (9, 9, 9))
        assert_same_as_uncropped(ref, labels_from([], (9, 9, 9)))

    def test_empty_reference(self):
        pred = labels_from([(5, 5, 5), (5, 6, 5), (2, 7, 1)], (9, 9, 9))
        assert_same_as_uncropped(labels_from([], (9, 9, 9)), pred)

    def test_both_empty(self):
        empty = labels_from([], (9, 9, 9))
        assert_same_as_uncropped(empty, empty)
        m = evaluate_pair(empty, empty)
        assert (m.dsc, m.recall, m.f1) == (1.0, 1.0, 1.0)
        assert m.n_ref_lesions == m.n_pred_lesions == 0

    def test_label_2_covering_all_reference_wmh(self):
        blob = [(3, 3, 3), (4, 3, 3), (4, 4, 3)]
        ref = labels_from([], (8, 8, 6), ignore_coords=blob)
        pred = labels_from(blob + [(6, 1, 5)], (8, 8, 6))
        assert_same_as_uncropped(ref, pred)

    def test_label_2_far_from_the_lesions_widens_the_box_only(self):
        dims = (12, 11, 9)
        ref_wmh, pred_wmh = [(4, 4, 3), (5, 4, 3)], [(5, 4, 3), (5, 5, 3)]
        plain = evaluate_pair(labels_from(ref_wmh, dims),
                              labels_from(pred_wmh, dims))
        far = [(0, 0, 0), (11, 10, 8)]
        for ref_far, pred_far in ((far, []), ([], far), (far, far)):
            ref = labels_from(ref_wmh, dims, ignore_coords=ref_far)
            pred = labels_from(pred_wmh, dims, ignore_coords=pred_far)
            assert evaluate_pair(ref, pred) == plain
            assert_same_as_uncropped(ref, pred)

    @pytest.mark.parametrize("which", ["reference", "prediction"])
    def test_a_label_above_2_names_its_first_voxel(self, which):
        # neither volume of a pair can be built holding label 7
        data = np.zeros((5, 4, 3), dtype=np.int32)
        data[3, 2, 1] = data[1, 3, 2] = 7   # x-fastest: (3, 2, 1) first
        good = labels_from([(1, 1, 1)], (5, 4, 3))
        with pytest.raises(InvalidLabelError,
                           match=r"label 7 at voxel \(3, 2, 1\)") as err:
            bad = LabelVolume(np.asfortranarray(data), (1, 1, 1))
            evaluate_pair(*((bad, good) if which == "reference"
                            else (good, bad)))
        assert err.value.coordinate == (3, 2, 1)

    def test_lesions_far_from_the_origin_on_anisotropic_spacing(self):
        # the C9 spacing makes scaled coordinates inexact in binary, so
        # any shift of the surface coordinates would show in the last bit
        rng = np.random.default_rng(77)
        dims, spacing = (64, 60, 20), (0.96, 0.95, 3.0)
        for _ in range(6):
            ref = np.zeros(dims, dtype=np.int32)
            pred = np.zeros(dims, dtype=np.int32)
            ref[40:52, 38:50, 11:18] = rng.random((12, 12, 7)) < 0.3
            pred[43:57, 35:47, 12:19] = rng.random((14, 12, 7)) < 0.3
            ref[44:47, 40:43, 13] = 2
            assert_same_as_uncropped(LabelVolume(ref, spacing),
                                     LabelVolume(pred, spacing))


def prepared_arrays(prepared):
    return [prepared.labels, prepared.sizes, prepared.small,
            prepared.surface]


def assert_prepared_matches(ref, preds, connectivity=26):
    """One prepared reference scores every prediction exactly as a
    freshly prepared one does, and as evaluate_pair on the raw volumes
    does at the default connectivity; scoring leaves it as it was."""
    prepared = prepare_reference(ref, connectivity)
    before = [a.copy() for a in prepared_arrays(prepared)]
    for pred in preds:
        want = evaluate_pair(prepare_reference(ref, connectivity), pred)
        assert evaluate_pair(prepared, pred) == want
        if connectivity == 26:
            assert evaluate_pair(ref, pred) == want
    for array, copy in zip(prepared_arrays(prepared), before):
        assert not array.flags.writeable
        assert np.array_equal(array, copy)


class TestPreparedReference:
    def test_one_reference_over_twenty_predictions(self):
        def pair(ops=None):
            return phantom_pair(5, dims=(28, 26, 14), n_lesions=6,
                                ignore_fraction=0.3, ops=ops)
        ref, _ = pair()
        preds = [pair(PerturbOps(dilate=int(i % 3 == 1),
                                 erode=int(i % 3 == 2), add_blobs=i % 4,
                                 blob_size=5,
                                 translate=(i % 2, -int(i % 3 == 0), 0),
                                 seed=i))[1]
                 for i in range(20)]
        assert_prepared_matches(ref, preds)

    def test_empty_reference_against_a_far_prediction(self):
        # the reference's box is empty, so it meets no prediction box
        dims = (30, 28, 12)
        empty = labels_from([], dims)
        far = labels_from([(25, 24, 9), (26, 24, 9), (20, 3, 10)], dims,
                          ignore_coords=[(28, 26, 11)])
        assert_prepared_matches(empty, [far, empty])
        assert_same_as_uncropped(empty, far)

    def test_reference_with_only_label_2(self):
        dims = (16, 14, 8)
        blob_ = [(6, 6, 3), (7, 6, 3), (7, 7, 4)]
        ref = labels_from([], dims, ignore_coords=blob_)
        preds = [labels_from(blob_, dims), labels_from([], dims),
                 labels_from(blob_[:1] + [(14, 12, 7)], dims),
                 labels_from([(0, 0, 0)], dims)]
        assert_prepared_matches(ref, preds)
        for pred in preds:
            assert_same_as_uncropped(ref, pred)

    def test_prediction_wholly_outside_the_reference_box(self):
        dims = (20, 18, 10)
        ref = labels_from([(2, 2, 1), (3, 2, 1), (4, 5, 2)], dims,
                          ignore_coords=[(3, 3, 1)])
        preds = [labels_from([(15, 14, 8), (16, 14, 8)], dims),
                 labels_from([(19, 0, 9)], dims, ignore_coords=[(3, 3, 1)])]
        assert_prepared_matches(ref, preds)
        for pred in preds:
            assert_same_as_uncropped(ref, pred)

    @pytest.mark.parametrize("connectivity", [6, 18, 26])
    def test_connectivities(self, connectivity):
        dims = (12, 12, 6)
        # touching by a face, an edge and a corner
        ref = labels_from([(2, 2, 2), (3, 2, 2), (4, 3, 2), (5, 4, 3),
                           (8, 8, 1)], dims)
        preds = [ref, labels_from([(3, 2, 2), (4, 3, 2), (9, 9, 1)], dims),
                 labels_from([(5, 4, 3), (6, 5, 4), (7, 5, 4)], dims)]
        assert_prepared_matches(ref, preds, connectivity)
        assert prepare_reference(ref, connectivity).sizes.size == {
            6: 4, 18: 3, 26: 2}[connectivity]

    def test_a_reference_prepared_at_6_labels_the_prediction_at_6(self):
        # the prediction's two corner-touching voxels are one lesion at
        # 26 and two at 6, one of them a false positive
        ref = labels_from([(1, 1, 1)], (4, 4, 4))
        pred = labels_from([(1, 1, 1), (2, 2, 2)], (4, 4, 4))
        narrow = evaluate_pair(prepare_reference(ref, 6), pred)
        assert (narrow.n_pred_lesions, narrow.f1) == (2, pytest.approx(2 / 3))
        wide = evaluate_pair(ref, pred)
        assert (wide.n_pred_lesions, wide.f1) == (1, 1.0)


# label payloads as read from uint8, int16 and int32 files
LABEL_DTYPES = (np.uint8, np.int16, np.int32)


@st.composite
def boxed_volumes(draw):
    """Two sparse 0/1/2 volumes on one anisotropic grid of up to 12**3,
    each filled inside a drawn region whose corners are set, so the
    region is the volume's tight box. The second region is drawn inside
    the first (nested) or anywhere (disjoint or partly overlapping);
    either volume may be empty, and either may be the reference."""
    dims = tuple(draw(st.integers(1, 12)) for _ in range(3))
    spacing = tuple(draw(st.sampled_from((0.5, 0.96, 1.0, 1.3, 3.0)))
                    for _ in range(3))
    nested = draw(st.integers(0, 2)) == 0
    regions, vols = [], []
    for _ in range(2):
        bounds = (regions[0] if nested and regions
                  else [slice(0, n) for n in dims])
        region = []
        for sl in bounds:
            lo = draw(st.integers(sl.start, sl.stop - 1))
            region.append(slice(lo, draw(st.integers(lo + 1, sl.stop))))
        regions.append(region)
        data = np.zeros(dims, dtype=np.int32)
        if draw(st.integers(0, 15)):
            shape = tuple(sl.stop - sl.start for sl in region)
            data[tuple(region)] = draw(hnp.arrays(
                np.int32, shape, elements=st.sampled_from((1, 1, 2)),
                fill=st.just(0)))
            data[tuple(sl.start for sl in region)] = 1
            data[tuple(sl.stop - 1 for sl in region)] = draw(
                st.sampled_from((1, 2)))
        vols.append(data)
    dtype = draw(st.sampled_from(LABEL_DTYPES))
    vols = [LabelVolume(data.astype(dtype), spacing) for data in vols]
    return vols if draw(st.booleans()) else vols[::-1]


def box_relation(a, b):
    """How two volumes' lesion boxes (their non-zero labels' boxes) meet."""
    def box(vol):
        nz = np.argwhere(vol.data)
        return list(zip(nz.min(axis=0), nz.max(axis=0) + 1))
    if not a.data.any() or not b.data.any():
        return "empty"
    pairs = list(zip(box(a), box(b)))
    if any(x[1] <= y[0] or y[1] <= x[0] for x, y in pairs):
        return "disjoint"
    if (all(y[0] <= x[0] and x[1] <= y[1] for x, y in pairs)
            or all(x[0] <= y[0] and y[1] <= x[1] for x, y in pairs)):
        return "nested"
    return "overlapping"


CONNECTIVITIES = (6, 18, 26)


BOX_DRAWS = settings(max_examples=100, derandomize=True, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow,
                                            HealthCheck.data_too_large])


@BOX_DRAWS
@given(boxed_volumes())
def test_raw_and_prepared_match_the_oracle_for_any_two_boxes(vols):
    ref, pred = vols
    event(box_relation(ref, pred))
    event(f"labels {ref.data.dtype}")
    copies = [tuple(LabelVolume(v.data.astype(dtype), v.spacing)
                    for v in vols) for dtype in LABEL_DTYPES]
    assert evaluate_pair(ref, pred) == evaluate_pair(prepare_reference(ref),
                                                     pred)
    for connectivity in CONNECTIVITIES:
        assert_same_as_uncropped(ref, pred, connectivity)
        want = evaluate_pair(prepare_reference(ref, connectivity), pred)
        # the label dtype never changes a result
        assert all(evaluate_pair(prepare_reference(c_ref, connectivity),
                                 c_pred) == want for c_ref, c_pred in copies)


def test_the_box_draws_cover_every_relation():
    seen = set()

    @BOX_DRAWS
    @given(boxed_volumes())
    def collect(vols):
        seen.add(box_relation(*vols))

    collect()
    assert seen == {"empty", "disjoint", "nested", "overlapping"}


# ------------------------------------------- H95 over shared surface voxels

C9_SPACING = (0.96, 0.95, 3.0)
SHARED_DIMS = (12, 11, 8)
BLOCK = [(x, y, z) for x in range(3, 8) for y in range(3, 7)
         for z in range(2, 6)]


def shifted(coords, dx=0, dy=0, dz=0):
    return [(x + dx, y + dy, z + dz) for x, y, z in coords]


def wmh_masks(ref, pred):
    """Both label-1 masks with the reference's label 2 excised."""
    keep = ref.data != 2
    return (ref.data == 1) & keep, (pred.data == 1) & keep


def shared_surface(ref, pred) -> str:
    """Which of the two surfaces' voxels lie on both: all, some or none."""
    surf_ref, surf_pred = (surface_oracle(m) for m in wmh_masks(ref, pred))
    both = np.count_nonzero(surf_ref & surf_pred)
    if both == 0:
        return "none"
    everywhere = both == np.count_nonzero(surf_ref | surf_pred)
    return "all" if everywhere else "some"


def assert_h95_is_the_oracle(ref, pred):
    """H95 equal to the brute-force oracle's with ==, not approx."""
    want = h95_oracle(*wmh_masks(ref, pred), ref.spacing)
    assert evaluate_pair(ref, pred).h95_mm == want
    assert evaluate_pair(prepare_reference(ref), pred).h95_mm == want


def dilated(coords, erode=0, dilate=0):
    mask = perturb_mask(mask_from(coords, SHARED_DIMS, C9_SPACING),
                        PerturbOps(erode=erode, dilate=dilate))
    return [tuple(v) for v in np.argwhere(mask.data)]


SHARED_CASES = {
    "identical": (BLOCK, BLOCK, (), "all"),
    "one-voxel shift along x": (BLOCK, shifted(BLOCK, dx=1), (), "some"),
    "one-voxel dilation": (BLOCK, dilated(BLOCK, dilate=1), (), "none"),
    "one-voxel erosion": (BLOCK, dilated(BLOCK, erode=1), (), "none"),
    # the inner block keeps two faces of the outer one
    "nested": (BLOCK, [v for v in BLOCK if v[0] >= 5 and v[2] >= 3], (),
               "some"),
    "disjoint": (BLOCK, shifted(BLOCK[:20], dx=-3, dz=-2), (), "none"),
    # the plane x = 5 is excised, so both masks gain a cut surface there
    "label 2 across a shared surface": (
        BLOCK, BLOCK + [(8, 4, 3)], [v for v in BLOCK if v[0] == 5],
        "some"),
    "one voxel each, the same": ([(4, 4, 4)], [(4, 4, 4)], (), "all"),
    "one voxel each, apart": ([(4, 4, 4)], [(6, 3, 5)], (), "none"),
    "one voxel inside a block's surface": (BLOCK, [(3, 3, 2)], (), "some"),
}


class TestH95OnSharedSurfaceVoxels:
    """A voxel on both surfaces is at distance 0 and never queried; H95
    stays the brute-force oracle's bit for bit on every branch."""

    @pytest.mark.parametrize("case", list(SHARED_CASES))
    def test_equals_the_oracle(self, case):
        ref_wmh, pred_wmh, ignore, shared = SHARED_CASES[case]
        ref = labels_from(ref_wmh, SHARED_DIMS, C9_SPACING, ignore)
        pred = labels_from(pred_wmh, SHARED_DIMS, C9_SPACING)
        assert shared_surface(ref, pred) == shared
        assert_h95_is_the_oracle(ref, pred)

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(seed=st.integers(0, 10_000), dilate=st.integers(0, 1),
           erode=st.integers(0, 1), add_blobs=st.integers(0, 2),
           translate=st.tuples(st.integers(-1, 1), st.integers(-1, 1),
                               st.integers(-1, 1)),
           ignore=st.sampled_from((0.0, 0.2)))
    def test_perturbed_pairs_equal_the_oracle(self, seed, dilate, erode,
                                              add_blobs, translate, ignore):
        # a perturbed copy shares much of its reference's surface, where
        # two independent masks would share almost none of it
        ops = PerturbOps(dilate=dilate, erode=erode, add_blobs=add_blobs,
                         blob_size=4, translate=translate, seed=seed + 1)
        ref, pred = phantom_pair(seed, dims=(14, 12, 8), spacing=C9_SPACING,
                                 n_lesions=3, size_range=(3, 30),
                                 ignore_fraction=ignore, ops=ops)
        event(f"shared surface: {shared_surface(ref, pred)}")
        assert_h95_is_the_oracle(ref, pred)


class SpyTree:
    """A prepared reference's KD-tree that records each query."""

    def __init__(self, tree):
        self.tree, self.queries = tree, []

    def query(self, points, k):
        self.queries.append(np.array(points))
        return self.tree.query(points, k=k)


def spied(monkeypatch, ref):
    """``ref`` prepared, with every query H95 makes recorded: the
    ref->pred calls of ``directed_surface_distances`` as (from, to)
    grid coordinates, and the pred->ref queries of the prepared tree in
    mm."""
    real, calls = seg_eval.metrics.directed_surface_distances, []

    def spy(from_coords, to_coords, spacing):
        calls.append((np.array(from_coords), np.array(to_coords)))
        return real(from_coords, to_coords, spacing)

    monkeypatch.setattr(seg_eval.metrics, "directed_surface_distances", spy)
    prepared = prepare_reference(ref)
    tree = SpyTree(prepared.tree)
    return replace(prepared, tree=tree), calls, tree.queries


def rows(coords) -> set:
    return {tuple(v) for v in np.asarray(coords).tolist()}


class TestSharedSurfaceVoxelsAreNotQueried:
    def test_identical_masks_query_nothing(self, monkeypatch):
        ref = labels_from(BLOCK, SHARED_DIMS, C9_SPACING)
        prepared, calls, queries = spied(monkeypatch, ref)
        assert evaluate_pair(prepared, ref).h95_mm == 0.0
        assert calls == [] and queries == []

    def test_a_shift_queries_only_the_unshared_rows(self, monkeypatch):
        ref = labels_from(BLOCK, SHARED_DIMS, C9_SPACING)
        pred = labels_from(shifted(BLOCK, dx=1), SHARED_DIMS, C9_SPACING)
        assert_h95_is_the_oracle(ref, pred)
        prepared, calls, queries = spied(monkeypatch, ref)
        evaluate_pair(prepared, pred)
        surf_ref, surf_pred = (rows(np.argwhere(surface_oracle(m)))
                               for m in wmh_masks(ref, pred))
        [(from_coords, to_coords)] = calls
        assert len(from_coords) == len(rows(from_coords))
        assert rows(from_coords) == surf_ref - surf_pred
        assert rows(to_coords) == surf_pred
        assert len(to_coords) == len(surf_pred)
        [points] = queries
        assert len(points) == len(surf_pred - surf_ref)
        assert rows(points) == rows(np.array(sorted(surf_pred - surf_ref))
                                    * np.asarray(C9_SPACING))
