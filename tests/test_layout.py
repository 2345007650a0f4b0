"""Every voxel-grid kernel gives the same result in either memory layout.

Volumes read from disk are F-ordered (NIfTI is x-fastest); volumes built
in memory are usually C-ordered. Each kernel is run on C-ordered,
F-ordered and mixed inputs and must return identical values.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from helpers import phantom_pair, random_mask
from seg_eval.analysis import fn_fp_maps
from seg_eval.fusion import staple_fuse
from seg_eval.metrics import EvalConfig, evaluate_pair
from seg_eval.volume import (BinaryMask, LabelVolume, connected_components,
                             surface_voxels)


def in_order(vol, order):
    """The same volume or mask with its data in C or F layout."""
    return type(vol)(np.array(vol.data, order=order), vol.spacing)


ORDER_PAIRS = list(itertools.product("CF", repeat=2))


class TestContainers:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_contiguous_int32_labels_are_kept(self, order):
        data = np.zeros((3, 4, 5), dtype=np.int32, order=order)
        vol = LabelVolume(data, (1, 1, 1))
        assert vol.data is data
        assert not vol.data.flags.writeable

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_contiguous_mask_is_kept(self, order):
        data = np.zeros((3, 4, 5), dtype=bool, order=order)
        assert BinaryMask(data, (1, 1, 1)).data is data

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_a_crop_is_copied_once_in_its_own_layout(self, order):
        rng = np.random.default_rng(4)
        whole = np.array(rng.random((8, 9, 10)) < 0.3, order=order)
        crop = whole[1:6, 2:7, 3:9]
        m = BinaryMask(crop, (1, 1, 1))
        assert not np.shares_memory(m.data, whole)
        assert m.data.flags[f"{order}_CONTIGUOUS"]
        assert np.array_equal(m.data, crop)
        assert not m.data.flags.writeable

    def test_labels_of_another_dtype_keep_their_layout(self):
        data = np.asfortranarray(np.arange(60, dtype=np.uint8)
                                 .reshape(3, 4, 5))
        vol = LabelVolume(data, (1, 1, 1))
        assert vol.data.dtype == np.uint8 and vol.data.flags.f_contiguous
        assert np.array_equal(vol.data, data)
        swapped = LabelVolume(data.astype(">i2"), (1, 1, 1))
        assert swapped.data.dtype == np.int32
        assert swapped.data.flags.f_contiguous
        assert np.array_equal(swapped.data, data)


class TestKernels:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("ignore_mode", ["exclude", "background"])
    def test_evaluate_pair(self, seed, ignore_mode):
        ref, pred = phantom_pair(seed, dims=(20, 18, 12),
                                 spacing=(0.96, 0.95, 3.0),
                                 ignore_fraction=0.3)
        assert (ref.data == 2).any()
        config = EvalConfig(ignore_mode=ignore_mode)
        results = [evaluate_pair(in_order(ref, a), in_order(pred, b), config)
                   for a, b in ORDER_PAIRS]
        assert all(r == results[0] for r in results[1:])
        assert results[0].n_ref_lesions > 0

    def test_evaluate_pair_in_a_permuted_layout(self):
        # neither C- nor F-contiguous: axes stored in the order y, x, z
        ref, pred = phantom_pair(2, dims=(20, 18, 12), ignore_fraction=0.3)

        def permuted(vol):
            data = np.ascontiguousarray(vol.data.transpose(1, 0, 2))
            return LabelVolume(data.transpose(1, 0, 2), vol.spacing)

        want = evaluate_pair(ref, pred)
        assert evaluate_pair(permuted(ref), permuted(pred)) == want
        assert evaluate_pair(ref, permuted(pred)) == want

    @pytest.mark.parametrize("connectivity", [6, 26])
    def test_connected_components(self, connectivity):
        mask = random_mask(np.random.default_rng(11), (14, 9, 7), 0.25)
        c = connected_components(in_order(mask, "C"), connectivity)
        f = connected_components(in_order(mask, "F"), connectivity)
        assert c.count == f.count > 1
        assert np.array_equal(c.labels, f.labels)
        assert np.array_equal(c.sizes, f.sizes)

    def test_surface_voxels(self):
        mask = random_mask(np.random.default_rng(12), (14, 9, 7), 0.4)
        assert np.array_equal(surface_voxels(in_order(mask, "C")),
                              surface_voxels(in_order(mask, "F")))

    def test_staple_fuse(self):
        rng = np.random.default_rng(13)
        truth = rng.random((16, 12, 6)) < 0.2
        raters = [BinaryMask(truth ^ (rng.random(truth.shape) < rate),
                             (1, 1, 2)) for rate in (0.02, 0.05, 0.1)]
        runs = [staple_fuse([in_order(m, o) for m, o in zip(raters, orders)])
                for orders in ("CCC", "FFF", "CFC", "FCF")]
        base = runs[0]
        for r in runs[1:]:
            assert np.array_equal(r.weights, base.weights)
            assert np.array_equal(r.consensus.data, base.consensus.data)
            assert np.array_equal(r.sensitivity, base.sensitivity)
            assert np.array_equal(r.specificity, base.specificity)
            assert np.array_equal(r.log_likelihood, base.log_likelihood)
            assert (r.prior, r.iterations) == (base.prior, base.iterations)
        assert runs[1].weights.flags.f_contiguous

    def test_fn_fp_maps(self):
        rng = np.random.default_rng(14)
        dims = (10, 8, 6)
        refs = [random_mask(rng, dims, 0.2) for _ in range(2)]
        preds = [[random_mask(rng, dims, 0.2) for _ in range(3)]
                 for _ in refs]

        def maps(ref_order, pred_order):
            return fn_fp_maps(
                (in_order(ref, ref_order),
                 [in_order(p, pred_order) for p in ps])
                for ref, ps in zip(refs, preds))

        base_fn, base_fp = maps("C", "C")
        for a, b in ORDER_PAIRS[1:]:
            fn, fp = maps(a, b)
            for got, want in ((fn, base_fn), (fp, base_fp)):
                for field in ("numerator", "denominator", "rate",
                              "lesion_count"):
                    assert np.array_equal(getattr(got, field),
                                          getattr(want, field))
        assert maps("F", "F")[0].rate.flags.f_contiguous
