"""One voxel layout: volumes and masks store their data x-fastest.

NIfTI stores voxels x-fastest, and so does every ``LabelVolume`` and
``BinaryMask``: an F-contiguous array is frozen in place, anything else
is copied once. The kernels are run on volumes built from C-ordered,
F-ordered and mixed arrays and must return identical values, and the
grids they build come back F-contiguous.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from helpers import phantom_pair, random_mask
from seg_eval.analysis import fn_fp_maps
from seg_eval.fusion import staple_fuse
from seg_eval.metrics import EvalConfig, evaluate_pair
from seg_eval.synth import (PerturbOps, PhantomSpec, generate_phantom,
                            perturb_mask)
from seg_eval.volume import (BinaryMask, LabelVolume, binarize_challenge,
                             connected_components, surface_voxels)


def in_order(vol, order):
    """The same volume or mask, built from an array in C or F layout."""
    return type(vol)(np.array(vol.data, order=order), vol.spacing)


ORDER_PAIRS = list(itertools.product("CF", repeat=2))


def assert_copied_once(stored, given):
    """``stored`` is an F-contiguous, read-only copy of ``given``, equal
    in value, and the caller's ``given`` stays writable."""
    assert stored.flags.f_contiguous and not stored.flags.writeable
    assert not np.shares_memory(stored, given)
    assert np.array_equal(stored, given)
    assert given.flags.writeable


class TestContainers:
    """An F-contiguous array of the stored dtype is kept and frozen in
    place; a C-ordered array or a crop is copied once into F order."""

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_contiguous_uint8_labels_are_kept(self, order):
        data = np.zeros((3, 4, 5), dtype=np.uint8, order=order)
        data[1, 2, 3] = 1   # so a mis-strided copy would not compare equal
        vol = LabelVolume(data, (1, 1, 1))
        if order == "C":
            assert_copied_once(vol.data, data)
            return
        assert vol.data is data
        assert not vol.data.flags.writeable

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_contiguous_mask_is_kept(self, order):
        data = np.zeros((3, 4, 5), dtype=bool, order=order)
        data[1, 2, 3] = True
        stored = BinaryMask(data, (1, 1, 1)).data
        if order == "C":
            assert_copied_once(stored, data)
            return
        assert stored is data

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_a_crop_is_copied_once_in_its_own_layout(self, order):
        rng = np.random.default_rng(4)
        whole = np.array(rng.random((8, 9, 10)) < 0.3, order=order)
        crop = whole[1:6, 2:7, 3:9]
        m = BinaryMask(crop, (1, 1, 1))
        if order == "C":   # copied into the x-fastest layout
            assert_copied_once(m.data, crop)
            assert whole.flags.writeable
            return
        assert not np.shares_memory(m.data, whole)
        assert m.data.flags[f"{order}_CONTIGUOUS"]
        assert np.array_equal(m.data, crop)
        assert not m.data.flags.writeable

    def test_labels_of_another_dtype_keep_their_layout(self):
        data = np.asfortranarray(np.random.default_rng(0)
                                 .integers(0, 3, (3, 4, 5), dtype=np.uint8))
        for dtype in (np.int32, ">i2"):
            vol = LabelVolume(data.astype(dtype), (1, 1, 1))
            assert vol.data.dtype == np.uint8 and vol.data.flags.f_contiguous
            assert np.array_equal(vol.data, data)


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
        c_ids, c_count = connected_components(in_order(mask, "C"),
                                              connectivity)
        f_ids, f_count = connected_components(in_order(mask, "F"),
                                              connectivity)
        assert c_count == f_count > 1
        assert np.array_equal(c_ids, f_ids)

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

        base = maps("C", "C")
        for a, b in ORDER_PAIRS[1:]:
            got = maps(a, b)
            for field in ("fn_rate", "fp_rate", "lesion_count"):
                assert np.array_equal(getattr(got, field),
                                      getattr(base, field))
        assert maps("F", "F").fn_rate.flags.f_contiguous


class TestOutputs:
    def test_built_grids_are_x_fastest(self):
        spec = PhantomSpec(dims=(20, 18, 12), n_lesions=4, size_range=(3, 20),
                           seed=5, ignore_fraction=0.3)
        ref = generate_phantom(spec)
        wmh = binarize_challenge(ref)
        grids = {"generate_phantom": ref.data}
        for op in (PerturbOps(), PerturbOps(dilate=1), PerturbOps(erode=1),
                   PerturbOps(drop_components=(1,)),
                   PerturbOps(add_blobs=2, blob_size=5, seed=6),
                   PerturbOps(translate=(1, -1, 0))):
            grids[f"perturb_mask {op}"] = perturb_mask(wmh, op).data
        raters = [wmh] + [perturb_mask(wmh, PerturbOps(add_blobs=1,
                                                       blob_size=5, seed=s))
                          for s in (7, 8)]
        fused = staple_fuse(raters)
        grids["staple weights"] = fused.weights
        grids["staple consensus"] = fused.consensus.data
        maps = fn_fp_maps([(wmh, raters)])
        for field in ("fn_rate", "fp_rate", "lesion_count"):
            grids[f"maps {field}"] = getattr(maps, field)
        # a grid that is C- and F-contiguous at once would pass trivially
        assert not ref.data.flags.c_contiguous
        for name, grid in grids.items():
            assert grid.flags.f_contiguous, name
