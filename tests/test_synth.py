import numpy as np
import pytest

from seg_eval.errors import CapacityError
from seg_eval.synth import (PerturbOps, PhantomSpec, generate_phantom,
                            perturb_mask)
from seg_eval.volume import (BinaryMask, binarize_challenge,
                             connected_components)

from helpers import mask_from, score_masks as score


class TestGeneratePhantom:
    def test_no_lesions(self):
        vol = generate_phantom(PhantomSpec(n_lesions=0))
        assert vol.data.sum() == 0

    def test_deterministic(self):
        spec = PhantomSpec(seed=12, n_lesions=6, ignore_fraction=0.2)
        a = generate_phantom(spec)
        b = generate_phantom(spec)
        assert np.array_equal(a.data, b.data)
        assert a.spacing == b.spacing

    def test_seed_changes_content(self):
        a = generate_phantom(PhantomSpec(seed=1))
        b = generate_phantom(PhantomSpec(seed=2))
        assert not np.array_equal(a.data, b.data)

    def test_component_count_is_exact(self):
        for n in (1, 4, 7):
            vol = generate_phantom(PhantomSpec(n_lesions=n, seed=5))
            wmh, _ = binarize_challenge(vol)
            assert connected_components(wmh, 26).count == n

    def test_lesion_sizes_within_range(self):
        spec = PhantomSpec(n_lesions=6, size_range=(5, 11), seed=9)
        wmh, _ = binarize_challenge(generate_phantom(spec))
        comps = connected_components(wmh, 26)
        assert comps.sizes.min() >= 5
        assert comps.sizes.max() <= 11

    def test_ignore_fraction_hits_exact_target(self):
        spec = PhantomSpec(n_lesions=5, seed=3, ignore_fraction=0.25,
                           size_range=(4, 20))
        vol = generate_phantom(spec)
        n_wmh = int((vol.data == 1).sum())
        n_ignore = int((vol.data == 2).sum())
        assert n_ignore == round(0.25 * n_wmh)

    def test_labels_disjoint_and_separated(self):
        vol = generate_phantom(PhantomSpec(n_lesions=6, seed=7,
                                           ignore_fraction=0.3))
        wmh = vol.data == 1
        ignore = vol.data == 2
        assert not (wmh & ignore).any()
        # 26-separation: every label-1 component keeps a 1-voxel moat,
        # so merging masks must not fuse any components
        merged = BinaryMask(wmh | ignore, vol.spacing)
        n_w = connected_components(BinaryMask(wmh, vol.spacing), 26).count
        n_i = connected_components(BinaryMask(ignore, vol.spacing), 26).count
        assert connected_components(merged, 26).count == n_w + n_i

    def test_impossible_spec_raises_capacity_error(self):
        spec = PhantomSpec(dims=(8, 8, 2), n_lesions=40,
                           size_range=(8, 8), seed=0)
        with pytest.raises(CapacityError):
            generate_phantom(spec)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PhantomSpec(size_range=(0, 5))
        with pytest.raises(ValueError):
            PhantomSpec(size_range=(9, 5))
        with pytest.raises(ValueError):
            PhantomSpec(ignore_fraction=1.0)
        with pytest.raises(ValueError):
            PhantomSpec(n_lesions=-1)


class TestPerturbMask:
    def _phantom_mask(self, **kw):
        vol = generate_phantom(PhantomSpec(**kw))
        wmh, _ = binarize_challenge(vol)
        return wmh

    def test_empty_ops_identity(self):
        m = self._phantom_mask(seed=21)
        out = perturb_mask(m, PerturbOps())
        assert np.array_equal(out.data, m.data)

    def test_deterministic(self):
        m = self._phantom_mask(seed=22)
        ops = PerturbOps(dilate=1, add_blobs=2, blob_size=5, seed=4,
                         translate=(1, 0, 0))
        assert np.array_equal(perturb_mask(m, ops).data,
                              perturb_mask(m, ops).data)

    def test_drop_one_of_two_components_halves_recall(self):
        m = mask_from([(2, 2, 2), (10, 10, 10)], (16, 16, 16))
        pred = perturb_mask(m, PerturbOps(drop_components=(2,)))
        assert score(m, pred).recall == 0.5

    def test_drop_out_of_range_component(self):
        m = mask_from([(2, 2, 2)], (8, 8, 8))
        with pytest.raises(ValueError, match="out of range"):
            perturb_mask(m, PerturbOps(drop_components=(3,)))

    def test_translate_single_voxel_gives_h95_of_one(self):
        m = mask_from([(4, 4, 4)], (9, 9, 9))
        pred = perturb_mask(m, PerturbOps(translate=(1, 0, 0)))
        assert pred.data[5, 4, 4]
        assert pred.count() == 1
        assert score(m, pred).h95_mm == pytest.approx(1.0)

    def test_translation_clips_at_the_boundary(self):
        m = mask_from([(0, 0, 0), (3, 3, 3)], (4, 4, 4))
        pred = perturb_mask(m, PerturbOps(translate=(1, 1, 1)))
        assert pred.count() == 1          # the corner voxel fell off
        assert pred.data[1, 1, 1]

    def test_dilation_never_decreases_recall(self):
        for seed in range(5):
            ref = self._phantom_mask(seed=30 + seed, n_lesions=4)
            pred = perturb_mask(ref, PerturbOps(erode=1, seed=seed))
            grown = perturb_mask(pred, PerturbOps(dilate=1))
            assert score(ref, grown).recall >= score(ref, pred).recall

    def test_dilate_then_erode_supersets_original(self):
        # closing never removes original voxels
        ref = self._phantom_mask(seed=36, n_lesions=3)
        closed = perturb_mask(ref, PerturbOps(dilate=1, erode=1))
        assert (closed.data | ref.data).sum() == closed.count()

    def test_added_blobs_are_disjoint_from_the_mask(self):
        ref = self._phantom_mask(seed=37, n_lesions=3)
        n_before = connected_components(ref, 26).count
        out = perturb_mask(ref, PerturbOps(add_blobs=2, blob_size=6, seed=1))
        n_after = connected_components(out, 26).count
        assert n_after == n_before + 2
        assert out.count() == ref.count() + 12

    def test_op_order_dilate_before_translate(self):
        # a dilate combined with a translate must equal dilating first,
        # then translating the grown mask
        ref = self._phantom_mask(seed=38, n_lesions=2)
        combined = perturb_mask(ref, PerturbOps(dilate=1,
                                                translate=(0, 2, 0)))
        grown = perturb_mask(ref, PerturbOps(dilate=1))
        shifted = perturb_mask(grown, PerturbOps(translate=(0, 2, 0)))
        assert np.array_equal(combined.data, shifted.data)
