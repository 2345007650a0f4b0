import gzip
import hashlib

import numpy as np
import pytest

from seg_eval import synth
from seg_eval.cli import main
from seg_eval.errors import CapacityError
from seg_eval.metrics import prepare_reference
from seg_eval.synth import (PerturbOps, PhantomSpec, _dilate,
                            generate_phantom, perturb_mask)
from seg_eval.volume import (BinaryMask, binarize_challenge,
                             connected_components)

from helpers import mask_from, score_masks as score
from oracles import touches_oracle


def _count_walks(monkeypatch) -> list[int]:
    """Patch ``_walk_blob`` to count its calls per blob: the returned
    list gains an entry at each ``rekey``, where a blob's stream starts,
    and a blob that takes more than 5 walks fails the test at once."""
    rekey, walk, walks = synth.rekey, synth._walk_blob, []

    def new_stream(*args):
        walks.append(0)
        return rekey(*args)

    def counted(*args):
        walks[-1] += 1
        assert walks[-1] <= 5, "placement kept walking"
        return walk(*args)

    monkeypatch.setattr(synth, "rekey", new_stream)
    monkeypatch.setattr(synth, "_walk_blob", counted)
    return walks


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestPinnedBytes:
    """What synth builds, pinned by SHA-256: a change to the walk, the
    placement or the label rule changes every benchmark corpus."""

    def test_synth_corpus(self, tmp_path):
        # label 2 is present, and methods 1-3 add blobs and translate;
        # files are hashed decompressed, so the zlib build does not matter
        assert main(["synth", "--out-dir", str(tmp_path), "--subjects", "2",
                     "--methods", "4", "--dims", "20", "20", "10",
                     "--lesions", "4", "--size-range", "3", "15",
                     "--ignore-fraction", "0.2", "--seed", "7"]) == 0
        h = hashlib.sha256()
        for path in sorted(tmp_path.iterdir()):
            raw = path.read_bytes()
            h.update(path.name.encode())
            h.update(gzip.decompress(raw) if path.suffix == ".gz" else raw)
        assert h.hexdigest() == ("cb5410bf1aceba21fa9529c0f149706b"
                                 "2c17e50455769f22361c53a28e6bfdeb")

    def test_phantom_and_perturbation(self):
        vol = generate_phantom(PhantomSpec(
            dims=(24, 20, 12), n_lesions=6, size_range=(3, 20), seed=11,
            ignore_fraction=0.3))
        assert np.bincount(vol.data.ravel()).tolist() == [5666, 72, 22]
        assert sha256(vol.data.tobytes(order="F")) == (
            "dbe32b210b36f030b493788eb58e5abcc63424f976f1a313a8797a0a564f0712")
        pred = perturb_mask(binarize_challenge(vol), PerturbOps(
            dilate=1, add_blobs=3, blob_size=6, translate=(1, -1, 0),
            seed=5))
        assert pred.count() == 637
        assert sha256(pred.data.tobytes(order="F")) == (
            "d214cd890c93f9633c3fdd9af124dbf38b86784bf4742e4c2944c580ed878a7c")


class TestTouchesOccupied:
    """``_dilate`` marks every voxel that touches an occupied one, which
    is what placement rejects and what ``perturb_mask`` grows into."""

    @pytest.mark.parametrize("dims", [(4, 5, 3), (1, 4, 5), (3, 1, 4),
                                      (4, 3, 1), (1, 1, 6), (1, 1, 1)])
    def test_every_voxel_against_every_voxel(self, dims):
        # corners, edges, faces and the inside, one occupied voxel at a
        # time, on grids down to 1 voxel thick
        voxels = np.argwhere(np.ones(dims, dtype=bool))
        for occ in voxels:
            occupied = np.zeros(dims, dtype=bool, order="F")
            occupied[tuple(occ)] = True
            near = _dilate(occupied)
            assert near.shape == dims
            for v in voxels:
                want = touches_oracle(occupied, v[None, :])
                assert near[tuple(v)] == want, (occ, v)

    def test_random_blobs(self):
        rng = np.random.default_rng(19)
        for _ in range(300):
            dims = tuple(int(d) for d in rng.integers(1, 7, 3))
            occupied = np.asfortranarray(rng.random(dims) < 0.05)
            n = int(rng.integers(1, 6))
            coords = np.stack([rng.integers(0, d, n) for d in dims], axis=1)
            assert (_dilate(occupied)[tuple(coords.T)].any()
                    == touches_oracle(occupied, coords))

    def test_random_grids_and_their_clear_count(self):
        # the hopeless-placement check compares the clear count with the
        # smallest blob still to place
        rng = np.random.default_rng(23)
        for _ in range(100):
            dims = tuple(int(d) for d in rng.integers(1, 7, 3))
            occupied = np.asfortranarray(rng.random(dims)
                                         < rng.choice([0.02, 0.05, 0.2]))
            want = np.reshape([touches_oracle(occupied, v[None, :]) for v
                               in np.argwhere(np.ones(dims, dtype=bool))],
                              dims)
            near = _dilate(occupied)
            assert np.array_equal(near, want)
            assert (near.size - np.count_nonzero(near)
                    == np.count_nonzero(~want))

    def test_a_blob_of_exactly_the_clear_count_is_walked_again(
            self, monkeypatch):
        # one voxel of the 1x1x3 grid lies clear of the occupied one, so
        # a 1-voxel blob is not hopeless: its placement keeps walking
        # (seed 1's first two walks start near the occupied voxel)
        walks = _count_walks(monkeypatch)
        out = perturb_mask(mask_from([(0, 0, 0)], (1, 1, 3)),
                           PerturbOps(add_blobs=1, blob_size=1, seed=1))
        assert out.data.ravel().tolist() == [True, False, True]
        assert walks == [3]


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
            wmh = binarize_challenge(vol)
            assert connected_components(wmh, 26)[1] == n

    def test_lesion_sizes_within_range(self):
        spec = PhantomSpec(n_lesions=6, size_range=(5, 11), seed=9)
        sizes = prepare_reference(generate_phantom(spec)).sizes
        assert sizes.size == 6
        assert sizes.min() >= 5
        assert sizes.max() <= 11

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
        n_w = connected_components(BinaryMask(wmh, vol.spacing), 26)[1]
        n_i = connected_components(BinaryMask(ignore, vol.spacing), 26)[1]
        assert connected_components(merged, 26)[1] == n_w + n_i

    def test_impossible_spec_raises_capacity_error(self):
        spec = PhantomSpec(dims=(8, 8, 2), n_lesions=40,
                           size_range=(8, 8), seed=0)
        with pytest.raises(CapacityError):
            generate_phantom(spec)

    def test_a_lesion_larger_than_the_grid_fails_at_once(self):
        # no walk can grow 40 voxels in 32, so none is tried
        spec = PhantomSpec(dims=(4, 4, 2), n_lesions=1, size_range=(3, 40))
        with pytest.raises(CapacityError) as err:
            generate_phantom(spec)
        assert str(err.value) == ("blob size up to 40 voxels exceeds the 32 "
                                  "voxels of grid (4, 4, 2)")
        # a spec that places no blob asks for none of that size
        empty = generate_phantom(PhantomSpec(dims=(4, 4, 2), n_lesions=0,
                                             size_range=(3, 40)))
        assert not empty.data.any()

    def test_a_lesion_that_fits_the_grid_but_not_the_gaps_fails_at_once(
            self, monkeypatch):
        # the first 3000-voxel blob leaves too few voxels clear of it for
        # a second one, so one rejected walk ends the placement
        walks = _count_walks(monkeypatch)
        spec = PhantomSpec(dims=(16, 16, 16), n_lesions=2,
                           size_range=(3000, 3000))
        with pytest.raises(CapacityError) as err:
            generate_phantom(spec)
        assert str(err.value) == ("blob 1 needs at least 3000 voxels but "
                                  "fewer of grid (16, 16, 16) lie clear of "
                                  "the occupied ones")
        assert walks == [1, 1]

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PhantomSpec(size_range=(0, 5))
        with pytest.raises(ValueError):
            PhantomSpec(size_range=(9, 5))
        with pytest.raises(ValueError):
            PhantomSpec(ignore_fraction=1.0)
        with pytest.raises(ValueError):
            PhantomSpec(n_lesions=-1)

    @pytest.mark.parametrize("dims", [(0, 4, 4), (4, -1, 4), (4, 4),
                                      (4, 4, 4, 1), (4.0, 4, 4)])
    def test_dims_must_be_three_positive_integers(self, dims):
        # a zero dim would write a file that read_nifti rejects
        with pytest.raises(ValueError, match="dims must be 3 integers"):
            PhantomSpec(dims=dims, n_lesions=0)


class TestPerturbMask:
    def _phantom_mask(self, **kw):
        return binarize_challenge(generate_phantom(PhantomSpec(**kw)))

    @pytest.mark.parametrize("field, value", [
        ("dilate", -1), ("erode", -1), ("add_blobs", -2), ("blob_size", 0),
        ("blob_size", -4), ("connectivity", 8)])
    def test_a_bad_recipe_is_refused_where_it_is_built(self, field, value):
        with pytest.raises(ValueError, match=field):
            PerturbOps(**{field: value})

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

    @pytest.mark.parametrize("shift", [
        (1, 0, 0), (0, -2, 0), (-1, 2, -2), (4, -3, 2), (-4, 3, -1),
        (0, 0, 3), (-1, 2, -3), (5, 0, 0), (0, -4, 0), (-5, 1, 1),
        (2, 4, -1), (6, 0, 0), (0, 5, 0), (0, 0, 4), (-9, -9, -9)])
    def test_translation_matches_the_per_voxel_reference(self, shift):
        # voxel v lands on v + shift when that is on the 5x4x3 grid; a
        # shift of at least the grid size on one axis empties the mask
        rng = np.random.default_rng(sum(shift) + 50)
        data = rng.random((5, 4, 3)) < 0.5
        want = np.zeros_like(data)
        for x, y, z in np.argwhere(data):
            to = (x + shift[0], y + shift[1], z + shift[2])
            if all(0 <= c < n for c, n in zip(to, data.shape)):
                want[to] = True
        got = perturb_mask(BinaryMask(data, (1, 1, 1)),
                           PerturbOps(translate=shift))
        assert np.array_equal(got.data, want)
        if any(abs(t) >= n for t, n in zip(shift, data.shape)):
            assert got.count() == 0

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
        n_before = connected_components(ref, 26)[1]
        out = perturb_mask(ref, PerturbOps(add_blobs=2, blob_size=6, seed=1))
        n_after = connected_components(out, 26)[1]
        assert n_after == n_before + 2
        assert out.count() == ref.count() + 12

    def test_a_blob_larger_than_the_grid_fails_at_once(self):
        ops = PerturbOps(add_blobs=1, blob_size=9)
        with pytest.raises(CapacityError, match="9 voxels exceeds the 8 "):
            perturb_mask(mask_from([], (2, 2, 2)), ops)

    def test_a_blob_with_no_clear_voxel_fails_after_one_walk(
            self, monkeypatch):
        # the one voxel's neighbourhood is the whole 3x3x3 grid
        walks = _count_walks(monkeypatch)
        ops = PerturbOps(add_blobs=1, blob_size=9)
        with pytest.raises(CapacityError, match="needs at least 9 voxels "
                           "but fewer of grid"):
            perturb_mask(mask_from([(1, 1, 1)], (3, 3, 3)), ops)
        assert walks == [1]

    def test_op_order_dilate_before_translate(self):
        # a dilate combined with a translate must equal dilating first,
        # then translating the grown mask
        ref = self._phantom_mask(seed=38, n_lesions=2)
        combined = perturb_mask(ref, PerturbOps(dilate=1,
                                                translate=(0, 2, 0)))
        grown = perturb_mask(ref, PerturbOps(dilate=1))
        shifted = perturb_mask(grown, PerturbOps(translate=(0, 2, 0)))
        assert np.array_equal(combined.data, shifted.data)
