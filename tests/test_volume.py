import numpy as np
import pytest
from scipy import ndimage

from seg_eval.errors import InvalidLabelError
from seg_eval.metrics import EvalConfig, prepare_reference
from seg_eval.synth import PerturbOps, perturb_mask
from seg_eval.volume import (_STRUCTURE, BinaryMask, LabelVolume,
                             binarize_challenge, connected_components,
                             directed_surface_distances, surface_voxels)

from helpers import labels_from, mask_from, random_mask
from oracles import allpairs_directed, cc_oracle, surface_oracle


class TestLabelVolume:
    def test_normalises_to_readonly_uint8(self):
        v = LabelVolume(np.ones((2, 3, 4), dtype=np.uint8), (1, 1, 1))
        assert v.data.dtype == np.uint8
        assert not v.data.flags.writeable
        for wide in (np.int64, np.dtype(">i2")):
            w = LabelVolume(np.ones((2, 3, 4), dtype=wide), (1, 1, 1))
            assert w.data.dtype == np.uint8
            assert not w.data.flags.writeable
        with pytest.raises(ValueError):
            v.data[0, 0, 0] = 5

    def test_rejects_negative_label_with_location(self):
        data = np.zeros((3, 3, 3), dtype=np.int32)
        data[2, 1, 0] = -4
        with pytest.raises(InvalidLabelError) as err:
            LabelVolume(data, (1, 1, 1))
        assert err.value.coordinate == (2, 1, 0)
        assert err.value.value == -4

    @pytest.mark.parametrize("dtype", [np.int64, np.uint32, np.uint64,
                                       np.dtype(">u4"), np.dtype(">i8")])
    def test_rejects_label_beyond_int32_with_x_fastest_location(self, dtype):
        data = np.zeros((3, 3, 2), dtype=dtype)
        data[0, 1, 0] = 2**31       # first in C order
        data[1, 0, 0] = 2**31 + 5   # first in x-fastest order
        with pytest.raises(InvalidLabelError) as err:
            LabelVolume(data, (1, 1, 1))
        assert err.value.coordinate == (1, 0, 0)
        assert err.value.value == 2**31 + 5
        assert "2147483653" in str(err.value)

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int32])
    def test_narrow_dtypes_keep_their_largest_value(self, dtype):
        # the largest label, 2, in any dtype is kept, stored as uint8
        data = np.full((2, 1, 1), 2, dtype=dtype)
        stored = LabelVolume(data, (1, 1, 1)).data
        assert stored.dtype == np.uint8 and stored.max() == 2

    # every integer dtype, native, and byte-swapped where that differs
    INTEGER_DTYPES = [np.dtype(code) for code in
                      ("i1", "u1", "i2", "u2", "i4", "u4", "i8", "u8")]
    INTEGER_DTYPES += [d.newbyteorder() for d in INTEGER_DTYPES
                       if d.itemsize > 1]

    @pytest.mark.parametrize("dtype", INTEGER_DTYPES, ids=str)
    def test_every_integer_dtype_is_stored_as_uint8(self, dtype):
        data = np.random.default_rng(1).integers(0, 3, (4, 3, 2))
        vol = LabelVolume(data.astype(dtype), (1, 1, 1))
        assert vol.data.dtype == np.uint8
        assert vol.data.flags.f_contiguous and not vol.data.flags.writeable
        assert np.array_equal(vol.data, data)

    @pytest.mark.parametrize("dtype", INTEGER_DTYPES, ids=str)
    @pytest.mark.parametrize("value", [3, 127])
    def test_a_label_above_2_names_value_and_voxel(self, dtype, value):
        data = np.zeros((3, 3, 2), dtype=dtype)
        data[0, 1, 0] = data[1, 0, 0] = value   # x-fastest: (1, 0, 0) first
        with pytest.raises(InvalidLabelError) as err:
            LabelVolume(data, (1, 1, 1))
        assert str(err.value) == (f"label {value} at voxel (1, 0, 0) is "
                                  f"outside {{0, 1, 2}}")
        assert err.value.value == value
        assert err.value.coordinate == (1, 0, 0)

    def test_rejects_bad_spacing(self):
        data = np.zeros((2, 2, 2), dtype=np.int32)
        for spacing in [(0, 1, 1), (-1, 1, 1), (np.nan, 1, 1), (np.inf, 1, 1)]:
            with pytest.raises(ValueError):
                LabelVolume(data, spacing)

    def test_rejects_non_integer_and_non_3d(self):
        with pytest.raises(TypeError):
            LabelVolume(np.zeros((2, 2, 2), dtype=np.float32), (1, 1, 1))
        with pytest.raises(ValueError):
            LabelVolume(np.zeros((2, 2), dtype=np.int32), (1, 1, 1))


def test_structures_equal_scipys():
    for conn, rank in ((6, 1), (18, 2), (26, 3)):
        assert np.array_equal(_STRUCTURE[conn],
                              ndimage.generate_binary_structure(3, rank))


class TestBinaryMask:
    def test_accepts_integer_input(self):
        m = BinaryMask(np.array([[[0, 1], [2, 0]]], dtype=np.int32), (1, 1, 1))
        assert m.count() == 2

    def test_count_equals_the_sum(self):
        rng = np.random.default_rng(17)
        for density in (0.0, 0.05, 0.5, 1.0):
            for order in ("C", "F"):
                data = np.array(rng.random((9, 7, 5)) < density, order=order)
                assert BinaryMask(data, (1, 1, 1)).count() == int(data.sum())

    def test_volume_ml(self):
        data = np.zeros((10, 10, 10), dtype=bool)
        data[:5] = True
        m = BinaryMask(data, (1.0, 1.0, 2.0))
        assert m.volume_ml() == pytest.approx(500 * 2.0 / 1000.0)


class TestBinarize:
    def test_splits_wmh_and_ignore(self):
        v = labels_from([(0, 0, 0), (1, 0, 0)], (3, 3, 1),
                        ignore_coords=[(2, 2, 0)])
        wmh = binarize_challenge(v)
        assert wmh.count() == 2
        assert wmh.data[0, 0, 0] and wmh.data[1, 0, 0]
        assert not wmh.data[2, 2, 0]   # label 2 is not WMH

    def test_rejects_label_3_with_location(self):
        # the volume refuses label 3, so binarize never meets it
        data = np.zeros((3, 3, 3), dtype=np.int32)
        data[1, 2, 0] = 3
        with pytest.raises(InvalidLabelError) as err:
            LabelVolume(data, (1, 1, 1))
        assert err.value.coordinate == (1, 2, 0)
        assert err.value.value == 3


class TestDilateErode:
    """The 3x3x3 box dilation and erosion that ``perturb_mask`` applies."""

    @staticmethod
    def dilate(m, times=1):
        return perturb_mask(m, PerturbOps(dilate=times))

    @staticmethod
    def erode(m, times=1):
        return perturb_mask(m, PerturbOps(erode=times))

    def test_single_voxel_in_plane(self):
        m = mask_from([(2, 2, 1)], (5, 5, 3))
        d = self.dilate(m)
        assert d.count() == 27
        for z in range(3):      # every plane holds the same 3x3 square
            assert d.data[1:4, 1:4, z].all()
            assert d.data[:, :, z].sum() == 9

    def test_corner_clipped(self):
        m = mask_from([(0, 0, 0)], (4, 4, 1))
        d = self.dilate(m)
        # only the 2x2 in-plane quadrant fits
        assert d.count() == 4
        d = self.dilate(mask_from([(0, 0, 0)], (4, 4, 4)))
        assert d.count() == 8           # and in 3-D the 2x2x2 octant
        assert d.data[:2, :2, :2].all()

    def test_foreground_on_the_border_erodes_away(self):
        data = np.zeros((6, 6, 6), dtype=bool)
        data[0:3, 1:4, 1:4] = True      # a 3x3x3 cube on the x = 0 face
        e = self.erode(BinaryMask(data, (1, 1, 1)))
        assert e.count() == 1           # the face voxels have no x - 1
        assert e.data[1, 2, 2]
        full = BinaryMask(np.ones((4, 4, 4), dtype=bool), (1, 1, 1))
        core = self.erode(full)
        assert core.count() == 8
        assert core.data[1:3, 1:3, 1:3].all()

    def test_matches_scipy_on_random_masks(self):
        rng = np.random.default_rng(11)
        box = np.ones((3, 3, 3), dtype=bool)
        for _ in range(20):
            m = random_mask(rng, (9, 8, 7), density=0.15)
            for times in (1, 2):
                assert np.array_equal(
                    self.dilate(m, times).data,
                    ndimage.binary_dilation(m.data, structure=box,
                                            iterations=times))
                assert np.array_equal(
                    self.erode(m, times).data,
                    ndimage.binary_erosion(m.data, structure=box,
                                           iterations=times,
                                           border_value=0))

    def test_dilation_extensive_erosion_antiextensive(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            m = random_mask(rng, (8, 8, 8), density=0.2)
            d = self.dilate(m)
            e = self.erode(m)
            assert (d.data | m.data).sum() == d.count()   # m subset of d
            assert (e.data & m.data).sum() == e.count()   # e subset of m


class TestSurface:
    def test_single_voxel_is_its_own_surface(self):
        m = mask_from([(2, 2, 2)], (5, 5, 5))
        surf = surface_voxels(m)
        assert surf.shape == (1, 3)
        assert tuple(surf[0]) == (2, 2, 2)

    def test_cube_surface_excludes_centre(self):
        data = np.zeros((5, 5, 5), dtype=bool)
        data[1:4, 1:4, 1:4] = True
        surf = surface_voxels(BinaryMask(data, (1, 1, 1)))
        assert len(surf) == 26
        assert (2, 2, 2) not in {tuple(v) for v in surf}

    def test_volume_boundary_counts_as_exposed(self):
        data = np.ones((3, 3, 3), dtype=bool)
        surf = surface_voxels(BinaryMask(data, (1, 1, 1)))
        assert len(surf) == 26   # all but the centre voxel

    def test_matches_erosion_difference_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            m = random_mask(rng, (10, 9, 8), density=0.25)
            got = {tuple(v) for v in surface_voxels(m)}
            want = {tuple(v) for v in np.argwhere(surface_oracle(m.data))}
            assert got == want

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_rows_are_the_oracle_in_x_fastest_order(self, order):
        rng = np.random.default_rng(14)
        # thin grids put every voxel against the grid edge on some axis
        for shape in ((10, 9, 8), (1, 1, 1), (1, 7, 1), (2, 1, 3)):
            for density in (0.0, 0.1, 0.4, 1.0):
                m = BinaryMask(np.array(rng.random(shape) < density,
                                        order=order), (1, 1, 1))
                got = surface_voxels(m)
                # argwhere of the (z, y, x) view scans x fastest
                want = np.argwhere(surface_oracle(m.data).T)[:, ::-1]
                assert got.dtype == want.dtype == np.int64
                assert got.shape == want.shape
                assert np.array_equal(got, want)   # same rows, same order


class TestDistances:
    def test_matches_all_pairs(self):
        rng = np.random.default_rng(14)
        a = rng.integers(0, 30, (200, 3))
        b = rng.integers(0, 30, (180, 3))
        for spacing in [(1, 1, 1), (0.97, 1.2, 3.0)]:
            got = directed_surface_distances(a, b, spacing)
            want = allpairs_directed(a, b, spacing)
            assert np.allclose(got, want, rtol=0, atol=1e-9)
            assert len(got) == len(a)

    def test_zero_distance_on_shared_point(self):
        a = np.array([[1, 2, 3]])
        b = np.array([[1, 2, 3], [5, 5, 5]])
        assert directed_surface_distances(a, b, (1, 1, 1))[0] == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            directed_surface_distances(np.zeros((0, 3)), np.ones((2, 3)),
                                       (1, 1, 1))


def prepared(mask: BinaryMask, connectivity: int = 26):
    """The prepared reference whose label-1 voxels are ``mask``."""
    return prepare_reference(LabelVolume(mask.data.astype(np.uint8),
                                         mask.spacing),
                             EvalConfig(connectivity=connectivity))


class TestConnectedComponents:
    def test_connectivity_semantics_on_diagonals(self):
        # two voxels sharing only a corner: one component at 26, two at 6/18
        m = mask_from([(0, 0, 0), (1, 1, 1)], (3, 3, 3))
        assert connected_components(m, 26)[1] == 1
        assert connected_components(m, 18)[1] == 2
        assert connected_components(m, 6)[1] == 2
        # sharing an edge: joined at 18 and 26, split at 6
        m = mask_from([(0, 0, 0), (1, 1, 0)], (3, 3, 3))
        assert connected_components(m, 26)[1] == 1
        assert connected_components(m, 18)[1] == 1
        assert connected_components(m, 6)[1] == 2

    def test_count_monotone_in_connectivity(self):
        rng = np.random.default_rng(15)
        for _ in range(10):
            m = random_mask(rng, (12, 12, 6), density=0.2)
            c6 = connected_components(m, 6)[1]
            c18 = connected_components(m, 18)[1]
            c26 = connected_components(m, 26)[1]
            assert c6 >= c18 >= c26

    def test_matches_union_find_oracle(self):
        rng = np.random.default_rng(16)
        for trial in range(15):
            m = random_mask(rng, (12, 10, 8), density=0.18)
            for conn in (6, 18, 26):
                got, n = connected_components(m, conn)
                labels, count, sizes = cc_oracle(m.data, conn)
                assert n == count
                assert np.array_equal(got, labels)
                assert list(prepared(m, conn).sizes) == sizes

    def test_first_encounter_ids_are_scan_ordered(self):
        # two blobs; the one met first by the x-fastest scan gets id 1
        m = mask_from([(5, 0, 0), (0, 3, 0)], (6, 6, 1))
        labels, _ = connected_components(m, 26)
        assert labels[5, 0, 0] == 1
        assert labels[0, 3, 0] == 2

    def test_sizes_sum_to_mask_count(self):
        rng = np.random.default_rng(17)
        m = random_mask(rng, (10, 10, 10), density=0.3)
        ref = prepared(m)
        assert ref.sizes.size == connected_components(m)[1]
        assert ref.sizes.sum() == m.count()

    def test_labels_read_only_and_sizes_int64(self):
        rng = np.random.default_rng(18)
        for m in (random_mask(rng, (9, 7, 5), density=0.3),
                  mask_from([], (4, 4, 4))):
            ref = prepared(m)
            assert ref.labels.shape == tuple(
                sl.stop - sl.start for sl in ref.box)
            assert not ref.labels.flags.writeable
            assert not ref.sizes.flags.writeable
            if ref.labels.size:
                with pytest.raises(ValueError):
                    ref.labels[0, 0, 0] = 7
            assert ref.sizes.dtype == np.int64

    def test_empty_mask(self):
        m = mask_from([], (4, 4, 4))
        labels, n = connected_components(m)
        assert n == 0
        assert labels.shape == m.dims and not labels.any()
        assert prepared(m).sizes.size == 0

    def test_bad_connectivity(self):
        with pytest.raises(ValueError, match="6, 18 or 26, got 10"):
            connected_components(mask_from([], (2, 2, 2)), 10)
