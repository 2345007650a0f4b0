import gzip
import io
import struct
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from seg_eval import nifti
from seg_eval.cli import main
from seg_eval.errors import (FormatError, InvalidLabelError, SegEvalError,
                             TruncatedFileError, UnsupportedDataTypeError)
from seg_eval.nifti import (_pack_header, read_nifti, write_nifti,
                            write_nifti_real)
from seg_eval.volume import BinaryMask, LabelVolume

from helpers import build_file, encode_as, labels_from


@pytest.fixture
def on_disk(tmp_path):
    def write(blob: bytes, name: str = "vol.nii"):
        p = tmp_path / name
        p.write_bytes(blob)
        return p
    return write


class TestHandBuiltFixtures:
    def test_minimal_header_four_voxels(self, on_disk):
        blob = build_file(dims=(2, 2, 1), pixdim=(1, 1, 3),
                          payload=bytes([0, 1, 1, 0]))
        vol = read_nifti(on_disk(blob))
        assert vol.dims == (2, 2, 1)
        assert vol.spacing == (1.0, 1.0, 3.0)
        # payload is x-fastest: voxel order (0,0,0),(1,0,0),(0,1,0),(1,1,0)
        assert vol.data[0, 0, 0] == 0
        assert vol.data[1, 0, 0] == 1
        assert vol.data[0, 1, 0] == 1
        assert vol.data[1, 1, 0] == 0

    def test_pair_magic_rejected_naming_the_file(self, on_disk):
        # "ni1" heads a .hdr/.img pair: the voxels are in another file
        path = on_disk(build_file(magic=b"ni1\x00", payload=bytes(4)))
        with pytest.raises(FormatError, match="pairs are not supported") as e:
            read_nifti(path)
        assert str(path) in str(e.value)

    def test_int16_payload(self, on_disk):
        payload = struct.pack("<4h", 0, 1, 2, 1)
        vol = read_nifti(on_disk(build_file(datatype=4, payload=payload)))
        assert vol.data[1, 1, 0] == 1
        assert vol.data[0, 1, 0] == 2

    def test_big_endian_detected_and_swapped(self, on_disk):
        payload = struct.pack(">4h", 0, 1, 2, 1)
        blob = build_file(datatype=4, payload=payload, byteorder=">")
        vol = read_nifti(on_disk(blob))
        assert vol.dims == (2, 2, 1)
        assert vol.spacing == (1.0, 1.0, 3.0)
        assert vol.data[0, 1, 0] == 2

    def test_trailing_singleton_dims_allowed(self, on_disk):
        blob = build_file(ndim=4, payload=bytes(4))
        assert read_nifti(on_disk(blob)).dims == (2, 2, 1)

    def test_float_rounding_ties_away_from_zero(self, on_disk):
        vals = [0.0, 0.4999, 0.5, 1.5, 2.4999, 1.0]
        payload = struct.pack("<6f", *vals)
        blob = build_file(dims=(6, 1, 1), datatype=16, payload=payload)
        vol = read_nifti(on_disk(blob))
        assert list(vol.data[:, 0, 0]) == [0, 0, 1, 2, 2, 1]

    @pytest.mark.parametrize("datatype, fmt", [(16, "f"), (64, "d")])
    def test_a_half_above_2_rounds_to_3_and_is_rejected(self, on_disk,
                                                        datatype, fmt):
        payload = struct.pack(f"<4{fmt}", 0.0, 2.4999, 2.5, 1.0)
        path = on_disk(build_file(datatype=datatype, payload=payload))
        with pytest.raises(InvalidLabelError) as err:
            read_nifti(path)
        assert str(err.value) == (f"{path}: label 3 at voxel (0, 1, 0) is "
                                  f"outside {{0, 1, 2}}")
        assert err.value.value == 3.0
        assert err.value.coordinate == (0, 1, 0)

    def test_negative_half_rounds_away(self, on_disk):
        payload = struct.pack("<2f", -0.5, -0.4)
        blob = build_file(dims=(2, 1, 1), datatype=16, payload=payload)
        with pytest.raises(InvalidLabelError):
            read_nifti(on_disk(blob))


class TestErrors:
    def test_bad_magic(self, on_disk):
        with pytest.raises(FormatError, match="magic"):
            read_nifti(on_disk(build_file(magic=b"nope")))

    def test_unsupported_datatype_complex64(self, on_disk):
        blob = build_file(datatype=32, bitpix=64, payload=bytes(4 * 8))
        with pytest.raises(UnsupportedDataTypeError, match="32"):
            read_nifti(on_disk(blob))

    def test_bitpix_mismatch(self, on_disk):
        blob = build_file(datatype=2, bitpix=16, payload=bytes(8))
        with pytest.raises(FormatError, match="bitpix"):
            read_nifti(on_disk(blob))

    def test_dim0_out_of_range_both_endiannesses(self, on_disk):
        with pytest.raises(FormatError, match="dim"):
            read_nifti(on_disk(build_file(ndim=9)))

    def test_truncated_payload(self, on_disk):
        blob = build_file(payload=bytes(3))   # needs 4
        with pytest.raises(TruncatedFileError):
            read_nifti(on_disk(blob))

    def test_truncated_header(self, on_disk):
        with pytest.raises(FormatError, match="shorter"):
            read_nifti(on_disk(b"\x00" * 100))

    def test_nan_voxel(self, on_disk):
        payload = struct.pack("<4f", 0, 1, float("nan"), 0)
        with pytest.raises(InvalidLabelError, match="finite"):
            read_nifti(on_disk(build_file(datatype=16, payload=payload)))

    def test_zero_spacing(self, on_disk):
        blob = build_file(pixdim=(0.0, 1.0, 1.0), payload=bytes(4))
        with pytest.raises(FormatError, match="spacing"):
            read_nifti(on_disk(blob))

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    @pytest.mark.parametrize("axis", [0, 2])
    def test_non_finite_spacing(self, on_disk, value, axis):
        pixdim = [1.0, 1.0, 1.0]
        pixdim[axis] = value
        blob = build_file(pixdim=tuple(pixdim), payload=bytes(4))
        with pytest.raises(FormatError, match="spacing"):
            read_nifti(on_disk(blob))

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"),
                                       float("nan")])
    def test_non_finite_vox_offset(self, on_disk, value):
        blob = bytearray(build_file(payload=bytes(4)))
        struct.pack_into("<f", blob, 108, value)
        with pytest.raises(FormatError, match="vox_offset"):
            read_nifti(on_disk(bytes(blob)))

    def test_truncated_gzip_names_the_file(self, tmp_path):
        whole = tmp_path / "whole.nii.gz"
        write_nifti(labels_from([(1, 1, 1)], (8, 8, 4)), whole)
        half = tmp_path / "half.nii.gz"
        half.write_bytes(whole.read_bytes()[:len(whole.read_bytes()) // 2])
        with pytest.raises(TruncatedFileError, match="half.nii.gz"):
            read_nifti(half)

    @pytest.mark.parametrize("blob", [
        b"plain bytes, not gzip",
        # a gzip header, then a deflate block of the reserved type 3
        b"\x1f\x8b\x08\x00" + bytes(6) + b"\xff" * 16,
    ], ids=["not-gzip", "bad-deflate"])
    def test_corrupt_gzip_names_the_file(self, tmp_path, blob):
        p = tmp_path / "bad.nii.gz"
        p.write_bytes(blob)
        with pytest.raises(FormatError, match="bad.nii.gz"):
            read_nifti(p)

    def test_gzip_crc_mismatch(self, tmp_path):
        p = tmp_path / "crc.nii.gz"
        write_nifti(labels_from([(1, 1, 1)], (8, 8, 4)), p)
        raw = bytearray(p.read_bytes())
        raw[-8] ^= 0xFF   # first byte of the trailer's CRC-32
        p.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="crc.nii.gz"):
            read_nifti(p)


class TestGzipContainer:
    """A .nii.gz reads as gzip itself reads it: members concatenated,
    trailing zero padding skipped, anything else after a member an
    error naming the file."""

    @pytest.fixture
    def plain(self, tmp_path):
        p = tmp_path / "plain.nii"
        write_nifti(labels_from([(1, 1, 1), (5, 2, 3)], (8, 6, 4),
                                ignore_coords=[(0, 0, 0)]), p)
        return p

    def test_two_members_read_as_their_concatenation(self, plain):
        raw = plain.read_bytes()
        p = plain.with_suffix(".nii.gz")
        p.write_bytes(gzip.compress(raw[:200], mtime=0)
                      + gzip.compress(raw[200:], mtime=0))
        assert np.array_equal(read_nifti(p).data, read_nifti(plain).data)

    def test_trailing_zero_padding_is_accepted(self, plain):
        p = plain.with_suffix(".nii.gz")
        p.write_bytes(gzip.compress(plain.read_bytes(), mtime=0) + bytes(512))
        assert np.array_equal(read_nifti(p).data, read_nifti(plain).data)

    def test_trailing_non_gzip_bytes_name_the_file(self, plain):
        p = plain.with_name("tail.nii.gz")
        p.write_bytes(gzip.compress(plain.read_bytes(), mtime=0)
                      + b"not gzip")
        with pytest.raises(FormatError, match="tail.nii.gz"):
            read_nifti(p)


class TestRoundTrip:
    @pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
    def test_label_volume(self, tmp_path, suffix):
        rng = np.random.default_rng(21)
        vol = LabelVolume(rng.integers(0, 3, (7, 6, 5)).astype(np.int32),
                          (0.96, 0.95, 3.0))
        p = tmp_path / f"rt{suffix}"
        write_nifti(vol, p)
        back = read_nifti(p)
        assert back.dims == vol.dims
        assert back.spacing == pytest.approx(vol.spacing, abs=1e-6)
        assert np.array_equal(back.data, vol.data)

    def test_binary_mask_written_as_01(self, tmp_path):
        m = BinaryMask(np.eye(3, dtype=bool)[:, :, None], (1, 1, 1))
        p = tmp_path / "mask.nii"
        write_nifti(m, p)
        back = read_nifti(p)
        assert set(np.unique(back.data)) == {0, 1}
        assert np.array_equal(back.data.astype(bool), m.data)

    def test_real_map_payload_decodes_by_hand(self, tmp_path):
        rates = np.linspace(0, 1, 24, dtype=np.float32).reshape(2, 3, 4)
        p = tmp_path / "rates.nii.gz"
        write_nifti_real(rates, (1, 1, 1.5), p)
        raw = gzip.decompress(p.read_bytes())
        dt, = struct.unpack_from("<h", raw, 70)
        assert dt == 16
        flat = np.frombuffer(raw, dtype="<f4", count=24, offset=352)
        assert np.array_equal(flat.reshape((2, 3, 4), order="F"), rates)

    def test_gzip_equals_plain_after_read(self, tmp_path):
        vol = labels_from([(0, 0, 0), (3, 2, 1)], (4, 4, 4),
                          ignore_coords=[(1, 1, 1)])
        write_nifti(vol, tmp_path / "a.nii")
        write_nifti(vol, tmp_path / "a.nii.gz")
        a = read_nifti(tmp_path / "a.nii")
        b = read_nifti(tmp_path / "a.nii.gz")
        assert np.array_equal(a.data, b.data)
        assert a.spacing == b.spacing


class TestWriterLayout:
    def test_1x1x1_is_353_bytes(self, tmp_path):
        vol = LabelVolume(np.ones((1, 1, 1), dtype=np.int32), (1, 1, 1))
        p = tmp_path / "tiny.nii"
        write_nifti(vol, p)
        assert p.stat().st_size == 353

    def test_header_fields_decode_by_hand(self, tmp_path):
        vol = LabelVolume(np.zeros((240, 240, 48), dtype=np.int32),
                          (0.96, 0.95, 3.0))
        p = tmp_path / "utrecht.nii"
        write_nifti(vol, p)
        raw = p.read_bytes()
        assert len(raw) == 352 + 240 * 240 * 48
        sizeof_hdr, = struct.unpack_from("<i", raw, 0)
        dim = struct.unpack_from("<8h", raw, 40)
        datatype, bitpix = struct.unpack_from("<2h", raw, 70)
        pixdim = struct.unpack_from("<8f", raw, 76)
        vox_offset, = struct.unpack_from("<f", raw, 108)
        assert sizeof_hdr == 348
        assert dim[:4] == (3, 240, 240, 48)
        assert (datatype, bitpix) == (2, 8)
        assert pixdim[1] == pytest.approx(0.96, abs=1e-7)
        assert pixdim[2] == pytest.approx(0.95, abs=1e-7)
        assert pixdim[3] == pytest.approx(3.0)
        assert vox_offset == 352.0
        assert raw[344:348] == b"n+1\x00"
        back = read_nifti(p)
        assert back.dims == (240, 240, 48)
        assert back.spacing == pytest.approx((0.96, 0.95, 3.0), abs=1e-6)

    def test_payload_scan_order_is_x_fastest(self, tmp_path):
        # the C-order scan of this grid reads 0, 1, 2, 0, 1, 2, 0, 1
        flat = [0, 1, 2, 2, 1, 0, 0, 1]
        data = np.array(flat, dtype=np.int32).reshape((2, 2, 2), order="F")
        vol = LabelVolume(data, (1, 1, 1))
        p = tmp_path / "order.nii"
        write_nifti(vol, p)
        assert list(p.read_bytes()[352:360]) == flat

    def test_gzip_output_is_deterministic(self, tmp_path):
        vol = labels_from([(1, 2, 3)], (5, 5, 5))
        write_nifti(vol, tmp_path / "g1.nii.gz")
        write_nifti(vol, tmp_path / "g2.nii.gz")
        assert (tmp_path / "g1.nii.gz").read_bytes() == \
               (tmp_path / "g2.nii.gz").read_bytes()

    def test_plain_output_is_deterministic(self, tmp_path):
        vol = labels_from([(1, 2, 3)], (5, 5, 5))
        write_nifti(vol, tmp_path / "p1.nii")
        write_nifti(vol, tmp_path / "p2.nii")
        assert (tmp_path / "p1.nii").read_bytes() == \
               (tmp_path / "p2.nii").read_bytes()


class TestLabelRange:
    def test_negative_int16_label_names_file_value_and_voxel(self, on_disk):
        payload = struct.pack("<4h", 0, -3, 1, 0)
        path = on_disk(build_file(datatype=4, payload=payload))
        with pytest.raises(InvalidLabelError) as err:
            read_nifti(path)
        assert str(path) in str(err.value)
        assert "label -3 at voxel (1, 0, 0)" in str(err.value)
        assert err.value.value == -3
        assert err.value.coordinate == (1, 0, 0)

    def test_float_beyond_int32_is_rejected_without_a_cast_warning(
            self, on_disk):
        payload = struct.pack("<4f", 0, 1, 0, 3e9)
        path = on_disk(build_file(datatype=16, payload=payload))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidLabelError) as err:
                read_nifti(path)
        assert str(path) in str(err.value)
        assert "label 3e+09 at voxel (1, 1, 0)" in str(err.value)
        assert err.value.coordinate == (1, 1, 0)

    def test_nan_names_its_voxel(self, on_disk):
        payload = struct.pack("<4f", 0, 1, float("nan"), 0)
        with pytest.raises(InvalidLabelError, match=r"voxel \(0, 1, 0\)"):
            read_nifti(on_disk(build_file(datatype=16, payload=payload)))

    def test_cli_error_line_names_the_file(self, on_disk, tmp_path, capsys):
        bad = on_disk(build_file(datatype=4,
                                 payload=struct.pack("<4h", 0, -3, 1, 0)))
        good = tmp_path / "good.nii"
        write_nifti(LabelVolume(np.zeros((2, 2, 1), np.int32), (1, 1, 3)),
                    good)
        for argv in (["evaluate", str(good), str(bad)],
                     ["staple", str(good), str(bad),
                      "-o", str(tmp_path / "c.nii")]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and err.count("error:") == 1
            assert str(bad) in err


class TestScaling:
    @pytest.mark.parametrize("scaling", [(0.0, 0.0), (1.0, 0.0)])
    def test_identity_scaling_accepted(self, on_disk, scaling):
        blob = build_file(payload=bytes([0, 1, 2, 1]), scaling=scaling)
        assert read_nifti(on_disk(blob)).data[1, 0, 0] == 1

    def test_writer_scaling_reads_back(self, tmp_path):
        p = tmp_path / "w.nii"
        write_nifti(LabelVolume(np.ones((2, 2, 2), np.int32), (1, 1, 1)), p)
        assert struct.unpack_from("<2f", p.read_bytes(), 112) == (1.0, 0.0)
        assert read_nifti(p).data.sum() == 8

    @pytest.mark.parametrize("scaling", [
        (2.0, 0.0), (1.0, 0.5), (0.0, 1.0), (-1.0, 0.0),
        (float("nan"), 0.0), (float("inf"), 0.0), (1.0, float("nan")),
        (1.0, float("-inf")),
    ])
    def test_rescaling_header_rejected(self, on_disk, scaling):
        path = on_disk(build_file(payload=bytes(4), scaling=scaling))
        with pytest.raises(FormatError) as err:
            read_nifti(path)
        msg = str(err.value)
        assert str(path) in msg
        assert f"scl_slope {scaling[0]}" in msg
        assert f"scl_inter {scaling[1]}" in msg

    def test_big_endian_scaling_rejected(self, on_disk):
        blob = build_file(datatype=4, payload=bytes(8), byteorder=">",
                          scaling=(2.0, 0.0))
        with pytest.raises(FormatError, match="scl_slope 2.0"):
            read_nifti(on_disk(blob))


# a fixed grid of labels that a transposed or byte-swapped read changes
DISTINCT = np.random.default_rng(0).integers(0, 3, (3, 5, 7))


class TestLayout:
    @pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_non_cubic_distinct_round_trip(self, tmp_path, suffix, order):
        vol = LabelVolume(np.array(DISTINCT, order=order), (0.5, 1.0, 2.0))
        p = tmp_path / f"d{suffix}"
        write_nifti(vol, p)
        raw = p.read_bytes()
        if suffix == ".nii.gz":
            raw = gzip.decompress(raw)
        assert raw[352:] == DISTINCT.astype(np.uint8).tobytes(order="F")
        back = read_nifti(p)
        assert back.dims == (3, 5, 7)
        assert np.array_equal(back.data, DISTINCT)

    @pytest.mark.parametrize("byteorder", ["<", ">"])
    def test_hand_built_int16_in_both_byte_orders(self, on_disk, byteorder):
        payload = struct.pack(f"{byteorder}{DISTINCT.size}h",
                              *DISTINCT.ravel(order="F").tolist())
        blob = build_file(dims=(3, 5, 7), datatype=4, payload=payload,
                          byteorder=byteorder)
        assert np.array_equal(read_nifti(on_disk(blob)).data, DISTINCT)

    @pytest.mark.parametrize("datatype, fmt", [(2, "B"), (4, "h"), (16, "f")])
    def test_read_data_is_f_contiguous_and_read_only(self, on_disk,
                                                     datatype, fmt):
        payload = struct.pack(f"<{DISTINCT.size}{fmt}",
                              *DISTINCT.ravel(order="F").tolist())
        vol = read_nifti(on_disk(build_file(dims=(3, 5, 7),
                                            datatype=datatype,
                                            payload=payload)))
        assert vol.data.dtype == np.uint8
        assert vol.data.flags.f_contiguous
        assert not vol.data.flags.writeable
        assert np.array_equal(vol.data, DISTINCT)


class TestDatatypes:
    """Every accepted datatype code, in either byte order, reads back
    the labels it stores as uint8, and rejects any other label naming
    the file, the value and the voxel."""

    @pytest.mark.parametrize("byteorder", ["<", ">"])
    @pytest.mark.parametrize("datatype", [2, 256, 4, 512, 8, 16, 64])
    def test_round_trip_by_code(self, on_disk, tmp_path, datatype,
                                byteorder):
        path = on_disk(encode_as(DISTINCT, (0.5, 1.0, 2.0), datatype,
                                 byteorder))
        vol = read_nifti(path)
        assert vol.data.dtype == np.uint8
        assert vol.spacing == (0.5, 1.0, 2.0)
        assert vol.data.flags.f_contiguous
        assert np.array_equal(vol.data, DISTINCT)
        write_nifti(vol, tmp_path / "back.nii")
        assert np.array_equal(read_nifti(tmp_path / "back.nii").data,
                              DISTINCT)

    @pytest.mark.parametrize("byteorder", ["<", ">"])
    @pytest.mark.parametrize("datatype", [2, 256, 4, 512, 8, 16, 64])
    def test_label_3_names_file_value_and_voxel(self, on_disk, datatype,
                                                byteorder):
        data = np.zeros((3, 2, 2), np.int64)
        data[0, 1, 1] = data[2, 0, 1] = 3   # x-fastest: (2, 0, 1) first
        path = on_disk(encode_as(data, (1, 1, 3), datatype, byteorder))
        with pytest.raises(InvalidLabelError) as err:
            read_nifti(path)
        assert str(err.value) == (f"{path}: label 3 at voxel (2, 0, 1) is "
                                  f"outside {{0, 1, 2}}")
        assert err.value.value == 3
        assert err.value.coordinate == (2, 0, 1)

    @pytest.mark.parametrize("datatype", [256, 4, 8, 16, 64])
    def test_negative_label_names_file_value_and_voxel(self, on_disk,
                                                       datatype):
        data = np.zeros((2, 2, 1), np.int64)
        data[0, 1, 0] = -3
        path = on_disk(encode_as(data, (1, 1, 3), datatype, ">"))
        with pytest.raises(InvalidLabelError, match="-3") as err:
            read_nifti(path)
        assert str(path) in str(err.value)
        assert err.value.coordinate == (0, 1, 0)

    def test_float64_rounds_ties_away_from_zero(self, on_disk):
        vals = [0.0, 0.49999999999, 0.5, 1.5, 2.49999999999, 1.0]
        blob = build_file(dims=(6, 1, 1), datatype=64,
                          payload=struct.pack("<6d", *vals))
        vol = read_nifti(on_disk(blob))
        assert vol.data.dtype == np.uint8
        assert list(vol.data[:, 0, 0]) == [0, 0, 1, 2, 2, 1]

    def test_float64_beyond_int32_is_rejected(self, on_disk):
        blob = build_file(dims=(2, 1, 1), datatype=64,
                          payload=struct.pack("<2d", 1.0, 2.0**31))
        with pytest.raises(InvalidLabelError, match="outside") as err:
            read_nifti(on_disk(blob))
        assert err.value.value == 2.0**31
        assert err.value.coordinate == (1, 0, 0)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("byteorder", ["<", ">"])
    def test_negative_spacing_names_the_file_and_axis(self, on_disk, axis,
                                                      byteorder):
        pixdim = [0.96, 0.95, 3.0]
        pixdim[axis] = -pixdim[axis]
        path = on_disk(build_file(pixdim=tuple(pixdim), payload=bytes(4),
                                  byteorder=byteorder))
        with pytest.raises(FormatError, match=(
                rf"negative voxel spacing pixdim\[{axis + 1}\] = "
                rf"-\S+ on the {'xyz'[axis]} axis")) as err:
            read_nifti(path)
        assert str(path) in str(err.value)


class TestHeaderMeaning:
    """Header fields that change what the voxels mean are honoured or
    rejected, naming the file."""

    @pytest.mark.parametrize("byteorder", ["<", ">"])
    @pytest.mark.parametrize("offset", [348.0, 349.0, 350.0, 351.0, 351.5,
                                        1.0, 100.0, 347.0, -16.0])
    def test_vox_offset_inside_the_extension_bytes(self, on_disk, offset,
                                                   byteorder):
        blob = bytearray(build_file(payload=bytes([0, 1, 1, 0]),
                                    byteorder=byteorder))
        struct.pack_into(byteorder + "f", blob, 108, offset)
        path = on_disk(bytes(blob))
        with pytest.raises(FormatError, match=(
                rf"vox_offset {offset:g} starts the payload inside the "
                rf"extension bytes")) as err:
            read_nifti(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("offset", [0.0, 352.0, 356.0])
    def test_vox_offset_zero_means_352(self, on_disk, offset):
        # the payload sits at 352, or at 356 after four more bytes
        blob = bytearray(build_file(payload=bytes([0, 1, 1, 0]),
                                    vox_offset=max(offset, 352.0)))
        struct.pack_into("<f", blob, 108, offset)
        vol = read_nifti(on_disk(bytes(blob)))
        assert vol.data.ravel(order="F").tolist() == [0, 1, 1, 0]

    @pytest.mark.parametrize("byteorder", ["<", ">"])
    @pytest.mark.parametrize("offset", [352.5, 355.5])
    def test_fractional_vox_offset_is_rejected(self, on_disk, offset,
                                               byteorder):
        # the payload sits at 356; truncating 355.5 would read it from
        # 355 as [0, 0, 1, 1]
        blob = bytearray(build_file(payload=bytes([0, 1, 1, 0]),
                                    vox_offset=356.0, byteorder=byteorder))
        struct.pack_into(byteorder + "f", blob, 108, offset)
        path = on_disk(bytes(blob))
        with pytest.raises(FormatError, match=(
                rf"vox_offset {offset:g} is not a whole byte offset")) as err:
            read_nifti(path)
        assert str(path) in str(err.value)

    # byte 123: spatial code in bits 0-2, temporal code in bits 3-5
    @pytest.mark.parametrize("byteorder", ["<", ">"])
    @pytest.mark.parametrize("units", [0, 2, 2 | 8, 2 | 16, 0 | 24])
    def test_mm_or_unknown_units_read_as_mm(self, on_disk, units, byteorder):
        blob = bytearray(build_file(pixdim=(0.96, 0.95, 3.0),
                                    payload=bytes([0, 1, 1, 0]),
                                    byteorder=byteorder))
        blob[123] = units
        vol = read_nifti(on_disk(bytes(blob)))
        assert vol.spacing == pytest.approx((0.96, 0.95, 3.0), abs=1e-6)
        assert vol.data.sum() == 2

    @pytest.mark.parametrize("units, name", [
        (1, "metre"), (3, "micron"), (1 | 8, "metre"), (3 | 16, "micron"),
        (4, "not a NIfTI-1 unit"), (5, "not a NIfTI-1 unit"),
        (6, "not a NIfTI-1 unit"), (7, "not a NIfTI-1 unit")])
    def test_other_spatial_units_are_rejected(self, on_disk, units, name):
        # a metre file with pixdim 0.001 would read a 4-voxel lesion as
        # 1.2e-11 ml if its units were taken for mm
        blob = bytearray(build_file(pixdim=(0.001, 0.001, 0.003),
                                    payload=bytes([1, 1, 1, 1])))
        blob[123] = units
        path = on_disk(bytes(blob))
        with pytest.raises(FormatError, match=(
                rf"spatial units code {units & 7} \({name}\)")) as err:
            read_nifti(path)
        assert str(path) in str(err.value)

    def test_writer_says_mm(self, tmp_path):
        write_nifti(labels_from([], (2, 2, 1)), tmp_path / "mm.nii")
        assert (tmp_path / "mm.nii").read_bytes()[123] == 2


def _gzip(blob: bytes) -> bytes:
    """``blob`` as one gzip member: level 6, mtime 0, no file name."""
    buf = io.BytesIO()
    with gzip.GzipFile(filename="", mode="wb", fileobj=buf, mtime=0,
                       compresslevel=6) as gz:
        gz.write(blob)
    return buf.getvalue()


# every dtype a volume, a mask or a real-valued map may hand the writers
_WRITER_INPUTS = {
    "write_nifti": ("bool", "u1", "i1", "i2", "u2", "i4"),
    "write_nifti_real": ("f8", "f4", "i4", "bool"),
}


@st.composite
def _writer_inputs(draw):
    writer = draw(st.sampled_from(sorted(_WRITER_INPUTS)))
    dtype = np.dtype(draw(st.sampled_from(_WRITER_INPUTS[writer])))
    shape = tuple(draw(st.integers(1, 6)) for _ in range(3))
    if dtype.kind == "f":
        elements = st.floats(-1e6, 1e6, width=32)
    elif dtype.kind == "b":
        elements = st.booleans()
    elif writer == "write_nifti":
        elements = st.integers(0, 2)
    else:
        elements = st.integers(0, 255)
    data = draw(hnp.arrays(dtype, shape, elements=elements))
    order = draw(st.sampled_from("CF"))
    data = np.asfortranarray(data) if order == "F" else \
        np.ascontiguousarray(data)
    return writer, data


class TestWriterBytes:
    """A write equals the header plus the whole x-fastest payload in one
    blob, gzipped in one piece for .nii.gz, whatever the input's dtype
    and order."""

    @settings(max_examples=150, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_writer_inputs(), st.sampled_from([".nii", ".nii.gz"]))
    def test_bytes_are_header_and_payload(self, tmp_path, drawn, suffix):
        writer, data = drawn
        spacing = (0.96, 0.95, 3.0)
        path = tmp_path / f"out{suffix}"
        if writer == "write_nifti":
            volume = (BinaryMask(data, spacing) if data.dtype == bool
                      else LabelVolume(data, spacing))
            write_nifti(volume, path)
            code, payload = 2, data.astype("<u1")
        else:
            write_nifti_real(data, spacing, path)
            code, payload = 16, data.astype("<f4")
        blob = (_pack_header(data.shape, spacing, code) + bytes(4)
                + payload.tobytes("F"))
        if suffix == ".nii.gz":
            blob = _gzip(blob)
        assert path.read_bytes() == blob

    def test_a_map_wider_than_the_deflate_window(self, tmp_path):
        # each 256 KB plane spans the 32 KB window many times over, which
        # the drawn grids of at most 6 voxels a side never do
        rng = np.random.default_rng(22)
        rates = np.zeros((256, 256, 48), dtype=np.float64, order="F")
        box = rates[64:192, 64:192, 12:36]
        hit = rng.random(box.shape) < 0.02
        box[hit] = rng.random(np.count_nonzero(hit))
        spacing = (0.96, 0.95, 3.0)
        path = tmp_path / "rates.nii.gz"
        write_nifti_real(rates, spacing, path)
        blob = (_pack_header(rates.shape, spacing, 16) + bytes(4)
                + rates.astype("<f4").tobytes("F"))
        assert path.read_bytes() == _gzip(blob)

    @pytest.mark.parametrize("planes", [1, 2, 3, 5, 1000])
    def test_every_run_length_writes_the_same_bytes(self, tmp_path,
                                                    monkeypatch, planes):
        # 7 planes, so runs of 2, 3 and 5 planes end on a shorter run;
        # the float map is C-ordered float64, so each run is cast
        rng = np.random.default_rng(23)
        spacing = (0.96, 0.95, 3.0)
        labels = np.asfortranarray(rng.integers(0, 3, (40, 30, 7)),
                                   dtype=np.uint8)
        rates = rng.random((40, 30, 7))
        for data, code, dtype in ((labels, 2, "<u1"), (rates, 16, "<f4")):
            monkeypatch.setattr(nifti, "_RUN_BYTES",
                                planes * 40 * 30 * np.dtype(dtype).itemsize)
            path = tmp_path / f"run{code}.nii.gz"
            if code == 2:
                write_nifti(LabelVolume(data, spacing), path)
            else:
                write_nifti_real(data, spacing, path)
            blob = (_pack_header(data.shape, spacing, code) + bytes(4)
                    + data.astype(dtype).tobytes("F"))
            assert path.read_bytes() == _gzip(blob), code


def _valid_blobs() -> list[bytes]:
    labels = np.arange(12, dtype=np.int32).reshape(3, 2, 2) % 3
    flat = labels.ravel(order="F").tolist()
    return [build_file(dims=(3, 2, 2), datatype=2, payload=bytes(flat)),
            build_file(dims=(3, 2, 2), datatype=4, byteorder=">",
                       payload=struct.pack(">12h", *flat)),
            build_file(dims=(3, 2, 2), datatype=16, scaling=(1.0, 0.0),
                       payload=struct.pack("<12f", *flat)),
            encode_as(labels, (1.0, 1.0, 3.0), 256),
            encode_as(labels, (1.0, 1.0, 3.0), 512, ">"),
            encode_as(labels, (1.0, 1.0, 3.0), 8),
            encode_as(labels, (1.0, 1.0, 3.0), 64, ">")]


@st.composite
def _damaged_files(draw) -> bytes:
    """A valid file with some bytes overwritten, the header fields and
    the payload more often than the rest, then maybe cut short."""
    blob = bytearray(draw(st.sampled_from(_valid_blobs())))
    for _ in range(draw(st.integers(1, 6))):
        at = draw(st.integers(0, len(blob) - 1) | st.integers(40, 123)
                  | st.integers(352, len(blob) - 1))
        blob[at] = draw(st.integers(0, 255))
    cut = draw(st.none() | st.integers(0, len(blob)))
    return bytes(blob[:cut])


class TestArbitraryBytes:
    """Any bytes either parse or raise a ``SegEvalError`` naming the
    file, with no warning on the way."""

    @pytest.mark.parametrize("suffix", [".nii", ".nii.gz"])
    def test_parses_or_names_the_file(self, tmp_path, suffix):
        path = tmp_path / f"any{suffix}"

        @settings(max_examples=300, derandomize=True, deadline=None,
                  suppress_health_check=[HealthCheck.function_scoped_fixture])
        @given(st.binary(max_size=600) | _damaged_files(), st.booleans())
        def check(raw, compress):
            if suffix == ".nii.gz" and compress:
                raw = gzip.compress(raw, mtime=0)
            path.write_bytes(raw)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    vol = read_nifti(path)
                except SegEvalError as exc:
                    assert str(path) in str(exc)
                else:
                    assert vol.data.dtype == np.uint8
                    assert vol.data.max(initial=0) <= 2

        check()
