"""The manifest and result-CSV readers.

A manifest is read as subjects: each with one reference, one scanner
and its rows in manifest order. Every malformed file, down to arbitrary
bytes, is a ``SegEvalError`` that names the file.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import table_from_columns
from seg_eval.errors import ParseError, SegEvalError
from seg_eval.reportio import (MANIFEST_COLUMNS, RESULT_COLUMNS,
                               read_manifest, read_result_csv,
                               write_result_csv)

HEADER = ",".join(MANIFEST_COLUMNS)


def manifest_at(tmp_path, *lines: str) -> Path:
    path = tmp_path / "m.csv"
    path.write_text("\n".join([HEADER, *lines]) + "\n")
    return path


class TestReadManifest:
    def test_subjects_in_order_of_first_appearance(self, tmp_path):
        path = manifest_at(tmp_path,
                           "a,s1,scA,s1_ref.nii,a1.nii",
                           "a,s0,scB,sub/s0_ref.nii,a0.nii",
                           "b,s1,scA,s1_ref.nii,b1.nii",
                           "b,s0,scB,sub/s0_ref.nii,b0.nii")
        subjects = read_manifest(path)
        assert [s.subject_id for s in subjects] == ["s1", "s0"]
        assert [s.scanner_id for s in subjects] == ["scA", "scB"]
        assert [s.reference_path for s in subjects] \
            == [tmp_path / "s1_ref.nii", tmp_path / "sub" / "s0_ref.nii"]
        assert [(r.line, r.method_id, r.prediction_path)
                for r in subjects[0].rows] \
            == [(2, "a", tmp_path / "a1.nii"), (4, "b", tmp_path / "b1.nii")]
        assert [r.line for r in subjects[1].rows] == [3, 5]

    def test_equal_joined_references_are_one_reference(self, tmp_path):
        path = manifest_at(tmp_path, "a,s1,sc,r.nii,a.nii",
                           "b,s1,sc,./r.nii,b.nii")
        subject, = read_manifest(path)
        assert len(subject.rows) == 2

    def test_a_subject_with_two_references_is_rejected(self, tmp_path):
        path = manifest_at(tmp_path, "a,s1,sc,r.nii,a.nii",
                           "a,s2,sc,q.nii,b.nii",
                           "b,s1,sc,other.nii,b.nii")
        with pytest.raises(ParseError, match="row 4") as info:
            read_manifest(path)
        assert str(path) in str(info.value)
        assert "'other.nii'" in str(info.value) and "row 2" in str(info.value)
        assert info.value.row == 4

    def test_a_subject_under_two_scanners_is_rejected(self, tmp_path):
        path = manifest_at(tmp_path, "a,s1,scA,r.nii,a.nii",
                           "b,s1,scB,r.nii,b.nii")
        with pytest.raises(ParseError, match="row 3") as info:
            read_manifest(path)
        assert str(path) in str(info.value) and "'scB'" in str(info.value)

    @pytest.mark.parametrize("lines, message", [
        ((), "no rows"),
        (("a,s1,sc,r.nii",), "row 2 has 4 cells"),
        (("a,s1,sc,,a.nii",), "empty path"),
        (("a,s1,sc,r.nii,a\0.nii",), "NUL"),
        (("a,s1,sc,r.nii,a.nii", "a,s1,sc,r.nii,b.nii"), "duplicate"),
    ])
    def test_malformed_rows_are_rejected(self, tmp_path, lines, message):
        path = manifest_at(tmp_path, *lines)
        with pytest.raises(ParseError, match=message) as info:
            read_manifest(path)
        assert str(path) in str(info.value)

    def test_non_utf8_is_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes((HEADER + "\na,s\xe9,sc,r.nii,a.nii\n")
                         .encode("latin-1"))
        with pytest.raises(ParseError, match="UTF-8") as info:
            read_manifest(path)
        assert str(path) in str(info.value)


class TestReadResultCsv:
    def test_a_broken_table_names_the_file(self, tmp_path):
        table = table_from_columns({"a": {"dsc": [0.9, 0.8]},
                                    "b": {"dsc": [0.7, 0.6]}},
                                   {"s000": "x", "s001": "y"})
        records = list(table.records)
        path = tmp_path / "r.csv"
        write_result_csv(records[:-1], path)
        with pytest.raises(ParseError, match="subject set") as info:
            read_result_csv(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("column", ["dsc", "h95_mm"])
    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan"])
    def test_a_non_finite_cell_names_its_row_and_column(self, tmp_path,
                                                        column, cell):
        table = table_from_columns({"a": {"dsc": [0.9, 0.8]},
                                    "b": {"dsc": [0.7, 0.6]}})
        path = tmp_path / "r.csv"
        write_result_csv(list(table.records), path)
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[RESULT_COLUMNS.index(column)] = cell
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="not a finite number") as info:
            read_result_csv(path)
        assert str(path) in str(info.value)
        assert f"row 3, column {column}: {cell!r}" in str(info.value)
        assert (info.value.row, info.value.column) == (3, column)

    def test_header_only_names_the_file(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(",".join(RESULT_COLUMNS) + "\n")
        with pytest.raises(ParseError) as info:
            read_result_csv(path)
        assert str(path) in str(info.value)


BOM = b"\xef\xbb\xbf"   # the UTF-8 byte-order mark


def _records(tmp_path, reader):
    """A well-formed input file for ``reader`` and what it reads as."""
    if reader is read_manifest:
        path = manifest_at(tmp_path, "a,s1,scA,s1_ref.nii,a1.nii",
                           "b,s1,scA,s1_ref.nii,b1.nii")
        return path, read_manifest(path)
    path = tmp_path / "r.csv"
    write_result_csv(list(table_from_columns(
        {"a": {"dsc": [0.9, 0.8]}, "b": {"dsc": [0.7, 0.6]}}).records), path)
    return path, read_result_csv(path).records


@pytest.mark.parametrize("reader", [read_manifest, read_result_csv])
def test_a_byte_order_mark_is_skipped(tmp_path, reader):
    plain, want = _records(tmp_path, reader)
    marked = tmp_path / f"bom_{plain.name}"
    marked.write_bytes(BOM + plain.read_bytes())
    got = reader(marked)
    assert (got if reader is read_manifest else got.records) == want


@pytest.mark.parametrize("prefix", [b"", BOM], ids=["plain", "bom"])
@pytest.mark.parametrize("reader, columns", [
    (read_manifest, MANIFEST_COLUMNS),
    (read_result_csv, RESULT_COLUMNS),
])
def test_non_utf8_is_an_error_naming_the_file(tmp_path, reader, columns,
                                             prefix):
    path = tmp_path / "x.csv"
    path.write_bytes(prefix + (",".join(columns) + "\na,s\xe9\n")
                     .encode("latin-1"))
    with pytest.raises(ParseError, match="not UTF-8") as info:
        reader(path)
    assert str(path) in str(info.value)


def _files_like(columns: tuple[str, ...]):
    """Arbitrary bytes, and the header followed by rows of about the
    right width built from cells both valid and not."""
    cell = st.one_of(st.sampled_from(["", "0.5", "1", "x", "s0", "r.nii"]),
                     st.text(max_size=4))
    row = st.lists(cell, min_size=len(columns) - 1,
                   max_size=len(columns) + 1).map(",".join)
    text = st.lists(row, max_size=4).map(
        lambda rows: "\n".join([",".join(columns), *rows]))
    return st.one_of(st.binary(max_size=200),
                     text.map(lambda t: t.encode("utf-8")),
                     st.tuples(text, st.binary(max_size=20)).map(
                         lambda tb: tb[0].encode("utf-8") + tb[1]))


@pytest.mark.parametrize("reader, columns", [
    (read_manifest, MANIFEST_COLUMNS),
    (read_result_csv, RESULT_COLUMNS),
])
def test_any_bytes_parse_or_raise_an_error_naming_the_file(tmp_path, reader,
                                                           columns):
    path = tmp_path / "input.csv"

    @settings(max_examples=300, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(_files_like(columns))
    def check(raw):
        path.write_bytes(raw)
        try:
            reader(path)
        except SegEvalError as exc:
            assert str(path) in str(exc)

    check()
