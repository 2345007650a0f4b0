"""The command line, driven end to end through ``main()``.

Every test funnels through the public entry point with a real argv
list and real files, so argument wiring, exit codes, and on-disk
output are all exercised together. Expected values come from direct
library calls on the same inputs.
"""

from __future__ import annotations

import ast
import gzip
import hashlib
import json
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import seg_eval
from helpers import (encode_as, labels_from, table_from_columns,
                     write_labels)
from seg_eval import cli, ranking
from seg_eval.analysis import fn_fp_maps, summarize_cohort
from seg_eval.cli import main
from seg_eval.fusion import StapleParams, staple_fuse
from seg_eval.metrics import evaluate_pair
from seg_eval.nifti import read_nifti, write_nifti
from seg_eval.ranking import (BootstrapConfig, final_rank, interscanner_rank,
                              rank_with_ci)
from seg_eval.reportio import (dump_json, rank_report, read_result_csv,
                               write_rank_csv, write_result_csv)
from seg_eval.volume import BinaryMask, LabelVolume, binarize_challenge


def read_real(path) -> np.ndarray:
    """Decode a float32 map by hand; the package reader is for labels."""
    raw = Path(path).read_bytes()
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    dim = struct.unpack_from("<8h", raw, 40)
    dims = tuple(dim[1:1 + dim[0]])
    datatype, = struct.unpack_from("<h", raw, 70)
    assert datatype == 16
    offset = int(struct.unpack_from("<f", raw, 108)[0])
    count = int(np.prod(dims))
    flat = np.frombuffer(raw, dtype="<f4", count=count, offset=offset)
    return flat.reshape(dims, order="F")


def write_manifest(path, rows) -> Path:
    lines = ["method_id,subject_id,scanner_id,reference_path,prediction_path"]
    lines += [",".join(r) for r in rows]
    Path(path).write_text("\n".join(lines) + "\n")
    return Path(path)


def run_child(code: str, *args: str, cwd,
              **env: str) -> subprocess.CompletedProcess:
    """Run ``python -c code args`` in a fresh interpreter, with ``env``
    added to this process's environment."""
    # Put the directory holding the imported seg_eval first, so the
    # child runs the same code as this process.
    src = str(Path(seg_eval.__file__).parent.parent)
    env = {**os.environ, **env, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, timeout=60,
                          cwd=cwd, env=env)


def read_pyproject() -> dict:
    """The checkout's ``pyproject.toml``; tomllib is stdlib from 3.11."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    path = Path(__file__).resolve().parent.parent / "pyproject.toml"
    return tomllib.loads(path.read_text())


REF_COORDS = [(1, 1, 1), (4, 4, 2), (5, 4, 2), (6, 4, 2)]  # sizes 1 and 3
SHIFTED_COORDS = [(2, 1, 1), (4, 4, 2), (5, 4, 2), (6, 4, 2)]


@pytest.fixture
def pair_on_disk(tmp_path):
    ref = labels_from(REF_COORDS, (8, 8, 4))
    pred = labels_from(SHIFTED_COORDS, (8, 8, 4))
    ref_p = tmp_path / "ref.nii.gz"
    pred_p = tmp_path / "pred.nii.gz"
    write_nifti(ref, ref_p)
    write_nifti(pred, pred_p)
    return ref, pred, ref_p, pred_p


class TestEvaluate:
    def test_stdout_json_matches_library(self, pair_on_disk, capsys):
        ref, pred, ref_p, pred_p = pair_on_disk
        rc = main(["evaluate", str(ref_p), str(pred_p)])
        assert rc == 0
        body = json.loads(capsys.readouterr().out)
        expected = evaluate_pair(ref, pred)
        assert body["metrics"] == expected.as_dict()
        assert body["config"] == {"connectivity": 26}
        assert body["schema_version"] == 1
        assert body["tool"]["name"] == "seg-eval"

    def test_output_file_keeps_stdout_quiet(self, pair_on_disk, capsys,
                                            tmp_path):
        _, _, ref_p, pred_p = pair_on_disk
        out = tmp_path / "report.json"
        rc = main(["evaluate", str(ref_p), str(pred_p), "-o", str(out)])
        assert rc == 0
        assert capsys.readouterr().out == ""
        body = json.loads(out.read_text())
        assert body["metrics"]["dsc"] is not None

    def test_undefined_metric_exits_2(self, tmp_path, capsys):
        ref = labels_from(REF_COORDS, (8, 8, 4))
        empty = labels_from([], (8, 8, 4))
        write_nifti(ref, tmp_path / "ref.nii")
        write_nifti(empty, tmp_path / "pred.nii")
        rc = main(["evaluate", str(tmp_path / "ref.nii"),
                   str(tmp_path / "pred.nii")])
        assert rc == 2
        body = json.loads(capsys.readouterr().out)
        assert body["metrics"]["h95_mm"] is None
        assert body["metrics"]["lavd"] is None
        assert body["metrics"]["avd_pct"] == 100.0

    def test_connectivity_flag_reaches_the_metrics(self, tmp_path, capsys):
        # two corner-touching voxels: one lesion at 26, two at 6
        vol = labels_from([(1, 1, 1), (2, 2, 2)], (6, 6, 6))
        p = tmp_path / "v.nii"
        write_nifti(vol, p)
        main(["evaluate", str(p), str(p)])
        wide = json.loads(capsys.readouterr().out)
        main(["evaluate", str(p), str(p), "--connectivity", "6"])
        narrow = json.loads(capsys.readouterr().out)
        assert wide["metrics"]["n_ref_lesions"] == 1
        assert narrow["metrics"]["n_ref_lesions"] == 2
        assert narrow["config"]["connectivity"] == 6

    @pytest.mark.parametrize("side", ["reference", "prediction"])
    def test_a_bad_label_names_its_file(self, pair_on_disk, tmp_path,
                                        capsys, side):
        _, _, ref_p, pred_p = pair_on_disk
        bad = np.zeros((8, 8, 4), dtype=np.uint8)
        bad[2, 2, 2] = 3
        bad_p = write_labels(tmp_path / "bad.nii.gz", bad)
        pair = (bad_p, pred_p) if side == "reference" else (ref_p, bad_p)
        assert main(["evaluate", *map(str, pair)]) == 1
        assert capsys.readouterr().err == (
            f"error: {bad_p}: label 3 at voxel (2, 2, 2) is outside "
            f"{{0, 1, 2}}\n")

    def test_missing_input_is_an_error(self, tmp_path, capsys):
        rc = main(["evaluate", str(tmp_path / "nope.nii"),
                   str(tmp_path / "nope.nii")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_a_grid_mismatch_names_both_files(self, pair_on_disk, tmp_path,
                                              capsys):
        _, _, ref_p, _ = pair_on_disk
        other = tmp_path / "other.nii.gz"
        write_nifti(labels_from([(1, 1, 1)], (8, 8, 5)), other)
        assert main(["evaluate", str(ref_p), str(other)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: reference {ref_p} and prediction {other} "
                       f"differ in dims: (8, 8, 4) vs (8, 8, 5)"]

    def test_truncated_gzip_is_an_error_naming_the_file(self, pair_on_disk,
                                                        tmp_path, capsys):
        _, _, ref_p, _ = pair_on_disk
        half = tmp_path / "half.nii.gz"
        raw = ref_p.read_bytes()
        half.write_bytes(raw[:len(raw) // 2])
        rc = main(["evaluate", str(half), str(ref_p)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert str(half) in err

    def test_bad_flag_value_is_a_usage_error(self, pair_on_disk, capsys):
        _, _, ref_p, pred_p = pair_on_disk
        rc = main(["evaluate", str(ref_p), str(pred_p),
                   "--connectivity", "5"])
        assert rc == 1
        assert "usage error:" in capsys.readouterr().err


@pytest.fixture
def batch_corpus(tmp_path):
    """Two subjects, two methods; method a reproduces the reference."""
    dims = (8, 8, 4)
    refs = {
        "s0": labels_from(REF_COORDS, dims),
        "s1": labels_from([(2, 2, 1), (5, 5, 2), (5, 6, 2)], dims),
    }
    preds = {
        ("a", "s0"): refs["s0"],
        ("a", "s1"): refs["s1"],
        ("b", "s0"): labels_from(SHIFTED_COORDS, dims),
        ("b", "s1"): labels_from([(2, 2, 1), (5, 5, 2)], dims),
    }
    for sid, vol in refs.items():
        write_nifti(vol, tmp_path / f"{sid}_ref.nii.gz")
    for (m, sid), vol in preds.items():
        write_nifti(vol, tmp_path / f"{sid}_{m}.nii.gz")
    rows = [(m, sid, "scannerA", f"{sid}_ref.nii.gz", f"{sid}_{m}.nii.gz")
            for m in ("a", "b") for sid in ("s0", "s1")]
    manifest = write_manifest(tmp_path / "manifest.csv", rows)
    return manifest, refs, preds, rows


class TestEvaluateBatch:
    def test_csv_matches_library_in_manifest_order(self, batch_corpus,
                                                   tmp_path):
        manifest, refs, preds, rows = batch_corpus
        out = tmp_path / "results.csv"
        rc = main(["evaluate-batch", str(manifest), "-o", str(out)])
        assert rc == 0
        table = read_result_csv(out)
        assert [(r.method_id, r.subject_id) for r in table.records] \
            == [(m, s) for m, s, *_ in rows]
        for rec in table.records:
            expected = evaluate_pair(
                refs[rec.subject_id],
                preds[(rec.method_id, rec.subject_id)]).as_dict()
            # the CSV schema carries every field except n_pred_lesions
            expected["n_pred_lesions"] = None
            assert rec.metrics.as_dict() == expected
            assert rec.scanner_id == "scannerA"

    def test_jobs_do_not_change_the_output(self, batch_corpus, tmp_path):
        manifest, *_ = batch_corpus
        one = tmp_path / "one.csv"
        two = tmp_path / "two.csv"
        assert main(["evaluate-batch", str(manifest), "-o", str(one),
                     "--jobs", "1"]) == 0
        assert main(["evaluate-batch", str(manifest), "-o", str(two),
                     "--jobs", "2"]) == 0
        assert one.read_bytes() == two.read_bytes()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_pinned_result_bytes(self, tmp_path, capsys, jobs):
        # label 2 is present, and two of the three references have tied
        # lesion sizes, so 8 of the 12 rows leave recall_large empty;
        # every float is written with repr, so a last-bit drift in any
        # metric (H95 above all) changes the digest
        corpus = tmp_path / "corpus"
        assert main(["synth", "--out-dir", str(corpus), "--subjects", "3",
                     "--methods", "4", "--dims", "32", "32", "8",
                     "--lesions", "3", "--size-range", "3", "5",
                     "--ignore-fraction", "0.2", "--seed", "1"]) == 0
        out = tmp_path / "results.csv"
        assert main(["evaluate-batch", str(corpus / "manifest.csv"),
                     "-o", str(out), "--jobs", jobs]) == 2
        assert "8 of 12 pairs" in capsys.readouterr().err
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "b4c5d28a589b255f7302c7c02debd3c93d7e8cf591af78f19d619e79cb84b78f")

    def test_jobs_do_not_change_a_chunked_output(self, tmp_path, capsys):
        # 5 subjects of 5 rows: neither 2 nor 3 workers divide the
        # subjects, and in method-major order no subject's rows are
        # adjacent, so each worker's results are scattered in the CSV
        corpus = tmp_path / "corpus"
        assert main(["synth", "--out-dir", str(corpus), "--subjects", "5",
                     "--methods", "5", "--scanners", "2", "--seed", "4",
                     "--dims", "16", "16", "8", "--lesions", "3",
                     "--size-range", "3", "15"]) == 0
        subject_major = corpus / "manifest.csv"
        header, *lines = subject_major.read_text().splitlines()
        method_major = corpus / "by_method.csv"
        method_major.write_text("\n".join(
            [header] + sorted(lines, key=lambda ln: ln.split(",")[0])) + "\n")
        outputs = {}
        for manifest in (subject_major, method_major):
            for jobs in ("1", "2", "3"):
                out = tmp_path / f"{manifest.stem}_jobs{jobs}.csv"
                assert main(["evaluate-batch", str(manifest),
                             "-o", str(out), "--jobs", jobs]) in (0, 2)
                outputs[manifest.stem, jobs] = out.read_bytes()
        capsys.readouterr()
        subject_rows = outputs["manifest", "1"].splitlines()
        method_rows = outputs["by_method", "1"].splitlines()
        assert len(subject_rows) == 1 + 25
        for stem in ("manifest", "by_method"):
            assert outputs[stem, "1"] == outputs[stem, "2"] \
                == outputs[stem, "3"]
        assert method_rows[0] == subject_rows[0]
        assert method_rows[1:] == sorted(
            subject_rows[1:], key=lambda ln: ln.split(b",")[0])
        assert method_rows[1:] != subject_rows[1:]

    def test_connectivity_flag_reaches_the_workers(self, tmp_path, capsys):
        # two corner-touching voxels: one lesion at 26, two at 6; two
        # subjects, so that two workers each score one
        write_nifti(labels_from([(1, 1, 1), (2, 2, 2)], (6, 6, 6)),
                    tmp_path / "v.nii")
        manifest = write_manifest(tmp_path / "m.csv", [
            ("m", sid, "sc", "v.nii", "v.nii") for sid in ("s0", "s1")])
        for flags, lesions in (([], 1), (["--connectivity", "6"], 2)):
            for jobs in ("1", "2"):
                out = tmp_path / f"r{lesions}-{jobs}.csv"
                # equal lesion sizes leave recall_large undefined
                assert main(["evaluate-batch", str(manifest), "-o", str(out),
                             "--jobs", jobs, *flags]) == 2
                assert [r.metrics.n_ref_lesions
                        for r in read_result_csv(out).records] \
                    == [lesions, lesions], (flags, jobs)

    def test_undefined_metrics_are_counted_on_stderr(self, tmp_path, capsys):
        ref = labels_from(REF_COORDS, (8, 8, 4))
        empty = labels_from([], (8, 8, 4))
        write_nifti(ref, tmp_path / "ref.nii")
        write_nifti(empty, tmp_path / "empty.nii")
        rows = [("a", "s0", "sc", "ref.nii", "ref.nii"),
                ("a", "s1", "sc", "ref.nii", "empty.nii")]
        manifest = write_manifest(tmp_path / "m.csv", rows)
        out = tmp_path / "r.csv"
        rc = main(["evaluate-batch", str(manifest), "-o", str(out)])
        assert rc == 2
        assert "1 of 2 pairs have undefined metrics" \
            in capsys.readouterr().err
        table = read_result_csv(out)
        assert table.records[1].metrics.lavd is None
        assert table.records[0].metrics.lavd == 0.0

    @pytest.mark.parametrize("value", ["2", "two", "0", "-3"])
    def test_the_environment_does_not_set_the_jobs(self, batch_corpus,
                                                   tmp_path, monkeypatch,
                                                   value):
        # the worker count comes from --jobs alone, never from the
        # environment, whether the value would be valid or not
        manifest, *_ = batch_corpus
        base = tmp_path / "base.csv"
        env = tmp_path / "env.csv"
        assert main(["evaluate-batch", str(manifest), "-o", str(base)]) == 0
        monkeypatch.setenv("SEG_EVAL_JOBS", value)
        assert main(["evaluate-batch", str(manifest), "-o", str(env)]) == 0
        assert base.read_bytes() == env.read_bytes()

    def test_jobs_flag_must_be_positive(self, batch_corpus, tmp_path,
                                        capsys):
        manifest, *_ = batch_corpus
        rc = main(["evaluate-batch", str(manifest),
                   "-o", str(tmp_path / "r.csv"), "--jobs", "0"])
        assert rc == 1
        assert "usage error:" in capsys.readouterr().err

    def test_bad_manifest_is_an_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("who,what\n1,2\n")
        rc = main(["evaluate-batch", str(bad),
                   "-o", str(tmp_path / "r.csv")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_a_bad_label_names_its_row_and_file(self, batch_corpus,
                                                tmp_path, capsys, jobs):
        manifest, *_ = batch_corpus
        bad = np.zeros((8, 8, 4), dtype=np.uint8)
        bad[3, 4, 2] = 3
        write_labels(tmp_path / "s1_b.nii.gz", bad)
        rc = main(["evaluate-batch", str(manifest),
                   "-o", str(tmp_path / "r.csv"), "--jobs", jobs])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and err.startswith("error:")
        # rows run a-s0, a-s1, b-s0, b-s1 from line 2
        assert "row 5" in err
        # the reader names the file after the row
        assert (f"{tmp_path / 's1_b.nii.gz'}): {tmp_path / 's1_b.nii.gz'}: "
                f"label 3 at voxel (3, 4, 2) is outside {{0, 1, 2}}") in err

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_a_bad_reference_label_names_its_subjects_first_row(
            self, batch_corpus, tmp_path, capsys, jobs):
        manifest, *_ = batch_corpus
        bad = np.zeros((8, 8, 4), dtype=np.uint8)
        bad[5, 1, 3] = 3
        write_labels(tmp_path / "s1_ref.nii.gz", bad)
        rc = main(["evaluate-batch", str(manifest),
                   "-o", str(tmp_path / "r.csv"), "--jobs", jobs])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and err.startswith("error:")
        # s1's rows are lines 3 and 5
        assert f"row 3 ({tmp_path / 's1_ref.nii.gz'}, " in err
        assert (f"): {tmp_path / 's1_ref.nii.gz'}: label 3 at voxel "
                f"(5, 1, 3)") in err

    def test_a_missing_reference_names_its_subjects_first_row(
            self, batch_corpus, tmp_path, capsys):
        manifest, *_ = batch_corpus
        (tmp_path / "s1_ref.nii.gz").unlink()
        rc = main(["evaluate-batch", str(manifest),
                   "-o", str(tmp_path / "r.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "row 3" in err and str(tmp_path / "s1_ref.nii.gz") in err

    def test_a_subject_under_two_scanners_is_an_error(self, batch_corpus,
                                                      tmp_path, capsys):
        _, _, _, rows = batch_corpus
        rows = [r if (r[0], r[1]) != ("b", "s1")
                else (*r[:2], "scannerB", *r[3:]) for r in rows]
        manifest = write_manifest(tmp_path / "two.csv", rows)
        rc = main(["evaluate-batch", str(manifest),
                   "-o", str(tmp_path / "r.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert str(manifest) in err and "row 5" in err
        assert not (tmp_path / "r.csv").exists()


@pytest.fixture
def results_csv(tmp_path):
    columns = {
        "m_a": {"dsc": [0.91, 0.88, 0.93, 0.90],
                "lavd": [0.10, 0.12, 0.08, 0.11],
                "avd_pct": [30.0, 28.0, 35.0, 31.0]},
        "m_b": {"dsc": [0.84, 0.80, 0.86, 0.82],
                "lavd": [0.25, 0.22, 0.28, 0.24],
                "avd_pct": [12.0, 15.0, 11.0, 13.0]},
        "m_c": {"dsc": [0.70, 0.72, 0.69, 0.75],
                "lavd": [0.40, 0.38, 0.45, 0.41],
                "avd_pct": [55.0, 60.0, 52.0, 58.0]},
    }
    scanner_of = {"s000": "scA", "s001": "scB",
                  "s002": "scA", "s003": "scB"}
    table = table_from_columns(columns, scanner_of)
    path = tmp_path / "results.csv"
    write_result_csv(list(table.records), path)
    return path


class TestRank:
    def test_plain_rank_matches_library(self, results_csv, capsys):
        rc = main(["rank", str(results_csv), "--bootstrap", "0"])
        assert rc == 0
        body = json.loads(capsys.readouterr().out)
        rank = final_rank(read_result_csv(results_csv), "lavd")
        assert [m["method_id"] for m in body["methods"]] == list(rank.methods)
        for i, entry in enumerate(body["methods"]):
            assert entry["final_rank"] == rank.final[i]
            assert entry["position"] == rank.positions[i]
            assert "final_rank_ci" not in entry
        assert set(body["methods"][0]["metric_ranks"]) \
            == {"dsc", "h95_mm", "lavd", "recall", "f1"}
        assert body["cluster_boundaries"] is None
        assert "bootstrap" not in body
        assert body["volume_metric"] == "lavd"

    def test_volume_metric_switch(self, results_csv, capsys):
        rc = main(["rank", str(results_csv), "--bootstrap", "0",
                   "--volume-metric", "avd"])
        assert rc == 0
        body = json.loads(capsys.readouterr().out)
        ranks = body["methods"][0]["metric_ranks"]
        assert "avd_pct" in ranks and "lavd" not in ranks
        assert body["config"]["volume_metric"] == "avd"
        expected = final_rank(read_result_csv(results_csv), "avd")
        assert [m["method_id"] for m in body["methods"]] \
            == list(expected.methods)

    def test_bootstrap_output_is_deterministic(self, results_csv, capsys):
        argv = ["rank", str(results_csv), "--bootstrap", "64", "--seed", "3"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        body = json.loads(first)
        rank = rank_with_ci(read_result_csv(results_csv), "lavd",
                            BootstrapConfig(replicates=64, seed=3))
        for i, entry in enumerate(body["methods"]):
            assert entry["final_rank_ci"] == list(rank.final_ci[i])
        assert body["bootstrap"] == {"replicates": 64, "seed": 3,
                                     "confidence": 0.95, "redraws": 0}

    def test_rank_csv_companion(self, results_csv, tmp_path, capsys):
        out_csv = tmp_path / "rank.csv"
        rc = main(["rank", str(results_csv), "--bootstrap", "16",
                   "-o", str(tmp_path / "rank.json"), "--csv", str(out_csv)])
        assert rc == 0
        body = json.loads((tmp_path / "rank.json").read_text())
        lines = out_csv.read_text().splitlines()
        header = lines[0].split(",")
        assert header[:5] == ["method_id", "position", "final_rank",
                              "final_ci_low", "final_ci_high"]
        assert header[5:] == ["mean_dsc", "rank_dsc", "mean_f1", "rank_f1",
                              "mean_h95_mm", "rank_h95_mm",
                              "mean_lavd", "rank_lavd",
                              "mean_recall", "rank_recall"]
        for line, entry in zip(lines[1:], body["methods"]):
            cells = line.split(",")
            assert cells[0] == entry["method_id"]
            assert float(cells[2]) == entry["final_rank"]

    def test_no_bootstrap_writes_the_final_rank_bytes(self, results_csv,
                                                      tmp_path):
        rc = main(["rank", str(results_csv), "--bootstrap", "0",
                   "-o", str(tmp_path / "cli.json"),
                   "--csv", str(tmp_path / "cli.csv")])
        assert rc == 0
        rank = final_rank(read_result_csv(results_csv), "lavd")
        config = {"volume_metric": "lavd", "bootstrap": 0, "seed": 0,
                  "confidence": 0.95, "interscanner": False,
                  "interscanner_normalization": "minmax"}
        dump_json(rank_report(rank, config), tmp_path / "lib.json")
        write_rank_csv(rank, tmp_path / "lib.csv")
        for ext in ("json", "csv"):
            assert (tmp_path / f"cli.{ext}").read_bytes() \
                == (tmp_path / f"lib.{ext}").read_bytes()

    # SHA-256 of (rank.json, rank.csv) from `rank --bootstrap 300
    # --interscanner --csv` on _redraw_prone_csv: a new digest means new
    # bootstrap draws, and so new intervals for every table
    PINNED_RANK = {
        0: ("9e8a345700a07c1c0d8c3ea48c53ea77"
            "d076954d5fd4f29ced0d58e9b939bc02",
            "e2e593d3900164ad1e4c2cf0e7524bc8"
            "583adb109b4fac913a6f9f7c4b5870ef"),
        -5: ("8918898231c10273ba0b4e2b506e0f96"
             "c26296c5888ef0958e68a12f71fe30c2",
             "b5b178c25342588adae94c40eb602754"
             "23ba41e38904d9ae538dbd97f24093a6"),
        2**64 + 5: ("2cc6dfe30adbb79416bd8fb40b7c0823"
                    "106bdbfbadfdabd030407da759a3ff5a",
                    "be7f4a9cd7fc5b020f3b62ccc7b4b72c"
                    "5d832c2d0eac6bdec3a12807252f7d7c"),
    }

    @staticmethod
    def _redraw_prone_csv(path) -> Path:
        """Seven subjects on three scanners, with H95 missing on most
        of them, so some replicates must be redrawn; seven is odd, so a
        redraw starts on the buffered high half of a 64-bit word."""
        n = 7
        h95 = {"m_a": [1.5, None, None, None, 2.0, 3.5, None],
               "m_b": [None, 4.0, None, None, None, 3.0, 2.5],
               "m_c": [6.0, 5.5, None, 7.0, None, 6.5, 8.0]}
        columns = {m: {"dsc": [round(0.9 - 0.1 * j - 0.013 * ((3 * i + j) % 5),
                                     3) for i in range(n)],
                       "h95_mm": h95[m],
                       "lavd": [round(0.1 + 0.2 * j + 0.01 * ((i + 2 * j) % 4),
                                      3) for i in range(n)],
                       "recall": [round(0.8 - 0.05 * ((i * j + 1) % 6), 3)
                                  for i in range(n)]}
                   for j, m in enumerate(h95)}
        scanner_of = {f"s{i:03d}": f"sc{'ABC'[i % 3]}" for i in range(n)}
        table = table_from_columns(columns, scanner_of)
        write_result_csv(list(table.records), path)
        return path

    @pytest.mark.parametrize("seed", sorted(PINNED_RANK))
    def test_pinned_rank_bytes(self, tmp_path, seed):
        results = self._redraw_prone_csv(tmp_path / "results.csv")
        out, csv = tmp_path / "rank.json", tmp_path / "rank.csv"
        assert main(["rank", str(results), "--bootstrap", "300",
                     "--interscanner", "--seed", str(seed),
                     "-o", str(out), "--csv", str(csv)]) == 0
        assert json.loads(out.read_text())["bootstrap"]["redraws"] > 0
        digests = tuple(hashlib.sha256(p.read_bytes()).hexdigest()
                        for p in (out, csv))
        assert digests == self.PINNED_RANK[seed]

    @pytest.mark.parametrize("bootstrap", ["0", "200"])
    @pytest.mark.parametrize("table", ["redraw-prone", "synth"])
    def test_rank_csv_cells_are_the_json_values(self, tmp_path, capsys,
                                                 table, bootstrap):
        results = tmp_path / "results.csv"
        if table == "synth":
            corpus = tmp_path / "corpus"
            assert main(["synth", "--out-dir", str(corpus),
                         *LABEL2_SYNTH_ARGS]) == 0
            assert main(["evaluate-batch", str(corpus / "manifest.csv"),
                         "-o", str(results)]) == 2
        else:
            self._redraw_prone_csv(results)
        capsys.readouterr()
        out, csv = tmp_path / "rank.json", tmp_path / "rank.csv"
        assert main(["rank", str(results), "--bootstrap", bootstrap,
                     "-o", str(out), "--csv", str(csv)]) == 0
        methods = json.loads(out.read_text())["methods"]
        header, *rows = [line.split(",")
                         for line in csv.read_text().splitlines()]
        assert len(rows) == len(methods) == (4 if table == "synth" else 3)
        for cells, entry in zip(rows, methods):
            ci = entry.get("final_rank_ci")
            assert (ci is None) == (bootstrap == "0")
            low, high = map(repr, ci) if ci else ("", "")
            want = {"method_id": entry["method_id"],
                    "position": str(entry["position"]),
                    "final_rank": repr(entry["final_rank"]),
                    "final_ci_low": low, "final_ci_high": high}
            for name, rank in entry["metric_ranks"].items():
                want[f"mean_{name}"] = repr(entry["means"][name])
                want[f"rank_{name}"] = repr(rank)
            assert dict(zip(header, cells)) == want

    def test_rank_csv_is_utf8_under_an_ascii_locale(self, tmp_path):
        table = table_from_columns({"méthode": {"dsc": [0.9, 0.8, 0.7]},
                                    "m_b": {"dsc": [0.6, 0.5, 0.4]}})
        write_result_csv(list(table.records), tmp_path / "res.csv")
        code = "import sys; from seg_eval.cli import main; sys.exit(main())"
        out = {}
        for name, env in (("ascii", {"PYTHONUTF8": "0", "LC_ALL": "C",
                                     "PYTHONCOERCECLOCALE": "0"}),
                          ("utf8", {"PYTHONUTF8": "1"})):
            proc = run_child(code, "rank", "res.csv", "--bootstrap", "0",
                             "--csv", f"{name}.csv", cwd=tmp_path, **env)
            assert proc.returncode == 0, proc.stderr
            out[name] = (tmp_path / f"{name}.csv").read_bytes()
        assert "méthode" in out["ascii"].decode("utf-8")
        assert out["ascii"] == out["utf8"]

    def test_interscanner_block(self, results_csv, capsys):
        rc = main(["rank", str(results_csv), "--bootstrap", "0",
                   "--interscanner"])
        assert rc == 0
        body = json.loads(capsys.readouterr().out)
        inter = interscanner_rank(read_result_csv(results_csv), "lavd",
                                  "minmax")
        block = body["interscanner"]
        assert block["normalization"] == "minmax"
        assert [m["method_id"] for m in block["methods"]] \
            == list(inter.methods)
        for i, entry in enumerate(block["methods"]):
            assert entry["robustness"] == inter.robustness[i]

    def test_interscanner_ordinal_flag(self, results_csv, capsys):
        rc = main(["rank", str(results_csv), "--bootstrap", "0",
                   "--interscanner",
                   "--interscanner-normalization", "ordinal"])
        assert rc == 0
        body = json.loads(capsys.readouterr().out)
        assert body["interscanner"]["normalization"] == "ordinal"

    def test_single_method_is_an_error(self, tmp_path, capsys):
        table = table_from_columns({"only": {"dsc": [0.9, 0.8]}})
        path = tmp_path / "one.csv"
        write_result_csv(list(table.records), path)
        rc = main(["rank", str(path), "--bootstrap", "0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert "ranking needs at least two methods" in err

    @pytest.mark.parametrize("columns, flags, message", [
        ({"a": {"dsc": [0.9]}, "b": {"dsc": [0.8]}}, ["--bootstrap", "20"],
         "bootstrap needs at least two subjects"),
        ({"a": {"h95_mm": [None, None]}, "b": {"h95_mm": [1.0, 2.0]}},
         ["--bootstrap", "0"], "has no defined h95_mm on any subject"),
        ({"a": {"dsc": [0.9, 0.8]}, "b": {"dsc": [0.7, 0.6]}},
         ["--bootstrap", "0", "--interscanner"],
         "inter-scanner ranking needs at least two scanners"),
    ])
    def test_a_table_that_cannot_be_ranked_names_the_file(
            self, tmp_path, capsys, columns, flags, message):
        path = tmp_path / "unrankable.csv"
        write_result_csv(list(table_from_columns(columns).records), path)
        rc = main(["rank", str(path), *flags])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ")
        assert message in err

    def test_endless_redraws_name_the_file(self, tmp_path, capsys,
                                           monkeypatch):
        monkeypatch.setattr(ranking, "_MAX_REDRAW", 2)
        path = tmp_path / "sparse.csv"
        table = table_from_columns({"a": {"h95_mm": [1.0] + [None] * 7},
                                    "b": {"h95_mm": [2.0] * 8}})
        write_result_csv(list(table.records), path)
        rc = main(["rank", str(path), "--bootstrap", "300"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: bootstrap replicate ")
        assert "kept drawing subject sets with an empty" in err

    @pytest.mark.parametrize("edit, message", [
        (lambda ln: ln.replace(",s001,scB,", ",s001,scA,", 1), "scanners"),
        (lambda ln: ln.replace("m_c,s003,", "m_c,s002,", 1), "duplicate"),
        (lambda ln: ln.replace("m_c,s003,", "m_c,s009,", 1), "subject set"),
        # the first 0.5 of an m_b row is its h95_mm cell
        (lambda ln: ln.replace(",0.5,", ",inf,", 1) if ln.startswith("m_b,")
         else ln, "column h95_mm: 'inf' is not a finite number"),
    ])
    def test_a_broken_table_is_an_error_naming_the_file(
            self, results_csv, tmp_path, capsys, edit, message):
        header, *lines = results_csv.read_text().splitlines()
        # edit the last line that the substitution changes
        last = max(i for i, ln in enumerate(lines) if edit(ln) != ln)
        lines[last] = edit(lines[last])
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join([header, *lines]) + "\n")
        rc = main(["rank", str(bad), "--bootstrap", "0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert str(bad) in err and message in err


@pytest.fixture
def raters_on_disk(tmp_path):
    base = np.zeros((12, 12, 8), dtype=bool)
    base[3:7, 3:7, 2:5] = True
    variants = [base.copy(), base.copy(), base.copy()]
    variants[1][7, 3, 2] = True
    variants[1][3, 7, 3] = True
    variants[2][3, 3, 2] = False
    variants[2][6, 6, 4] = False
    masks, paths = [], []
    for j, data in enumerate(variants):
        mask = BinaryMask(data, (1.0, 1.0, 1.0))
        path = tmp_path / f"rater{j}.nii.gz"
        write_nifti(mask, path)
        masks.append(mask)
        paths.append(str(path))
    return masks, paths


class TestStaple:
    # SHA-256 of (consensus .nii.gz, --weights-out .nii.gz, stdout) from
    # `staple` over the 20 method predictions of a one-subject `synth`
    # corpus: a new digest means a new vote table order or new EM sums
    PINNED_STAPLE = (
        "3356257bebca3c373244f8dc839b1bc2c9cdd64add3ec02f68d311e6f008a20e",
        "650e3d04ea88d22ecee649709c95da3fe755607e5d670471f58b950d755da8e3",
        "65560c0889d442f5c529e672cb9c0cf2638efbe0490dff23713709cacb756a08")

    def test_pinned_staple_bytes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)   # stdout names the relative paths
        assert main(["synth", "--out-dir", "c", "--subjects", "1",
                     "--methods", "20", "--dims", "24", "24", "8",
                     "--spacing", "0.96", "0.95", "3.0", "--lesions", "4",
                     "--seed", "7"]) == 0
        capsys.readouterr()
        raters = [f"c/sub-000_method_{m:02d}.nii.gz" for m in range(20)]
        assert main(["staple", *raters, "-o", "fused.nii.gz",
                     "--weights-out", "w.nii.gz"]) == 0
        printed = capsys.readouterr().out
        assert len(printed.splitlines()) == 22
        digests = tuple(hashlib.sha256(b).hexdigest() for b in (
            Path("fused.nii.gz").read_bytes(), Path("w.nii.gz").read_bytes(),
            printed.encode()))
        assert digests == self.PINNED_STAPLE

    def test_consensus_matches_library(self, raters_on_disk, tmp_path,
                                       capsys):
        masks, paths = raters_on_disk
        out = tmp_path / "consensus.nii.gz"
        rc = main(["staple", *paths, "-o", str(out)])
        assert rc == 0
        result = staple_fuse(masks, StapleParams())
        written = read_nifti(out)
        assert np.array_equal(written.data.astype(bool),
                              result.consensus.data)
        lines = capsys.readouterr().out.splitlines()
        assert re.fullmatch(
            r"prior \d+\.\d{6}  iterations \d+  converged (True|False)",
            lines[0])
        assert lines[1].startswith("rater")
        assert len(lines) == 2 + len(paths)
        for j, line in enumerate(lines[2:]):
            assert line.endswith(paths[j])

    def test_weights_out(self, raters_on_disk, tmp_path):
        masks, paths = raters_on_disk
        weights_path = tmp_path / "weights.nii.gz"
        rc = main(["staple", *paths, "-o", str(tmp_path / "c.nii.gz"),
                   "--weights-out", str(weights_path)])
        assert rc == 0
        result = staple_fuse(masks, StapleParams())
        assert np.array_equal(read_real(weights_path),
                              result.weights.astype(np.float32))

    def test_numeric_prior(self, raters_on_disk, tmp_path, capsys):
        masks, paths = raters_on_disk
        out = tmp_path / "c.nii.gz"
        rc = main(["staple", *paths, "-o", str(out), "--prior", "0.2"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("prior 0.200000")
        result = staple_fuse(masks, StapleParams(prior=0.2))
        written = read_nifti(out)
        assert np.array_equal(written.data.astype(bool),
                              result.consensus.data)

    def test_no_bbox_flag_is_a_usage_error(self, raters_on_disk, tmp_path,
                                           capsys):
        _, paths = raters_on_disk
        rc = main(["staple", *paths, "-o", str(tmp_path / "c.nii"),
                   "--no-bbox"])
        assert rc == 1
        assert "usage error:" in capsys.readouterr().err

    def test_a_grid_mismatch_names_both_files(self, raters_on_disk,
                                              tmp_path, capsys):
        _, paths = raters_on_disk
        odd = tmp_path / "odd.nii.gz"
        write_nifti(BinaryMask(np.ones((12, 12, 9), dtype=bool),
                               (1.0, 1.0, 1.0)), odd)
        out = tmp_path / "c.nii"
        assert main(["staple", *paths, str(odd), "-o", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: raters {paths[0]} and {odd} differ in dims: "
                       f"(12, 12, 8) vs (12, 12, 9)"]
        assert not out.exists()

    def test_bad_prior_is_a_usage_error(self, raters_on_disk, tmp_path,
                                        capsys):
        _, paths = raters_on_disk
        rc = main(["staple", *paths, "-o", str(tmp_path / "c.nii"),
                   "--prior", "lots"])
        assert rc == 1
        assert "usage error:" in capsys.readouterr().err

    def test_missing_input_is_an_error(self, tmp_path, capsys):
        rc = main(["staple", str(tmp_path / "gone.nii"),
                   "-o", str(tmp_path / "c.nii")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_all_empty_raters_are_named(self, tmp_path, capsys):
        paths = [str(write_labels(tmp_path / f"e{j}.nii.gz",
                                  np.zeros((4, 4, 2), np.uint8)))
                 for j in (1, 2)]
        out = tmp_path / "c.nii.gz"
        assert main(["staple", *paths, "-o", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {paths[0]}, {paths[1]}: every rater mask is empty"]
        assert not out.exists()

    def test_all_foreground_raters_are_named(self, tmp_path, capsys):
        paths = [str(write_labels(tmp_path / f"f{j}.nii.gz",
                                  np.ones((4, 4, 4), np.uint8)))
                 for j in (1, 2, 3)]
        out = tmp_path / "c.nii.gz"
        assert main(["staple", *paths, "-o", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {', '.join(paths)}: every rater "
                                 f"marks every voxel")
        assert not out.exists()
        assert main(["staple", *paths, "-o", str(out),
                     "--prior", "0.3"]) == 0
        assert "nan" not in capsys.readouterr().out

    def test_raters_voting_almost_everywhere_keep_finite_rates(self, tmp_path,
                                                               capsys):
        # 65 raters voting 9 voxels in 10 leave no background mass, so
        # the M-step has nothing to re-estimate the specificities from
        rng = np.random.default_rng(0)
        paths = [str(write_labels(tmp_path / f"r{j}.nii",
                                  (rng.random((5, 6, 7)) < 0.9)
                                  .astype(np.uint8)))
                 for j in range(65)]
        out = tmp_path / "c.nii"
        assert main(["staple", *paths, "-o", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "nan" not in printed and "converged True" in printed
        assert read_nifti(out).data.any()

    def test_a_label_above_2_names_the_rater(self, raters_on_disk, tmp_path,
                                             capsys):
        masks, paths = raters_on_disk
        data = masks[1].data.astype(np.uint8)
        data[4, 4, 2] = 7
        bad = write_labels(tmp_path / "rb.nii", data)
        out = tmp_path / "c.nii"
        assert main(["staple", paths[0], str(bad), "-o", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: {bad}: label 7 at voxel (4, 4, 2) is outside {{0, 1, 2}}"]
        assert not out.exists()

    def test_label_2_is_no_vote(self, raters_on_disk, tmp_path, capsys):
        masks, paths = raters_on_disk
        other = [(7, 3, 2), (4, 4, 3), (0, 0, 0)]   # WMH and background
        for label in (2, 0):
            data = masks[1].data.astype(np.uint8)
            for at in other:
                data[at] = label
            write_nifti(LabelVolume(data, (1.0, 1.0, 1.0)),
                        tmp_path / f"l{label}.nii")
        runs = []
        for name in ("l2", "l0"):
            out = tmp_path / f"{name}_c.nii"
            weights = tmp_path / f"{name}_w.nii"
            assert main(["staple", paths[0], str(tmp_path / f"{name}.nii"),
                         paths[2], "-o", str(out),
                         "--weights-out", str(weights)]) == 0
            printed = capsys.readouterr().out.replace(f"{name}.nii", "")
            runs.append((out.read_bytes(), weights.read_bytes(), printed))
        assert runs[0] == runs[1]


@pytest.fixture
def maps_corpus(tmp_path):
    dims = (6, 6, 4)
    pairs = {
        "s1": (labels_from([(1, 1, 1), (3, 3, 2)], dims),
               labels_from([(1, 1, 1), (4, 4, 2)], dims)),
        "s2": (labels_from([(1, 1, 1)], dims),
               labels_from([(1, 1, 1), (3, 3, 2)], dims)),
    }
    empty = labels_from([], dims)
    write_nifti(empty, tmp_path / "empty.nii")
    rows = []
    for sid, (ref, pred) in pairs.items():
        write_nifti(ref, tmp_path / f"{sid}_ref.nii")
        write_nifti(pred, tmp_path / f"{sid}_pred.nii")
        rows.append(("m", sid, "sc", f"{sid}_ref.nii", f"{sid}_pred.nii"))
    # a second method, listed after all of the first: a subject's rows
    # are not adjacent
    rows += [("n", sid, "sc", f"{sid}_ref.nii", "empty.nii")
             for sid in pairs]
    manifest = write_manifest(tmp_path / "m.csv", rows)
    subjects = [(binarize_challenge(ref),
                 [binarize_challenge(pred), binarize_challenge(empty)])
                for ref, pred in pairs.values()]
    return manifest, subjects


class TestMaps:
    def test_rate_maps_match_library(self, maps_corpus, tmp_path):
        manifest, subjects = maps_corpus
        fn_p = tmp_path / "fn.nii.gz"
        fp_p = tmp_path / "fp.nii.gz"
        count_p = tmp_path / "count.nii.gz"
        rc = main(["maps", str(manifest), "--fn-out", str(fn_p),
                   "--fp-out", str(fp_p),
                   "--lesion-count-out", str(count_p)])
        assert rc == 0
        maps = fn_fp_maps(subjects)
        assert np.array_equal(read_real(fn_p),
                              maps.fn_rate.astype(np.float32))
        assert np.array_equal(read_real(fp_p),
                              maps.fp_rate.astype(np.float32))
        assert np.array_equal(read_real(count_p),
                              maps.lesion_count.astype(np.float32))
        # both methods miss s1's (3, 3, 2) lesion voxel
        assert read_real(fn_p)[3, 3, 2] == 1.0
        # (1, 1, 1) is in both references, each listed twice
        assert read_real(count_p)[1, 1, 1] == 2.0
        assert read_real(fn_p)[1, 1, 1] == 0.5

    def test_a_prediction_on_reference_label_2_is_a_false_positive(
            self, tmp_path, capsys):
        # evaluate excises reference label 2 before scoring; maps keeps
        # it, so a prediction voxel there is a false positive
        dims = (6, 6, 4)
        write_nifti(labels_from([(1, 1, 1)], dims, ignore_coords=[(3, 3, 2)]),
                    tmp_path / "ref.nii")
        write_nifti(labels_from([(1, 1, 1), (3, 3, 2)], dims),
                    tmp_path / "pred.nii")
        # exit 2: one reference lesion leaves the size split undefined
        assert main(["evaluate", str(tmp_path / "ref.nii"),
                     str(tmp_path / "pred.nii")]) == 2
        assert json.loads(capsys.readouterr().out)["metrics"]["dsc"] == 1.0
        manifest = write_manifest(tmp_path / "m.csv",
                                  [("m", "s1", "sc", "ref.nii", "pred.nii")])
        assert main(["maps", str(manifest), "--fn-out",
                     str(tmp_path / "fn.nii"), "--fp-out",
                     str(tmp_path / "fp.nii")]) == 0
        fp_rate = read_real(tmp_path / "fp.nii")
        assert fp_rate[3, 3, 2] == 1.0
        assert fp_rate.sum() == 1.0

    def test_a_bad_label_names_its_row_and_file(self, maps_corpus, tmp_path,
                                                capsys):
        manifest, _ = maps_corpus
        bad = np.zeros((6, 6, 4), dtype=np.uint8)
        bad[1, 2, 3] = 3
        write_labels(tmp_path / "s2_pred.nii", bad)
        rc = main(["maps", str(manifest), "--fn-out",
                   str(tmp_path / "fn.nii.gz"), "--fp-out",
                   str(tmp_path / "fp.nii.gz")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and err.startswith("error:")
        assert "row 3" in err
        assert (f"{tmp_path / 's2_pred.nii'}): {tmp_path / 's2_pred.nii'}: "
                f"label 3 at voxel (1, 2, 3)") in err

    @pytest.mark.parametrize("rows", [
        [("m", "s1", "sc", "r.nii", "r5.nii")],
        [("m", "s1", "sc", "r.nii", "r.nii"),
         ("m", "s2", "sc", "r5.nii", "r5.nii")],
    ], ids=["prediction-vs-reference", "reference-vs-first-reference"])
    def test_a_grid_mismatch_names_its_row_and_files(self, tmp_path, capsys,
                                                     rows):
        write_nifti(labels_from([(1, 1, 1)], (4, 4, 4)), tmp_path / "r.nii")
        write_nifti(labels_from([(1, 1, 1)], (4, 4, 5)), tmp_path / "r5.nii")
        manifest = write_manifest(tmp_path / "m.csv", rows)
        rc = main(["maps", str(manifest), "--fn-out",
                   str(tmp_path / "fn.nii.gz"), "--fp-out",
                   str(tmp_path / "fp.nii.gz")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and err.startswith("error:")
        ref, pred = rows[-1][3:]
        assert (f"m.csv: row {len(rows) + 1} ({tmp_path / ref}, "
                f"{tmp_path / pred}): ") in err
        assert "differ in dims: (4, 4, 4) vs (4, 4, 5)" in err


class TestCohort:
    def test_summary_uses_each_subject_once(self, tmp_path, capsys):
        dims = (6, 6, 4)
        ref1 = labels_from([(1, 1, 1), (1, 2, 1), (4, 4, 2)], dims)
        ref2 = labels_from([(2, 2, 2)], dims)
        ref3 = labels_from([], dims)   # an empty lesion box
        write_nifti(ref1, tmp_path / "r1.nii")
        write_nifti(ref2, tmp_path / "r2.nii")
        write_nifti(ref3, tmp_path / "r3.nii")
        write_nifti(ref1, tmp_path / "p.nii")  # predictions are ignored
        rows = [("mA", "s1", "sc", "r1.nii", "p.nii"),
                ("mB", "s1", "sc", "r1.nii", "p.nii"),
                ("mA", "s2", "sc", "r2.nii", "p.nii"),
                ("mA", "s3", "sc", "r3.nii", "p.nii")]
        manifest = write_manifest(tmp_path / "m.csv", rows)
        rc = main(["cohort", str(manifest)])
        assert rc == 0
        body = json.loads(capsys.readouterr().out)
        expected = summarize_cohort([binarize_challenge(ref)
                                     for ref in (ref1, ref2, ref3)])
        assert body["n"] == 3
        assert body["volume_ml"]["values"] \
            == [float(v) for v in expected.volumes_ml]
        assert body["volume_ml"]["mean"] == expected.volume.mean
        assert body["lesion_count"]["values"] \
            == [float(v) for v in expected.lesion_counts]
        assert body["lesion_count"]["median"] == expected.count.median
        assert body["volume_ml"]["histogram"]["counts"] \
            == [int(c) for c in expected.volume_hist[1]]

    @pytest.mark.parametrize("flag, width, what", [
        ("--count-bin", "1e-12", "lesion-count"),
        ("--volume-bin-ml", "1e-300", "volume"),
        ("--volume-bin-ml", "1e-320", "volume")])
    def test_a_tiny_bin_width_is_one_error_line(self, tmp_path, capsys, flag,
                                                width, what):
        write_nifti(labels_from([(1, 1, 1), (3, 3, 3)], (4, 4, 4)),
                    tmp_path / "r.nii")
        manifest = write_manifest(
            tmp_path / "m.csv", [("m", "s1", "sc", "r.nii", "r.nii")])
        out = tmp_path / "cohort.json"
        assert main(["cohort", str(manifest), flag, width,
                     "-o", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith(f"error: {what} bin width {float(width):g} "
                                 f"would need ")
        assert "at most 1000000" in err[0]
        assert not out.exists()

    def test_connectivity_flag_reaches_the_count(self, tmp_path, capsys):
        # two corner-touching voxels: one lesion at 26, two at 6
        write_nifti(labels_from([(1, 1, 1), (2, 2, 2)], (6, 6, 6)),
                    tmp_path / "v.nii")
        manifest = write_manifest(tmp_path / "m.csv",
                                  [("m", "s0", "sc", "v.nii", "v.nii")])
        for flags, lesions in (([], 1), (["--connectivity", "6"], 2)):
            assert main(["cohort", str(manifest), *flags]) == 0
            body = json.loads(capsys.readouterr().out)
            assert body["lesion_count"]["values"] == [lesions], flags
            assert body["config"]["connectivity"] == (6 if flags else 26)

    def test_output_file(self, tmp_path, capsys):
        ref = labels_from([(1, 1, 1)], (4, 4, 4))
        write_nifti(ref, tmp_path / "r.nii")
        manifest = write_manifest(
            tmp_path / "m.csv", [("m", "s1", "sc", "r.nii", "r.nii")])
        out = tmp_path / "cohort.json"
        rc = main(["cohort", str(manifest), "-o", str(out)])
        assert rc == 0
        assert capsys.readouterr().out == ""
        body = json.loads(out.read_text())
        assert body["n"] == 1
        assert body["volume_ml"]["sd_degenerate"] is True


# synth arguments of a small corpus whose references hold label 2
LABEL2_SYNTH_ARGS = ["--subjects", "3", "--methods", "4",
                     "--dims", "32", "32", "8", "--lesions", "3",
                     "--size-range", "3", "5", "--ignore-fraction", "0.2",
                     "--seed", "1"]


@pytest.fixture
def label2_corpus(tmp_path, capsys) -> Path:
    corpus = tmp_path / "corpus"
    assert main(["synth", "--out-dir", str(corpus), *LABEL2_SYNTH_ARGS]) == 0
    assert (read_nifti(corpus / "sub-000_ref.nii.gz").data == 2).any()
    capsys.readouterr()
    return corpus


class TestPinnedReportBytes:
    """SHA-256 of the ``cohort`` and ``evaluate`` JSON files on
    ``label2_corpus``: a new digest means a new report body or a new
    value in it."""

    PINNED = {
        "cohort": ("3ff5a1071c62eb2de00c106898a2fbff"
                   "a5e9868055ff4742410316c27f5c1f92"),
        "cohort-fine-bins": ("556dd70111cb67060934595979fb0c34"
                             "376c9e9c302e70501ed5a404178c5acd"),
        "evaluate": ("afe91db18a583b3c18c109c746dde5bb"
                     "73278362ba2f8e58e7395b17f7906227"),
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned_report_bytes(self, label2_corpus, tmp_path, name):
        manifest = str(label2_corpus / "manifest.csv")
        out = tmp_path / "report.json"
        argv = {
            "cohort": ["cohort", manifest],
            "cohort-fine-bins": ["cohort", manifest, "--volume-bin-ml",
                                 "0.005", "--count-bin", "1"],
            "evaluate": ["evaluate",
                         str(label2_corpus / "sub-000_ref.nii.gz"),
                         str(label2_corpus / "sub-000_method_02.nii.gz")],
        }[name]
        assert main([*argv, "-o", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() \
            == self.PINNED[name]

    # SHA-256 of the reports on pairs that leave H95, AVD or log-AVD
    # undefined: (reference, prediction) for ``evaluate``, and for
    # ``evaluate-batch`` a manifest holding those pairs and one defined
    # pair; each command exits 2
    UNDEFINED = {
        "evaluate-empty-reference": (
            "empty", "ref", "1d6bcf7f5598366eec52982028a33746"
                            "9c5160147fe248c57ab0644b2a4e581b"),
        "evaluate-empty-prediction": (
            "ref", "empty", "51177b9f24e02c12b7ab804bba0bfc26"
                            "971b1dbe6d2b7ac8e73468cb0a3871d8"),
        "evaluate-both-empty": (
            "empty", "empty", "7e5d90aae50a7e06f2c5fe9711e274a4"
                              "5941aae80ee950886c9d744bce9c498f"),
        "evaluate-batch": (
            None, None, "3c2a8aef91a028cb6bc21aad00f28b43"
                        "58087c50d6e59ae66b6f01b38d051b14"),
    }

    @pytest.mark.parametrize("name", sorted(UNDEFINED))
    def test_pinned_undefined_case_bytes(self, tmp_path, capsys, name):
        write_nifti(labels_from(REF_COORDS, (8, 8, 4)), tmp_path / "ref.nii")
        write_nifti(labels_from([], (8, 8, 4)), tmp_path / "empty.nii")
        ref, pred, digest = self.UNDEFINED[name]
        out = tmp_path / "report"
        if ref is None:
            manifest = write_manifest(tmp_path / "m.csv", [
                ("a", "s0", "sc", "empty.nii", "ref.nii"),
                ("b", "s0", "sc", "empty.nii", "empty.nii"),
                ("a", "s1", "sc", "ref.nii", "empty.nii"),
                ("b", "s1", "sc", "ref.nii", "ref.nii")])
            argv = ["evaluate-batch", str(manifest)]
            err = "3 of 4 pairs have undefined metrics\n"
        else:
            argv = ["evaluate", str(tmp_path / f"{ref}.nii"),
                    str(tmp_path / f"{pred}.nii")]
            err = ""
        assert main([*argv, "-o", str(out)]) == 2
        assert capsys.readouterr() == ("", err)
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestBadLabels:
    """A label outside {0, 1, 2} ends every command that reads labels
    with one error line naming the file, after the manifest row where
    there is one."""

    @pytest.mark.parametrize("value", [3, 255])
    @pytest.mark.parametrize("command", [
        "evaluate", "evaluate-batch-1", "evaluate-batch-2", "staple", "maps",
        "cohort"])
    def test_one_error_line_names_the_file(self, tmp_path, capsys, command,
                                           value):
        good = tmp_path / "good.nii"
        write_nifti(labels_from([(1, 1, 1)], (6, 6, 4)), good)
        data = np.zeros((6, 6, 4), np.uint8)
        data[1, 2, 3] = value
        bad = write_labels(tmp_path / "bad.nii.gz", data)
        # cohort reads only references, the others read the prediction
        pair = ("bad.nii.gz", "good.nii") if command == "cohort" else \
            ("good.nii", "bad.nii.gz")
        manifest = write_manifest(tmp_path / "m.csv",
                                  [("m", "s1", "sc", *pair)])
        out = tmp_path / "out"
        argv = {
            "evaluate": ["evaluate", str(good), str(bad), "-o", str(out)],
            "evaluate-batch-1": ["evaluate-batch", str(manifest),
                                 "-o", str(out), "--jobs", "1"],
            "evaluate-batch-2": ["evaluate-batch", str(manifest),
                                 "-o", str(out), "--jobs", "2"],
            "staple": ["staple", str(good), str(bad), "-o", str(out)],
            "maps": ["maps", str(manifest), "--fn-out", str(out),
                     "--fp-out", str(tmp_path / "fp.nii")],
            "cohort": ["cohort", str(manifest), "-o", str(out)],
        }[command]
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        message = (f"{bad}: label {value} at voxel (1, 2, 3) is outside "
                   f"{{0, 1, 2}}")
        if command in ("evaluate", "staple"):
            assert err == [f"error: {message}"]
        else:
            assert err == [f"error: {manifest}: row 2 ({tmp_path / pair[0]}, "
                           f"{tmp_path / pair[1]}): {message}"]
        assert not out.exists()


SYNTH_ARGS = ["--subjects", "3", "--methods", "2", "--scanners", "2",
              "--seed", "3", "--dims", "20", "20", "12",
              "--lesions", "4", "--size-range", "3", "20"]


class TestSynth:
    def test_layout_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        rc = main(["synth", "--out-dir", str(out), *SYNTH_ARGS])
        assert rc == 0
        assert "wrote 3 subjects x 2 methods" in capsys.readouterr().out
        lines = (out / "manifest.csv").read_text().splitlines()
        assert lines[0] == ("method_id,subject_id,scanner_id,"
                            "reference_path,prediction_path")
        assert len(lines) == 1 + 3 * 2
        for si in range(3):
            assert (out / f"sub-{si:03d}_ref.nii.gz").exists()
            for mi in range(2):
                assert (out / f"sub-{si:03d}_method_{mi:02d}.nii.gz").exists()
        scanners = [line.split(",")[2] for line in lines[1:]]
        assert scanners == ["scanner_0", "scanner_0",
                            "scanner_1", "scanner_1",
                            "scanner_0", "scanner_0"]

    def test_method_zero_reproduces_the_reference(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        main(["synth", "--out-dir", str(out), *SYNTH_ARGS])
        capsys.readouterr()
        ref = read_nifti(out / "sub-001_ref.nii.gz")
        pred = read_nifti(out / "sub-001_method_00.nii.gz")
        wmh = binarize_challenge(ref)
        assert np.array_equal(pred.data.astype(bool), wmh.data)

    def test_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        main(["synth", "--out-dir", str(a), *SYNTH_ARGS])
        main(["synth", "--out-dir", str(b), *SYNTH_ARGS])
        capsys.readouterr()
        assert (a / "manifest.csv").read_text() \
            == (b / "manifest.csv").read_text()
        for name in ("sub-000_ref.nii.gz", "sub-002_method_01.nii.gz"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_a_lesion_larger_than_the_grid_fails_at_once(self, tmp_path,
                                                           capsys):
        out = tmp_path / "corpus"
        assert main(["synth", "--out-dir", str(out), "--dims", "8", "8", "4",
                     "--size-range", "300", "300"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: blob size up to 300 voxels exceeds the 256 voxels of "
            "grid (8, 8, 4)"]

    def test_pipeline_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "corpus"
        results = tmp_path / "results.csv"
        report = tmp_path / "rank.json"
        assert main(["synth", "--out-dir", str(out), *SYNTH_ARGS]) == 0
        assert main(["evaluate-batch", str(out / "manifest.csv"),
                     "-o", str(results)]) == 0
        assert main(["rank", str(results), "--bootstrap", "8",
                     "-o", str(report)]) == 0
        capsys.readouterr()
        body = json.loads(report.read_text())
        # the identity method is a perfect segmenter, so it leads
        assert body["methods"][0]["method_id"] == "method_00"
        assert body["methods"][0]["final_rank"] == 0.0
        assert body["methods"][0]["position"] == 1


class TestLabel2Exclusion:
    """``evaluate`` and ``evaluate-batch`` leave reference label 2
    (other pathology) out of scoring, as the library does."""

    def test_a_method_taking_label_2_for_wmh_scores_as_the_reference(
            self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        assert main(["synth", "--out-dir", str(corpus), *SYNTH_ARGS,
                     "--ignore-fraction", "0.1"]) == 0
        # the synth predictions here never reach reference label 2; add
        # a method that takes other pathology (label 2) for WMH, which
        # the exclusion makes the same as method_00, the reference
        manifest = corpus / "manifest.csv"
        lines = manifest.read_text().splitlines()
        for line in lines[1:]:
            method, subject, scanner, ref_name, _ = line.split(",")
            if method != "method_00":
                continue
            ref = read_nifti(corpus / ref_name)
            assert (ref.data == 2).any()
            write_nifti(BinaryMask(ref.data != 0, ref.spacing),
                        corpus / f"{subject}_lumper.nii.gz")
            lines.append(f"lumper,{subject},{scanner},{ref_name},"
                         f"{subject}_lumper.nii.gz")
        manifest.write_text("\n".join(lines) + "\n")
        pairs = [line.split(",")[3:] for line in lines[1:]]
        subjects = sorted({line.split(",")[1] for line in lines[1:]})
        capsys.readouterr()

        want = [evaluate_pair(read_nifti(corpus / r),
                              read_nifti(corpus / p)).as_dict()
                for r, p in pairs]
        single = []
        for r, p in pairs:
            assert main(["evaluate", str(corpus / r), str(corpus / p)]) \
                in (0, 2)
            single.append(json.loads(capsys.readouterr().out)["metrics"])
        assert single == want
        for jobs in ("1", "2"):
            out = tmp_path / f"j{jobs}.csv"
            assert main(["evaluate-batch", str(manifest), "-o", str(out),
                         "--jobs", jobs]) in (0, 2)
            records = read_result_csv(out).records
            # the CSV schema carries every field except n_pred_lesions
            assert [r.metrics.as_dict() for r in records] \
                == [{**w, "n_pred_lesions": None} for w in want]
            rows = {(r.method_id, r.subject_id): r.metrics for r in records}
            for subject in subjects:
                lumper = rows[("lumper", subject)]
                assert lumper == rows[("method_00", subject)], subject
                assert lumper.dsc == 1.0
        capsys.readouterr()


# one corpus's files in each NIfTI datatype the reader converts or keeps:
# (datatype code, byte order) for references and for predictions
ENCODINGS = {"int16": ((4, "<"), (4, "<")),
             "int16-big-endian": ((4, ">"), (4, ">")),
             "float32": ((16, "<"), (16, "<")),
             "mixed": ((4, ">"), (16, "<"))}


def run_every_output(corpus: Path, out: Path) -> dict[str, bytes]:
    """Each file and stdout of ``evaluate-batch`` (jobs 1 and 2),
    ``cohort``, ``maps`` and ``staple`` over a synth corpus, by name."""
    out.mkdir()
    manifest = str(corpus / "manifest.csv")
    staple_inputs = sorted(str(p) for p in corpus.glob("sub-000_*.nii.gz"))
    for argv in (
            ["evaluate-batch", manifest, "-o", str(out / "j1.csv"),
             "--jobs", "1"],
            ["evaluate-batch", manifest, "-o", str(out / "j2.csv"),
             "--jobs", "2"],
            ["cohort", manifest, "-o", str(out / "cohort.json")],
            ["maps", manifest, "--fn-out", str(out / "fn.nii.gz"),
             "--fp-out", str(out / "fp.nii.gz"),
             "--lesion-count-out", str(out / "count.nii.gz")],
            ["staple", *staple_inputs, "-o", str(out / "consensus.nii.gz"),
             "--weights-out", str(out / "weights.nii.gz")]):
        assert main(argv) in (0, 2), argv
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


class TestPayloadDtype:
    """The payload dtype never changes a result: a corpus re-encoded
    from uint8 into int16 (either byte order) or float32 gives the same
    output bytes from every command that reads labels."""

    @pytest.mark.parametrize("encoding", sorted(ENCODINGS))
    def test_every_output_is_byte_identical(self, tmp_path, capsys,
                                            encoding):
        base = tmp_path / "uint8"
        assert main(["synth", "--out-dir", str(base), *SYNTH_ARGS,
                     "--ignore-fraction", "0.1"]) == 0
        wide = tmp_path / encoding
        wide.mkdir()
        (wide / "manifest.csv").write_bytes(
            (base / "manifest.csv").read_bytes())
        for path in base.glob("*.nii.gz"):
            vol = read_nifti(path)
            assert vol.data.dtype == np.uint8
            code, order = ENCODINGS[encoding][
                not path.name.endswith("_ref.nii.gz")]
            (wide / path.name).write_bytes(gzip.compress(
                encode_as(vol.data, vol.spacing, code, order), mtime=0))
        assert (read_nifti(wide / "sub-000_ref.nii.gz").data == 2).any()
        capsys.readouterr()
        want = run_every_output(base, tmp_path / "out-uint8")
        want_out = capsys.readouterr().out.replace(str(base), "CORPUS")
        got = run_every_output(wide, tmp_path / "out-wide")
        got_out = capsys.readouterr().out.replace(str(wide), "CORPUS")
        assert sorted(got) == sorted(want) and len(want) == 8
        for name in want:
            assert got[name] == want[name], name
        assert got_out == want_out


BAD_OPTION_VALUES = [
    ["rank", "r.csv", "--confidence", "1.5"],
    ["rank", "r.csv", "--bootstrap", "-1"],
    ["staple", "a.nii", "-o", "c.nii", "--max-iter", "0"],
    ["staple", "a.nii", "-o", "c.nii", "--tol", "-1"],
    ["staple", "a.nii", "-o", "c.nii", "--threshold", "2"],
    ["staple", "a.nii", "-o", "c.nii", "--prior", "1.5"],
    ["cohort", "m.csv", "--volume-bin-ml", "0"],
    ["cohort", "m.csv", "--count-bin", "-1"],
    ["evaluate-batch", "m.csv", "-o", "r.csv", "--jobs", "0"],
    ["synth", "--lesions", "-1"],
    ["synth", "--size-range", "5", "2"],
    ["synth", "--ignore-fraction", "2"],
    ["synth", "--spacing", "0", "1", "1"],
    ["synth", "--spacing", "nan", "1", "1"],
    ["synth", "--dims", "0", "4", "4"],
    ["synth", "--scanners", "0"],
    ["synth", "--subjects", "-2"],
    ["synth", "--methods", "0"],
]


class TestTopLevel:
    def test_no_arguments_is_a_usage_error(self, capsys):
        rc = main([])
        assert rc == 1
        assert "usage error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", BAD_OPTION_VALUES,
                             ids=[" ".join(a) for a in BAD_OPTION_VALUES])
    def test_a_bad_option_value_is_one_usage_error(self, argv, tmp_path,
                                                   capsys):
        # the value is refused before any file is read or written
        flag = [a for a in argv if a.startswith("--")][-1]
        out = tmp_path / "out"
        extra = ["--out-dir", str(out)] if argv[0] == "synth" else []
        assert main([*argv, *extra]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("usage error:"), err
        assert flag in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["evaluate", "r.nii", "p.nii", "--h95-mode", "pooled"],
        ["evaluate-batch", "m.csv", "-o", "r.csv",
         "--ignore-mode", "background"],
        ["maps", "m.csv", "--fn-out", "fn.nii", "--fp-out", "fp.nii",
         "--fp-denominator", "pairs"]], ids=lambda argv: argv[-2])
    def test_a_deleted_scoring_option_is_refused(self, argv, capsys):
        # each metric has one definition; the variant options are gone
        assert main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("usage error:"), err
        assert argv[-2] in err[0]

    def test_unknown_command(self, capsys):
        rc = main(["frobnicate"])
        assert rc == 1
        assert "usage error:" in capsys.readouterr().err

    def test_console_script_help(self, tmp_path):
        # Launch the declared [project.scripts] target the way the
        # pip-generated wrapper does, so no install is needed.
        scripts = read_pyproject()["project"]["scripts"]
        assert scripts.get("seg-eval") == "seg_eval.cli:main"
        module, attr = scripts["seg-eval"].split(":")
        proc = run_child(
            f"import sys; from {module} import {attr}; sys.exit({attr}())",
            "--help", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        # Match whole names in the "{a,b,...}" choices list: "evaluate" is
        # a substring of "evaluate-batch", "cohort" of a help line.
        choices = re.search(r"\{([\w,-]+)\}", proc.stdout)
        assert choices, proc.stdout
        for command in ("evaluate", "evaluate-batch", "rank", "staple",
                        "maps", "cohort", "synth"):
            assert command in choices.group(1).split(","), proc.stdout

    def test_import_leaves_scipy_stats_and_spatial_unloaded(self, tmp_path):
        # scipy.stats alone nearly doubles the RSS of importing the CLI,
        # and scipy.ndimage takes most of its time, so these load only
        # inside the functions using them
        proc = run_child(
            "import sys, seg_eval.cli; print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.stats', 'scipy.spatial', "
            "'scipy.ndimage', 'scipy.special'))))",
            cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_synth_leaves_scipy_ndimage_unloaded(self, tmp_path):
        # methods 1-3 add blobs, translate, dilate and erode; all of it
        # is numpy, so a fresh synth pays no scipy.ndimage import
        proc = run_child(
            "import sys; from seg_eval.cli import main; "
            "rc = main(['synth', '--out-dir', 'out', '--subjects', '1', "
            "'--methods', '4', '--dims', '12', '12', '6', '--lesions', '2', "
            "'--size-range', '3', '8']); "
            "print(rc, sorted(m for m in sys.modules "
            "if m.startswith('scipy.ndimage')))",
            cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "0 []"


class TestParserReuse:
    """``main()`` builds its parser once per process; a call that ends
    in a usage error or ``--help`` leaves nothing behind for the next."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """Each ``build_parser`` call, from a process with no parser."""
        calls = []
        real = cli.build_parser

        def spy():
            calls.append(1)
            return real()
        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", spy)
        return calls

    @staticmethod
    def _evaluate(ref_p, pred_p, capsys) -> str:
        assert main(["evaluate", str(ref_p), str(pred_p)]) == 0
        return capsys.readouterr().out

    def test_many_calls_build_one_parser(self, builds, pair_on_disk,
                                         results_csv, capsys):
        _, _, ref_p, pred_p = pair_on_disk
        for _ in range(3):
            self._evaluate(ref_p, pred_p, capsys)
            assert main(["rank", str(results_csv), "--bootstrap", "0"]) == 0
        assert main(["frobnicate"]) == 1
        assert len(builds) == 1
        assert cli.build_parser() is not cli.build_parser()

    @pytest.mark.parametrize("bad", [
        ["--connectivity", "7"],
        ["--connectivity", "6", "--bogus"],
        ["--connectivity", "18", "-o"]], ids=lambda bad: bad[-1])
    def test_a_usage_error_leaves_no_state(self, builds, pair_on_disk,
                                           capsys, bad):
        _, _, ref_p, pred_p = pair_on_disk
        first = self._evaluate(ref_p, pred_p, capsys)
        assert main(["evaluate", str(ref_p), str(pred_p), *bad]) == 1
        assert "usage error:" in capsys.readouterr().err
        assert self._evaluate(ref_p, pred_p, capsys) == first
        assert json.loads(first)["config"] == {"connectivity": 26}
        assert len(builds) == 1

    @pytest.mark.parametrize("help_argv", [["--help"], ["evaluate", "-h"]])
    def test_help_leaves_no_state(self, builds, pair_on_disk, capsys,
                                  help_argv):
        _, _, ref_p, pred_p = pair_on_disk
        first = self._evaluate(ref_p, pred_p, capsys)
        with pytest.raises(SystemExit) as stop:
            main(help_argv)
        assert stop.value.code == 0
        assert "usage:" in capsys.readouterr().out
        assert self._evaluate(ref_p, pred_p, capsys) == first
        assert len(builds) == 1

    def test_rank_bytes_match_a_fresh_interpreter(self, results_csv,
                                                  tmp_path, capsys):
        # other option values first, on the same reused parser
        for extra in (["--volume-metric", "avd", "--seed", "3"],
                      ["--interscanner", "--interscanner-normalization",
                       "ordinal", "--confidence", "0.8"]):
            assert main(["rank", str(results_csv), "--bootstrap", "50",
                         *extra]) == 0
        capsys.readouterr()
        argv = ["rank", "results.csv", "--bootstrap", "100",
                "--interscanner"]
        code = "import sys; from seg_eval.cli import main; sys.exit(main())"
        proc = run_child(code, *argv, "-o", "child.json", "--csv",
                         "child.csv", cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert main([*argv[:1], str(results_csv), *argv[2:],
                     "-o", str(tmp_path / "here.json"),
                     "--csv", str(tmp_path / "here.csv")]) == 0
        for ext in ("json", "csv"):
            assert (tmp_path / f"here.{ext}").read_bytes() \
                == (tmp_path / f"child.{ext}").read_bytes()


def private_imports(source: str) -> list[str]:
    """Each ``_``-prefixed name that ``source`` takes from another
    ``seg_eval`` module, by AST: imported by name, or read off a
    module it imported from the package."""
    tree = ast.parse(source)
    found, modules = [], set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        package = node.level > 0 or (node.module or "").startswith("seg_eval")
        for alias in node.names if package else ():
            if node.module in (None, "seg_eval"):
                modules.add(alias.asname or alias.name)
            elif alias.name.startswith("_"):
                found.append(f"{node.module.split('.')[-1]}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_the_scan_finds_private_imports():
    assert private_imports(
        "from .reportio import (MANIFEST_COLUMNS, dump_json, metric_report,\n"
        "                       rank_report, _envelope)") \
        == ["reportio._envelope"]
    assert private_imports("from seg_eval.fusion import _vote_patterns") \
        == ["fusion._vote_patterns"]
    assert private_imports("from . import reportio\n"
                           "body = reportio._envelope({})") \
        == ["reportio._envelope"]
    assert private_imports('"""reportio._envelope is private."""\n'
                           "from .reportio import dump_json\n"
                           "from argparse import _SubParsersAction") == []


def test_cli_imports_no_private_name():
    # every output body and file format is built in reportio, through
    # its public functions
    assert private_imports(Path(cli.__file__).read_text(encoding="utf-8")) \
        == []
