"""Show that each output check catches a planted wrong output.

    python3 perfbench/selftest.py

Runs every CLI step once on a small corpus, confirms that all checks
pass, then plants one fault at a time in the written outputs (an
altered H95 cell, swapped rate maps, a flipped consensus voxel, ...)
and confirms that the check meant to catch it fails. It also confirms
that the region corpus generator, given the whole grid as its region,
writes exactly the bytes of ``seg-eval synth``. Exits 0 when every
planted fault is caught. Not part of the repository's test suite.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import os
import shutil
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def rewrite_csv(path: Path, edit) -> None:
    rows = list(csv.reader(io.StringIO(path.read_text())))
    edit(rows)
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    path.write_text(buf.getvalue())


def set_cell(path: Path, method: str, column: str, value: str) -> None:
    def edit(rows):
        col = rows[0].index(column)
        for row in rows[1:]:
            if row[0] == method:
                row[col] = value
                return
    rewrite_csv(path, edit)


def rewrite_json(paths: list[Path], edit) -> None:
    for path in paths:
        body = json.loads(path.read_text())
        edit(body)
        path.write_text(json.dumps(body, indent=2) + "\n")


def rewrite_nifti(path: Path, edit) -> None:
    """Decode, edit the voxel array, and write back with the same
    header."""
    from checks import decode_nifti
    data, _ = decode_nifti(path)
    data = edit(data.copy())
    raw = gzip.decompress(path.read_bytes())
    offset = len(raw) - data.nbytes
    path.write_bytes(gzip.compress(raw[:offset]
                                   + data.tobytes(order="F")))


def set_corner(data):
    data[0, 0, 0] = 1
    return data


def planted_cases(out, corpus: Path):
    """(description, check that must fail, function planting the fault)."""
    j1, j2, ranks = out.batch_j1[0], out.batch_j2[0], out.rank
    subject = sorted(out.staple)[0]
    cons, weights, _ = out.staple[subject]

    def flip_first(data):
        data.flat[0] = 1 - data.flat[0]
        return data

    def add_isolated_voxel(data):
        # a voxel whose whole 26-neighbourhood is background
        for x, y, z in zip(*np.nonzero(data[1:-1, 1:-1, 1:-1] == 0)):
            if not data[x:x + 3, y:y + 3, z:z + 3].any():
                data[x + 1, y + 1, z + 1] = 1
                return data
        raise RuntimeError("no room for an isolated voxel")

    def swap_maps():
        fn, fp = out.maps[0].read_bytes(), out.maps[1].read_bytes()
        out.maps[0].write_bytes(fp)
        out.maps[1].write_bytes(fn)

    def swap_first_two(body):
        body["methods"][:2] = body["methods"][1::-1]

    def swap_ci(body):
        ci = body["methods"][1]["final_rank_ci"]
        if ci[0] == ci[1]:
            ci[1] = ci[0] - 0.01
        else:
            ci.reverse()

    def bump(body, *path):
        node = body
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] += 0.01

    return [
        ("one H95 cell altered", "pair.h95",
         lambda: set_cell(j1, "method_01", "h95_mm", "9.5")),
        ("one DSC cell altered", "pair.overlap",
         lambda: set_cell(j1, "method_02", "dsc", "0.5")),
        ("one recall cell altered", "pair.lesions",
         lambda: set_cell(j1, "method_03", "recall", "0.25")),
        ("the identical method's H95 altered", "method_00.identity",
         lambda: set_cell(j1, "method_00", "h95_mm", "0.5")),
        ("one byte of the --jobs 2 CSV changed", "batch.jobs_identical",
         lambda: j2.write_bytes(j2.read_bytes()[:-2] + b"9\n")),
        ("a final rank altered", "rank.final",
         lambda: rewrite_json(ranks, lambda b: bump(
             b, "methods", 2, "final_rank"))),
        ("one of the same-seed rank files differs", "rank.seed_identical",
         lambda: rewrite_json(ranks[-1:], lambda b: bump(
             b, "methods", 2, "final_rank"))),
        ("a CI with low above high", "rank.ci_ordered",
         lambda: rewrite_json(ranks, swap_ci)),
        ("an inter-scanner dispersion altered", "rank.interscanner",
         lambda: rewrite_json(ranks, lambda b: bump(
             b, "interscanner", "methods", 0, "dispersions", "h95_mm"))),
        ("the two best methods swapped", "rank.method_00_first",
         lambda: rewrite_json(ranks, swap_first_two)),
        ("one consensus voxel flipped", "staple.consensus",
         lambda: rewrite_nifti(cons, flip_first)),
        ("STAPLE weights scaled by 0.99", "staple.em",
         lambda: rewrite_nifti(weights, lambda w: w * 0.99)),
        ("FN and FP maps swapped", "maps.rates",
         swap_maps),
        ("a cohort volume altered", "cohort.values",
         lambda: rewrite_json(out.cohort, lambda b: bump(
             b, "volume_ml", "values", 0))),
        ("an extra lesion in a reference", "corpus.lesion_count",
         lambda: rewrite_nifti(corpus / "sub-000_ref.nii.gz",
                               add_isolated_voxel)),
    ]


def snapshot(paths: list[Path]) -> dict[Path, bytes]:
    return {p: p.read_bytes() for p in paths}


def main() -> int:
    if not (ROOT / "src" / "seg_eval").is_dir():
        print("selftest: run from a seg-eval checkout", file=sys.stderr)
        return 1
    sys.path.insert(0, str(ROOT / "src"))
    from checks import check_outputs
    from run import RESULTS_DIR, Run
    from workloads import Workload, build_corpus

    tiny = Workload("selftest", (24, 24, 8), (0.96, 0.95, 3.0), subjects=4,
                    methods=4, scanners=2, lesions=3, size_range=(3, 20),
                    repeats={"rank": 2, "cohort": 2}, setup_repeats=1)
    region = replace(tiny, name="selftest-region",
                     region=((4, 4, 2), (20, 20, 6)))
    RESULTS_DIR.mkdir(exist_ok=True)
    work = RESULTS_DIR / f"selftest-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    missed = []
    try:
        # the region generator on the whole grid is `seg-eval synth`
        whole = replace(tiny, region=((0, 0, 0), tiny.dims))
        build_corpus(tiny, 7, work / "synth")
        build_corpus(whole, 7, work / "region")
        same = all((work / "synth" / p.name).read_bytes() == p.read_bytes()
                   for p in (work / "region").iterdir())
        print(f"{'PASS' if same else 'FAIL'} region generator on the whole "
              f"grid writes the bytes of seg-eval synth")
        if not same:
            missed.append("region generator")

        for w in (tiny, region):
            run = Run(w, seed=3, seconds=0, trace=False, work=work / w.name)
            run.work.mkdir()
            run.measure()
            rep, _ = check_outputs(run.out, w.lesions, w.region)
            print(f"{'PASS' if rep.passed else 'FAIL'} {w.name}: all checks "
                  f"pass on the program's outputs {rep.failed_checks()}")
            if not rep.passed or run.steps.failed:
                missed.append(f"{w.name} baseline")
                continue
            files = [p for p in run.work.rglob("*") if p.is_file()]
            cases = planted_cases(run.out, run.corpus)
            if w.region is not None:
                cases = [("a label-1 voxel outside the region",
                          "corpus.region",
                          lambda: rewrite_nifti(
                              run.corpus / "sub-001_method_02.nii.gz",
                              set_corner))]
            for what, check, plant in cases:
                saved = snapshot(files)
                plant()
                rep, _ = check_outputs(run.out, w.lesions, w.region)
                caught = check in rep.failed_checks()
                print(f"{'PASS' if caught else 'FAIL'} {w.name}: {what} -> "
                      f"{check} {'fails' if caught else 'still passes'}")
                if not caught:
                    missed.append(f"{w.name}: {what}")
                for path, data in saved.items():
                    path.write_bytes(data)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(missed)} planted faults missed" if missed
          else "every planted fault was caught")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
