"""Command line interface.

Exit codes: 0 on success, 1 on any hard error (bad input files, bad
usage, impossible requests), 2 on success where some metric was
undefined and reported as missing. Output is a pure function of the
input files and flags; there are no timestamps or hidden state.

``main()`` may be called repeatedly in one process: it builds the
argument parser on its first call and reuses it, since parsing leaves
no state on the parser. ``build_parser()`` returns a fresh one.
"""

from __future__ import annotations

import argparse
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from functools import partial
from pathlib import Path

from .analysis import fn_fp_maps, summarize_cohort
from .errors import SegEvalError
from .fusion import StapleParams, staple_fuse
from .metrics import evaluate_pair, prepare_reference, wmh_in_lesion_box
from .nifti import read_nifti, write_nifti, write_nifti_real
from .ranking import (BootstrapConfig, SubjectResult, interscanner_rank,
                      rank_with_ci)
from .reportio import (cohort_report, dump_json, metric_report,
                       rank_report, read_manifest, read_result_csv,
                       write_manifest, write_rank_csv, write_result_csv)
from .synth import PerturbOps, PhantomSpec, generate_phantom, perturb_mask
from .volume import binarize_challenge, same_grid


class CliUsageError(SegEvalError):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; 2 is taken, so
    # route them through the normal error path instead
    def error(self, message):
        raise CliUsageError(message)


def _checked(kind, ok, what: str):
    """An argparse type: ``kind(text)`` if ``ok`` accepts it, else a
    usage error saying the value must be ``what``."""
    def parse(text):
        try:
            value = kind(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
    return parse


_AT_LEAST_1 = _checked(int, lambda v: v >= 1, "an integer >= 1")
_AT_LEAST_0 = _checked(int, lambda v: v >= 0, "an integer >= 0")
_POSITIVE = _checked(float, lambda v: 0 < v < math.inf, "a finite number > 0")


def _add_connectivity(p: argparse.ArgumentParser) -> None:
    p.add_argument("--connectivity", type=int, choices=(6, 18, 26),
                   default=26, help="lesion component neighbourhood")


def _config_echo(args, keys) -> dict:
    return {k: getattr(args, k) for k in keys}


@contextmanager
def _naming(where):
    """Re-raise an input error naming the file or row it comes from."""
    try:
        yield
    except (SegEvalError, OSError) as exc:
        raise SegEvalError(f"{where}: {exc}") from None


def _naming_row(manifest, subject, row):
    """Name a manifest row and its files in an input error."""
    return _naming(f"{manifest}: row {row.line} ({subject.reference_path}, "
                   f"{row.prediction_path})")


def cmd_evaluate(args) -> int:
    ref = read_nifti(args.reference)
    pred = read_nifti(args.prediction)
    same_grid(ref, pred, f"reference {args.reference} and prediction "
              f"{args.prediction}")
    vec = evaluate_pair(prepare_reference(ref, args.connectivity), pred)
    body = metric_report(vec, _config_echo(args, ("connectivity",)))
    dump_json(body, args.output)
    return 2 if vec.has_missing else 0


def _score_subject(subject, connectivity: int, manifest) -> list:
    """Score each row of a manifest subject against its reference."""
    with _naming_row(manifest, subject, subject.rows[0]):
        ref = prepare_reference(read_nifti(subject.reference_path),
                                connectivity)
    vectors = []
    for row in subject.rows:
        with _naming_row(manifest, subject, row):
            vectors.append(evaluate_pair(ref,
                                         read_nifti(row.prediction_path)))
    return vectors


def cmd_evaluate_batch(args) -> int:
    subjects = read_manifest(args.manifest)
    score = partial(_score_subject, connectivity=args.connectivity,
                    manifest=args.manifest)
    if args.jobs == 1:
        results = list(map(score, subjects))
    else:
        # the workers fork from here: import their scipy modules once
        import scipy.ndimage
        import scipy.spatial
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(score, subjects))
    by_line = {row.line: SubjectResult(row.method_id, subject.subject_id,
                                       subject.scanner_id, vec)
               for subject, vectors in zip(subjects, results)
               for row, vec in zip(subject.rows, vectors)}
    records = [by_line[line] for line in sorted(by_line)]
    write_result_csv(records, args.output)
    n_missing = sum(1 for r in records if r.metrics.has_missing)
    if n_missing:
        print(f"{n_missing} of {len(records)} pairs have undefined metrics",
              file=sys.stderr)
        return 2
    return 0


def cmd_rank(args) -> int:
    table = read_result_csv(args.results)
    inter = None
    with _naming(args.results):
        rank = rank_with_ci(table, args.volume_metric,
                            BootstrapConfig(replicates=args.bootstrap,
                                            seed=args.seed,
                                            confidence=args.confidence))
        if args.interscanner:
            inter = interscanner_rank(table, args.volume_metric,
                                      args.interscanner_normalization)
    body = rank_report(rank, _config_echo(
        args, ("volume_metric", "bootstrap", "seed", "confidence",
               "interscanner", "interscanner_normalization")), inter)
    dump_json(body, args.output)
    if args.csv:
        write_rank_csv(rank, args.csv)
    return 0


def cmd_staple(args) -> int:
    params = StapleParams(max_iter=args.max_iter, tol=args.tol,
                          threshold=args.threshold, prior=args.prior)
    masks = []
    for path in args.inputs:
        masks.append(binarize_challenge(read_nifti(path)))
        same_grid(masks[0], masks[-1],
                  f"raters {args.inputs[0]} and {path}")
    with _naming(", ".join(args.inputs)):
        result = staple_fuse(masks, params)
    write_nifti(result.consensus, args.output)
    if args.weights_out:
        write_nifti_real(result.weights, masks[0].spacing, args.weights_out)
    print(f"prior {result.prior:.6f}  iterations {result.iterations}  "
          f"converged {result.converged}")
    print("rater  sensitivity  specificity  path")
    for j, path in enumerate(args.inputs):
        print(f"{j:5d}  {result.sensitivity[j]:11.6f}  "
              f"{result.specificity[j]:11.6f}  {path}")
    return 0


def _row_wmh(manifest, subject, row, path, grid, what):
    """The WMH mask of one of a manifest row's files, checked to lie on
    ``grid``'s grid when one is given."""
    with _naming_row(manifest, subject, row):
        wmh = binarize_challenge(read_nifti(path))
        if grid is not None:
            same_grid(grid, wmh, what)
    return wmh


def cmd_maps(args) -> int:
    def predictions(subject, ref):  # one row's mask at a time
        return (_row_wmh(args.manifest, subject, row, row.prediction_path,
                         ref, "reference and prediction")
                for row in subject.rows)

    def subjects():
        first = None
        for s in read_manifest(args.manifest):
            ref = _row_wmh(args.manifest, s, s.rows[0], s.reference_path,
                           first, "first and this subject's reference")
            if first is None:
                first = ref
            yield ref, predictions(s, ref)

    maps = fn_fp_maps(subjects())
    write_nifti_real(maps.fn_rate, maps.spacing, args.fn_out)
    write_nifti_real(maps.fp_rate, maps.spacing, args.fp_out)
    if args.lesion_count_out:
        write_nifti_real(maps.lesion_count, maps.spacing,
                         args.lesion_count_out)
    return 0


def cmd_cohort(args) -> int:
    masks = []   # each reference's WMH in its lesion box, not the grid
    for s in read_manifest(args.manifest):
        with _naming_row(args.manifest, s, s.rows[0]):
            masks.append(wmh_in_lesion_box(read_nifti(s.reference_path)))
    summary = summarize_cohort(masks, volume_bin_ml=args.volume_bin_ml,
                               count_bin=args.count_bin,
                               connectivity=args.connectivity)
    dump_json(cohort_report(summary, _config_echo(
        args, ("volume_bin_ml", "count_bin", "connectivity"))), args.output)
    return 0


def _method_ops(index: int, seed: int) -> PerturbOps:
    """A graded degradation recipe: method 0 reproduces the reference,
    higher indices drift further from it."""
    if index == 0:
        return PerturbOps(seed=seed)
    return PerturbOps(
        dilate=1 if index % 3 == 2 else 0,
        erode=1 if index % 3 == 0 else 0,
        add_blobs=index,
        blob_size=7,
        translate=(index % 2, 0, 0),
        seed=seed + index)


def cmd_synth(args) -> int:
    lo, hi = args.size_range
    if lo > hi:
        raise CliUsageError(f"--size-range must be LOW HIGH with LOW <= HIGH,"
                            f" got {lo} {hi}")
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest_rows = []
    for si in range(args.subjects):
        spec = PhantomSpec(dims=tuple(args.dims),
                           spacing=tuple(args.spacing),
                           n_lesions=args.lesions, size_range=(lo, hi),
                           seed=args.seed + si,
                           ignore_fraction=args.ignore_fraction)
        ref = generate_phantom(spec)
        subject = f"sub-{si:03d}"
        scanner = f"scanner_{si % args.scanners}"
        ref_name = f"{subject}_ref.nii.gz"
        write_nifti(ref, out / ref_name)
        wmh = binarize_challenge(ref)
        for mi in range(args.methods):
            method = f"method_{mi:02d}"
            pred = perturb_mask(wmh, _method_ops(mi, args.seed + si))
            pred_name = f"{subject}_{method}.nii.gz"
            write_nifti(pred, out / pred_name)
            manifest_rows.append((method, subject, scanner,
                                  ref_name, pred_name))
    write_manifest(manifest_rows, out / "manifest.csv")
    print(f"wrote {args.subjects} subjects x {args.methods} methods "
          f"to {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="seg-eval",
                     description="WMH segmentation evaluation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evaluate", parents=[], help="score one pair")
    p.add_argument("reference")
    p.add_argument("prediction")
    _add_connectivity(p)
    p.add_argument("-o", "--output", default=None, help="JSON path "
                   "(default: stdout)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("evaluate-batch", help="score a manifest of pairs")
    p.add_argument("manifest")
    _add_connectivity(p)
    p.add_argument("-o", "--output", required=True, help="result CSV path")
    p.add_argument("--jobs", type=_AT_LEAST_1, default=1,
                   help="worker processes (default: 1)")
    p.set_defaults(func=cmd_evaluate_batch)

    p = sub.add_parser("rank", help="rank methods from a result CSV")
    p.add_argument("results")
    p.add_argument("--volume-metric", choices=("lavd", "avd"),
                   default="lavd")
    p.add_argument("--bootstrap", type=_AT_LEAST_0, default=2000,
                   help="bootstrap replicates; 0 disables CIs")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--confidence", default=0.95, type=_checked(
        float, lambda v: 0 < v < 1, "a number in (0, 1)"))
    p.add_argument("--interscanner", action="store_true",
                   help="also rank inter-scanner robustness")
    p.add_argument("--interscanner-normalization",
                   choices=("minmax", "ordinal"), default="minmax")
    p.add_argument("-o", "--output", default=None, help="JSON path "
                   "(default: stdout)")
    p.add_argument("--csv", default=None, help="also write a rank CSV here")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("staple", help="fuse segmentations with STAPLE")
    p.add_argument("inputs", nargs="+")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--max-iter", type=_AT_LEAST_1, default=100)
    p.add_argument("--tol", type=_POSITIVE, default=1e-6)
    p.add_argument("--threshold", default=0.5, type=_checked(
        float, lambda v: 0 < v <= 1, "a number in (0, 1]"))
    p.add_argument("--prior", default="AUTO", type=_checked(
        lambda t: None if t.upper() == "AUTO" else float(t),
        lambda v: v is None or 0 < v < 1, "AUTO or a number in (0, 1)"),
                   help="foreground prior, AUTO = mean vote rate")
    p.add_argument("--weights-out", default=None,
                   help="write per-voxel foreground probability here")
    p.set_defaults(func=cmd_staple)

    p = sub.add_parser("maps", help="voxelwise FN/FP rate maps")
    p.add_argument("manifest")
    p.add_argument("--fn-out", required=True)
    p.add_argument("--fp-out", required=True)
    p.add_argument("--lesion-count-out", default=None)
    p.set_defaults(func=cmd_maps)

    p = sub.add_parser("cohort", help="reference cohort summary")
    p.add_argument("manifest")
    p.add_argument("--volume-bin-ml", type=_POSITIVE, default=10.0)
    p.add_argument("--count-bin", type=_POSITIVE, default=10.0)
    _add_connectivity(p)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_cohort)

    p = sub.add_parser("synth", help="generate phantom pairs + manifest")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--subjects", type=_AT_LEAST_1, default=5)
    p.add_argument("--methods", type=_AT_LEAST_1, default=2)
    p.add_argument("--scanners", type=_AT_LEAST_1, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dims", type=_AT_LEAST_1, nargs=3, default=(32, 32, 32))
    p.add_argument("--spacing", type=_POSITIVE, nargs=3,
                   default=(1.0, 1.0, 1.0))
    p.add_argument("--lesions", type=_AT_LEAST_0, default=5)
    p.add_argument("--size-range", type=_AT_LEAST_1, nargs=2, default=(3, 40))
    p.add_argument("--ignore-fraction", default=0.0, type=_checked(
        float, lambda v: 0 <= v < 1, "a number in [0, 1)"))
    p.set_defaults(func=cmd_synth)
    return parser


_parser = None   # built by the first main() call, not at import


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    try:
        args = _parser.parse_args(argv)
        return args.func(args)
    except (SegEvalError, OSError) as exc:
        kind = "usage error" if isinstance(exc, CliUsageError) else "error"
        print(f"{kind}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
