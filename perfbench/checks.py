"""Independent checks of every output the benchmark's steps write.

Nothing here calls ``seg_eval``: NIfTI files are decoded by a reader of
our own (gzip and numpy over the NIfTI-1 layout), and every metric is
recomputed from the decoded voxels by a different route than the
program takes: ``scipy.ndimage.label`` for lesions, all-pairs
distances between face-surface voxels for H95 (where the program
queries a KD-tree), a separate min-max formula for ranks, and STAPLE
as EM over rater vote patterns on the full grid.

Tolerances are fixed here, before any comparison:

* ``TOL_REL``/``TOL_ABS`` for float64 metrics. A metric sums at most
  ~10^7 terms, so its rounding error stays below 10^7 * 2^-52 ~ 2e-9
  relative in the worst case and far below that in practice; 1e-9
  leaves no room for a real difference.
* ``TOL_RANK``: the program quantises each relative rank to nine
  decimals, so a rank may differ from the exact formula by 5e-10.
* ``TOL_MAP``: rate maps are stored as float32 (half an ulp at 1.0 is
  6e-8).
* ``TOL_STAPLE``: the program runs STAPLE's E-step in the bounding box
  of all votes and treats the rest of the grid in closed form; that
  path is documented as accurate to about 1e-5 of the full-grid EM.
"""

from __future__ import annotations

import csv
import gzip
import hashlib
import json
import math
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import ndimage
from scipy.spatial.distance import cdist

TOL_REL = 1e-9
TOL_ABS = 1e-12
TOL_RANK = 1e-8
TOL_MAP = 1e-7
TOL_STAPLE = 1e-4
F32_HALF_ULP = 6e-8

RANKED = ("dsc", "h95_mm", "lavd", "recall", "f1")
HIGHER_BETTER = {"dsc": True, "h95_mm": False, "lavd": False,
                 "recall": True, "f1": True}
_NIFTI_DTYPES = {2: "u1", 4: "i2", 8: "i4", 16: "f4", 64: "f8"}
_BOX26 = np.ones((3, 3, 3), dtype=bool)
_CHUNK = 512      # rows of one block of all-pairs distances


def decode_nifti(path: Path) -> tuple[np.ndarray, tuple[float, ...]]:
    """(data indexed x, y, z; spacing in mm) of a single-file NIfTI-1."""
    raw = Path(path).read_bytes()
    if path.suffix == ".gz":
        raw = gzip.decompress(raw)
    bo = "<" if int.from_bytes(raw[:4], "little") == 348 else ">"
    dim = np.frombuffer(raw, bo + "i2", 8, 40)
    datatype = int(np.frombuffer(raw, bo + "i2", 1, 70)[0])
    pixdim = np.frombuffer(raw, bo + "f4", 8, 76)
    offset = int(np.frombuffer(raw, bo + "f4", 1, 108)[0])
    shape = tuple(int(d) for d in dim[1:4])
    data = np.frombuffer(raw, bo + _NIFTI_DTYPES[datatype],
                         int(np.prod(shape)), offset)
    return (data.reshape(shape, order="F"),
            tuple(float(abs(s)) for s in pixdim[1:4]))


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def close(a, b, rel=TOL_REL, abs_=TOL_ABS) -> bool:
    if a is None or b is None:
        return a is None and b is None
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


class Report:
    """Named checks, each with the failures it found (empty = pass)."""

    def __init__(self):
        self.failures: dict[str, list[str]] = {}
        self.stats: dict[str, float] = {}

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        found = self.failures.setdefault(name, [])
        if ok or found[-1:] == ["..."]:
            return
        found.append(detail if len(found) < 5 else "...")

    @property
    def passed(self) -> bool:
        return not any(self.failures.values())

    def failed_checks(self) -> list[str]:
        return sorted(k for k, v in self.failures.items() if v)


# ------------------------------------------------------------ recompute

def face_surface(mask: np.ndarray) -> np.ndarray:
    """Foreground voxels with a background (or outside) face neighbour."""
    p = np.pad(mask, 1)
    interior = (p[2:, 1:-1, 1:-1] & p[:-2, 1:-1, 1:-1]
                & p[1:-1, 2:, 1:-1] & p[1:-1, :-2, 1:-1]
                & p[1:-1, 1:-1, 2:] & p[1:-1, 1:-1, :-2])
    return mask & ~interior


def bbox(mask: np.ndarray, margin: int = 0) -> tuple[slice, ...]:
    idx = np.argwhere(mask)
    lo = np.maximum(idx.min(axis=0) - margin, 0)
    hi = np.minimum(idx.max(axis=0) + 1 + margin, mask.shape)
    return tuple(slice(int(a), int(b)) for a, b in zip(lo, hi))


@dataclass
class Reference:
    """One subject's reference, decoded and prepared once."""
    raw: np.ndarray
    spacing: tuple[float, ...]
    wmh: np.ndarray
    ignore: np.ndarray
    labels: np.ndarray
    count: int
    surface_mm: np.ndarray          # (K, 3) face-surface voxel centres

    @classmethod
    def load(cls, path: Path) -> "Reference":
        raw, spacing = decode_nifti(path)
        ignore = raw == 2
        wmh = (raw == 1) & ~ignore
        labels, count = ndimage.label(wmh, structure=_BOX26)
        return cls(raw, spacing, wmh, ignore, labels, count,
                   surface_mm(wmh, spacing))


def surface_mm(mask: np.ndarray, spacing, origin=(0, 0, 0)) -> np.ndarray:
    """Centres of the face-surface voxels in mm; ``origin`` is the
    grid index of ``mask[0, 0, 0]`` when ``mask`` is a crop."""
    return ((np.argwhere(face_surface(mask)) + np.asarray(origin))
            * np.asarray(spacing))


def nearest_distances(a: np.ndarray, b: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Brute force over all pairs: for each point of ``a`` the distance
    to the nearest point of ``b``, and the same from ``b`` to ``a``."""
    a_to_b = np.empty(len(a))
    b_to_a = np.full(len(b), np.inf)
    for i in range(0, len(a), _CHUNK):
        d = cdist(a[i:i + _CHUNK], b)
        a_to_b[i:i + _CHUNK] = d.min(axis=1)
        np.minimum(b_to_a, d.min(axis=0), out=b_to_a)
    return a_to_b, b_to_a


def pair_metrics(ref: Reference, pred_raw: np.ndarray,
                 box: tuple[slice, ...]) -> dict:
    """The result-CSV row of one pair, recomputed from voxels inside
    ``box``, which holds every label-1 voxel of both with a background
    margin (so components and surfaces are those of the full grid)."""
    pred = (pred_raw[box] == 1) & ~ref.ignore[box]
    wmh, labels = ref.wmh[box], ref.labels[box]
    vox_ml = ref.spacing[0] * ref.spacing[1] * ref.spacing[2] / 1000.0
    n_ref, n_pred = int(ref.wmh.sum()), int(pred.sum())
    inter = int((wmh & pred).sum())
    out = {
        "dsc": 1.0 if n_ref + n_pred == 0 else 2.0 * inter / (n_ref + n_pred),
        "ref_volume_ml": n_ref * vox_ml,
        "pred_volume_ml": n_pred * vox_ml,
        "avd_pct": abs(n_pred - n_ref) / n_ref * 100.0 if n_ref else None,
        "lavd": (abs(math.log(n_pred / n_ref)) if n_ref and n_pred
                 else None),
        "n_ref_lesions": ref.count,
    }

    pred_labels, n_pred_les = ndimage.label(pred, structure=_BOX26)
    detected = np.zeros(ref.count + 1, dtype=bool)
    detected[np.unique(labels[pred])] = True
    matched = np.zeros(n_pred_les + 1, dtype=bool)
    matched[np.unique(pred_labels[wmh])] = True
    detected, matched = detected[1:], matched[1:]
    if ref.count == 0 and n_pred_les == 0:
        recall = f1 = 1.0
    elif ref.count == 0 or n_pred_les == 0:
        recall = f1 = 0.0
    else:
        recall = detected.sum() / ref.count
        precision = matched.sum() / n_pred_les
        f1 = (0.0 if precision + recall == 0
              else 2 * precision * recall / (precision + recall))
    out["recall"], out["f1"] = float(recall), float(f1)
    if ref.count:
        sizes = np.bincount(ref.labels.ravel())[1:]
        small = sizes <= np.median(sizes)
        out["recall_small"] = (float(detected[small].mean())
                               if small.any() else None)
        out["recall_large"] = (float(detected[~small].mean())
                               if (~small).any() else None)
    else:
        out["recall_small"] = out["recall_large"] = None

    out["h95_mm"] = None
    if n_ref and n_pred:
        origin = [b.start for b in box]
        d_rp, d_pr = nearest_distances(
            ref.surface_mm, surface_mm(pred, ref.spacing, origin))
        out["h95_mm"] = float(max(np.percentile(d_rp, 95),
                                  np.percentile(d_pr, 95)))
    return out


def staple_em(votes: np.ndarray, max_iter=100, tol=1e-6, eps=1e-10):
    """STAPLE by EM over distinct vote patterns, on the full grid.

    ``votes`` is (R, N) bool. Returns per-voxel weights, sensitivity
    and specificity. Same start (0.999), prior (mean vote rate),
    clamping and stopping rule as the program; different arithmetic.
    """
    n_raters, n_vox = votes.shape
    if n_raters > 24:
        raise ValueError(f"{n_raters} raters: too many for a pattern table")
    code = np.zeros(n_vox, dtype=np.int64)
    for j in range(n_raters):
        code |= votes[j].astype(np.int64) << j
    table = np.bincount(code, minlength=1 << n_raters)
    patterns = np.flatnonzero(table)
    index = np.zeros(table.size, dtype=np.int64)
    index[patterns] = np.arange(patterns.size)
    d = ((patterns[:, None] >> np.arange(n_raters)) & 1).astype(np.float64)
    c = table[patterns].astype(np.float64)
    f = votes.sum() / (n_raters * n_vox)

    def logs(x):
        x = np.clip(x, eps, 1 - eps)
        return np.log(x), np.log1p(-x)

    def e_step(p, q):
        lp, l1p = logs(p)
        lq, l1q = logs(q)
        la = math.log(f) + d @ lp + (1 - d) @ l1p
        lb = math.log1p(-f) + d @ l1q + (1 - d) @ lq
        return 1.0 / (1.0 + np.exp(lb - la))

    p = q = np.full(n_raters, 0.999)
    w = e_step(p, q)
    for _ in range(max_iter - 1):
        p = d.T @ (c * w) / (c * w).sum()
        q = (1 - d).T @ (c * (1 - w)) / (c * (1 - w)).sum()
        w_new = e_step(p, q)
        delta = (c * np.abs(w_new - w)).sum() / n_vox
        w = w_new
        if delta < tol:
            break
    return w[index[code]], p, q


# --------------------------------------------------------------- inputs

def read_manifest_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_results(path: Path) -> dict[tuple[str, str], dict]:
    out = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            key = (row.pop("method_id"), row.pop("subject_id"))
            out[key] = {k: (v if k == "scanner_id" else
                            None if v == "" else float(v))
                        for k, v in row.items()}
    return out


@dataclass
class Outputs:
    """What one run's steps wrote, for the checks to read."""
    corpus: Path
    batch_j1: list[Path] = field(default_factory=list)
    batch_j2: list[Path] = field(default_factory=list)
    rank: list[Path] = field(default_factory=list)
    # subject -> (consensus path, weights path, printed stdout)
    staple: dict[str, tuple[Path, Path, str]] = field(default_factory=dict)
    maps: tuple[Path, Path] | None = None
    cohort: list[Path] = field(default_factory=list)


# --------------------------------------------------------------- checks

def check_outputs(out: Outputs, lesions: int,
                  region=None) -> tuple[Report, dict]:
    """Run every check; return the report and corpus statistics."""
    rep = Report()
    rows = read_manifest_rows(out.corpus / "manifest.csv")
    results = read_results(out.batch_j1[0]) if out.batch_j1 else {}

    fn_num = fn_den = fp_num = None
    bbox_fractions = []
    cohort_volumes, cohort_counts = [], []
    by_subject = defaultdict(list)
    for r in rows:
        by_subject[r["subject_id"]].append(r)
    region_box = (None if region is None
                  else tuple(slice(a, b) for a, b in zip(*region)))

    def outside_region(mask: np.ndarray) -> bool:
        return int(mask.sum()) != int(mask[region_box].sum())

    for subject, srows in by_subject.items():
        ref = Reference.load(out.corpus / srows[0]["reference_path"])
        rep.check("corpus.lesion_count", ref.count == lesions,
                  f"{subject}: reference has {ref.count} components, "
                  f"asked for {lesions}")
        ref1 = ref.raw == 1
        cohort_volumes.append(int(ref1.sum()) * ref.spacing[0]
                              * ref.spacing[1] * ref.spacing[2] / 1000.0)
        cohort_counts.append(ndimage.label(ref1, structure=_BOX26)[1])
        if region is not None:
            rep.check("corpus.region", not outside_region(ref1),
                      f"{subject}: reference label 1 outside {region}")
        if fn_num is None:
            fn_num, fn_den, fp_num = (np.zeros(ref.raw.shape, dtype=np.int64)
                                      for _ in range(3))

        raters = []
        for r in srows:
            pred_raw, _ = decode_nifti(out.corpus / r["prediction_path"])
            pred1 = pred_raw == 1
            raters.append(pred_raw != 0)
            fn_num += ref1 & ~pred1
            fn_den += ref1
            fp_num += pred1 & ~ref1
            union = ref1 | pred1
            box = (bbox(union, margin=1) if union.any()
                   else tuple(slice(0, n) for n in union.shape))
            bbox_fractions.append(
                math.prod(b.stop - b.start for b in box) / union.size)
            if region is not None:
                rep.check("corpus.region", not outside_region(pred1),
                          f"{r['prediction_path']}: label 1 outside region")
            key = (r["method_id"], subject)
            if key in results:
                _check_pair(rep, key, results[key],
                            pair_metrics(ref, pred_raw, box))
            elif results:
                rep.check("pair.overlap", False, f"{key} missing from CSV")
        if subject in out.staple:
            _check_staple(rep, subject, np.stack([v.ravel() for v in raters]),
                          *out.staple[subject])

    _check_method_00(rep, results)
    _check_identical(rep, "batch.jobs_identical",
                     out.batch_j1 + out.batch_j2)
    if out.rank:
        _check_identical(rep, "rank.seed_identical", out.rank)
        _check_rank(rep, json.loads(out.rank[0].read_text()), results)
    if out.maps:
        _check_maps(rep, out.maps, fn_num, fn_den, fp_num, len(rows))
    if out.cohort:
        _check_identical(rep, "cohort.values", out.cohort)
        _check_cohort(rep, json.loads(out.cohort[0].read_text()),
                      cohort_volumes, cohort_counts)
    rep.stats["bbox_fraction_mean"] = float(np.mean(bbox_fractions))
    rep.stats["bbox_fraction_max"] = float(np.max(bbox_fractions))
    return rep, rep.stats


def _check_pair(rep: Report, key, got: dict, want: dict) -> None:
    for name in ("dsc", "ref_volume_ml", "pred_volume_ml", "avd_pct", "lavd"):
        rep.check("pair.overlap", close(got[name], want[name]),
                  f"{key} {name}: csv {got[name]} != {want[name]}")
    for name in ("n_ref_lesions", "recall", "f1", "recall_small",
                 "recall_large"):
        rep.check("pair.lesions", close(got[name], want[name]),
                  f"{key} {name}: csv {got[name]} != {want[name]}")
    rep.check("pair.h95", close(got["h95_mm"], want["h95_mm"]),
              f"{key} h95_mm: csv {got['h95_mm']} != {want['h95_mm']}")


def _check_method_00(rep: Report, results: dict) -> None:
    rows = [(k, v) for k, v in results.items() if k[0] == "method_00"]
    rep.check("method_00.identity", bool(rows), "no method_00 rows")
    want = {"dsc": 1.0, "h95_mm": 0.0, "lavd": 0.0, "recall": 1.0, "f1": 1.0}
    for key, v in rows:
        for name, value in want.items():
            rep.check("method_00.identity", v[name] == value,
                      f"{key} {name} = {v[name]}, want {value}")


def _check_identical(rep: Report, name: str, paths: list[Path]) -> None:
    digests = {sha256(p) for p in paths}
    rep.check(name, len(digests) == 1,
              f"{len(paths)} files, {len(digests)} distinct: "
              f"{[p.name for p in paths]}")


def _check_rank(rep: Report, body: dict, results: dict) -> None:
    methods = sorted({m for m, _ in results})
    subjects = sorted({s for _, s in results})
    means = {}
    for m in methods:
        means[m] = {}
        for name in RANKED:
            vals = [results[(m, s)][name] for s in subjects
                    if results[(m, s)][name] is not None]
            means[m][name] = sum(vals) / len(vals)
    ranks = {m: {} for m in methods}
    for name in RANKED:
        col = {m: (-means[m][name] if HIGHER_BETTER[name] else means[m][name])
               for m in methods}
        lo, hi = min(col.values()), max(col.values())
        for m in methods:
            ranks[m][name] = 0.0 if hi == lo else (col[m] - lo) / (hi - lo)
    final = {m: sum(ranks[m].values()) / len(RANKED) for m in methods}

    listed = [e["method_id"] for e in body["methods"]]
    rep.check("rank.final", sorted(listed) == methods,
              f"methods {listed} != {methods}")
    for e in body["methods"]:
        m = e["method_id"]
        if m not in final:
            continue
        rep.check("rank.final", close(e["final_rank"], final[m], 0, TOL_RANK),
                  f"{m} final_rank {e['final_rank']} != {final[m]}")
        for name in RANKED:
            rep.check("rank.final", close(e["means"][name], means[m][name]),
                      f"{m} mean {name} {e['means'][name]} != "
                      f"{means[m][name]}")
            rep.check("rank.final",
                      close(e["metric_ranks"][name], ranks[m][name], 0,
                            TOL_RANK),
                      f"{m} rank {name} {e['metric_ranks'][name]} != "
                      f"{ranks[m][name]}")
        lo, hi = e["final_rank_ci"]
        rep.check("rank.ci_ordered", lo <= hi, f"{m} final CI {lo} > {hi}")
        for name, (lo, hi) in e["mean_ci"].items():
            rep.check("rank.ci_ordered", lo <= hi,
                      f"{m} {name} CI {lo} > {hi}")
    order = [final[m] for m in listed if m in final]
    rep.check("rank.final",
              all(a <= b + TOL_RANK for a, b in zip(order, order[1:])),
              f"methods not in order of final rank: {listed}")
    first = body["methods"][0]
    rep.check("rank.method_00_first",
              first["method_id"] == "method_00" and first["position"] == 1
              and first["final_rank"] == 0.0,
              f"first entry {first['method_id']} at {first['position']} "
              f"with {first['final_rank']}")

    # inter-scanner: population std of per-scanner medians
    scanner_of = {s: results[(methods[0], s)]["scanner_id"]
                  for s in subjects}
    got = {e["method_id"]: e["dispersions"]
           for e in body["interscanner"]["methods"]}
    rep.check("rank.interscanner", sorted(got) == methods,
              f"interscanner methods {sorted(got)}")
    for m in methods:
        for name in RANKED:
            medians = []
            for sc in sorted(set(scanner_of.values())):
                vals = [results[(m, s)][name] for s in subjects
                        if scanner_of[s] == sc
                        and results[(m, s)][name] is not None]
                if vals:
                    medians.append(float(np.median(vals)))
            mu = sum(medians) / len(medians)
            disp = math.sqrt(sum((x - mu) ** 2 for x in medians)
                             / len(medians))
            value = got.get(m, {}).get(name)
            rep.check("rank.interscanner", close(value, disp),
                      f"{m} {name} dispersion {value} != {disp}")


def _check_staple(rep: Report, subject: str, votes: np.ndarray,
                  consensus_path: Path, weights_path: Path,
                  printed: str) -> None:
    consensus, _ = decode_nifti(consensus_path)
    weights, _ = decode_nifti(weights_path)
    cons = consensus.ravel() != 0
    w = weights.ravel().astype(np.float64)
    rep.check("staple.consensus", bool(((w >= 0) & (w <= 1)).all()),
              f"{subject}: weights outside [0, 1]")
    clear = np.abs(w - 0.5) > F32_HALF_ULP
    rep.check("staple.consensus",
              bool((cons[clear] == (w[clear] >= 0.5)).all()),
              f"{subject}: consensus != weights >= 0.5 at "
              f"{int((cons[clear] != (w[clear] >= 0.5)).sum())} voxels")

    w_em, p_em, q_em = staple_em(votes)
    # votes and outputs are both in NIfTI (x-fastest) order via ravel
    # of the decoded (x, y, z) arrays
    err = float(np.abs(w - w_em).max())
    rep.stats["staple_max_weight_error"] = max(
        rep.stats.get("staple_max_weight_error", 0.0), err)
    rep.check("staple.em", err <= TOL_STAPLE + F32_HALF_ULP,
              f"{subject}: weights differ from full-grid EM by {err:.3g}")
    sure = np.abs(w_em - 0.5) > TOL_STAPLE
    rep.check("staple.em", bool((cons[sure] == (w_em[sure] >= 0.5)).all()),
              f"{subject}: consensus disagrees with full-grid EM")
    rows = [line.split() for line in printed.splitlines()[2:]]
    rep.check("staple.em", len(rows) == len(p_em),
              f"{subject}: {len(rows)} rater lines for {len(p_em)} raters")
    for j, row in enumerate(rows[:len(p_em)]):
        sens, spec = float(row[1]), float(row[2])
        rep.check("staple.em",
                  abs(sens - p_em[j]) <= TOL_STAPLE + 5e-7
                  and abs(spec - q_em[j]) <= TOL_STAPLE + 5e-7,
                  f"{subject} rater {j}: printed ({sens}, {spec}) vs EM "
                  f"({p_em[j]:.6f}, {q_em[j]:.6f})")


def _check_maps(rep: Report, paths, fn_num, fn_den, fp_num,
                n_pairs: int) -> None:
    fp_den = n_pairs - fn_den
    for path, num, den, what in ((paths[0], fn_num, fn_den, "FN"),
                                 (paths[1], fp_num, fp_den, "FP")):
        got, _ = decode_nifti(path)
        want = np.zeros(num.shape)
        np.divide(num, den, out=want, where=den > 0)
        err = float(np.abs(got.astype(np.float64) - want).max())
        rep.check("maps.rates", err <= TOL_MAP,
                  f"{what} map differs from recount by {err:.3g}")


def _check_cohort(rep: Report, body: dict, volumes, counts) -> None:
    rep.check("cohort.values", body["n"] == len(volumes),
              f"n {body['n']} != {len(volumes)}")
    got_v = body["volume_ml"]["values"]
    got_c = body["lesion_count"]["values"]
    rep.check("cohort.values", len(got_v) == len(volumes)
              and all(close(a, b) for a, b in zip(got_v, volumes)),
              f"volumes {got_v[:4]}... != {volumes[:4]}...")
    rep.check("cohort.values", got_c == [float(c) for c in counts],
              f"lesion counts {got_c[:4]}... != {counts[:4]}...")
