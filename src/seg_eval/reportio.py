"""Every file format the package writes: the per-subject result CSV,
manifests, the rank CSV and the JSON report bodies, whose numpy values
``dump_json`` encodes.

The result CSV schema is frozen; tools downstream key on these exact
column names. Missing metric values are written as empty fields, never
as sentinels.

A manifest is read as a list of subjects: each has one reference, one
scanner and the rows that score predictions against that reference.
Both CSV files are UTF-8; any malformed file is a ``ParseError`` that
names it.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import CohortSummary, Summary
from .errors import ArityError, ParseError
from .metrics import MetricVector
from .ranking import InterscannerResult, RankTable, ResultTable, SubjectResult

__all__ = [
    "RESULT_COLUMNS",
    "MANIFEST_COLUMNS",
    "ManifestRow",
    "ManifestSubject",
    "write_result_csv",
    "read_result_csv",
    "read_manifest",
    "write_manifest",
    "metric_report",
    "rank_report",
    "write_rank_csv",
    "cohort_report",
    "dump_json",
]

SCHEMA_VERSION = 1

RESULT_COLUMNS = (
    "method_id", "subject_id", "scanner_id",
    "dsc", "h95_mm", "avd_pct", "lavd", "recall", "f1",
    "recall_small", "recall_large",
    "n_ref_lesions", "ref_volume_ml", "pred_volume_ml",
)

MANIFEST_COLUMNS = ("method_id", "subject_id", "scanner_id",
                    "reference_path", "prediction_path")

_FLOAT_FIELDS = ("dsc", "h95_mm", "avd_pct", "lavd", "recall", "f1",
                 "recall_small", "recall_large",
                 "ref_volume_ml", "pred_volume_ml")
_REQUIRED_FIELDS = ("dsc", "recall", "f1")


def _fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value)) if isinstance(value, float) else str(value)


def write_result_csv(records: list[SubjectResult], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        for rec in records:
            writer.writerow([rec.method_id, rec.subject_id, rec.scanner_id,
                             *(_fmt(getattr(rec.metrics, name))
                               for name in RESULT_COLUMNS[3:])])


def _parse_cell(path, cell: str, row: int, column: str, kind: type):
    if cell == "":
        return None
    try:
        value = kind(cell)
    except ValueError:
        raise ParseError(f"{path}: row {row}, column {column}: "
                         f"cannot parse {cell!r} as {kind.__name__}",
                         row=row, column=column) from None
    if not math.isfinite(value):
        raise ParseError(f"{path}: row {row}, column {column}: "
                         f"{cell!r} is not a finite number",
                         row=row, column=column)
    return value


def _csv_rows(path: Path, columns: tuple[str, ...]):
    """Yield (row number, cells) for each row of a UTF-8 CSV file, with
    or without a byte-order mark, under the header ``columns``; anything
    else is a ParseError naming it."""
    try:
        text = path.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    header = next(reader, None)
    if header is None:
        raise ParseError(f"{path}: empty file", row=1)
    if tuple(header) != columns:
        raise ParseError(f"{path}: unexpected header {header}", row=1)
    for lineno, cells in enumerate(reader, start=2):
        if len(cells) != len(columns):
            raise ParseError(f"{path}: row {lineno} has {len(cells)} "
                             f"cells, expected {len(columns)}", row=lineno)
        yield lineno, cells


def read_result_csv(path: str | Path) -> ResultTable:
    """Load a result CSV back into a table, validating the header, every
    cell and the table's invariants."""
    records = []
    for lineno, cells in _csv_rows(Path(path), RESULT_COLUMNS):
        row = dict(zip(RESULT_COLUMNS, cells))
        values = {name: _parse_cell(path, row[name], lineno, name, float)
                  for name in _FLOAT_FIELDS}
        values["n_ref_lesions"] = _parse_cell(
            path, row["n_ref_lesions"], lineno, "n_ref_lesions", int)
        for name in _REQUIRED_FIELDS:
            if values[name] is None:
                raise ParseError(
                    f"{path}: row {lineno}: column {name} must not be empty",
                    row=lineno, column=name)
        records.append(SubjectResult(row["method_id"], row["subject_id"],
                                     row["scanner_id"], MetricVector(**values)))
    try:
        return ResultTable(records)
    except (ArityError, ValueError) as exc:
        raise ParseError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class ManifestRow:
    """One manifest row: its 1-based number, method and prediction."""

    line: int
    method_id: str
    prediction_path: Path


@dataclass(frozen=True)
class ManifestSubject:
    """A manifest subject: its one reference and scanner, and its rows."""

    subject_id: str
    scanner_id: str
    reference_path: Path
    rows: list[ManifestRow]


def read_manifest(path: str | Path) -> list[ManifestSubject]:
    """Read an evaluation manifest into its subjects, in order of first
    appearance. A subject's rows need not be adjacent, but must agree on
    its reference and scanner. Relative paths resolve against the
    manifest's own directory."""
    path = Path(path)
    base = path.parent
    subjects: dict[str, ManifestSubject] = {}
    raw_refs: dict[str, str] = {}
    seen = set()
    for lineno, cells in _csv_rows(path, MANIFEST_COLUMNS):
        method, subject, scanner, ref, pred = cells
        if not ref or not pred:
            raise ParseError(f"{path}: row {lineno} has an empty path",
                             row=lineno)
        if "\0" in ref or "\0" in pred:
            raise ParseError(f"{path}: row {lineno} has a NUL byte in a "
                             f"path", row=lineno)
        key = (method, subject)
        if key in seen:
            raise ParseError(
                f"{path}: duplicate (method, subject) {key} "
                f"at row {lineno}", row=lineno)
        seen.add(key)
        group = subjects.get(subject)
        if group is None:
            group = subjects[subject] = ManifestSubject(
                subject, scanner, base / ref, [])
            raw_refs[subject] = ref
        elif ref != raw_refs[subject] and base / ref != group.reference_path:
            raise ParseError(
                f"{path}: row {lineno}: subject {subject!r} has reference "
                f"{ref!r}, but row {group.rows[0].line} gave "
                f"{raw_refs[subject]!r}", row=lineno, column="reference_path")
        if scanner != group.scanner_id:
            raise ParseError(
                f"{path}: row {lineno}: subject {subject!r} is under scanner "
                f"{scanner!r}, but row {group.rows[0].line} gave "
                f"{group.scanner_id!r}", row=lineno, column="scanner_id")
        group.rows.append(ManifestRow(lineno, method, base / pred))
    if not subjects:
        raise ParseError(f"{path}: manifest has a header but no rows", row=1)
    return list(subjects.values())


def write_manifest(rows, path: str | Path) -> None:
    """Write ``MANIFEST_COLUMNS`` rows: UTF-8, LF line ends, no quoting."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(MANIFEST_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _jsonable(value):
    """``json``'s fallback for the numpy values a report may hold."""
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    raise TypeError(f"cannot serialise {type(value)!r}")


def _envelope(config: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool": {"name": "seg-eval", "version": __version__},
        "config": config,
    }


def metric_report(vector: MetricVector, config: dict) -> dict:
    body = _envelope(config)
    body["metrics"] = vector.as_dict()
    return body


def _rank_record(rank: RankTable, i: int) -> dict:
    """Method ``i``'s entry in a rank report; the rank CSV flattens it."""
    entry = {
        "method_id": rank.methods[i],
        "position": rank.positions[i],
        "final_rank": rank.final[i],
        "metric_ranks": {k: v[i] for k, v in rank.metric_ranks.items()},
        "means": {k: v[i] for k, v in rank.means.items()},
        "counts": {k: v[i] for k, v in rank.counts.items()},
    }
    if rank.final_ci is not None:
        entry["final_rank_ci"] = rank.final_ci[i]
        entry["mean_ci"] = {k: v[i] for k, v in rank.mean_ci.items()}
    return entry


def rank_report(rank: RankTable, config: dict,
                interscanner: InterscannerResult | None = None) -> dict:
    body = _envelope(config)
    body["volume_metric"] = rank.volume_metric
    body["methods"] = [_rank_record(rank, i) for i in range(len(rank.methods))]
    body["cluster_boundaries"] = rank.cluster_boundaries
    if rank.bootstrap is not None:
        body["bootstrap"] = {
            "replicates": rank.bootstrap.replicates,
            "seed": rank.bootstrap.seed,
            "confidence": rank.bootstrap.confidence,
            "redraws": rank.redraws,
        }
    if interscanner is not None:
        body["interscanner"] = {
            "normalization": interscanner.normalization,
            "methods": [
                {"method_id": m,
                 "robustness": interscanner.robustness[i],
                 "dispersions": {k: v[i] for k, v
                                 in interscanner.dispersions.items()}}
                for i, m in enumerate(interscanner.methods)],
        }
    return body


def write_rank_csv(rank: RankTable, path: str | Path) -> None:
    metrics = sorted(rank.metric_ranks)
    header = ["method_id", "position", "final_rank", "final_ci_low",
              "final_ci_high"]
    for name in metrics:
        header += [f"mean_{name}", f"rank_{name}"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(len(rank.methods)):
            rec = _rank_record(rank, i)
            cells = [rec["method_id"], rec["position"], rec["final_rank"],
                     *rec.get("final_rank_ci", (None, None))]
            for name in metrics:
                cells += [rec["means"][name], rec["metric_ranks"][name]]
            writer.writerow(map(_fmt, cells))


def _distribution(s: Summary, values, hist) -> dict:
    return {"mean": s.mean, "sd": s.sd, "min": s.minimum, "q1": s.q1,
            "median": s.median, "q3": s.q3, "max": s.maximum, "n": s.n,
            "sd_degenerate": s.sd_degenerate, "values": values,
            "histogram": {"edges": hist[0], "counts": hist[1]}}


def cohort_report(summary: CohortSummary, config: dict) -> dict:
    body = _envelope(config)
    body["n"] = summary.n
    body["volume_ml"] = _distribution(summary.volume, summary.volumes_ml,
                                      summary.volume_hist)
    body["lesion_count"] = _distribution(summary.count, summary.lesion_counts,
                                         summary.count_hist)
    return body


def dump_json(body: dict, path: str | Path | None) -> None:
    """Write a JSON report to ``path``, or to stdout when it is None."""
    text = json.dumps(body, indent=2, default=_jsonable)
    if path is None:
        print(text)
    else:
        Path(path).write_text(text + "\n")
