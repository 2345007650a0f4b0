"""Run one benchmark workload end to end and report its metrics.

    python3 perfbench/run.py --workload brain-roi --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The program is driven only through
``seg_eval.cli.main`` (called in-process, after the imports) and the
public library functions. One run:

1. sets up the workload several times: ``import seg_eval.cli`` in a
   fresh interpreter plus building the corpus (``setup_s`` is the
   median), the first set-up before the rounds, the others between
   them;
2. runs rounds of the CLI steps, as many as fit ``--seconds`` on a
   2-CPU machine:
   ``evaluate-batch --jobs 1`` and ``--jobs 2``, ``rank --bootstrap
   2000 --interscanner``, ``staple`` per subject, ``maps`` and
   ``cohort``;
3. reads the peak resident memory, then checks every output against
   the independent computations in ``checks.py``;
4. prints each metric with its unit, median, quartiles and N, appends
   the same and the SHA-256 of every output file to
   ``.perfbench/results.jsonl``, and ends with one JSON line.

With ``--trace 1`` the rounds also run the ``--jobs 1`` steps with
spans around the library's functions (see ``tracing.py``) and the run
reports the per-layer metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from functools import partial
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = ROOT / ".perfbench"
# one BLAS thread per process: the --jobs 2 step then uses no more
# threads than the two CPUs the benchmark is sized for
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
BOOTSTRAP = 2000

END_TO_END = {
    "setup_s": "s",
    "batch_j1_pairs_per_s": "pairs/s",
    "batch_j2_pairs_per_s": "pairs/s",
    "rank_s": "s",
    "staple_s": "s",
    "maps_s": "s",
    "cohort_s": "s",
    "peak_rss_mb": "MB",
}
TIMED_LAYERS = (
    "nifti.read", "nifti.write", "volume.binarize", "volume.components",
    "volume.surface", "volume.distances", "metrics.evaluate_pair",
    "reportio.read_manifest", "reportio.write_result_csv",
    "reportio.read_result_csv", "ranking.rank_with_ci",
    "ranking.interscanner_rank", "fusion.staple", "analysis.fn_fp_maps",
    "analysis.summarize_cohort", "synth.generate_phantom",
    "synth.perturb_mask",
)
COUNTED_LAYERS = ("nifti.read", "nifti.write", "volume.components",
                  "volume.distances")
IMPORT_PROBE = ("import time; t = time.perf_counter(); import seg_eval.cli; "
                "print(time.perf_counter() - t)")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def quartiles(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = med
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


class Steps:
    """Runs CLI steps in-process and keeps the operation counts."""

    def __init__(self, tracer=None):
        import seg_eval.cli
        self.main = seg_eval.cli.main
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def cli(self, argv: list[str], pairs: int = 0) -> tuple[bool, float, str]:
        """One CLI call; returns (ok, seconds, stdout). Exit code 2
        (success with an undefined metric) counts as success."""
        self.attempted += 1 + pairs
        out, err = io.StringIO(), io.StringIO()
        span = (self.tracer.span(f"cli.{argv[0]}")
                if self.tracer and self.tracer.active
                else contextlib.nullcontext())
        crash = None
        start = perf_counter()
        with span, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            try:
                rc = self.main(argv)
            except Exception:   # a crash is one failed operation
                rc, crash = None, traceback.format_exc()
        seconds = perf_counter() - start
        if rc not in (0, 2):
            self.failed += 1 + pairs
            self.errors.append(f"{argv[0]} exit {rc}: "
                               f"{crash or err.getvalue()}".strip())
        return rc in (0, 2), seconds, out.getvalue()


class Run:
    def __init__(self, workload, seed: int, seconds: float, trace: bool,
                 work: Path):
        from checks import Outputs
        from tracing import Tracer
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = Tracer() if trace else None
        self.steps = Steps(self.tracer)
        self.work = work
        self.samples: dict[str, list[float]] = {}
        self.corpus: Path | None = None
        self.out: Outputs | None = None
        self.setup_calls: dict[str, int] = {}   # summed over set-ups
        self.setup_wall = 0.0
        self.results: Path | None = None    # latest --jobs 1 CSV
        self.subjects: dict[str, list[str]] = {}   # subject -> predictions
        self.rounds = 0

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    # ------------------------------------------------------------ set-up

    def setup(self, i: int) -> None:
        """Set-up ``i``: the import probe plus building corpus ``i``.
        The rounds all run on corpus 0; the later corpora (the same
        bytes) are built for their timing only."""
        from checks import Outputs
        from workloads import build_corpus
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                               env=env, capture_output=True, text=True,
                               check=True, timeout=120)
        corpus = self.work / f"corpus{i}"
        before = ({n: self.tracer.calls(n) for n in COUNTED_LAYERS}
                  if self.tracer else {})
        self.steps.attempted += 1
        with (self.tracer.installed() if self.tracer
              else contextlib.nullcontext()):
            start = perf_counter()
            rc = build_corpus(self.w, self.seed, corpus)
            built = perf_counter() - start
        if rc != 0:
            raise RuntimeError(f"corpus build exited {rc}")
        self.sample("setup_s", float(probe.stdout) + built)
        for n, count in before.items():
            self.setup_calls[n] = (self.setup_calls.get(n, 0)
                                   + self.tracer.calls(n) - count)
        # every corpus stays until the run ends, and every written file
        # reaches the disk now: deletes and writeback would otherwise
        # run during the timed steps that follow
        os.sync()
        if self.corpus is None:
            self.corpus = corpus
            self.out = Outputs(corpus=corpus)

    # ------------------------------------------------------------ rounds

    def measure(self) -> None:
        """The set-ups spread between the rounds (set-up j before round
        j * rounds // set-ups), so that the rounds' samples span the
        whole run rather than its second part; the first set-up and a
        warm-up come before the first round."""
        from checks import read_manifest_rows
        rounds = self.w.rounds(self.seconds)
        if self.tracer:
            # a traced round runs the --jobs 1 steps twice
            rounds = (rounds + 1) // 2
        setups = self.w.setup_repeats
        for i in range(rounds):
            for j in range(setups):
                if j * rounds // setups == i:
                    start = perf_counter()
                    self.setup(j)
                    self.setup_wall += perf_counter() - start
            if i == 0:
                self.warm_up(read_manifest_rows(self.corpus / "manifest.csv"))
            self.round(i)
        self.rounds = rounds

    def warm_up(self, rows: list[dict]) -> None:
        for r in rows:
            self.subjects.setdefault(r["subject_id"], []).append(
                str(self.corpus / r["prediction_path"]))
        first = rows[0]
        # the first evaluation imports what the library loads lazily
        self.steps.cli(["evaluate", str(self.corpus / first["reference_path"]),
                        str(self.corpus / first["prediction_path"]),
                        "-o", str(self.work / "warmup.json")])
        (self.work / "out").mkdir()

    def batch(self, jobs: int, i: int, sample: str) -> None:
        path = self.work / "out" / f"results_{i}_{sample}.csv"
        ok, seconds, _ = self.steps.cli(
            ["evaluate-batch", str(self.corpus / "manifest.csv"),
             "-o", str(path), "--jobs", str(jobs)], pairs=self.w.pairs)
        if ok:
            self.sample(sample, seconds)
            (self.out.batch_j1 if jobs == 1 else self.out.batch_j2).append(
                path)
            if jobs == 1:
                self.results = path

    def rank(self, i: int, k: int) -> None:
        path = self.work / "out" / f"rank_{i}_{k}.json"
        ok, seconds, _ = self.steps.cli(
            ["rank", str(self.results), "--bootstrap", str(BOOTSTRAP),
             "--interscanner", "-o", str(path)])
        if ok:
            self.sample("rank", seconds)
            self.out.rank.append(path)

    def cohort(self, i: int, k: int) -> None:
        path = self.work / "out" / f"cohort_{i}_{k}.json"
        ok, seconds, _ = self.steps.cli(
            ["cohort", str(self.corpus / "manifest.csv"), "-o", str(path)])
        if ok:
            self.sample("cohort", seconds)
            self.out.cohort.append(path)

    def staple(self, subjects: list[str], total: list) -> None:
        """``staple`` for each of ``subjects``; adds the seconds to
        ``total[0]`` and clears ``total[1]`` if a call failed."""
        out_dir = self.work / "out"
        for subject in subjects:
            cons = out_dir / f"{subject}_staple.nii.gz"
            weights = out_dir / f"{subject}_staple_weights.nii.gz"
            ok, seconds, printed = self.steps.cli(
                ["staple", *self.subjects[subject], "-o", str(cons),
                 "--weights-out", str(weights)])
            total[0] += seconds
            total[1] &= ok
            if ok:
                self.out.staple[subject] = (cons, weights, printed)

    def maps(self) -> None:
        out_dir = self.work / "out"
        fn, fp = out_dir / "fn.nii.gz", out_dir / "fp.nii.gz"
        ok, seconds, _ = self.steps.cli(
            ["maps", str(self.corpus / "manifest.csv"),
             "--fn-out", str(fn), "--fp-out", str(fp)])
        if ok:
            self.sample("maps", seconds)
            self.out.maps = (fn, fp)

    def round(self, i: int) -> None:
        """The long steps (batches, maps) with their repeats interleaved
        (batch, maps, batch, maps, ...), and the short ones spread
        evenly between them: the ``staple`` calls of the subjects in
        one chunk per long step, then ``rank`` and ``cohort``. So the
        samples of every step span the whole round rather than a few
        seconds of it; ``staple_s`` is the sum of the round's chunks."""
        if self.tracer is None:
            batches = [partial(self.batch, 1, i, "batch_j1"),
                       partial(self.batch, 2, i, "batch_j2")]
        else:
            # untraced bases first, then the --jobs 1 steps traced
            self.batch(1, i, "batch_j1")
            self.batch(2, i, "batch_j2")
            batches = [partial(self.batch, 1, i, "traced_batch_j1")]
        reps = self.w.repeats
        kinds = [batches, [self.maps] * reps.get("maps", 1)]
        long = [kind[k] for k in range(max(map(len, kinds)))
                for kind in kinds if k < len(kind)]
        shorts: list[list] = [[] for _ in long]
        subjects = list(self.subjects)
        n = min(len(long), len(subjects))
        staple = [0.0, True]
        for k in range(n):
            chunk = subjects[k * len(subjects) // n:
                             (k + 1) * len(subjects) // n]
            shorts[k * len(long) // n].append(
                partial(self.staple, chunk, staple))
        for step in (self.rank, self.cohort):
            n = reps.get(step.__name__, 1)
            for k in range(n):
                shorts[k * len(long) // n].append(partial(step, i, k))
        with (self.tracer.installed() if self.tracer
              else contextlib.nullcontext()):
            for step, after in zip(long, shorts):
                step()
                for short in after:
                    short()
        if staple[1]:
            self.sample("staple", staple[0])

    # ----------------------------------------------------------- metrics

    def end_to_end(self, peak_rss_mb: float) -> dict[str, list[float]]:
        s = self.samples
        return {
            "setup_s": s["setup_s"],
            "batch_j1_pairs_per_s": [self.w.pairs / t for t in s["batch_j1"]],
            "batch_j2_pairs_per_s": [self.w.pairs / t for t in s["batch_j2"]],
            "rank_s": s["rank"],
            "staple_s": s["staple"],
            "maps_s": s["maps"],
            "cohort_s": s["cohort"],
            "peak_rss_mb": [peak_rss_mb],
        }

    def per_layer(self) -> dict[str, tuple[list[float], str]]:
        t = self.tracer
        per_round = 1.0 / self.rounds
        per_setup = 1.0 / self.w.setup_repeats
        m: dict[str, tuple[list[float], str]] = {}
        for name in TIMED_LAYERS:
            m[f"{name}_ms"] = ([1000.0 * d for d in t.durations(name)], "ms")
        m["metrics.evaluate_pair_self_ms"] = (
            [1000.0 * d for d in t.self_times("metrics.evaluate_pair")], "ms")
        for name in COUNTED_LAYERS:
            in_setup = self.setup_calls[name]
            calls = (in_setup * per_setup
                     + (t.calls(name) - in_setup) * per_round)
            m[f"{name}_calls"] = ([calls], "count")
        for name in ("ranking.redraws", "fusion.staple_iterations"):
            m[name] = ([t.counts[name] * per_round], "count")

        batches = [i for i, (n, *_) in enumerate(t.spans)
                   if n == "cli.evaluate-batch"]
        m["cli.batch_overhead_ms"] = ([
            1000.0 * (t.spans[i][2] - t.spans[i][1]
                      - t.children_of(i, {"nifti.read",
                                          "metrics.evaluate_pair"}))
            / self.w.pairs for i in batches], "ms")
        j1 = statistics.median(self.samples["batch_j1"])
        j2 = statistics.median(self.samples["batch_j2"])
        traced = statistics.median(self.samples["traced_batch_j1"])
        m["cli.batch_j1_s"] = (self.samples["batch_j1"], "s")
        m["cli.batch_j2_s"] = (self.samples["batch_j2"], "s")
        m["cli.jobs2_speedup"] = ([j1 / j2], "ratio")
        m["bench.traced_batch_j1_s"] = (self.samples["traced_batch_j1"], "s")
        m["bench.trace_overhead_pct"] = ([100.0 * (traced - j1) / j1], "%")
        return m


def environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "jobs_max": 2,
    }


def digests(run: Run) -> dict[str, str]:
    from checks import sha256
    return {str(p.relative_to(run.work)): sha256(p)
            for d in (run.corpus, run.work / "out")
            for p in sorted(d.rglob("*")) if p.is_file()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "seg_eval" / "__init__.py").is_file():
        print(f"perfbench: no seg_eval sources under {ROOT / 'src'}; "
              f"run from the root of a seg-eval checkout", file=sys.stderr)
        return 1
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    from checks import check_outputs
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 1
    w = WORKLOADS[args.workload]

    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    RESULTS_DIR.mkdir(exist_ok=True)
    work = RESULTS_DIR / f"work-{w.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    phases = {}
    try:
        run = Run(w, args.seed, args.seconds, bool(args.trace), work)
        t1 = perf_counter()
        run.measure()
        t2 = perf_counter()
        usage = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        peak_rss_mb = max(usage) / 1024.0
        report, corpus_stats = check_outputs(run.out, w.lesions, w.region)
        files = digests(run)
        phases = {"setup": run.setup_wall,
                  "rounds": t2 - t1 - run.setup_wall,
                  "check": perf_counter() - t2}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = run.per_layer()
    else:
        metrics = {k: (v, END_TO_END[k])
                   for k, v in run.end_to_end(peak_rss_mb).items()}
    summary = {k: dict(quartiles(v), unit=u, samples=v)
               for k, (v, u) in metrics.items()}
    env = environment()
    correct = report.passed

    print(f"perfbench {w.name} seed {args.seed} trace {args.trace}: "
          f"{run.rounds} rounds, {w.pairs} pairs per batch")
    print("  " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for name, s in summary.items():
        print(f"  {name:32s} {s['median']:14.6g} {s['unit']:8s} "
              f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  N={s['n']}")
    print(f"  corpus: {corpus_stats}")
    print("  wall: " + "  ".join(f"{k} {v:.1f} s" for k, v in phases.items()))
    for name, found in sorted(report.failures.items()):
        print(f"  check {name:24s} {'FAIL' if found else 'pass'}")
        for line in found:
            print(f"      {line}")
    for line in run.steps.errors:
        print(f"  failed operation: {line}")
    print(f"  {len(files)} output files hashed into "
          f"{RESULTS_DIR.name}/results.jsonl")

    record = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": w.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": run.rounds, "phases_s": phases,
        "environment": env,
        "metrics": summary, "corpus": corpus_stats,
        "checks": report.failures, "errors": run.steps.errors,
        "correct": correct, "attempted": run.steps.attempted,
        "failed": run.steps.failed, "sha256": files,
    }
    with open(RESULTS_DIR / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    if run.tracer:
        spans = RESULTS_DIR / f"spans-{w.name}-seed{args.seed}.json"
        spans.write_text(json.dumps(run.tracer.to_records()))

    print(json.dumps({
        "correct": correct, "attempted": run.steps.attempted,
        "failed": run.steps.failed,
        "metrics": {k: {"value": s["median"], "unit": s["unit"]}
                    for k, s in summary.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
