"""Spans around the program's public functions, recorded from outside.

``Tracer.install`` replaces each traced function at the module
attribute its callers look up (``read_nifti`` in ``seg_eval.cli``,
``connected_components`` in ``seg_eval.metrics`` and so on) with a
wrapper that records a span: name, start, end and the index of the
enclosing span. Counts that the results carry (bootstrap redraws,
STAPLE iterations) are taken at the same boundary. Spans stay in
memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import seg_eval.analysis
import seg_eval.cli
import seg_eval.metrics
import seg_eval.nifti
import seg_eval.synth

# (module, attribute, span name); one function may sit under several
# modules, because each caller module holds its own reference
TARGETS = (
    (seg_eval.cli, "read_nifti", "nifti.read"),
    (seg_eval.cli, "write_nifti", "nifti.write"),
    (seg_eval.nifti, "write_nifti", "nifti.write"),
    (seg_eval.cli, "write_nifti_real", "nifti.write_real"),
    (seg_eval.cli, "binarize_challenge", "volume.binarize"),
    (seg_eval.metrics, "binarize_challenge", "volume.binarize"),
    (seg_eval.metrics, "connected_components", "volume.components"),
    (seg_eval.analysis, "connected_components", "volume.components"),
    (seg_eval.metrics, "surface_voxels", "volume.surface"),
    (seg_eval.metrics, "directed_surface_distances", "volume.distances"),
    (seg_eval.cli, "evaluate_pair", "metrics.evaluate_pair"),
    (seg_eval.cli, "read_manifest", "reportio.read_manifest"),
    (seg_eval.cli, "write_result_csv", "reportio.write_result_csv"),
    (seg_eval.cli, "read_result_csv", "reportio.read_result_csv"),
    (seg_eval.cli, "rank_with_ci", "ranking.rank_with_ci"),
    (seg_eval.cli, "interscanner_rank", "ranking.interscanner_rank"),
    (seg_eval.cli, "staple_fuse", "fusion.staple"),
    (seg_eval.cli, "fn_fp_maps", "analysis.fn_fp_maps"),
    (seg_eval.cli, "summarize_cohort", "analysis.summarize_cohort"),
    (seg_eval.cli, "generate_phantom", "synth.generate_phantom"),
    (seg_eval.synth, "generate_phantom", "synth.generate_phantom"),
    (seg_eval.cli, "perturb_mask", "synth.perturb_mask"),
    (seg_eval.synth, "perturb_mask", "synth.perturb_mask"),
)

# counts read off a traced function's result
RESULT_COUNTS = {
    "ranking.rank_with_ci": ("ranking.redraws", lambda r: r.redraws),
    "fusion.staple": ("fusion.staple_iterations", lambda r: r.iterations),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.active = False

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, parent))
        self._stack.append(index)
        start = perf_counter()
        try:
            yield index
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def _wrap(self, name: str, fn):
        counter = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                self.counts[counter[0]] += counter[1](result)
            return result
        return traced

    def install(self) -> None:
        wrapped = {}
        for module, attr, name in TARGETS:
            fn = getattr(module, attr)
            if id(fn) not in wrapped:
                wrapped[id(fn)] = self._wrap(name, fn)
            self._saved.append((module, attr, fn))
            setattr(module, attr, wrapped[id(fn)])
        self.active = True

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)
        self.active = False

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # ---------------------------------------------------------- analysis

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def child_time(self) -> list[float]:
        """Per span, the summed duration of its direct children."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return covered

    def self_times(self, name: str) -> list[float]:
        covered = self.child_time()
        return [end - start - covered[i]
                for i, (n, start, end, _) in enumerate(self.spans)
                if n == name]

    def children_of(self, index: int, names: set[str]) -> float:
        return sum(end - start for n, start, end, parent in self.spans
                   if parent == index and n in names)

    def calls(self, name: str) -> int:
        return sum(1 for n, *_ in self.spans if n == name)

    def to_records(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans]
