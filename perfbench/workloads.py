"""The benchmark's workloads and the corpora they run on.

Every workload runs the same CLI steps in the same order; only the
corpus differs. ``uniform-c9`` and ``challenge-scale`` are built with
``seg-eval synth``. ``brain-roi`` cannot be: its lesions sit in a
central box, so it is built here from the public ``seg_eval.synth``
and ``seg_eval.nifti`` functions with the same graded perturbation
recipe that ``synth`` applies, on the box, padded into the full grid.

Corpus functions look up library functions through their modules at
call time, so the traced run sees them through the same wrappers as
the CLI's own calls.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import seg_eval.cli
import seg_eval.nifti
import seg_eval.synth
import seg_eval.volume
from seg_eval.synth import PerturbOps, PhantomSpec
from seg_eval.volume import LabelVolume

MANIFEST_HEADER = ("method_id,subject_id,scanner_id,"
                   "reference_path,prediction_path")

C9_DIMS = (256, 256, 48)
C9_SPACING = (0.96, 0.95, 3.0)


@dataclass(frozen=True)
class Workload:
    name: str
    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    subjects: int
    methods: int
    scanners: int
    lesions: int
    size_range: tuple[int, int]
    # (lo, hi) corner voxels of the box that holds every lesion, or
    # None for lesions anywhere on the grid (built by ``seg-eval synth``)
    region: tuple[tuple[int, int, int], tuple[int, int, int]] | None = None
    # calls per round of rank, cohort and maps (default 1): rank and
    # cohort are placed evenly after the long steps, so that enough
    # calls span the whole round, not the few seconds around one step
    repeats: dict[str, int] = field(default_factory=dict)
    setup_repeats: int = 3
    # nominal length of one round on a 2-CPU machine: a run of S
    # seconds makes round(S / round_s) rounds, at least one, so the
    # work of a run does not depend on how fast the machine was
    round_s: float = 15.0

    @property
    def pairs(self) -> int:
        return self.subjects * self.methods

    def rounds(self, seconds: float) -> int:
        return max(1, round(seconds / self.round_s))

    def seed_base(self, seed: int) -> int:
        # subject s of seed n uses seed_base + s; 1000 apart keeps the
        # subjects of neighbouring seeds distinct
        return 1000 * seed


# uniform-c9 runs by name but is not in BENCHMARK.json: the benchmark's
# run budget leaves room for two workloads (see README.md)
WORKLOADS = {
    w.name: w for w in (
        Workload("uniform-c9", C9_DIMS, C9_SPACING, subjects=2, methods=5,
                 scanners=2, lesions=25, size_range=(5, 400),
                 repeats={"rank": 6, "cohort": 4}),
        Workload("brain-roi", C9_DIMS, C9_SPACING, subjects=2, methods=5,
                 scanners=2, lesions=25, size_range=(5, 400),
                 region=((64, 64, 12), (192, 192, 36)),
                 repeats={"rank": 6, "cohort": 4}),
        Workload("challenge-scale", (32, 32, 8), C9_SPACING, subjects=110,
                 methods=20, scanners=5, lesions=3, size_range=(3, 40),
                 repeats={"rank": 6, "cohort": 12, "maps": 2},
                 setup_repeats=2),
    )
}


def method_ops(index: int, seed: int) -> PerturbOps:
    """The graded degradation recipe of ``seg-eval synth``: method 0
    reproduces the reference, higher indices drift further from it."""
    if index == 0:
        return PerturbOps(seed=seed)
    return PerturbOps(
        dilate=1 if index % 3 == 2 else 0,
        erode=1 if index % 3 == 0 else 0,
        add_blobs=index,
        blob_size=7,
        translate=(index % 2, 0, 0),
        seed=seed + index)


def build_corpus(w: Workload, seed: int, out: Path) -> int:
    """Write the workload's corpus and manifest into ``out``; return
    the CLI exit code (0 when built here)."""
    if w.region is None:
        argv = ["synth", "--out-dir", str(out),
                "--subjects", str(w.subjects), "--methods", str(w.methods),
                "--scanners", str(w.scanners),
                "--seed", str(w.seed_base(seed)),
                "--dims", *map(str, w.dims),
                "--spacing", *map(repr, w.spacing),
                "--lesions", str(w.lesions),
                "--size-range", *map(str, w.size_range)]
        with contextlib.redirect_stdout(io.StringIO()):
            return seg_eval.cli.main(argv)
    build_region_corpus(w, seed, out)
    return 0


def build_region_corpus(w: Workload, seed: int, out: Path) -> None:
    """Lesions and perturbations generated on the region box, then
    padded with background into the full grid."""
    out.mkdir(parents=True, exist_ok=True)
    lo, hi = (np.asarray(c) for c in w.region)
    box = tuple(slice(int(a), int(b)) for a, b in zip(lo, hi))
    sub_dims = tuple(int(d) for d in hi - lo)
    base = w.seed_base(seed)

    def padded(sub: np.ndarray) -> LabelVolume:
        data = np.zeros(w.dims, dtype=np.int32)
        data[box] = sub
        return LabelVolume(data, w.spacing)

    rows = []
    for si in range(w.subjects):
        ref = seg_eval.synth.generate_phantom(PhantomSpec(
            dims=sub_dims, spacing=w.spacing, n_lesions=w.lesions,
            size_range=w.size_range, seed=base + si))
        subject = f"sub-{si:03d}"
        scanner = f"scanner_{si % w.scanners}"
        ref_name = f"{subject}_ref.nii.gz"
        seg_eval.nifti.write_nifti(padded(ref.data), out / ref_name)
        wmh = seg_eval.volume.BinaryMask(ref.data == 1, w.spacing)
        for mi in range(w.methods):
            method = f"method_{mi:02d}"
            pred = seg_eval.synth.perturb_mask(wmh, method_ops(mi, base + si))
            pred_name = f"{subject}_{method}.nii.gz"
            seg_eval.nifti.write_nifti(padded(pred.data), out / pred_name)
            rows.append(",".join((method, subject, scanner,
                                  ref_name, pred_name)))
    (out / "manifest.csv").write_text(
        "\n".join((MANIFEST_HEADER, *rows)) + "\n")
