"""Evaluation and ranking toolkit for WMH segmentation challenges."""

__version__ = "0.1.0"

from .errors import SegEvalError
from .volume import BinaryMask, LabelVolume
from .metrics import MetricVector, evaluate_pair, prepare_reference
from .fusion import FusionResult, StapleParams, majority_vote, staple_fuse
from .ranking import (BootstrapConfig, RankTable, ResultTable, SubjectResult,
                      final_rank, interscanner_rank, rank_with_ci,
                      significance_clusters)
from .nifti import read_nifti, write_nifti, write_nifti_real
from .synth import PerturbOps, PhantomSpec, generate_phantom, perturb_mask

__all__ = [
    "__version__",
    "SegEvalError",
    "BinaryMask",
    "LabelVolume",
    "MetricVector",
    "evaluate_pair",
    "prepare_reference",
    "FusionResult",
    "StapleParams",
    "majority_vote",
    "staple_fuse",
    "BootstrapConfig",
    "RankTable",
    "ResultTable",
    "SubjectResult",
    "final_rank",
    "interscanner_rank",
    "rank_with_ci",
    "significance_clusters",
    "read_nifti",
    "write_nifti",
    "write_nifti_real",
    "PerturbOps",
    "PhantomSpec",
    "generate_phantom",
    "perturb_mask",
]
