"""Crash-failure deduplication toolkit.

Converts crash-dump call stacks into component sequences using knowledge
mined from build manifests, scores stack pairs with an LCS-based
exponential similarity model, tunes the model by AUC grid search, and
drives a detect-then-bind-or-file triage workflow.
"""

from .detector import DetectionResult, Detector, FailureRecord, FailureStore, RecencyWindow
from .dump_parser import CrashDump, StackFrame, clean_frame, parse_dump
from .errors import KDetectorError
from .knowledge_miner import ComponentMap, mine_tree
from .sequencer import (
    ComponentOccurrence,
    ComponentSequence,
    component_distance,
    to_component_sequence,
)
from .similarity import (
    MatchedPair,
    ModelParams,
    SimilarityScore,
    baseline_edit_distance,
    baseline_prefix_match,
    lcs_match,
    similarity,
)
from .stopwords import StopWordList, derive_stop_words, filter_stop_words
from .trainer import (
    LabeledPair,
    build_groups,
    compute_auc,
    sample_pairs,
    tune_parameters,
)

__version__ = "0.1.0"

__all__ = [
    "CrashDump",
    "StackFrame",
    "clean_frame",
    "parse_dump",
    "ComponentMap",
    "mine_tree",
    "ComponentOccurrence",
    "ComponentSequence",
    "component_distance",
    "to_component_sequence",
    "MatchedPair",
    "ModelParams",
    "SimilarityScore",
    "baseline_edit_distance",
    "baseline_prefix_match",
    "lcs_match",
    "similarity",
    "StopWordList",
    "derive_stop_words",
    "filter_stop_words",
    "FailureRecord",
    "LabeledPair",
    "build_groups",
    "compute_auc",
    "sample_pairs",
    "tune_parameters",
    "DetectionResult",
    "Detector",
    "FailureStore",
    "RecencyWindow",
    "KDetectorError",
    "__version__",
]
