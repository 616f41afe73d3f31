"""Suffix prediction for event logs, with background-knowledge modulation.

The package predicts how a running process case will continue: a beam
search over a next-activity model (n-gram or a small numpy transformer)
whose scores can be modulated by token-replay fitness against a Petri net
that encodes background knowledge the model may not have seen often enough
to trust.
"""

from .attention import AttentionConfig, AttentionModel, train_attention
from .beam import (
    BeamConfig,
    BeamResult,
    baseline_beam,
    checked_beam,
    modulated_beam,
    perfect_fitness_checker,
    sweep_beams,
)
from .encoding import Vocabulary, build_vocabulary
from .eventlog import (
    END,
    EventLog,
    PrefixLog,
    Trace,
    build_prefix_log,
    log_from_variants,
    parse_csv,
    parse_xes,
    prefix,
    suffix,
    variant_of,
    write_xes,
)
from .harness import (
    SweepCell,
    SweepResult,
    evaluate_dataset,
    run_reallife_experiment,
    run_synthetic_experiment,
    split_by_prefix,
    write_comparison_csv,
    write_sweep_csv,
)
from .metrics import dl_distance, dl_similarity, micro_average
from .petri import (
    Arc,
    PetriNet,
    ReplayResult,
    ReplayState,
    Transition,
    compliance,
    fitness,
    parse_pnml,
    token_replay,
    write_pnml,
)
from .predictor import NGramModel, train_ngram
from .synthgen import SynthConfig, SynthResult, exceptional_process_net, generate

__version__ = "0.1.0"

__all__ = [
    "AttentionConfig",
    "AttentionModel",
    "Arc",
    "BeamConfig",
    "BeamResult",
    "END",
    "EventLog",
    "NGramModel",
    "PetriNet",
    "PrefixLog",
    "ReplayResult",
    "ReplayState",
    "SweepCell",
    "SweepResult",
    "SynthConfig",
    "SynthResult",
    "Trace",
    "Transition",
    "Vocabulary",
    "baseline_beam",
    "build_prefix_log",
    "build_vocabulary",
    "checked_beam",
    "compliance",
    "dl_distance",
    "dl_similarity",
    "evaluate_dataset",
    "fitness",
    "generate",
    "log_from_variants",
    "micro_average",
    "modulated_beam",
    "parse_csv",
    "parse_pnml",
    "parse_xes",
    "perfect_fitness_checker",
    "prefix",
    "run_reallife_experiment",
    "run_synthetic_experiment",
    "split_by_prefix",
    "suffix",
    "sweep_beams",
    "token_replay",
    "train_attention",
    "train_ngram",
    "variant_of",
    "write_comparison_csv",
    "write_pnml",
    "write_sweep_csv",
    "write_xes",
    "exceptional_process_net",
]
