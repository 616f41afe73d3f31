"""Command-line interface.

Subcommands cover the full workflow: generate the synthetic benchmark
(``synthgen``), inspect a prefix-holdout split (``split``), train a
predictor (``train``), predict a single suffix (``predict``), run a full
modulation-weight sweep (``sweep``), and score one configuration
(``evaluate``).

Conventions:

* exit 0 on success, 1 on bad arguments or bad input files, 2 on runtime
  failures;
* ``--out`` defaults to $SUFFIXBEAM_OUT, then the working directory;
* ``--config FILE`` (``synthgen``, ``train``, ``sweep``) reads a flat JSON
  object whose keys are long flag names (underscores or hyphens); its
  values are parsed and checked as flag values are, explicit flags beat
  the file, and the file beats built-in defaults.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from . import __version__
from .beam import BeamConfig, baseline_beam, checked_beam, modulated_beam, perfect_fitness_checker
from .encoding import build_vocabulary
from .eventlog import build_prefix_log, parse_csv, parse_xes, write_xes
from .harness import (
    DEFAULT_PREFIX_LENGTHS,
    DEFAULT_W_GRID,
    run_reallife_experiment,
    run_synthetic_experiment,
    split_by_prefix,
    write_comparison_csv,
    write_sweep_csv,
)
from .petri import parse_pnml, write_pnml
from .predictor import NGramModel, train_ngram
from .synthgen import SynthConfig, generate


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are exit code 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _out_dir(value: str | None) -> Path:
    path = Path(value or os.environ.get("SUFFIXBEAM_OUT") or ".")
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_log(path: str, csv_columns: str | None):
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"event log not found: {path}")
    if p.suffix.lower() == ".csv":
        case_col, act_col, time_col = (csv_columns or "case_id,activity,timestamp").split(",")
        return parse_csv(p, case_col=case_col.strip(), activity_col=act_col.strip(), time_col=time_col.strip())
    return parse_xes(p)


def _load_model(path: str):
    if path.endswith(".npz"):
        from .attention import AttentionModel

        return AttentionModel.load(path)
    return NGramModel.load(path)


def _with_config(argv: list, args: argparse.Namespace) -> list:
    """argv with the config file's entries spliced in as ``--key=value`` flags.

    They go right after the subcommand, so flags the user typed come later
    and win, and argparse checks each file value as it checks a flag.
    """
    with open(args.config) as fh:
        file_conf = json.load(fh)
    if not isinstance(file_conf, dict):
        raise ValueError("config file must hold a JSON object")
    flags = []
    for key, value in file_conf.items():
        if key.replace("-", "_") not in vars(args):
            raise ValueError(f"config file sets unknown option {key!r}")
        flags.append(f"--{key.replace('_', '-')}={value}")
    at = argv.index(args.command) + 1
    return argv[:at] + flags + argv[at:]


def _parse_w_grid(spec: str):
    values = tuple(round(float(tok), 6) for tok in spec.split(",") if tok.strip())
    if not values:
        raise ValueError("empty w grid")
    for v in values:
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"w value {v} outside [0, 1]")
    return values


def _parse_ks(spec: str):
    values = tuple(int(tok) for tok in spec.split(",") if tok.strip())
    if not values or any(v < 1 for v in values):
        raise ValueError("prefix lengths must be positive integers")
    return values


def build_parser() -> _Parser:
    parser = _Parser(prog="suffixbeam", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synthgen", parents=[], help="generate the synthetic benchmark log + net")
    p.add_argument("--config", help="JSON file with defaults for these options")
    p.add_argument("--out", help="output directory (default $SUFFIXBEAM_OUT or .)")
    p.add_argument("--seed", type=int, default=17)
    p.add_argument("--n-normal", type=int, default=800)
    p.add_argument("--n-exceptional", type=int, default=200)
    p.add_argument("--branch-probability", type=float, default=0.7)

    p = sub.add_parser("split", help="hold out second-choice continuations per shared prefix")
    p.add_argument("--log", required=True)
    p.add_argument("--k", type=int, required=True, help="prefix length")
    p.add_argument("--out", help="output directory for heldout.xes")
    p.add_argument("--csv-columns", help="case,activity,timestamp column names for CSV logs")

    p = sub.add_parser("train", help="train a next-activity predictor")
    p.add_argument("--config", help="JSON file with defaults for these options")
    p.add_argument("--log", required=True)
    p.add_argument("--predictor", choices=("ngram", "attention"), default="ngram")
    p.add_argument("--order", type=int, default=3, help="n-gram context length")
    p.add_argument("--alpha", type=float, default=0.01, help="n-gram smoothing")
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--model-out", help="model file (.json for ngram, .npz for attention)")
    p.add_argument("--out", help="directory for the default model filename")
    p.add_argument("--csv-columns")

    p = sub.add_parser("predict", help="predict the suffix of one prefix")
    p.add_argument("--model", required=True)
    p.add_argument("--prefix", required=True, help="comma-separated activity labels")
    p.add_argument("--net", help="background-knowledge PNML (for modulated/checked)")
    p.add_argument("--algorithm", choices=("baseline", "modulated", "checked"), default="modulated")
    p.add_argument("--w", type=float, default=0.85)
    p.add_argument("--b-size", type=int, default=3)
    p.add_argument("--max-iter", type=int, default=20)
    p.add_argument("--partial-mode", choices=("strict", "lenient"), default="strict")

    p = sub.add_parser("sweep", help="full modulation-weight sweep with CSV reports")
    p.add_argument("--config", help="JSON file with defaults for these options")
    p.add_argument("--mode", choices=("synthetic", "reallife"), default="synthetic")
    p.add_argument("--out", help="output directory for sweep.csv / comparison.csv")
    p.add_argument("--log", help="event log (reallife mode)")
    p.add_argument("--net", help="background-knowledge PNML (reallife mode)")
    p.add_argument("--name", default="reallife", help="dataset label in the CSVs")
    p.add_argument("--predictor", choices=("ngram", "attention"), default="ngram")
    p.add_argument("--order", type=int, default=3)
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--b-size", type=int, default=3)
    p.add_argument("--w-grid", default=",".join(f"{w:.2f}" for w in DEFAULT_W_GRID))
    p.add_argument("--ks", default=",".join(str(k) for k in DEFAULT_PREFIX_LENGTHS))
    p.add_argument("--seed", type=int, default=17, help="synthetic-mode generator seed")
    p.add_argument("--csv-columns")

    p = sub.add_parser("evaluate", help="score one (k, w) configuration on a log")
    p.add_argument("--log", required=True, help="test log with full traces")
    p.add_argument("--model", required=True)
    p.add_argument("--net")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--w", type=float, default=0.0)
    p.add_argument("--b-size", type=int, default=3)
    p.add_argument("--max-iter", type=int, default=20)
    p.add_argument("--csv-columns")
    return parser


def _cmd_synthgen(args) -> int:
    out = _out_dir(args.out)
    config = SynthConfig(
        seed=args.seed,
        n_train_normal=args.n_normal,
        n_train_exceptional=args.n_exceptional,
        branch_probability=args.branch_probability,
    )
    result = generate(config)
    write_xes(result.train_log, out / "train.xes")
    write_xes(result.test_log, out / "test.xes")
    write_pnml(result.net, out / "exceptional.pnml")
    print(f"wrote {len(result.train_log.traces)} training traces -> {out / 'train.xes'}")
    print(f"wrote {len(result.test_log.traces)} exceptional test traces -> {out / 'test.xes'}")
    print(f"wrote background-knowledge net -> {out / 'exceptional.pnml'}")
    return 0


def _cmd_split(args) -> int:
    log = _load_log(args.log, args.csv_columns)
    _, held_out = split_by_prefix(log, args.k)
    out = _out_dir(args.out)
    path = out / "heldout.xes"
    write_xes(held_out, path)
    variants = {tuple(e.activity for e in t.events) for t in held_out.traces}
    print(f"held out {len(held_out.traces)} traces ({len(variants)} variants) at k={args.k} -> {path}")
    return 0


def _cmd_train(args) -> int:
    log = _load_log(args.log, args.csv_columns)
    vocab = build_vocabulary(log)
    plog = build_prefix_log(log)
    if args.predictor == "ngram":
        model = train_ngram(plog, vocab, order=args.order, alpha=args.alpha)
        path = Path(args.model_out) if args.model_out else _out_dir(args.out) / "ngram.json"
        model.save(path)
        print(f"trained order-{args.order} n-gram on {len(plog.entries)} prefixes -> {path}")
    else:
        from .attention import AttentionConfig, train_attention

        l_max = max(len(t) for t in log.traces) + 1
        model, history = train_attention(plog, vocab, AttentionConfig(l_max=l_max), epochs=args.epochs)
        path = Path(args.model_out) if args.model_out else _out_dir(args.out) / "attention.npz"
        model.save(path)
        if math.isnan(history[0].val_loss):  # under 10 prefixes: no validation split
            split, best = "train", min(h.train_loss for h in history)
        else:
            split, best = "val", min(h.val_loss for h in history)
        print(f"trained attention model for {args.epochs} epochs (best {split} loss {best:.4f}) -> {path}")
    return 0


def _cmd_predict(args) -> int:
    model = _load_model(args.model)
    prefix = tuple(tok.strip() for tok in args.prefix.split(",") if tok.strip())
    if not prefix:
        raise ValueError("prefix is empty")
    config = BeamConfig(
        b_size=args.b_size, max_iter=args.max_iter, w=args.w, partial_mode=args.partial_mode
    )
    if args.algorithm == "baseline":
        result = baseline_beam(prefix, model, config)
    else:
        if not args.net:
            raise ValueError(f"--net is required for --algorithm {args.algorithm}")
        net = parse_pnml(args.net)
        if args.algorithm == "modulated":
            result = modulated_beam(prefix, net, model, config)
        else:
            result = checked_beam(prefix, perfect_fitness_checker(net), model, config)
    if result is None:
        print("no compliant completion found")
        return 0
    suffix = ",".join(result.suffix) if result.suffix else "(empty)"
    print(f"suffix: {suffix}")
    print(f"score: {result.score:.6g}  forced_termination: {result.forced_termination}")
    return 0


def _cmd_sweep(args) -> int:
    out = _out_dir(args.out)
    w_grid = _parse_w_grid(args.w_grid)
    ks = _parse_ks(args.ks)
    if args.mode == "synthetic":
        sweep = run_synthetic_experiment(
            config=SynthConfig(seed=args.seed),
            predictor_kind=args.predictor,
            b_size=args.b_size,
            w_grid=w_grid,
            prefix_lengths=ks,
            ngram_order=args.order,
            ngram_alpha=args.alpha,
            epochs=args.epochs,
        )
    else:
        if not args.log or not args.net:
            raise ValueError("--log and --net are required in reallife mode")
        sweep = run_reallife_experiment(
            args.name,
            _load_log(args.log, args.csv_columns),
            parse_pnml(args.net),
            predictor_kind=args.predictor,
            b_size=args.b_size,
            w_grid=w_grid,
            prefix_lengths=ks,
            ngram_order=args.order,
            ngram_alpha=args.alpha,
            epochs=args.epochs,
        )
    sweep_path, table_path = out / "sweep.csv", out / "comparison.csv"
    write_sweep_csv(sweep_path, sweep)
    write_comparison_csv(table_path, sweep)
    print(f"prefix lengths evaluated: {', '.join(str(k) for k in sweep.prefix_lengths)}")
    print(f"micro similarity at w=0.00: {sweep.baseline_micro:.5f}")
    print(f"best w: {sweep.best_w:.2f} (micro {sweep.best_micro:.5f})")
    print(f"wrote {sweep_path}")
    print(f"wrote {table_path}")
    return 0


def _cmd_evaluate(args) -> int:
    from .harness import evaluate_dataset

    log = _load_log(args.log, args.csv_columns)
    model = _load_model(args.model)
    net = parse_pnml(args.net) if args.net else None
    config = BeamConfig(b_size=args.b_size, max_iter=args.max_iter, w=args.w, partial_mode="strict")
    sweep = evaluate_dataset(
        "evaluate", log, model, net, config, w_grid=(args.w,), prefix_lengths=(args.k,)
    )
    cell = sweep.cell(args.k, args.w)
    print(f"k={args.k} w={args.w:.2f}: mean similarity {cell.mean_similarity:.5f} "
          f"over {cell.n_cases} cases ({cell.forced_terminations} forced terminations)")
    return 0


_COMMANDS = {
    "synthgen": _cmd_synthgen,
    "split": _cmd_split,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "sweep": _cmd_sweep,
    "evaluate": _cmd_evaluate,
}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            args = parser.parse_args(_with_config(argv, args))
        return _COMMANDS[args.command](args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"suffixbeam: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures distinct from bad input
        print(f"suffixbeam: runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
