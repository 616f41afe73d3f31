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
from .eventlog import parse_csv, parse_xes, write_xes, xes_document
from .harness import (
    DEFAULT_PREFIX_LENGTHS,
    DEFAULT_W_GRID,
    SYNTHETIC_PREFIX_LENGTHS,
    evaluate_dataset,
    format_w,
    run_reallife_experiment,
    run_synthetic_experiment,
    split_by_prefix,
    train_predictor,
    write_comparison_csv,
    write_sweep_csv,
)
from .petri import parse_pnml, write_pnml
from .predictor import NGramModel
from .synthgen import SynthConfig, generate


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are exit code 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _out_dir(value: str | None) -> Path:
    """The output directory; a command makes it only when it writes its first file."""
    return Path(value or os.environ.get("SUFFIXBEAM_OUT") or ".")


def _load_log(path: str, csv_columns: str | None):
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"event log not found: {path}")
    if p.suffix.lower() == ".csv":
        columns = [name.strip() for name in (csv_columns or "case_id,activity,timestamp").split(",")]
        if len(columns) != 3:
            raise ValueError(f"--csv-columns takes 3 names (case,activity,timestamp), got {len(columns)}")
        return parse_csv(p, *columns)
    if csv_columns is not None:
        raise ValueError(f"--csv-columns applies only to a .csv log, not {p.name}")
    return parse_xes(p)


# each predictor kind's model file type; train refuses any other name
MODEL_SUFFIX = {"ngram": ".json", "attention": ".npz"}


def _load_model(path: str):
    if Path(path).suffix == MODEL_SUFFIX["attention"]:
        from .attention import AttentionModel

        return AttentionModel.load(path)
    return NGramModel.load(path)  # read as JSON whatever the name


def _parse_args(parser: _Parser, argv: list) -> argparse.Namespace:
    """One parse of argv, with the ``--config`` file's entries as flags.

    The file's entries go in as ``--key=value`` right after the subcommand,
    so flags the user typed come later and win, a file can supply a
    required flag, and argparse checks each file value as it checks a flag.
    """
    pre = _Parser(prog=parser.prog, add_help=False)
    pre.add_argument("--config", nargs="?")  # a bare --config is left to the full parse
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return parser.parse_args(argv)
    with open(path) as fh:
        file_conf = json.load(fh)
    if not isinstance(file_conf, dict):
        raise ValueError("config file must hold a JSON object")
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in file_conf.items()]
    args, extra = parser.parse_known_args(argv[:1] + flags + argv[1:])
    for key in file_conf:
        if key.replace("-", "_") not in vars(args):
            raise ValueError(f"config file sets unknown option {key!r}")
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def _parse_grid(flag: str, spec: str, kind) -> tuple:
    """The comma-separated values of ``flag``, blanks skipped; a token ``kind`` cannot read names the flag."""
    values = []
    for tok in filter(str.strip, spec.split(",")):
        try:
            values.append(kind(tok))
        except ValueError:
            raise ValueError(f"{flag} takes {kind.__name__} values, not {tok.strip()!r}") from None
    return tuple(values)


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
    p.add_argument("--name", help="dataset label in the CSVs (reallife mode; default reallife)")
    p.add_argument("--predictor", choices=("ngram", "attention"), default="ngram")
    p.add_argument("--order", type=int, default=3)
    p.add_argument("--alpha", type=float, default=0.01)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--b-size", type=int, default=3)
    p.add_argument("--w-grid", default=",".join(f"{w:.2f}" for w in DEFAULT_W_GRID))
    p.add_argument("--ks", help="prefix lengths (default %s synthetic, %s reallife)"
                   % tuple(",".join(map(str, ks)) for ks in (SYNTHETIC_PREFIX_LENGTHS, DEFAULT_PREFIX_LENGTHS)))
    p.add_argument("--seed", type=int, help="generator seed (synthetic mode; default 17)")
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
    out.mkdir(parents=True, exist_ok=True)
    write_xes(result.train_log, out / "train.xes")
    write_xes(result.test_log, out / "test.xes")
    write_pnml(result.net, out / "exceptional.pnml")
    print(f"wrote {len(result.train_log)} training traces -> {out / 'train.xes'}")
    print(f"wrote {len(result.test_log)} exceptional test traces -> {out / 'test.xes'}")
    print(f"wrote background-knowledge net -> {out / 'exceptional.pnml'}")
    return 0


def _cmd_split(args) -> int:
    log = _load_log(args.log, args.csv_columns)
    _, held_out = split_by_prefix(log, args.k)
    document = xes_document(held_out)  # a label XML cannot hold raises before the directory is made
    out = _out_dir(args.out)
    path = out / "heldout.xes"
    out.mkdir(parents=True, exist_ok=True)
    path.write_text(document, encoding="utf-8", newline="\n")
    print(f"held out {len(held_out)} traces ({len(held_out.variants)} variants) at k={args.k} -> {path}")
    return 0


def _cmd_train(args) -> int:
    suffix = MODEL_SUFFIX[args.predictor]
    path = Path(args.model_out) if args.model_out else _out_dir(args.out) / f"{args.predictor}{suffix}"
    if path.suffix != suffix:
        raise ValueError(f"--model-out of an {args.predictor} model must end in {suffix}, not {path.name!r}")
    if args.model_out and not path.parent.is_dir():  # found before the log is read and the model trained
        raise FileNotFoundError(f"--model-out directory not found: {path.parent}")
    log = _load_log(args.log, args.csv_columns)
    model, history = train_predictor(log, args.predictor, args.order, args.alpha, args.epochs)
    if not args.model_out:
        path.parent.mkdir(parents=True, exist_ok=True)
    model.save(path)
    if history is None:
        n_prefixes = sum(map(sum, model.counts.values()))
        print(f"trained order-{args.order} n-gram on {n_prefixes} prefixes -> {path}")
        return 0
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


# the sweep flags that one mode alone reads; each defaults to None, so a given one shows
_MODE_ONLY = {"reallife": ("log", "net", "csv_columns", "name"), "synthetic": ("seed",)}


def _cmd_sweep(args) -> int:
    out = _out_dir(args.out)
    settings = dict(
        predictor_kind=args.predictor,
        b_size=args.b_size,
        w_grid=_parse_grid("--w-grid", args.w_grid, float),
        ngram_order=args.order,
        ngram_alpha=args.alpha,
        epochs=args.epochs,
    )
    if args.ks is not None:  # else each mode's experiment takes its own default
        settings["prefix_lengths"] = _parse_grid("--ks", args.ks, int)
    for mode, dests in _MODE_ONLY.items():  # a --config entry is given as its flag is
        for dest in dests:
            if mode != args.mode and getattr(args, dest) is not None:
                raise ValueError(f"--{dest.replace('_', '-')} applies only to --mode {mode}")
    if args.mode == "synthetic":
        config = SynthConfig() if args.seed is None else SynthConfig(seed=args.seed)
        sweep = run_synthetic_experiment(config, **settings)
    else:
        if not args.log or not args.net:
            raise ValueError("--log and --net are required in reallife mode")
        name = "reallife" if args.name is None else args.name
        sweep = run_reallife_experiment(
            name, _load_log(args.log, args.csv_columns), parse_pnml(args.net), **settings
        )
    sweep_path, table_path = out / "sweep.csv", out / "comparison.csv"
    out.mkdir(parents=True, exist_ok=True)
    write_sweep_csv(sweep_path, sweep)
    write_comparison_csv(table_path, sweep)
    print(f"prefix lengths evaluated: {', '.join(str(k) for k in sweep.prefix_lengths)}")
    print(f"micro similarity at w=0.00: {sweep.baseline_micro:.5f}")
    print(f"best w: {format_w(sweep.best_w)} (micro {sweep.best_micro:.5f})")
    print(f"wrote {sweep_path}")
    print(f"wrote {table_path}")
    return 0


def _cmd_evaluate(args) -> int:
    log = _load_log(args.log, args.csv_columns)
    model = _load_model(args.model)
    net = parse_pnml(args.net) if args.net else None
    config = BeamConfig(b_size=args.b_size, max_iter=args.max_iter, partial_mode="strict")
    sweep = evaluate_dataset(
        "evaluate", log, model, net, config, w_grid=(args.w,), prefix_lengths=(args.k,)
    )
    cell = sweep.cell(args.k, args.w)
    print(f"k={args.k} w={format_w(args.w)}: mean similarity {cell.mean_similarity:.5f} "
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
    try:
        args = _parse_args(parser, argv)
        return _COMMANDS[args.command](args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"suffixbeam: error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures distinct from bad input
        print(f"suffixbeam: runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
