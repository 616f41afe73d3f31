"""Run one benchmark workload in this process and print its result.

    python3 perfbench/run.py --workload synthetic-sweep --seed 17 --seconds 20 --trace 0

The program is imported from ``src/`` next to this directory; there is no
build step. Inputs come from ``--seed`` alone. With ``--trace 0`` the run
measures the end-to-end metrics with nothing wrapped; with ``--trace 1`` it
runs one round (a sweep, then a block of requests) untraced and once more
traced, derives the per-layer metrics from the spans, and times the layer
probes.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it holds
the environment, the details behind the numbers and the digests of the
first round's CSVs and suffixes, which two runs of one workload and seed
must share. Both, plus the spans of a traced run, are also written under
``--out`` (default ``.perfbench_run/`` in the checkout).
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy loads: one core, reproducible sums

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END_UNITS = {
    "setup_s": "s",
    "sweep_cases_per_s": "1/s",
    "predict_p50_ms": "ms",
    "predict_p99_ms": "ms",
    "predict_per_s": "1/s",
    "peak_rss_mb": "MB",
    "micro_w0": "similarity",
    "micro_best": "similarity",
    "predict_mean_similarity": "similarity",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    for suffix in ("_us", "_ms", "_s"):
        if name.endswith(suffix):
            return suffix[1:]
    return "count"


def _import_program():
    package = SRC / "suffixbeam"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: program source not found at {package}")
    sys.path.insert(0, str(SRC))
    import suffixbeam

    if Path(suffixbeam.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: imported suffixbeam from {suffixbeam.__file__}, not {package}")


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    import numpy
    from suffixbeam import _kernels

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        openblas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas": openblas,
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numba": bool(_kernels.USING_NUMBA),
        "commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": args.trace,
    }


def measure(wl, seconds, ledger):
    """End-to-end metrics, nothing traced."""
    import speed
    import workloads

    setups = []
    with speed.SpeedGauge() as gauge:
        for _ in range(wl.setup_reps):
            started = gauge.start()
            ready = wl.setup()
            setups.append(gauge.stop(started))
        stats = workloads.run_rounds(wl, ready, seconds, ledger, gauge)
    workloads.recheck(wl, ready, stats, ledger)
    setup_times = [gauge.scaled(sample) for sample in setups]
    values = {
        "setup_s": statistics.median(setup_times),
        **workloads.end_to_end(stats),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {
        "setup_cpu_s": [sample[0] for sample in setups],
        "setup_scaled_s": setup_times,
        "sweep_cpu_s": stats.sweep_cpu,
        "sweep_scaled_s": stats.sweep_times,
        "reference_chunks": len(gauge.durations),
        "reference_cpu_s": gauge.spent,
        "sweep_wall_s": stats.sweep_walls,
        "evaluations_per_sweep": stats.evaluations,
        "requests": stats.served,
    }
    return values, details, stats, None


def measure_layers(wl, ledger):
    """Per-layer metrics: one round untraced and one traced, then the probes."""
    import probes
    import speed
    import tracing
    import workloads
    from suffixbeam.attention import AttentionConfig, AttentionModel

    setup_tracer = tracing.Tracer()
    with setup_tracer:
        ready = wl.setup()
    idle = speed.SpeedGauge()  # not entered: these rounds report wall times and outputs only
    plain = wl.new_stats(ready)
    plain_wall = workloads.run_round(wl, ready, wl.running_cases(), plain, ledger, idle)
    run_tracer = tracing.Tracer()
    traced = wl.new_stats(ready)
    with run_tracer:
        traced_wall = workloads.run_round(wl, ready, wl.running_cases(), traced, ledger, idle,
                                          span=run_tracer.span)
    ledger.check(traced.csv_digest == plain.csv_digest, "tracing changed the CSVs")
    ledger.check(traced.suffix_digest == plain.suffix_digest, "tracing changed the suffixes")
    workloads.recheck(wl, ready, plain, ledger)

    if isinstance(ready.model, AttentionModel):
        ngram, att = workloads.train_ngram(ready.train_log), ready.model
    else:
        l_max = max(len(t) for t in ready.train_log.traces) + 1
        ngram, att = ready.model, AttentionModel(ready.model.vocab, AttentionConfig(l_max=l_max))
    first = next(wl.running_cases())[0]
    values = {
        **tracing.setup_layer_metrics(setup_tracer),
        **tracing.run_layer_metrics(run_tracer),
        **probes.run_probes(first, ngram, att, plain.result, wl.work_dir, wl.size.probe_reps),
        "trace.overhead_ratio": traced_wall / plain_wall,
    }
    details = {"spans_dropped": run_tracer.dropped, "requests": plain.served,
               "round_wall_s": plain_wall, "traced_round_wall_s": traced_wall}
    spans = {"setup": setup_tracer.to_dict(), "run": run_tracer.to_dict()}
    return values, details, plain, spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("synthetic-sweep", "attention-online"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "toy"), default="full",
                        help="toy shrinks every input for a smoke test")
    parser.add_argument("--out", help="directory for results and spans")
    args = parser.parse_args(argv)

    _import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    out = Path(args.out) if args.out else ROOT / ".perfbench_run"
    work = out / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    size = workloads.SIZES[args.size]
    ledger = workloads.Ledger()
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, size, work)
        wl.prepare()
        if args.trace:
            values, details, stats, spans = measure_layers(wl, ledger)
        else:
            values, details, stats, spans = measure(wl, args.seconds, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    # the first round is the same work in every mode, so its outputs must match across runs
    digests = {"sweep_csv": stats.csv_digest, f"suffixes{wl.round_requests}": stats.suffix_digest}

    unit = per_layer_unit if args.trace else END_TO_END_UNITS.__getitem__
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in values.items()},
    }
    record = {"env": environment(args), "details": details, "digests": digests,
              "notes": ledger.notes, "result": result}
    stem = f"{args.workload}-seed{args.seed}-{args.size}-trace{args.trace}"
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if spans is not None:
        (out / f"{stem}-spans.json").write_text(json.dumps(spans))
    print(json.dumps({k: v for k, v in record.items() if k != "result"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
