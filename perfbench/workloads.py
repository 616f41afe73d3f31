"""The benchmark's workloads and the phases they run.

Every workload has a set-up (inputs to a trained model), a sweep of the
modulation weight written to ``sweep.csv``/``comparison.csv``, and a closed
loop in which one caller sends running cases one at a time and waits for
each predicted suffix. A run alternates the two in rounds (one sweep, then a
block of requests) until its time is up, so every end-to-end metric has a value
on every workload; what dominates a workload's time is what its name says.

* ``synthetic-sweep``: exactly ``suffixbeam sweep --mode synthetic`` with
  the seed as the synthgen seed. Almost all of its work repeats (200 test
  traces are 10 distinct cases), so dedup and caches matter most here.
* ``attention-online``: the attention predictor, trained on a noisy log of
  the wide parallel net read from XES/PNML, answers running cases of that
  net at w = 0.85. Single-row forward passes and replay on a 16-place
  marking dominate; each request uses one w, so nothing is shared across the
  w grid.

Times are CPU time read from a :class:`speed.SpeedGauge` and scaled to its
reference speed by the speed sampled around each sweep and request. The program
runs on one thread and waits on nothing but small file writes, so its CPU
time is the time it needs; wall time on a shared virtual machine also holds
the time other tenants steal. Raw CPU and wall times are kept next to them
in the run's details.
"""

from __future__ import annotations

import hashlib
import statistics
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import generators
from suffixbeam import attention, beam, eventlog, harness, metrics, petri, predictor, synthgen
from suffixbeam.encoding import build_vocabulary
from suffixbeam.synthgen import SynthConfig

NGRAM_ORDER = 3
NGRAM_ALPHA = 0.01
B_SIZE = 3
ONLINE_W = 0.85
WIDE_LOG_SEED = 1
ATTENTION_SWEEP_K = 5  # held-out traces of one split keep the attention sweep to about 7 s
RECHECK_REQUESTS = 20  # served twice to check that a prediction repeats exactly


@dataclass(frozen=True)
class Size:
    synth_normal: int
    synth_exceptional: int
    wide_traces: int
    w_grid: tuple
    prefix_lengths: tuple
    round_requests: int  # requests after each sweep
    synth_round_requests: int  # a synthetic request takes 2 ms, so a round sends more
    min_requests: int  # a run sends at least this many
    epochs: int
    setup_reps: int
    attention_setup_reps: int  # training takes about 3 s
    probe_reps: int


FULL = Size(
    synth_normal=800,
    synth_exceptional=200,
    wide_traces=generators.WIDE_LOG_TRACES,
    w_grid=harness.DEFAULT_W_GRID,
    prefix_lengths=harness.DEFAULT_PREFIX_LENGTHS,
    round_requests=1800,
    synth_round_requests=3600,
    min_requests=3600,  # p99 of 3600 latencies has 36 beyond it
    epochs=10,
    setup_reps=60,  # an n-gram set-up takes about 50 ms
    attention_setup_reps=3,
    probe_reps=2000,
)
TOY = Size(
    synth_normal=80,
    synth_exceptional=20,
    wide_traces=200,
    w_grid=(0.0, 0.5, 0.85),
    prefix_lengths=(3, 4),
    round_requests=15,
    synth_round_requests=30,
    min_requests=30,
    epochs=1,
    setup_reps=2,
    attention_setup_reps=1,
    probe_reps=20,
)
SIZES = {"full": FULL, "toy": TOY}


@dataclass
class Ready:
    """What a set-up produces: the trained model and what serving needs."""

    model: object
    net: petri.PetriNet
    train_log: eventlog.EventLog
    test_log: eventlog.EventLog | None = None

    @property
    def max_iter(self) -> int:
        return max(len(t) for t in self.train_log.traces)


class Ledger:
    """Operations attempted and failed, checks included."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def ops(self, attempted: int, failed: int = 0, note: str | None = None):
        self.attempted += attempted
        self.failed += failed
        if failed and note:
            self.notes.append(note)

    def check(self, ok: bool, what: str):
        self.ops(1, 0 if ok else 1, f"check failed: {what}")


def train_ngram(log):
    vocab = build_vocabulary(log)
    return predictor.train_ngram(
        eventlog.build_prefix_log(log), vocab, order=NGRAM_ORDER, alpha=NGRAM_ALPHA
    )


def _n_cases(test_log, k: int) -> int:
    """Test traces with a suffix after k events: the sweep's cases at k."""
    return sum(len(trace) > k for trace in test_log.traces)


class Workload:
    name = ""

    def __init__(self, seed: int, size: Size, work_dir):
        self.seed = seed
        self.size = size
        self.work_dir = work_dir

    def prepare(self) -> None:
        """Write the input files; not timed."""

    @property
    def setup_reps(self) -> int:
        return self.size.setup_reps

    @property
    def round_requests(self) -> int:
        return self.size.round_requests

    def setup(self) -> Ready:
        raise NotImplementedError

    def sweep(self, ready: Ready):
        """Run the sweep and write both CSVs; returns the SweepResult."""
        raise NotImplementedError

    def expected_evaluations(self, ready: Ready) -> int:
        raise NotImplementedError

    def running_cases(self):
        raise NotImplementedError

    def write_csvs(self, result) -> None:
        harness.write_sweep_csv(self.work_dir / "sweep.csv", result)
        harness.write_comparison_csv(self.work_dir / "comparison.csv", result)

    def new_stats(self, ready: Ready) -> "RunStats":
        return RunStats(self.expected_evaluations(ready), self.size.min_requests)

    def csv_digest(self) -> str:
        h = hashlib.sha256()
        for name in ("sweep.csv", "comparison.csv"):
            h.update((self.work_dir / name).read_bytes())
        return h.hexdigest()

    def check_sweep(self, result, ledger: Ledger) -> None:
        """Outputs a sweep must reproduce beyond its digest."""


class SyntheticSweep(Workload):
    name = "synthetic-sweep"

    @property
    def config(self) -> SynthConfig:
        return SynthConfig(
            seed=self.seed,
            n_train_normal=self.size.synth_normal,
            n_train_exceptional=self.size.synth_exceptional,
        )

    def setup(self) -> Ready:
        generated = synthgen.generate(self.config)
        return Ready(train_ngram(generated.train_log), generated.net, generated.train_log,
                     generated.test_log)

    def sweep(self, ready: Ready):
        result = harness.run_synthetic_experiment(
            self.config, predictor_kind="ngram", b_size=B_SIZE, w_grid=self.size.w_grid,
            prefix_lengths=self.size.prefix_lengths, ngram_order=NGRAM_ORDER,
            ngram_alpha=NGRAM_ALPHA,
        )
        self.write_csvs(result)
        return result

    def expected_evaluations(self, ready: Ready) -> int:
        per_w = sum(_n_cases(ready.test_log, k) for k in self.size.prefix_lengths)
        return per_w * len(self.size.w_grid)

    @property
    def round_requests(self) -> int:
        return self.size.synth_round_requests

    def running_cases(self):
        return generators.synthetic_running_cases(self.seed)

    def check_sweep(self, result, ledger: Ledger) -> None:
        if self.seed == 17 and self.size == FULL:  # the README quick-start numbers
            ledger.check(f"{result.baseline_micro:.5f}" == "0.54474", "README micro at w=0")
            ledger.check(result.best_w == 0.8, "README best w")
            ledger.check(f"{result.best_micro:.5f}" == "0.96421", "README best micro")


class AttentionOnline(Workload):
    """The wide net and its log are fixed, like a real-life log would be; the
    seed draws the running cases. With a log drawn per seed, the trained model
    and with it every time moved by 10-30% between seeds."""

    name = "attention-online"

    def prepare(self) -> None:
        eventlog.write_xes(generators.wide_log(WIDE_LOG_SEED, self.size.wide_traces), self.log_path)
        petri.write_pnml(generators.wide_net(), self.net_path)

    @property
    def log_path(self):
        return self.work_dir / "wide.xes"

    @property
    def net_path(self):
        return self.work_dir / "wide.pnml"

    def running_cases(self):
        return generators.wide_running_cases(self.seed)

    @property
    def setup_reps(self) -> int:
        return self.size.attention_setup_reps

    def setup(self) -> Ready:
        log, net = eventlog.parse_xes(self.log_path), petri.parse_pnml(self.net_path)
        vocab = build_vocabulary(log)
        config = attention.AttentionConfig(l_max=max(len(t) for t in log.traces) + 1)
        model, _ = attention.train_attention(
            eventlog.build_prefix_log(log), vocab, config, epochs=self.size.epochs
        )
        return Ready(model, net, log)

    def _held_out(self, ready: Ready):
        """The traces the real-life split holds out at one k, swept at k and k + 1."""
        k = min(ATTENTION_SWEEP_K, max(self.size.prefix_lengths))
        return (k, k + 1), harness.split_by_prefix(ready.train_log, k)[1]

    def sweep(self, ready: Ready):
        ks, held_out = self._held_out(ready)
        config = beam.BeamConfig(b_size=B_SIZE, max_iter=ready.max_iter, partial_mode="strict")
        result = harness.evaluate_dataset(
            "attention", held_out, ready.model, ready.net, config,
            w_grid=self.size.w_grid, prefix_lengths=ks,
        )
        self.write_csvs(result)
        return result

    def expected_evaluations(self, ready: Ready) -> int:
        ks, held_out = self._held_out(ready)
        return sum(_n_cases(held_out, k) for k in ks) * len(self.size.w_grid)


WORKLOADS = {cls.name: cls for cls in (SyntheticSweep, AttentionOnline)}


# ---------------------------------------------------------------------------
# rounds


def _scope(span, name):
    """A root span when the run is traced, else nothing."""
    return span(name) if span is not None else nullcontext()


@dataclass
class RunStats:
    """What the rounds of one run measured and produced."""

    evaluations: int  # per sweep
    min_requests: int
    sweep_times: list = field(default_factory=list)  # CPU seconds per sweep, scaled
    sweep_cpu: list = field(default_factory=list)  # the same, unscaled
    sweep_walls: list = field(default_factory=list)
    result: object = None  # the first SweepResult
    csv_digest: str | None = None
    latencies: list = field(default_factory=list)  # CPU seconds per answered request, scaled
    similarities: list = field(default_factory=list)  # of the first min_requests
    suffixes: list = field(default_factory=list)  # of the first RECHECK_REQUESTS
    served: int = 0
    hasher: object = field(default_factory=hashlib.sha256)  # suffixes of the first round

    @property
    def suffix_digest(self) -> str:
        return self.hasher.hexdigest()


def sweep_once(wl: Workload, ready: Ready, stats: RunStats, ledger: Ledger, gauge,
               span=None) -> None:
    expected = stats.evaluations
    started, w0 = gauge.start(), perf_counter()
    try:
        with _scope(span, "bench.sweep"):
            result = wl.sweep(ready)
    except Exception:
        traceback.print_exc()
        ledger.ops(expected, expected, f"sweep raised after {perf_counter() - w0:.1f} s")
        return
    sample = gauge.stop(started)
    stats.sweep_walls.append(perf_counter() - w0)
    stats.sweep_cpu.append(sample[0])
    stats.sweep_times.append(gauge.scaled(sample))
    ledger.ops(expected)
    done = sum(c.n_cases for c in result.cells if c.k == harness.MICRO)
    ledger.check(done == expected, f"sweep evaluated {done} of {expected} cases")
    digest = wl.csv_digest()
    if stats.result is None:
        stats.result, stats.csv_digest = result, digest
        wl.check_sweep(result, ledger)
    else:
        ledger.check(digest == stats.csv_digest, "repeated sweep wrote different CSVs")


def serve(ready: Ready, cases, n: int, stats: RunStats, ledger: Ledger, gauge, span=None) -> None:
    """Closed loop, one caller: send n running cases, each after the last answer."""
    config = beam.BeamConfig(b_size=B_SIZE, max_iter=ready.max_iter, w=ONLINE_W)
    samples = []
    for _ in range(n):
        prefix, truth = next(cases)
        i = stats.served
        stats.served += 1
        started = gauge.start()
        try:
            with _scope(span, "bench.request"):
                result = beam.modulated_beam(prefix, ready.net, ready.model, config)
        except Exception:
            traceback.print_exc()
            ledger.ops(1, 1, f"request {i} raised")
            if i < RECHECK_REQUESTS:
                stats.suffixes.append(None)
            continue
        samples.append(gauge.stop(started))
        ledger.ops(1)
        if i < n:
            stats.hasher.update(repr(result.suffix).encode())
        if i < stats.min_requests:
            stats.similarities.append(metrics.dl_similarity(result.suffix, truth))
        if i < RECHECK_REQUESTS:
            stats.suffixes.append(result.suffix)
    # scaled after the block, so the last requests also have chunks after them
    stats.latencies.extend(gauge.scaled(sample) for sample in samples)


def run_round(wl: Workload, ready: Ready, cases, stats: RunStats, ledger: Ledger, gauge,
              span=None) -> float:
    """One sweep, then one block of requests; returns the round's wall time."""
    start = perf_counter()
    sweep_once(wl, ready, stats, ledger, gauge, span)
    serve(ready, cases, wl.round_requests, stats, ledger, gauge, span)
    return perf_counter() - start


def run_rounds(wl: Workload, ready: Ready, seconds: float, ledger: Ledger, gauge) -> RunStats:
    """Rounds until ``seconds`` have passed and ``min_requests`` have been sent.

    Alternating the sweep with blocks of requests spreads both over the whole
    run, so a slow minute on a shared machine does not land on one of them.
    """
    stats = wl.new_stats(ready)
    cases = wl.running_cases()
    start = perf_counter()
    while stats.served < stats.min_requests or perf_counter() - start < seconds:
        run_round(wl, ready, cases, stats, ledger, gauge)
    return stats


def recheck(wl: Workload, ready: Ready, stats: RunStats, ledger: Ledger) -> None:
    """Serve the first requests again; each must give the same suffix."""
    cases = wl.running_cases()
    config = beam.BeamConfig(b_size=B_SIZE, max_iter=ready.max_iter, w=ONLINE_W)
    for i, first in enumerate(stats.suffixes):
        prefix, _ = next(cases)
        if first is None:  # already counted as a failed request
            continue
        again = beam.modulated_beam(prefix, ready.net, ready.model, config).suffix
        ledger.check(again == first, f"request {i} gave a different suffix when repeated")


def end_to_end(stats: RunStats) -> dict:
    """The run's metrics; zero where every sweep or request failed (the ledger says so)."""
    values = dict.fromkeys(
        ("sweep_cases_per_s", "micro_w0", "micro_best", "predict_p50_ms", "predict_p99_ms",
         "predict_per_s", "predict_mean_similarity"), 0.0)
    if stats.result is not None:
        values["sweep_cases_per_s"] = statistics.median(stats.evaluations / t for t in stats.sweep_times)
        values["micro_w0"] = stats.result.baseline_micro
        values["micro_best"] = stats.result.best_micro
    lat = stats.latencies
    if len(lat) >= 2 and stats.similarities:
        values["predict_p50_ms"] = 1e3 * statistics.median(lat)
        values["predict_p99_ms"] = 1e3 * statistics.quantiles(lat, n=100)[98]
        values["predict_per_s"] = len(lat) / sum(lat)
        values["predict_mean_similarity"] = statistics.fmean(stats.similarities)
    return values
