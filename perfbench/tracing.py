"""Span tracing around the program's public entry points, from outside it.

The traced run swaps each entry point listed in :data:`ENTRY_POINTS` for a
wrapper that records a span (id, name, start, end, parent id) and, for some
entry points, a count taken from the call's arguments or result. Functions
are replaced in every ``suffixbeam`` module that holds a reference to them,
so calls between modules are seen too; methods are replaced on their class.
:meth:`Tracer.uninstall` puts the originals back.

Spans stay in memory until the run hands :meth:`Tracer.to_dict` to a file. Each
layer's self time (span duration minus the time its direct child spans
cover) is folded in as spans close, so it is exact even when the span
buffer is full and later spans are only counted.
"""

from __future__ import annotations

import importlib
import sys
from contextlib import contextmanager
from time import perf_counter

from suffixbeam import harness
from suffixbeam.eventlog import prefix, suffix, variant_of

SPAN_BUFFER = 50_000

BEAM_SPANS = ("beam.baseline_beam", "beam.modulated_beam", "beam.checked_beam")
HARNESS_SPANS = (
    "harness.run_synthetic_experiment",
    "harness.run_reallife_experiment",
    "harness.evaluate_dataset",
    "harness.split_by_prefix",
    "harness.write_sweep_csv",
    "harness.write_comparison_csv",
)


def _replay_step(tracer, args, kwargs):
    state, label = args[0], args[1] if len(args) > 1 else kwargs["label"]
    tracer.seen["petri.replay_pairs"].add((state.marking.tobytes(), label))


def _ngram_call(tracer, args, kwargs):
    model, prefix = args[0], args[1] if len(args) > 1 else kwargs["prefix"]
    tracer.seen["predictor.contexts"].add(model.context_of(prefix))


def _attention_forward(tracer, args, kwargs):
    x = args[1] if len(args) > 1 else kwargs["x"]
    tracer.counts["attention.rows"] += x.shape[0]


def _evaluate_dataset(tracer, args, kwargs):
    """Count the sweep's (case, w) evaluations and its distinct cases."""
    bound = dict(zip(("dataset", "test_log", "predictor", "net", "beam_config", "w_grid",
                      "prefix_lengths"), args))
    bound.update(kwargs)
    w_grid = bound.get("w_grid", harness.DEFAULT_W_GRID)
    ks = bound.get("prefix_lengths", harness.DEFAULT_PREFIX_LENGTHS)
    for k in ks:
        for trace in bound["test_log"].traces:
            v = variant_of(trace)
            if len(v) > k:
                tracer.counts["harness.evaluations"] += len(w_grid)
                tracer.seen["harness.cases"].add((prefix(v, k), suffix(v, k)))


def _beam_result(tracer, result):
    if result is None:  # checked_beam found no compliant completion
        return
    tracer.counts["beam.iterations"] += result.iterations
    tracer.counts["beam.forced_terminations"] += int(result.forced_termination)
    tracer.counts["beam.frontier_peak_max"] = max(
        tracer.counts["beam.frontier_peak_max"], result.frontier_peak
    )


# (module, attribute path, span name, hook on the arguments, hook on the result)
ENTRY_POINTS = (
    ("eventlog", "parse_xes", "eventlog.parse_xes", None, None),
    ("eventlog", "parse_csv", "eventlog.parse_csv", None, None),
    ("eventlog", "build_prefix_log", "eventlog.build_prefix_log", None, None),
    ("eventlog", "write_xes", "eventlog.write_xes", None, None),
    ("petri", "parse_pnml", "petri.parse_pnml", None, None),
    ("petri", "write_pnml", "petri.write_pnml", None, None),
    ("petri", "token_replay", "petri.token_replay", None, None),
    ("petri", "compliance", "petri.compliance", None, None),
    ("petri", "ReplayState.step", "petri.replay_step", _replay_step, None),
    ("petri", "ReplayState.result_partial", "petri.result_partial", None, None),
    ("petri", "ReplayState.result_complete", "petri.result_complete", None, None),
    ("_kernels", "silent_path_to", "_kernels.silent_path_to", None, None),
    ("predictor", "train_ngram", "predictor.train_ngram", None, None),
    ("predictor", "NGramModel.predict_proba", "predictor.predict_proba", _ngram_call, None),
    ("attention", "train_attention", "attention.train_attention", None, None),
    ("attention", "AttentionModel.forward", "attention.forward", _attention_forward, None),
    ("attention", "AttentionModel.predict_proba", "attention.predict_proba", None, None),
    ("beam", "baseline_beam", "beam.baseline_beam", None, _beam_result),
    ("beam", "modulated_beam", "beam.modulated_beam", None, _beam_result),
    ("beam", "checked_beam", "beam.checked_beam", None, _beam_result),
    ("metrics", "dl_similarity", "metrics.dl_similarity", None, None),
    ("harness", "run_synthetic_experiment", "harness.run_synthetic_experiment", None, None),
    ("harness", "run_reallife_experiment", "harness.run_reallife_experiment", None, None),
    ("harness", "evaluate_dataset", "harness.evaluate_dataset", _evaluate_dataset, None),
    ("harness", "split_by_prefix", "harness.split_by_prefix", None, None),
    ("harness", "write_sweep_csv", "harness.write_sweep_csv", None, None),
    ("harness", "write_comparison_csv", "harness.write_comparison_csv", None, None),
    ("synthgen", "generate", "synthgen.generate", None, None),
)


class _Counts(dict):
    def __missing__(self, key):
        return 0


class _Sets(dict):
    def __missing__(self, key):
        value = self[key] = set()
        return value


class Tracer:
    """Spans and counts for one traced stretch of a run."""

    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id or -1)
        self.dropped = 0
        self.calls = _Counts()
        self.total_s = _Counts()
        self.self_s = _Counts()
        self.counts = _Counts()
        self.seen = _Sets()
        self._stack = []  # [span id, time covered by direct children]
        self._next_id = 0
        self._patched = []  # (owner, attribute, original)

    # ------------------------------------------------------------ recording

    def wrap(self, fn, name, before=None, after=None):
        def traced(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(self, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name):
        """Open a span; spans opened inside it become its children."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [sid, 0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            duration = end - start
            self.calls[name] += 1
            self.total_s[name] += duration
            self.self_s[name] += duration - frame[1]
            if self._stack:
                self._stack[-1][1] += duration
            if len(self.spans) < SPAN_BUFFER:
                self.spans.append((sid, name, start, end, parent))
            else:
                self.dropped += 1

    # -------------------------------------------------------- installation

    def install(self):
        """Wrap every entry point that exists; missing ones are skipped."""
        for module_name, path, name, before, after in ENTRY_POINTS:
            module = importlib.import_module(f"suffixbeam.{module_name}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                continue
            wrapper = self.wrap(original, name, before, after)
            if owner_name:
                self._patch(owner, attr, original, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "suffixbeam" and getattr(mod, attr, None) is original:
                    self._patch(mod, attr, original, wrapper)
        return self

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # ------------------------------------------------------------- results

    def layer_self_s(self, names) -> float:
        return sum(self.self_s[n] for n in names)

    def to_dict(self) -> dict:
        return {
            "spans": [
                {"id": sid, "name": name, "start": start, "end": end, "parent": parent}
                for sid, name, start, end, parent in self.spans
            ],
            "dropped": self.dropped,
            "calls": dict(self.calls),
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
        }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def setup_layer_metrics(tracer: Tracer) -> dict:
    """Per-layer times of the set-up phase, in seconds (0 where unused)."""
    t = tracer.total_s
    return {
        "eventlog.parse_xes_s": t["eventlog.parse_xes"],
        "eventlog.build_prefix_log_s": t["eventlog.build_prefix_log"],
        "petri.parse_pnml_s": t["petri.parse_pnml"],
        "predictor.train_s": t["predictor.train_ngram"],
        "attention.train_s": t["attention.train_attention"],
        "synthgen.generate_s": t["synthgen.generate"],
    }


def run_layer_metrics(tracer: Tracer) -> dict:
    """Per-layer counts, times and reuse ratios of one traced unit of work."""
    calls, total, counts, seen = tracer.calls, tracer.total_s, tracer.counts, tracer.seen
    beams = sum(calls[n] for n in BEAM_SPANS)
    predict_calls = calls["predictor.predict_proba"] + calls["attention.predict_proba"]
    return {
        "harness.case_reuse_ratio": _ratio(len(seen["harness.cases"]), counts["harness.evaluations"]),
        "harness.self_s": tracer.layer_self_s(HARNESS_SPANS),
        "harness.split_by_prefix_s": total["harness.split_by_prefix"],
        "harness.write_csv_s": total["harness.write_sweep_csv"] + total["harness.write_comparison_csv"],
        "petri.replay_steps": calls["petri.replay_step"],
        "petri.replay_step_s": total["petri.replay_step"],
        "petri.replay_reuse_ratio": _ratio(len(seen["petri.replay_pairs"]), calls["petri.replay_step"]),
        "petri.result_partial_s": total["petri.result_partial"],
        "petri.result_complete_s": total["petri.result_complete"],
        "kernels.silent_bfs_calls": calls["_kernels.silent_path_to"],
        "kernels.silent_bfs_s": total["_kernels.silent_path_to"],
        "predictor.calls": calls["predictor.predict_proba"],
        "predictor.predict_proba_s": total["predictor.predict_proba"],
        "predictor.context_reuse_ratio": _ratio(
            len(seen["predictor.contexts"]), calls["predictor.predict_proba"]
        ),
        "attention.forward_calls": calls["attention.forward"],
        "attention.rows_per_forward": _ratio(counts["attention.rows"], calls["attention.forward"]),
        "attention.predict_proba_s": total["attention.predict_proba"],
        "beam.calls": beams,
        "beam.self_s": tracer.layer_self_s(BEAM_SPANS),
        "beam.iterations_mean": _ratio(counts["beam.iterations"], beams),
        "beam.frontier_peak_max": counts["beam.frontier_peak_max"],
        "beam.forced_terminations": counts["beam.forced_terminations"],
        "beam.predict_calls_per_beam": _ratio(predict_calls, beams),
        "metrics.dl_calls": calls["metrics.dl_similarity"],
        "metrics.dl_s": total["metrics.dl_similarity"],
    }
