"""Layer probes: single calls into one layer, each timed alone.

Every probe repeats one call and reports the median, so a probe measures
the layer's own cost with no caller around it and no tracing. The cold
silent-search probe rebuilds its net for every repetition, so nothing the
net caches lazily can carry over from one repetition to the next.
"""

from __future__ import annotations

import statistics
from time import perf_counter

from suffixbeam import harness, metrics
from suffixbeam.petri import Arc, PetriNet, ReplayState, Transition, token_replay
from suffixbeam.synthgen import exceptional_process_net

COLD_TOGGLES = 8  # 13 toggles take minutes per search; 8 take about 0.15 s


def toggle_net(n: int) -> PetriNet:
    """The silent-toggle net of the replay node-cap test, all n toggles needed."""
    places = tuple(f"a{i}" for i in range(n)) + tuple(f"b{i}" for i in range(n)) + ("z",)
    transitions = tuple(Transition(f"s{i}", None) for i in range(n)) + (Transition("v", "V"),)
    arcs = [a for i in range(n) for a in (Arc(f"a{i}", f"s{i}"), Arc(f"s{i}", f"b{i}"))]
    arcs += [Arc(f"b{i}", "v") for i in range(n)] + [Arc("v", "z")]
    initial = {f"a{i}": 1 for i in range(n)}
    return PetriNet("toggles", places, transitions, tuple(arcs), initial, {"z": 1})


def _median_s(call, reps: int, prepare=None) -> float:
    times = []
    for _ in range(reps):
        arg = prepare() if prepare is not None else None
        start = perf_counter()
        call(arg)
        times.append(perf_counter() - start)
    return statistics.median(times)


def _state_after(net, labels) -> ReplayState:
    state = ReplayState(net.compiled)
    for label in labels:
        state.step(label)
    return state


def run_probes(prefix, ngram, attention, sweep_result, out_dir, reps: int) -> dict:
    """Time each probe; ``prefix`` feeds both predictors."""
    net = exceptional_process_net()
    direct = _state_after(net, ("Start",))  # B1a's only input place is marked
    silent = _state_after(net, ("Start", "B1a", "Unexpected", "Repairing"))  # B1b needs tau t5
    labels = ngram.vocab.labels[:-1]
    predicted, truth = labels[:5], tuple(reversed(labels[:6]))
    csv_path = out_dir / "probe_sweep.csv"
    cold_reps = max(1, reps // 100)
    return {
        "probe.replay_step_direct_us": 1e6 * _median_s(
            lambda s: s.step("B1a"), reps, prepare=direct.clone),
        "probe.replay_step_silent_us": 1e6 * _median_s(
            lambda s: s.step("B1b"), reps, prepare=silent.clone),
        "probe.silent_search_cold_s": _median_s(
            lambda n: token_replay(n, ("V",), partial=True), cold_reps,
            prepare=lambda: toggle_net(COLD_TOGGLES)),
        "probe.ngram_call_us": 1e6 * _median_s(lambda _: ngram.predict_proba(prefix), reps),
        "probe.attention_call_us": 1e6 * _median_s(lambda _: attention.predict_proba(prefix), reps),
        "probe.dl_similarity_us": 1e6 * _median_s(
            lambda _: metrics.dl_similarity(predicted, truth), reps),
        "probe.write_csv_ms": 1e3 * _median_s(
            lambda _: harness.write_sweep_csv(csv_path, sweep_result), max(1, reps // 20)),
    }
