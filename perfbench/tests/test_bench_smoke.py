"""Smoke mode: every workload at toy size, untraced and traced, in seconds.

Checks the result format (keys, metric names and units as BENCHMARK.json
declares them, no failed operation), that the traced run's spans nest, that
repeated runs report the same digests, and that the benchmark refuses to run
without the program's source.
"""

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import thread_time

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _run(root, out, workload, trace, seed=3):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed), "--seconds", "0.2",
                             "--trace", str(trace), "--size", "toy", "--out", str(out)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def _spans_nest(spans):
    by_id = {s["id"]: s for s in spans}
    assert len(by_id) == len(spans)
    for s in spans:
        assert s["start"] <= s["end"]
        if s["parent"] != -1:
            parent = by_id[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"], (s, parent)


def test_benchmark_runs_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_smoke(tmp_path, workload):
    digests = []
    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"]), (0, SPEC["end_to_end"])):
        proc = _run(ROOT, tmp_path, workload, trace)
        assert proc.returncode == 0, proc.stderr
        record, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
        digests.append(record["digests"])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, proc.stdout
        assert result["attempted"] >= 1
        assert {n: m["unit"] for n, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in declared
        }
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    # the first round is the same work traced or not, so its outputs repeat
    assert digests[0] == digests[1] == digests[2]
    spans = json.loads((tmp_path / f"{workload}-seed3-toy-trace1-spans.json").read_text())
    assert spans["run"]["spans"], "the traced unit recorded no spans"
    for phase in ("setup", "run"):
        _spans_nest(spans[phase]["spans"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, tmp_path / "out", SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_restores_entry_points_and_derives_self_time():
    from suffixbeam import harness, petri
    from suffixbeam.synthgen import exceptional_process_net

    step, evaluate = petri.ReplayState.step, harness.evaluate_dataset
    tracer = tracing.Tracer()
    with tracer:
        assert petri.ReplayState.step is not step
        with tracer.span("root"):
            petri.compliance(exceptional_process_net(), ("Start", "B1a", "Unexpected", "Repairing"))
    assert petri.ReplayState.step is step and harness.evaluate_dataset is evaluate
    assert tracer.calls["petri.replay_step"] == 4
    assert tracer.calls["_kernels.silent_path_to"] >= 1
    _spans_nest(tracer.to_dict()["spans"])
    assert sum(tracer.self_s.values()) == pytest.approx(tracer.total_s["root"])


def test_speed_gauge_samples_while_entered_and_leaves_its_chunks_out():
    with speed.SpeedGauge() as gauge:
        started = gauge.start()
        end = thread_time() + 0.1
        while thread_time() < end:
            pass
        sample = gauge.stop(started)
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    cpu, first, last = sample
    assert (first, last) == (0, len(gauge.durations)) and last >= 10
    assert cpu == pytest.approx(0.1 - gauge.spent, abs=0.01)
    speeds = [speed.REFERENCE_S / d for d in gauge.durations]
    assert gauge.scaled(sample) == pytest.approx(cpu * sum(speeds) / len(speeds))


def test_speed_gauge_scales_by_the_chunks_around_a_sample():
    gauge = speed.SpeedGauge()
    assert gauge.scaled((1.0, 0, 0)) == speed.REFERENCE_S / gauge.spent  # runs one chunk
    gauge.durations = [2e-4] * 20 + [5e-5] * 20
    assert gauge.scaled((1.0, 3, 4)) == pytest.approx(0.5)
    assert gauge.scaled((1.0, 36, 37)) == pytest.approx(2.0)
    assert gauge.scaled((1.0, 20, 20)) == pytest.approx(1.25)  # five chunks each side
