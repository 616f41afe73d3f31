import ast
import csv
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from suffixbeam import cli
from suffixbeam.attention import AttentionConfig, AttentionModel
from suffixbeam.cli import main
from suffixbeam.encoding import build_vocabulary
from suffixbeam.eventlog import parse_xes
from suffixbeam.petri import parse_pnml
from suffixbeam.predictor import NGramModel


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Default synthetic benchmark plus a trained n-gram, generated once."""
    root = tmp_path_factory.mktemp("cli")
    assert main(["synthgen", "--out", str(root)]) == 0
    assert main(["train", "--log", str(root / "train.xes"), "--model-out", str(root / "ngram.json")]) == 0
    return {
        "root": root,
        "train": str(root / "train.xes"),
        "test": str(root / "test.xes"),
        "net": str(root / "exceptional.pnml"),
        "model": str(root / "ngram.json"),
    }


# split at k = 2 holds out c3, whose last label holds a character XML cannot hold
CONTROL_CHARACTER_CSV = (
    "case_id,activity,timestamp\n"
    "c1,A,2024-01-01T00:00:00\nc1,B,2024-01-01T00:01:00\nc1,C,2024-01-01T00:02:00\n"
    "c2,A,2024-01-02T00:00:00\nc2,B,2024-01-02T00:01:00\nc2,C,2024-01-02T00:02:00\n"
    "c3,A,2024-01-03T00:00:00\nc3,B,2024-01-03T00:01:00\nc3,D\x01,2024-01-03T00:02:00\n"
)


def run(capsys, argv):
    capsys.readouterr()  # drain fixture noise
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# argument plumbing


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("suffixbeam ")


def test_package_runs_as_a_module():
    repo = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(repo / "src")}
    done = subprocess.run(
        [sys.executable, "-m", "suffixbeam", "--version"],
        cwd=repo, env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("suffixbeam ")


def test_the_readme_python_api_block_runs_as_its_comments_say(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"## Python API\n\n```python\n(.*?)```", readme, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    assert main(["synthgen", "--out", "demo"]) == 0
    assert main(["train", "--log", "demo/train.xes", "--model-out", "demo/ngram.json"]) == 0
    namespace, shown = {}, {}
    for node in ast.parse(block).body:  # in order; each bare expression's value is kept under its source
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README", "eval"), namespace)
            shown[ast.get_source_segment(block, node)] = value
        else:
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
    assert shown.pop("result.suffix") == ("Unexpected", "Repairing")
    assert shown.pop("compliance(net, prefix + result.suffix + (END,))") == 1.0
    assert shown.pop("sweep_beams(prefix, net, model, config, (0.0, 0.5, 0.85))[2] == result") is True
    assert list(shown) == ["result.score"]  # the one line that states no value


@pytest.mark.parametrize(
    "argv",
    [[], ["predict"], ["split", "--log", "x.xes"], ["synthgen", "--bogus-flag"]],
)
def test_usage_problems_exit_1(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1


def test_missing_log_file(capsys):
    code, _, err = run(capsys, ["split", "--log", "nowhere.xes", "--k", "3"])
    assert code == 1
    assert "event log not found: nowhere.xes" in err


def test_corrupt_model_is_bad_input(capsys, tmp_path):
    bad = tmp_path / "bad.npz"
    bad.write_bytes(b"not a zip archive")
    code, _, err = run(capsys, ["predict", "--model", str(bad), "--prefix", "Start"])
    assert code == 1
    assert "error" in err


def test_unexpected_failures_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, ["predict", "--model", str(tmp_path), "--prefix", "Start"])
    assert code == 2
    assert "runtime error" in err


# ---------------------------------------------------------------------------
# synthgen


def test_synthgen_outputs(workspace, capsys):
    train = parse_xes(workspace["train"])
    test = parse_xes(workspace["test"])
    net = parse_pnml(workspace["net"])
    assert len(train.traces) == 1000
    assert len(test.traces) == 200
    assert len(net.places) == 14
    assert len(net.transitions) == 14


def test_out_falls_back_to_env_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SUFFIXBEAM_OUT", str(tmp_path / "nested"))
    code, out, _ = run(
        capsys, ["synthgen", "--n-normal", "8", "--n-exceptional", "4", "--seed", "5"]
    )
    assert code == 0
    assert (tmp_path / "nested" / "train.xes").exists()
    assert len(parse_xes(tmp_path / "nested" / "train.xes").traces) == 12
    assert "wrote 12 training traces" in out


@pytest.mark.parametrize("argv", [
    ["synthgen", "--seed", "-1"],
    ["sweep", "--mode", "synthetic", "--seed", "-1"],
])
def test_a_negative_seed_is_bad_input_naming_the_seed(argv, tmp_path, capsys):
    code, _, err = run(capsys, argv + ["--out", str(tmp_path / "out")])
    assert code == 1
    assert "seed must be >= 0, not -1" in err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# split / train


def test_split_reports_and_writes_holdout(workspace, tmp_path, capsys):
    code, out, _ = run(
        capsys,
        ["split", "--log", workspace["train"], "--k", "3", "--out", str(tmp_path)],
    )
    assert code == 0
    assert "held out 174 traces (2 variants) at k=3" in out
    held = parse_xes(tmp_path / "heldout.xes")
    assert len(held.traces) == 174


def test_train_ngram(workspace, tmp_path, capsys):
    target = tmp_path / "m.json"
    code, out, _ = run(
        capsys,
        ["train", "--log", workspace["train"], "--order", "2", "--model-out", str(target)],
    )
    assert code == 0
    assert "trained order-2 n-gram on 4396 prefixes" in out
    model = NGramModel.load(target)
    assert len(model.vocab.labels) == 10  # nine activities plus the end marker


def test_train_attention_without_validation_split_reports_train_loss(tmp_path, capsys):
    # two traces give four prefixes, too few for a validation split
    log = tmp_path / "two.csv"
    log.write_text(
        "case_id,activity,timestamp\n"
        "c1,A,2024-01-01T00:00:00\n"
        "c1,B,2024-01-01T00:01:00\n"
        "c2,A,2024-01-02T00:00:00\n"
        "c2,C,2024-01-02T00:01:00\n"
    )
    code, out, _ = run(
        capsys,
        ["train", "--log", str(log), "--predictor", "attention", "--epochs", "2",
         "--model-out", str(tmp_path / "m.npz")],
    )
    assert code == 0
    assert "best train loss" in out
    assert "nan" not in out


def test_train_attention_with_a_validation_split_reports_val_loss(tmp_path, capsys):
    # six traces give twelve prefixes, enough for a validation split
    log = tmp_path / "six.csv"
    log.write_text("case_id,activity,timestamp\n" + "".join(
        f"c{i},A,2024-01-0{i}T00:00:00\nc{i},{'BC'[i % 2]},2024-01-0{i}T00:01:00\n" for i in range(1, 7)
    ))
    code, out, _ = run(
        capsys,
        ["train", "--log", str(log), "--predictor", "attention", "--epochs", "2",
         "--model-out", str(tmp_path / "m.npz")],
    )
    assert code == 0
    assert re.search(r"trained attention model for 2 epochs \(best val loss \d+\.\d{4}\) -> ", out)


def test_train_default_filename(workspace, tmp_path, capsys):
    code, out, _ = run(capsys, ["train", "--log", workspace["train"], "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "ngram.json").exists()


@pytest.mark.parametrize(
    "predictor, name",
    [("ngram", "m.npz"), ("ngram", "m"), ("attention", "m.json"), ("attention", "m.NPZ")],
)
def test_train_refuses_a_model_file_of_another_type(workspace, tmp_path, capsys, predictor, name):
    # np.savez would append .npz, and predict picks the reader by the suffix
    code, _, err = run(
        capsys,
        ["train", "--log", workspace["train"], "--predictor", predictor, "--model-out", str(tmp_path / name)],
    )
    assert code == 1
    assert f"--model-out of an {predictor} model must end in" in err
    assert list(tmp_path.iterdir()) == []


def test_train_into_a_missing_directory_fails_before_training(workspace, tmp_path, capsys, monkeypatch):
    def train_predictor(*args):
        raise AssertionError("the model was trained")

    monkeypatch.setattr(cli, "train_predictor", train_predictor)
    code, _, err = run(capsys, ["train", "--log", workspace["train"], "--model-out", str(tmp_path / "new" / "m.json")])
    assert code == 1
    assert f"--model-out directory not found: {tmp_path / 'new'}" in err
    assert list(tmp_path.iterdir()) == []


def test_predict_reports_json_named_npz_as_no_archive(workspace, tmp_path, capsys):
    path = tmp_path / "ngram.npz"
    path.write_bytes(Path(workspace["model"]).read_bytes())
    code, _, err = run(capsys, ["predict", "--model", str(path), "--prefix", "Start"])
    assert code == 1
    assert "is not a readable .npz archive" in err


# ---------------------------------------------------------------------------
# predict


def test_predict_baseline_stops_short(workspace, capsys):
    code, out, _ = run(
        capsys,
        [
            "predict", "--model", workspace["model"],
            "--prefix", "Start,B2a,B2b,B2c", "--algorithm", "baseline",
        ],
    )
    assert code == 0
    assert "suffix: (empty)" in out
    assert "score: 0.615252  forced_termination: False" in out


def test_predict_modulated_recovers_the_repair_tail(workspace, capsys):
    code, out, _ = run(
        capsys,
        [
            "predict", "--model", workspace["model"], "--net", workspace["net"],
            "--prefix", "Start,B2a,B2b,B2c", "--algorithm", "modulated", "--w", "0.85",
        ],
    )
    assert code == 0
    assert "suffix: Unexpected,Repairing" in out
    assert "score: 0.804532" in out


def test_predict_checked(workspace, capsys):
    code, out, _ = run(
        capsys,
        [
            "predict", "--model", workspace["model"], "--net", workspace["net"],
            "--prefix", "Start,B2a,B2b,B2c", "--algorithm", "checked",
        ],
    )
    assert code == 0
    assert "suffix: Unexpected,Repairing" in out
    assert "score: 0.384081" in out


def test_predict_checked_without_a_compliant_completion_says_so(workspace, capsys):
    # the fitting tail Unexpected,Repairing,END takes three steps, and
    # --max-iter 1 allows two
    code, out, _ = run(
        capsys,
        [
            "predict", "--model", workspace["model"], "--net", workspace["net"],
            "--prefix", "Start,B2a,B2b,B2c", "--algorithm", "checked", "--max-iter", "1",
        ],
    )
    assert code == 0
    assert out == "no compliant completion found\n"


def test_predict_requires_net_for_modulation(workspace, capsys):
    code, _, err = run(
        capsys, ["predict", "--model", workspace["model"], "--prefix", "Start"]
    )
    assert code == 1
    assert "--net is required for --algorithm modulated" in err


def test_predict_rejects_negative_token_counts(workspace, tmp_path, capsys):
    net = tmp_path / "negative.pnml"
    net.write_text(
        Path(workspace["net"]).read_text().replace(
            "<initialMarking><text>1</text>", "<initialMarking><text>-2</text>", 1
        )
    )
    code, _, err = run(
        capsys, ["predict", "--model", workspace["model"], "--prefix", "Start", "--net", str(net)]
    )
    assert code == 1
    assert "initial marking count of place 'p0' must be >= 0, not -2" in err


def test_predict_rejects_token_counts_past_int32(workspace, tmp_path, capsys):
    net = tmp_path / "huge.pnml"
    net.write_text(
        Path(workspace["net"]).read_text().replace(
            "<initialMarking><text>1</text>", "<initialMarking><text>3000000000</text>", 1
        )
    )
    code, _, err = run(
        capsys, ["predict", "--model", workspace["model"], "--prefix", "Start", "--net", str(net)]
    )
    assert code == 1
    assert "initial marking has 3000000000 tokens in place" in err


def test_predict_names_the_place_of_a_count_that_is_no_int(workspace, tmp_path, capsys):
    net = tmp_path / "fraction.pnml"
    net.write_text(
        Path(workspace["net"]).read_text().replace(
            "<initialMarking><text>1</text>", "<initialMarking><text>1.5</text>", 1
        )
    )
    code, _, err = run(
        capsys, ["predict", "--model", workspace["model"], "--prefix", "Start", "--net", str(net)]
    )
    assert code == 1
    assert "initial marking count of place 'p0' must be an int, not '1.5'" in err


def test_predict_rejects_empty_prefix(workspace, capsys):
    code, _, err = run(
        capsys,
        ["predict", "--model", workspace["model"], "--prefix", " , ", "--algorithm", "baseline"],
    )
    assert code == 1
    assert "prefix is empty" in err


@pytest.mark.parametrize("algorithm", ["baseline", "modulated", "checked"])
def test_predict_rejects_a_prefix_that_holds_end(workspace, capsys, algorithm):
    # END is in the model's vocabulary, so only the beam's own check stops it
    code, out, err = run(
        capsys,
        [
            "predict", "--model", workspace["model"], "--net", workspace["net"],
            "--prefix", "Start,__END__", "--algorithm", algorithm,
        ],
    )
    assert code == 1
    assert out == ""
    assert "a running prefix cannot hold the completion label __END__" in err


@pytest.mark.parametrize(
    "prefix, code",
    [("Bogus,Start,B1a,Unexpected", 0), ("Start,B1a,Unexpected,Bogus", 1)],
    ids=["unknown-before-the-window", "unknown-inside-the-window"],
)
def test_predict_reads_only_the_window_of_the_prefix(workspace, capsys, prefix, code):
    # the order-3 n-gram reads the last three labels, as attention reads l_max - 1
    got, out, err = run(
        capsys, ["predict", "--model", workspace["model"], "--prefix", prefix, "--algorithm", "baseline"]
    )
    assert got == code
    assert out.startswith("suffix:") if code == 0 else "label 'Bogus' is not in the vocabulary" in err


def test_predict_loads_npz_as_attention_model(workspace, tmp_path, capsys):
    vocab = build_vocabulary(parse_xes(workspace["train"]))
    model = AttentionModel(
        vocab,
        AttentionConfig(l_max=7, d_model=4, n_heads=2, n_layers=1, d_ff=8, dropout=0.0, seed=3),
    )
    path = tmp_path / "untrained.npz"
    model.save(path)
    code, out, _ = run(
        capsys,
        ["predict", "--model", str(path), "--prefix", "Start", "--algorithm", "baseline"],
    )
    assert code == 0
    assert out.startswith("suffix:")


def _drop_ngram_counts(path):
    payload = json.loads(path.read_text())
    del payload["counts"]
    path.write_text(json.dumps(payload))


def _edit_npz(edit):
    def apply(path):
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        edit(arrays)
        np.savez(path, **arrays)
    return apply


def _set_npz_config(arrays, **fields):
    meta = json.loads(str(arrays["__meta__"]))
    meta["config"].update(fields)
    arrays["__meta__"] = np.array(json.dumps(meta))


@pytest.mark.parametrize(
    "model_name, tamper, fragment",
    [
        ("ngram.json", _drop_ngram_counts, "['counts']"),
        ("model.npz", _edit_npz(lambda a: a.pop("w_out")), "'w_out'"),
        ("model.npz", _edit_npz(lambda a: a.pop("__meta__")), "__meta__"),
        ("model.npz", _edit_npz(lambda a: a["l0_wq"].fill(np.nan)), "'l0_wq' holds a non-finite weight"),
        ("model.npz", _edit_npz(lambda a: a.update(w_out=a["w_out"][:, :-1])), "'w_out' must be a float"),
        ("model.npz", _edit_npz(lambda a: _set_npz_config(a, d_model=True)), "d_model must be an int"),
        ("model.npz", _edit_npz(lambda a: _set_npz_config(a, seed=True)), "seed must be an int"),
        ("model.npz", _edit_npz(lambda a: _set_npz_config(a, ln_eps=True)), "ln_eps must be a real number"),
        ("model.npz", _edit_npz(lambda a: _set_npz_config(a, positional_encoding="false")),
         "positional_encoding must be a bool"),
    ],
    ids=["ngram-without-counts", "npz-without-w_out", "npz-without-meta", "npz-nan-weight",
         "npz-w_out-short", "npz-bool-d_model", "npz-bool-seed", "npz-bool-ln_eps", "npz-string-positional_encoding"],
)
def test_predict_with_a_tampered_model_file_is_bad_input(
    workspace, tmp_path, capsys, model_name, tamper, fragment
):
    path = tmp_path / model_name
    if model_name.endswith(".npz"):
        vocab = build_vocabulary(parse_xes(workspace["train"]))
        config = AttentionConfig(l_max=7, d_model=4, n_heads=2, n_layers=1, d_ff=8, seed=3)
        AttentionModel(vocab, config).save(path)
    else:
        path.write_bytes(Path(workspace["model"]).read_bytes())
    tamper(path)
    code, _, err = run(
        capsys, ["predict", "--model", str(path), "--prefix", "Start", "--algorithm", "baseline"]
    )
    assert code == 1
    assert fragment in err


# ---------------------------------------------------------------------------
# evaluate / sweep


def test_evaluate_exact_report(workspace, capsys):
    code, out, _ = run(
        capsys,
        [
            "evaluate", "--log", workspace["test"], "--model", workspace["model"],
            "--net", workspace["net"], "--k", "3", "--w", "0.85",
        ],
    )
    assert code == 0
    assert "k=3 w=0.85: mean similarity 0.95333 over 200 cases (0 forced terminations)" in out


def test_evaluate_prints_a_w_that_two_decimals_would_round_in_full(workspace, capsys):
    code, out, _ = run(
        capsys,
        [
            "evaluate", "--log", workspace["test"], "--model", workspace["model"],
            "--net", workspace["net"], "--k", "3", "--w", "0.875",
        ],
    )
    assert code == 0
    assert "k=3 w=0.875: mean similarity 0.95333 over 200 cases (0 forced terminations)" in out


def test_evaluate_without_net_is_the_baseline(workspace, capsys):
    code, out, _ = run(
        capsys,
        [
            "evaluate", "--log", workspace["test"], "--model", workspace["model"],
            "--k", "3", "--w", "0.0",
        ],
    )
    assert code == 0
    assert "k=3 w=0.00: mean similarity 0.45333 over 200 cases" in out


def test_evaluate_with_a_weight_and_no_net_is_rejected(workspace, capsys):
    code, out, err = run(
        capsys,
        [
            "evaluate", "--log", workspace["test"], "--model", workspace["model"],
            "--k", "3", "--w", "0.5",
        ],
    )
    assert code == 1
    assert "w 0.5 needs a net" in err
    assert out == ""


@pytest.mark.parametrize("k", ["0", "-1"])
def test_evaluate_rejects_a_prefix_length_below_one(workspace, capsys, k):
    code, out, err = run(
        capsys,
        [
            "evaluate", "--log", workspace["test"], "--model", workspace["model"],
            "--net", workspace["net"], "--k", k, "--w", "0.85",
        ],
    )
    assert code == 1
    assert "k must be >= 1" in err
    assert out == ""


def test_sweep_reallife_writes_reports(workspace, tmp_path, capsys):
    code, out, _ = run(
        capsys,
        [
            "sweep", "--mode", "reallife", "--log", workspace["train"],
            "--net", workspace["net"], "--name", "repair", "--ks", "4",
            "--w-grid", "0.0,0.85", "--out", str(tmp_path),
        ],
    )
    assert code == 0
    assert "prefix lengths evaluated: 4" in out
    assert "best w:" in out
    sweep_lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert sweep_lines[0] == "dataset,k,w,mean_similarity,n_cases,forced_terminations"
    assert len(sweep_lines) == 1 + 2 * 2  # (k=4 + micro) x two w values
    table_lines = (tmp_path / "comparison.csv").read_text().splitlines()
    assert table_lines[0] == "dataset,k,baseline,modulated,diff"
    assert table_lines[-1].startswith("repair,micro,")


def test_sweep_reallife_needs_log_and_net(capsys):
    code, _, err = run(capsys, ["sweep", "--mode", "reallife"])
    assert code == 1
    assert "--log and --net are required" in err


def test_sweep_synthetic_small_grid(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        ["sweep", "--mode", "synthetic", "--ks", "3", "--w-grid", "0.0,0.9", "--out", str(tmp_path)],
    )
    assert code == 0
    assert "prefix lengths evaluated: 3" in out
    assert "micro similarity at w=0.00: 0.45333" in out
    assert "best w: 0.90 (micro 0.95333)" in out
    assert (tmp_path / "sweep.csv").exists()
    assert (tmp_path / "comparison.csv").exists()


def test_sweep_writes_w_values_that_two_decimals_would_round_in_full(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        ["sweep", "--mode", "synthetic", "--ks", "3", "--w-grid", "0,0.12,0.121,0.875",
         "--out", str(tmp_path)],
    )
    assert code == 0
    assert "best w: 0.875 (micro 0.95333)" in out
    rows = list(csv.reader((tmp_path / "sweep.csv").read_text().splitlines()))[1:]
    assert [row[2] for row in rows] == [w for w in ("0.00", "0.12", "0.121", "0.875") for _ in range(2)]


def test_sweep_writes_a_negative_zero_w_as_zero(tmp_path, capsys):
    code, out, _ = run(
        capsys, ["sweep", "--mode", "synthetic", "--ks", "3", "--w-grid=-0,0.05", "--out", str(tmp_path)]
    )
    assert code == 0
    assert "best w: 0.00 (micro 0.45333)" in out
    rows = list(csv.reader((tmp_path / "sweep.csv").read_text().splitlines()))[1:]
    assert [row[2] for row in rows] == ["0.00", "0.00", "0.05", "0.05"]
    rows = list(csv.reader((tmp_path / "comparison.csv").read_text().splitlines()))[1:]
    assert [row[3] == row[2] for row in rows] == [True, True]


def test_sweep_runs_each_w_as_typed(tmp_path, capsys):
    # the grid was rounded to 6 decimals: 0.1234567 ran and was written as
    # 0.123457, and 0.1234561 and 0.1234564 both became a repeated 0.123456
    code, _, _ = run(
        capsys, ["sweep", "--mode", "synthetic", "--ks", "3", "--w-grid", "0,0.1234567", "--out", str(tmp_path)]
    )
    assert code == 0
    rows = list(csv.reader((tmp_path / "sweep.csv").read_text().splitlines()))[1:]
    assert [row[2] for row in rows] == ["0.00", "0.00", "0.1234567", "0.1234567"]
    code, _, err = run(
        capsys,
        ["sweep", "--mode", "synthetic", "--ks", "3", "--w-grid", "0,0.1234561,0.1234564", "--out", str(tmp_path)],
    )
    assert (code, err) == (0, "")
    rows = list(csv.reader((tmp_path / "sweep.csv").read_text().splitlines()))[1:]
    assert [row[2] for row in rows[::2]] == ["0.00", "0.1234561", "0.1234564"]


def test_sweep_keeps_the_given_order_of_ks_in_every_output(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        ["sweep", "--mode", "synthetic", "--ks", "5,3,4", "--w-grid", "0.0,0.9", "--out", str(tmp_path)],
    )
    assert code == 0
    assert "prefix lengths evaluated: 5, 3, 4" in out
    sweep_ks = [line.split(",")[1] for line in (tmp_path / "sweep.csv").read_text().splitlines()[1:]]
    table_ks = [line.split(",")[1] for line in (tmp_path / "comparison.csv").read_text().splitlines()[1:]]
    assert sweep_ks == ["5", "3", "4", "micro"] * 2
    assert table_ks == sweep_ks[:4]


def test_sweep_w_grid_without_the_baseline_fails_before_any_work(workspace, tmp_path, capsys):
    code, _, err = run(
        capsys,
        ["sweep", "--mode", "synthetic", "--w-grid", "0.5,0.85", "--ks", "3", "--out", str(tmp_path)],
    )
    assert code == 1
    assert "baseline" in err
    assert not (tmp_path / "sweep.csv").exists()
    # a single weight off the grid is still fine where no comparison is made
    code, out, _ = run(
        capsys,
        ["evaluate", "--log", workspace["test"], "--model", workspace["model"],
         "--net", workspace["net"], "--k", "3", "--w", "0.5"],
    )
    assert code == 0
    assert "k=3 w=0.50" in out


def test_default_synthetic_sweep_output_is_locked(tmp_path, capsys):
    # warnings are errors here, so the default ks, 3-5, are all populated
    code, out, _ = run(capsys, ["sweep", "--mode", "synthetic", "--out", str(tmp_path)])
    assert code == 0
    assert "prefix lengths evaluated: 3, 4, 5\n" in out
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("sweep.csv", "comparison.csv")}
    assert digests == {
        "sweep.csv": "05c0c1870032f1f929f9e976b01859f649fdcdb86f2447a70ff832a5675c7873",
        "comparison.csv": "f0270f3e2ad95713b857338ce6ab06d07972c543b17b82708ceb1ff9761eb01c",
    }


def test_synthetic_attention_sweep_keeps_the_paper_numbers(tmp_path, capsys):
    # values, not digests: the attention sweep's CSVs follow its training order
    code, out, _ = run(capsys, ["sweep", "--mode", "synthetic", "--predictor", "attention", "--out", str(tmp_path)])
    assert code == 0
    assert "micro similarity at w=0.00: 0.54474\n" in out
    assert re.search(r"best w: \d\.\d\d \(micro 0\.96421\)\n", out)


def test_default_synthgen_output_is_locked(workspace):
    digests = {name: hashlib.sha256((workspace["root"] / name).read_bytes()).hexdigest()
               for name in ("train.xes", "test.xes", "exceptional.pnml")}
    assert digests == {
        "train.xes": "000f1f6e169e67849733384e2f677835a463ac2f11dfde139badaed2a12d3da4",
        "test.xes": "fda78deab87592044836d50147c297475cbcc4b9be438312672159b137df253d",
        "exceptional.pnml": "cddcece310b9ca49a3abbf9f43d8810291979c44c2a36b51566320b407c6e2a4",
    }


def test_default_ngram_model_file_is_locked(workspace):
    # `suffixbeam train` on the default synthgen log
    digest = hashlib.sha256(Path(workspace["model"]).read_bytes()).hexdigest()
    assert digest == "a468f99f2b599863781ed4517abbb8ef137074127c036493893a790d17c42bee"


@pytest.mark.parametrize(
    "flag,value,fragment",
    [
        ("--w-grid", "0.5,1.5", "w must be in [0, 1]"),
        ("--w-grid", " , ", "no w value given"),
        ("--ks", "3,0", "k must be >= 1"),
        ("--b-size", "0", "b_size must be >= 1, not 0"),
        ("--w-grid", "0,abc", "--w-grid takes float values, not 'abc'"),
        ("--ks", "3,4.5", "--ks takes int values, not '4.5'"),
    ],
)
def test_sweep_grid_validation(flag, value, fragment, tmp_path, capsys):
    code, _, err = run(capsys, ["sweep", "--mode", "synthetic", flag, value, "--out", str(tmp_path)])
    assert code == 1
    assert fragment in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flag,value,fragment",
    [
        ("--w-grid", "0,0.5,0.50", "w value 0.5 is given more than once"),
        ("--ks", "3,4,3", "prefix length 3 is given more than once"),
    ],
)
def test_sweep_grid_repeats_fail_before_any_work(flag, value, fragment, tmp_path, capsys):
    code, _, err = run(capsys, ["sweep", "--mode", "synthetic", flag, value, "--out", str(tmp_path)])
    assert code == 1
    assert fragment in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv,fragment",
    [
        (["sweep", "--ks", "0"], "k must be >= 1"),
        (["synthgen", "--n-exceptional", "0"], "no exceptional traces"),
        (["train", "--log", "missing.xes"], "event log not found"),
        (["split", "--log", "ctrl.csv", "--k", "2"], "an XML file cannot hold"),
    ],
    ids=["sweep", "synthgen", "train", "split"],
)
def test_a_failed_command_makes_no_out_directory(argv, fragment, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # where missing.xes is missing
    (tmp_path / "ctrl.csv").write_text(CONTROL_CHARACTER_CSV)
    out = tmp_path / "d"
    code, _, err = run(capsys, argv + ["--out", str(out)])
    assert code == 1
    assert fragment in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# config files and CSV logs


def test_config_file_fills_defaults_but_flags_win(workspace, tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"order": 5, "model-out": str(tmp_path / "a.json")}))
    code, out, _ = run(capsys, ["train", "--log", workspace["train"], "--config", str(conf)])
    assert code == 0
    assert "order-5" in out
    assert (tmp_path / "a.json").exists()

    code, out, _ = run(
        capsys,
        ["train", "--log", workspace["train"], "--config", str(conf), "--order", "2",
         "--model-out", str(tmp_path / "b.json")],
    )
    assert code == 0
    assert "order-2" in out  # explicit flag beats the file


def test_config_file_rejects_unknown_keys(workspace, tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"bogus": 1}))
    code, _, err = run(capsys, ["train", "--log", workspace["train"], "--config", str(conf)])
    assert code == 1
    assert "unknown option 'bogus'" in err


def test_config_file_must_be_an_object(workspace, tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text("[1, 2]")
    code, _, err = run(capsys, ["train", "--log", workspace["train"], "--config", str(conf)])
    assert code == 1
    assert "must hold a JSON object" in err


def test_config_file_run_rejects_an_unrecognized_flag(workspace, tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"order": 2}))
    with pytest.raises(SystemExit) as exc:
        main(["train", "--log", workspace["train"], "--config", str(conf), "--bogus-flag"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --bogus-flag" in capsys.readouterr().err


def test_config_file_can_supply_a_required_flag(workspace, tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"log": workspace["train"], "model_out": str(tmp_path / "m.json")}))
    code, out, _ = run(capsys, ["train", "--config", str(conf)])
    assert code == 0
    assert "n-gram on 4396 prefixes" in out
    assert (tmp_path / "m.json").exists()


def test_csv_logs_with_custom_columns(tmp_path, capsys):
    log = tmp_path / "tiny.csv"
    log.write_text(
        "case,act,ts\n"
        "c1,A,2024-01-01T00:00:00\n"
        "c1,B,2024-01-01T00:01:00\n"
        "c1,C,2024-01-01T00:02:00\n"
        "c2,A,2024-01-02T00:00:00\n"
        "c2,B,2024-01-02T00:01:00\n"
    )
    code, out, _ = run(
        capsys,
        ["train", "--log", str(log), "--csv-columns", "case,act,ts",
         "--model-out", str(tmp_path / "m.json")],
    )
    assert code == 0
    assert (tmp_path / "m.json").exists()


@pytest.mark.parametrize("spec, count", [("case_id,activity", 2), ("case_id,activity,timestamp,resource", 4)])
def test_csv_columns_must_name_three_columns(tmp_path, capsys, spec, count):
    log = tmp_path / "tiny.csv"
    log.write_text("case_id,activity,timestamp,resource\nc1,A,2024-01-01T00:00:00,r\n")
    code, _, err = run(capsys, ["split", "--log", str(log), "--k", "1", "--csv-columns", spec])
    assert code == 1
    assert f"--csv-columns takes 3 names (case,activity,timestamp), got {count}" in err


def test_csv_columns_are_refused_for_a_log_that_is_not_csv(workspace, tmp_path, capsys):
    code, _, err = run(
        capsys,
        ["split", "--log", workspace["test"], "--k", "3", "--csv-columns", "only_one",
         "--out", str(tmp_path)],
    )
    assert code == 1
    assert "--csv-columns applies only to a .csv log, not test.xes" in err
    assert not (tmp_path / "heldout.xes").exists()


def test_split_reads_a_csv_with_a_byte_order_mark(tmp_path, capsys):
    log = tmp_path / "bom.csv"
    log.write_bytes("\ufeff".encode() + CONTROL_CHARACTER_CSV.replace("\x01", "").encode())
    code, out, _ = run(capsys, ["split", "--log", str(log), "--k", "2", "--out", str(tmp_path)])
    assert code == 0
    assert "held out 1 traces" in out


@pytest.mark.parametrize("flags", [
    ["--log", "/nonexistent.xes"], ["--net", "/nonexistent.pnml"], ["--csv-columns", "a,b,c"],
    ["--log", "/nonexistent.xes", "--net", "/nonexistent.pnml"],
], ids=["log", "net", "csv-columns", "log-and-net"])
def test_a_synthetic_sweep_refuses_the_reallife_inputs(flags, tmp_path, capsys):
    code, _, err = run(capsys, ["sweep", "--mode", "synthetic", *flags, "--out", str(tmp_path)])
    assert code == 1
    assert f"{flags[0]} applies only to --mode reallife" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("mode, flag, value, other", [
    ("synthetic", "name", "foo", "reallife"), ("reallife", "seed", "5", "synthetic"),
])
@pytest.mark.parametrize("given", ["flag", "config"])
def test_a_sweep_refuses_the_flag_its_mode_never_reads(workspace, tmp_path, capsys, mode, flag, value, other, given):
    out = tmp_path / "out"
    argv = ["sweep", "--mode", mode, "--ks", "4", "--w-grid", "0,0.85", "--out", str(out)]
    if mode == "reallife":
        argv += ["--log", workspace["train"], "--net", workspace["net"]]
    if given == "flag":
        argv += [f"--{flag}", value]
    else:
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({flag: value}))
        argv += ["--config", str(conf)]
    code, _, err = run(capsys, argv)
    assert code == 1
    assert f"--{flag} applies only to --mode {other}" in err
    assert not out.exists()


def test_a_reallife_sweep_without_a_name_names_its_dataset_reallife(workspace, tmp_path, capsys):
    code, _, _ = run(
        capsys,
        ["sweep", "--mode", "reallife", "--log", workspace["train"], "--net", workspace["net"],
         "--ks", "4", "--w-grid", "0,0.85", "--out", str(tmp_path)],
    )
    assert code == 0
    rows = list(csv.reader((tmp_path / "sweep.csv").read_text().splitlines()))[1:]
    assert rows and {row[0] for row in rows} == {"reallife"}


def test_config_file_values_lose_to_any_explicit_flag(workspace, tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"order": 2}))
    code, out, _ = run(
        capsys,
        ["train", "--log", workspace["train"], "--order", "3", "--config", str(conf),
         "--model-out", str(tmp_path / "m.json")],
    )
    assert code == 0
    assert "order-3" in out  # the flag wins even where it repeats the default


def test_config_file_values_go_through_the_option_types(workspace, tmp_path, capsys):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps({"order": "2", "model-out": str(tmp_path / "m.json")}))
    code, out, _ = run(capsys, ["train", "--log", workspace["train"], "--config", str(conf)])
    assert code == 0
    assert "order-2" in out


@pytest.mark.parametrize(
    "entry,fragment",
    [({"predictor": "bogus"}, "invalid choice: 'bogus'"), ({"order": "two"}, "invalid int value: 'two'")],
)
def test_config_file_values_are_checked_like_flags(workspace, tmp_path, capsys, entry, fragment):
    conf = tmp_path / "conf.json"
    conf.write_text(json.dumps(entry))
    with pytest.raises(SystemExit) as exc:
        main(["train", "--log", workspace["train"], "--config", str(conf)])
    assert exc.value.code == 1
    assert fragment in capsys.readouterr().err


# ---------------------------------------------------------------------------
# bad input files


def test_unreadable_inputs_are_bad_input(workspace, tmp_path, capsys):
    enc_log = tmp_path / "enc.xes"
    enc_log.write_bytes(
        Path(workspace["test"]).read_bytes().replace(b'encoding="UTF-8"', b'encoding="UTX-8"')
    )
    code, _, err = run(capsys, ["split", "--log", str(enc_log), "--k", "3"])
    assert code == 1
    assert "XES XML: unknown encoding: UTX-8" in err

    enc_net = tmp_path / "enc.pnml"
    enc_net.write_bytes(
        Path(workspace["net"]).read_bytes().replace(b'encoding="UTF-8"', b'encoding="UTX-8"')
    )
    code, _, err = run(
        capsys, ["predict", "--model", workspace["model"], "--prefix", "Start", "--net", str(enc_net)]
    )
    assert code == 1
    assert "PNML: unknown encoding: UTX-8" in err

    big = tmp_path / "big.csv"
    big.write_text("case_id,activity,timestamp\nc1,A,99999999999999999999\n")
    code, _, err = run(capsys, ["train", "--log", str(big), "--model-out", str(tmp_path / "m.json")])
    assert code == 1
    assert "unparsable timestamp '99999999999999999999' at row 2" in err


def test_split_of_a_log_outside_the_utc_range_is_bad_input(tmp_path, capsys):
    # c3 parses, but its instants lie before 0001-01-01 UTC, so the held-out
    # trace could not be written
    early = tmp_path / "early.csv"
    early.write_text(
        "case_id,activity,timestamp\n"
        "c1,A,2024-01-01T00:00:00\nc1,B,2024-01-01T00:01:00\nc1,C,2024-01-01T00:02:00\n"
        "c2,A,2024-01-02T00:00:00\nc2,B,2024-01-02T00:01:00\nc2,C,2024-01-02T00:02:00\n"
        "c3,A,0001-01-01T00:30:00+01:00\nc3,B,0001-01-01T00:31:00+01:00\nc3,D,0001-01-01T00:32:00+01:00\n"
    )
    code, _, err = run(capsys, ["split", "--log", str(early), "--k", "2", "--out", str(tmp_path)])
    assert code == 1
    assert "outside the UTC date range" in err


def test_split_of_a_label_xml_cannot_hold_is_bad_input(tmp_path, capsys):
    log = tmp_path / "ctrl.csv"
    log.write_text(CONTROL_CHARACTER_CSV)
    code, _, err = run(capsys, ["split", "--log", str(log), "--k", "2", "--out", str(tmp_path)])
    assert code == 1
    assert "an XML file cannot hold" in err
    assert not (tmp_path / "heldout.xes").exists()
