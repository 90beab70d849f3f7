"""End-to-end train/evaluate CLI walkthrough on tiny synthetic data."""

from pathlib import Path

import numpy as np
import pytest

from m3d_fault_loc.cli import evaluate as evaluate_cli
from m3d_fault_loc.cli import train as train_cli
from m3d_fault_loc.analysis.cli import EXIT_CLEAN
from m3d_fault_loc.analysis.cli import main as m3dlint_main


def test_train_then_evaluate_roundtrip(tmp_path, capsys):
    model_path = tmp_path / "model.npz"
    data_dir = tmp_path / "graphs"
    rc = train_cli.main(
        [
            "--seed", "0",
            "--n-graphs", "30",
            "--n-gates", "15",
            "--epochs", "4",
            "--hidden", "8",
            "--out", str(model_path),
            "--save-data-dir", str(data_dir),
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "held-out localization accuracy" in out
    assert model_path.exists()

    # The serialized training set passes the standalone contract checker.
    assert m3dlint_main(["check", str(data_dir)]) == EXIT_CLEAN
    capsys.readouterr()

    rc = evaluate_cli.main(
        ["--model", str(model_path), "--data-dir", str(data_dir), "--top-k", "3"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "top-1 localization accuracy" in out
    assert "top-3 localization accuracy" in out


def test_train_refuses_contract_violating_data(tmp_path, capsys):
    from fixture_graphs import make_bad_dtype_graph

    data_dir = tmp_path / "bad"
    data_dir.mkdir()
    make_bad_dtype_graph().save(data_dir / "bad.json")
    rc = train_cli.main(["--data-dir", str(data_dir), "--out", str(tmp_path / "m.npz")])
    assert rc == 1
    assert "contract gate rejected" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["not_a_zip", "directory"])
def test_evaluate_refuses_an_unreadable_model_with_one_line(tmp_path, capsys, kind):
    model_path = tmp_path / "model.npz"
    if kind == "directory":
        model_path.mkdir()
    else:
        model_path.write_text("not a model\n")
    rc = evaluate_cli.main(["--model", str(model_path), "--n-graphs", "2", "--n-gates", "8"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.splitlines() == [
        f"model error: model artifact {model_path}: not a readable .npz model artifact"
    ]


def test_evaluate_refuses_a_malformed_artifact_with_one_line(tmp_path, capsys):
    """A readable ``.npz`` that fails a load check is the same one-line
    ``model error`` as an unreadable path, naming what is wrong."""
    model_path = tmp_path / "model.npz"
    np.savez(model_path, __in_dim=np.asarray(9), __hidden=np.asarray(8))
    rc = evaluate_cli.main(["--model", str(model_path), "--n-graphs", "2", "--n-gates", "8"])
    assert rc == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"model error: model artifact {model_path}: missing parameter ")


def test_evaluate_refuses_a_missing_model_file_with_one_line(tmp_path, capsys):
    model_path = tmp_path / "absent.npz"
    rc = evaluate_cli.main(["--model", str(model_path), "--n-graphs", "2", "--n-gates", "8"])
    assert rc == 2
    assert capsys.readouterr().err.splitlines() == [f"no such model file: {model_path}"]


def test_cli_modules_are_lint_clean():
    """The shipped CLIs must satisfy the repo's own code rules (M3D2xx)."""
    cli_dir = Path(train_cli.__file__).parent
    assert m3dlint_main(["code", str(cli_dir)]) == EXIT_CLEAN


def test_metrics_log_captures_epochs_final_and_eval(tmp_path, capsys):
    from m3d_fault_loc.obs.telemetry import read_jsonl, summarize_training

    model_path = tmp_path / "model.npz"
    metrics_path = tmp_path / "train.jsonl"
    rc = train_cli.main(
        [
            "--seed", "0",
            "--n-graphs", "20",
            "--n-gates", "12",
            "--epochs", "3",
            "--hidden", "8",
            "--out", str(model_path),
            "--metrics-log", str(metrics_path),
        ]
    )
    assert rc == 0
    records = read_jsonl(metrics_path)
    epochs = [r for r in records if r["event"] == "epoch"]
    assert [e["epoch"] for e in epochs] == [0, 1, 2]
    for e in epochs:
        assert e["loss"] > 0 and e["wall_s"] > 0 and e["grad_norm"] > 0
        assert e["lr"] == 0.01
    (final,) = [r for r in records if r["event"] == "final"]
    assert 0.0 <= final["test_accuracy"] <= 1.0
    assert final["train_graphs"] + final["test_graphs"] == 20
    (setup,) = [r for r in records if r["event"] == "setup"]
    assert records[0] == setup
    assert setup["source"] == "synthesized" and setup["scenario"] == "single_delay"
    assert setup["n_graphs"] == 20
    assert setup["generate_s"] > 0 and setup["gate_s"] > 0

    # m3d-evaluate appends its hit@k record to the same stream
    rc = evaluate_cli.main(
        [
            "--model", str(model_path),
            "--n-graphs", "8",
            "--n-gates", "12",
            "--top-k", "3",
            "--metrics-log", str(metrics_path),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    records = read_jsonl(metrics_path)
    (ev,) = [r for r in records if r["event"] == "eval"]
    assert ev["n_graphs"] == 8 and ev["k"] == 3
    assert 0.0 <= ev["top1"] <= ev["top_k_accuracy"] <= 1.0

    summary = summarize_training(records)
    assert summary["epochs"] == 3
    assert summary["setup"]["n_graphs"] == 20
    assert summary["final"]["test_accuracy"] == final["test_accuracy"]
    assert summary["evals"][0]["k"] == 3


def test_profile_flag_emits_per_phase_rows(tmp_path, capsys):
    from m3d_fault_loc.obs.profile import TRAIN_PHASES
    from m3d_fault_loc.obs.telemetry import read_jsonl

    metrics_path = tmp_path / "train.jsonl"
    rc = train_cli.main(
        [
            "--seed", "0",
            "--n-graphs", "16",
            "--n-gates", "12",
            "--epochs", "2",
            "--hidden", "8",
            "--out", str(tmp_path / "model.npz"),
            "--metrics-log", str(metrics_path),
            "--profile",
        ]
    )
    assert rc == 0
    capsys.readouterr()
    profiles = [r for r in read_jsonl(metrics_path) if r["event"] == "profile"]
    assert profiles, "--profile must land profile rows on the metrics log"
    assert {p["epoch"] for p in profiles} == {0, 1}
    phases = {p["phase"] for p in profiles}
    # eval only fires on the periodic-log epochs; the hot phases always do
    assert {"data_gen", "forward", "backward", "optimizer_step"} <= phases
    assert phases <= set(TRAIN_PHASES)
    for p in profiles:
        assert p["wall_s"] >= 0.0 and p["calls"] >= 1
        assert "peak_kb" not in p  # memory tracking is a separate flag


def test_profile_memory_flag_adds_allocation_peaks(tmp_path, capsys):
    from m3d_fault_loc.obs.telemetry import read_jsonl

    metrics_path = tmp_path / "train.jsonl"
    rc = train_cli.main(
        [
            "--seed", "0",
            "--n-graphs", "12",
            "--n-gates", "10",
            "--epochs", "1",
            "--hidden", "8",
            "--out", str(tmp_path / "model.npz"),
            "--metrics-log", str(metrics_path),
            "--profile-memory",
        ]
    )
    assert rc == 0
    capsys.readouterr()
    profiles = [r for r in read_jsonl(metrics_path) if r["event"] == "profile"]
    assert profiles
    # outermost phases carry allocation high-water marks
    assert any(p.get("peak_kb", 0) > 0 for p in profiles)


def test_metrics_log_setup_event_for_a_data_dir(tmp_path, capsys):
    from m3d_fault_loc.obs.telemetry import read_jsonl

    common = ["--seed", "0", "--n-gates", "12", "--epochs", "1", "--hidden", "8"]
    data_dir = tmp_path / "graphs"
    rc = train_cli.main(
        [*common, "--n-graphs", "10", "--out", str(tmp_path / "a.npz"),
         "--save-data-dir", str(data_dir)]
    )
    assert rc == 0
    metrics_path = tmp_path / "train.jsonl"
    rc = train_cli.main(
        [*common, "--data-dir", str(data_dir), "--out", str(tmp_path / "b.npz"),
         "--metrics-log", str(metrics_path)]
    )
    assert rc == 0
    capsys.readouterr()
    (setup,) = [r for r in read_jsonl(metrics_path) if r["event"] == "setup"]
    assert setup["source"] == "data_dir" and setup["n_graphs"] == 10
    assert setup["generate_s"] > 0 and setup["gate_s"] > 0
