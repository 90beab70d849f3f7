"""``--scenario`` on the CLIs: train, evaluate, and m3dlint check.

The flag must thread the scenario through dataset generation, contract
gating, metric computation, and the telemetry stream — and ``m3dlint check
--scenario`` must reject a dataset submitted under the wrong scenario.
"""

import json

import pytest

from m3d_fault_loc.analysis import cli as lint_cli
from m3d_fault_loc.cli import evaluate as evaluate_cli
from m3d_fault_loc.cli import train as train_cli
from m3d_fault_loc.model.localizer import DelayFaultLocalizer
from m3d_fault_loc.scenarios import ScenarioSpec, get_scenario, scenario_names


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory):
    out = tmp_path_factory.mktemp("model") / "localizer.npz"
    rc = train_cli.main([
        "--n-graphs", "12", "--n-gates", "12", "--epochs", "2",
        "--seed", "3", "--out", str(out),
    ])
    assert rc == 0
    return out


def read_jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


def test_train_scenario_flag_tags_telemetry_and_metadata(tmp_path):
    out = tmp_path / "m.npz"
    log = tmp_path / "train.jsonl"
    rc = train_cli.main([
        "--n-graphs", "10", "--n-gates", "12", "--epochs", "2", "--seed", "3",
        "--scenario", "multi_delay", "--out", str(out), "--metrics-log", str(log),
    ])
    assert rc == 0
    records = read_jsonl(log)
    epochs = [r for r in records if r["event"] == "epoch"]
    finals = [r for r in records if r["event"] == "final"]
    assert len(epochs) == 2 and len(finals) == 1
    assert all(r["scenario"] == "multi_delay" for r in epochs + finals)


@pytest.mark.parametrize("name", sorted(scenario_names()))
def test_evaluate_every_scenario_emits_tagged_metrics(trained_model, tmp_path, name):
    log = tmp_path / f"eval_{name}.jsonl"
    rc = evaluate_cli.main([
        "--model", str(trained_model), "--n-graphs", "6", "--n-gates", "12",
        "--seed", "9", "--scenario", name, "--metrics-log", str(log),
    ])
    assert rc == 0
    (record,) = read_jsonl(log)
    assert record["event"] == "eval"
    assert record["scenario"] == name
    # Legacy fields survive for every scenario (m3d-obs consumers).
    assert record["n_graphs"] == 6
    assert 0.0 <= record["top1"] <= record["top_k_accuracy"] <= 1.0
    # Plus the scenario's own metrics.
    expected = {
        "multi_delay": {"coverage_at_k", "hit_any_at_k", "hit_all_at_k"},
        "seu_bitflip": {"hit_any_at_k", "coverage_at_k"},
        "intermittent_delay": {"hit_at_1", "hit_at_k"},
        "single_delay": {"hit_at_1", "hit_at_k"},
    }[name]
    assert expected <= set(record)


def test_evaluate_keeps_legacy_stdout_lines(trained_model, capsys):
    rc = evaluate_cli.main([
        "--model", str(trained_model), "--n-graphs", "5", "--n-gates", "12",
        "--scenario", "seu_bitflip", "--top-k", "3",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "top-1 localization accuracy" in out
    assert "top-3 localization accuracy" in out
    assert "seu_bitflip" in out


@pytest.mark.parametrize("name", sorted(scenario_names()))
def test_evaluate_scores_each_graph_once(trained_model, monkeypatch, name):
    calls = []
    node_scores = DelayFaultLocalizer.node_scores

    def counting(self, graph):
        calls.append(graph.name)
        return node_scores(self, graph)

    monkeypatch.setattr(DelayFaultLocalizer, "node_scores", counting)
    rc = evaluate_cli.main([
        "--model", str(trained_model), "--n-graphs", "4", "--n-gates", "12",
        "--scenario", name,
    ])
    assert rc == 0
    prefix = get_scenario(name).prefix
    assert sorted(calls) == [f"{prefix}-{i}" for i in range(4)]


@pytest.mark.parametrize(
    "flag,value",
    [
        ("--top-k", "-1"),
        ("--top-k", "0"),
        ("--n-gates", "0"),
        ("--n-inputs", "0"),
        ("--num-tiers", "0"),
        ("--n-graphs", "0"),
        ("--n-graphs", "-3"),
    ],
)
def test_evaluate_rejects_nonsense_sizes_with_usage_error(trained_model, capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        evaluate_cli.main(["--model", str(trained_model), flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {flag}: must be >= 1, got {value}" in err
    assert "Traceback" not in err


def test_lint_check_scenario_gates_saved_datasets(tmp_path, capsys):
    spec = ScenarioSpec(n_graphs=2, n_gates=12, n_inputs=3, seed=11)
    data = tmp_path / "graphs"
    data.mkdir()
    for i, graph in enumerate(get_scenario("multi_delay").generate(spec)):
        graph.save(data / f"g{i}.json")

    assert lint_cli.main(["check", str(data), "--scenario", "multi_delay"]) == 0
    capsys.readouterr()
    assert lint_cli.main(["check", str(data), "--scenario", "seu_bitflip"]) == 1
    assert "M3D110" in capsys.readouterr().out


def test_lint_rules_lists_scenario_family(capsys):
    assert lint_cli.main(["rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("M3D110", "M3D111", "M3D112", "M3D113", "M3D114", "M3D209"):
        assert rule_id in out, rule_id
    assert "M3D115" not in out  # retired with its scenario; never reused


def _cli_argv(cli, trained_model, tmp_path):
    if cli is evaluate_cli:
        return ["--model", str(trained_model)]
    return ["--out", str(tmp_path / "never_written.npz")]


@pytest.mark.parametrize("cli", [train_cli, evaluate_cli], ids=["train", "evaluate"])
@pytest.mark.parametrize("seed", ["-1", str(2**32)])
def test_out_of_range_seed_is_a_usage_error(trained_model, tmp_path, capsys, cli, seed):
    with pytest.raises(SystemExit) as exc:
        cli.main([*_cli_argv(cli, trained_model, tmp_path), "--seed", seed])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument --seed: must be in [0, 2**32), got {seed}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("cli", [train_cli, evaluate_cli], ids=["train", "evaluate"])
@pytest.mark.parametrize("exists", [True, False], ids=["empty", "missing"])
def test_data_dir_without_graphs_is_one_line_and_exit_2(
    trained_model, tmp_path, capsys, cli, exists
):
    data = tmp_path / "graphs"
    if exists:
        data.mkdir()
    rc = cli.main([*_cli_argv(cli, trained_model, tmp_path), "--data-dir", str(data)])
    assert rc == 2
    assert capsys.readouterr().err == f"no graph files under {data}\n"
    assert not (tmp_path / "never_written.npz").exists()
