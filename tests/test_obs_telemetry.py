"""Telemetry streams and the m3d-obs summarizer CLI."""

import json

import pytest

from m3d_fault_loc.obs.cli import main as obs_main
from m3d_fault_loc.obs.telemetry import (
    TelemetryWriter,
    UnreadableLogError,
    percentile,
    read_jsonl,
    summarize_traces,
    summarize_training,
)


def test_writer_appends_timestamped_records(tmp_path):
    path = tmp_path / "run" / "train.jsonl"
    with TelemetryWriter(path) as writer:
        writer.emit("epoch", epoch=0, loss=1.5)
        writer.emit("epoch", epoch=1, loss=0.9)
    records = read_jsonl(path)
    assert [r["epoch"] for r in records] == [0, 1]
    assert all(r["ts"] > 0 and r["event"] == "epoch" for r in records)


def test_read_jsonl_skips_blank_and_torn_lines(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"event": "a"}\n\n{"event": "b"}\n{"event": "c", "x"')
    assert [r["event"] for r in read_jsonl(path)] == ["a", "b"]


def test_read_jsonl_missing_file_stays_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError) as exc_info:
        read_jsonl(tmp_path / "nope.jsonl")
    assert not isinstance(exc_info.value, UnreadableLogError)
    with pytest.raises(UnreadableLogError, match="cannot read"):
        read_jsonl(tmp_path)


def test_percentile_edge_cases():
    assert percentile([], 95.0) == 0.0
    assert percentile([7.0], 50.0) == 7.0
    assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.5
    assert percentile([1.0, 2.0, 3.0, 4.0], 100.0) == 4.0
    with pytest.raises(ValueError):
        percentile([1.0], 101.0)


def _trace(tid, total_ms, stages, status="ok"):
    return {
        "trace_id": tid,
        "name": "localize",
        "status": status,
        "duration_ms": total_ms,
        "spans": [{"stage": s, "duration_ms": d} for s, d in stages],
    }


def test_summarize_traces_per_stage_and_slowest():
    traces = [
        _trace("t-1", 10.0, [("queue_wait", 2.0), ("batch_infer", 7.0)]),
        _trace("t-2", 30.0, [("queue_wait", 20.0), ("batch_infer", 9.0)], status="timeout"),
        _trace("t-3", 5.0, [("batch_infer", 4.0)]),
    ]
    summary = summarize_traces(traces, top=2)
    assert summary["traces"] == 3
    assert summary["statuses"] == {"ok": 2, "timeout": 1}
    assert summary["stages"]["queue_wait"]["count"] == 2
    assert summary["stages"]["batch_infer"]["max_ms"] == 9.0
    assert [t["trace_id"] for t in summary["slowest"]] == ["t-2", "t-1"]
    assert summary["total"]["p50_ms"] == 10.0


def test_summarize_training_trajectory():
    records = [
        {"event": "setup", "ts": 0.5, "source": "synthesized", "generate_s": 1.25,
         "gate_s": 0.05, "n_graphs": 600, "scenario": "single_delay"},
        {"event": "epoch", "epoch": 0, "loss": 2.0, "wall_s": 0.5, "grad_norm": 3.0},
        {"event": "epoch", "epoch": 1, "loss": 1.0, "wall_s": 0.7, "grad_norm": 9.0},
        {"event": "final", "ts": 1.0, "test_accuracy": 0.8},
        {"event": "eval", "ts": 2.0, "top1": 0.7, "k": 3, "top_k_accuracy": 0.9},
    ]
    summary = summarize_training(records)
    assert summary["epochs"] == 2
    assert summary["first_loss"] == 2.0 and summary["last_loss"] == 1.0
    assert summary["best_loss"] == 1.0
    assert summary["mean_epoch_wall_s"] == 0.6
    assert summary["max_grad_norm"] == 9.0
    assert summary["final"]["test_accuracy"] == 0.8
    assert summary["evals"][0]["top_k_accuracy"] == 0.9
    assert summary["setup"] == {
        "source": "synthesized", "generate_s": 1.25, "gate_s": 0.05,
        "n_graphs": 600, "scenario": "single_delay",
    }


def test_summarize_training_without_setup_has_no_section():
    summary = summarize_training([{"event": "epoch", "epoch": 0, "loss": 1.0}])
    assert "setup" not in summary


def test_obs_cli_trace_text_and_json(tmp_path, capsys):
    path = tmp_path / "traces.jsonl"
    with path.open("w") as handle:
        for trace in (
            _trace("t-aaaa", 12.0, [("batch_infer", 10.0)]),
            _trace("t-bbbb", 3.0, [("batch_infer", 2.0)]),
        ):
            handle.write(json.dumps(trace) + "\n")

    assert obs_main(["trace", str(path)]) == 0
    out = capsys.readouterr().out
    assert "2 traces" in out and "batch_infer" in out and "t-aaaa" in out

    assert obs_main(["trace", str(path), "--format", "json", "--top", "1"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["traces"] == 2
    assert [t["trace_id"] for t in summary["slowest"]] == ["t-aaaa"]


def test_obs_cli_train_summary(tmp_path, capsys):
    path = tmp_path / "train.jsonl"
    with TelemetryWriter(path) as writer:
        writer.emit("epoch", epoch=0, loss=2.0, wall_s=0.1, grad_norm=1.0, lr=0.01)
        writer.emit("final", test_accuracy=0.75)
    assert obs_main(["train", str(path)]) == 0
    out = capsys.readouterr().out
    assert "1 epochs" in out and "0.75" in out
    assert "setup:" not in out


def test_obs_cli_train_prints_one_setup_line(tmp_path, capsys):
    path = tmp_path / "train.jsonl"
    with TelemetryWriter(path) as writer:
        writer.emit("setup", source="synthesized", generate_s=1.3312, gate_s=0.0641,
                    n_graphs=600, scenario="single_delay")
        writer.emit("epoch", epoch=0, loss=2.0, wall_s=0.1, grad_norm=1.0, lr=0.01)
    assert obs_main(["train", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == (
        "setup: 600 graphs (single_delay) generated in 1.331 s, gated in 0.064 s"
    )
    assert sum(line.startswith("setup:") for line in lines) == 1


def test_obs_cli_missing_or_empty_file_exits_2(tmp_path, capsys):
    assert obs_main(["trace", str(tmp_path / "nope.jsonl")]) == 2
    empty = tmp_path / "empty.jsonl"
    empty.write_text("\n")
    assert obs_main(["train", str(empty)]) == 2
    assert "m3d-obs" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["trace", "train", "stitch"])
@pytest.mark.parametrize("kind", ["directory", "not_utf8"])
def test_obs_cli_unreadable_input_is_one_line_and_exit_2(tmp_path, capsys, command, kind):
    path = tmp_path / "input.jsonl"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'{"trace_id": "\xff\xfe"}\n')
    assert obs_main([command, str(path)]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"m3d-obs: cannot read {path}: ")


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--availability-objective", "5"),
        ("--availability-objective", "0"),
        ("--availability-objective", "1"),
        ("--availability-objective", "nan"),
        ("--timeout-s", "-1"),
        ("--timeout-s", "0"),
        ("--timeout-s", "nan"),
        ("--timeout-s", "inf"),
    ],
)
def test_obs_cli_fleet_refuses_out_of_range_options(capsys, flag, value):
    with pytest.raises(SystemExit) as exc_info:
        obs_main(["fleet", "--replica", "127.0.0.1:9", flag, value])
    assert exc_info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}:" in err and "Traceback" not in err


def test_summarize_training_aggregates_profile_rows():
    records = [
        {"event": "epoch", "epoch": 0, "loss": 2.0, "wall_s": 0.5},
        {"event": "profile", "epoch": 0, "phase": "forward", "wall_s": 0.3, "calls": 30},
        {"event": "profile", "epoch": 0, "phase": "data_gen", "wall_s": 0.1,
         "calls": 30, "peak_kb": 128.0},
        {"event": "profile", "epoch": 1, "phase": "forward", "wall_s": 0.5, "calls": 30},
        {"event": "profile", "epoch": 1, "phase": "data_gen", "wall_s": 0.1,
         "calls": 30, "peak_kb": 512.0},
    ]
    profile = summarize_training(records)["profile"]
    assert list(profile) == ["forward", "data_gen"]  # sorted by wall_s, descending
    assert profile["forward"]["wall_s"] == 0.8
    assert profile["forward"]["calls"] == 60
    assert profile["forward"]["epochs"] == 2
    assert profile["forward"]["share"] == 0.8
    assert "peak_kb" not in profile["forward"]  # memory flag was off for it
    assert profile["data_gen"]["peak_kb"] == 512.0  # max across epochs


def test_summarize_training_without_profile_rows_has_no_section():
    summary = summarize_training(
        [{"event": "epoch", "epoch": 0, "loss": 2.0, "wall_s": 0.5}]
    )
    assert "profile" not in summary


def test_obs_cli_train_renders_profile_table(tmp_path, capsys):
    path = tmp_path / "train.jsonl"
    with TelemetryWriter(path) as writer:
        writer.emit("epoch", epoch=0, loss=2.0, wall_s=0.1, grad_norm=1.0, lr=0.01)
        writer.emit("profile", epoch=0, phase="forward", wall_s=0.08, calls=10)
        writer.emit("profile", epoch=0, phase="data_gen", wall_s=0.02, calls=10,
                    peak_kb=64.0)
    assert obs_main(["train", str(path)]) == 0
    out = capsys.readouterr().out
    assert "phase" in out and "forward" in out and "peak_kb" in out


def test_obs_cli_stitch_text_json_and_missing_file(tmp_path, capsys):
    log = tmp_path / "router.jsonl"
    record = {
        "trace_id": "req-deadbeef", "name": "route", "status": "ok",
        "started_at": 10.0, "duration_ms": 4.0, "meta": {},
        "spans": [{"stage": "upstream_attempt", "offset_ms": 0.1, "duration_ms": 3.0,
                   "meta": {"replica": "127.0.0.1:7001", "rank": 0, "attempt": 1,
                            "outcome": 200}}],
        "tags": {"process": "router"},
    }
    log.write_text(json.dumps(record) + "\n")

    assert obs_main(["stitch", str(log)]) == 0
    out = capsys.readouterr().out
    assert "trace req-deadbeef" in out and "[router]" in out

    assert obs_main(["stitch", str(log), "--format", "json"]) == 0
    [stitched] = json.loads(capsys.readouterr().out)
    assert stitched["trace_id"] == "req-deadbeef"
    assert stitched["attempts"][0]["replica"] == "127.0.0.1:7001"

    assert obs_main(["stitch", str(log), "--trace-id", "req-other"]) == 0
    assert "no stitched requests" in capsys.readouterr().out

    assert obs_main(["stitch", str(tmp_path / "nope.jsonl")]) == 2
    assert "no such file" in capsys.readouterr().err


def test_obs_cli_fleet_requires_targets_and_reports_unreachable(capsys):
    assert obs_main(["fleet"]) == 2
    assert "--router and/or --replica" in capsys.readouterr().err
    # an unreachable router (reserved port, nothing listening) exits 2
    assert obs_main(["fleet", "--router", "127.0.0.1:9", "--timeout-s", "0.2"]) == 2
    assert "unreachable" in capsys.readouterr().err
