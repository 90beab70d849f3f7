"""m3dlint CLI: exit codes, output formats, and the code subcommand."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from fixture_graphs import VIOLATION_FIXTURES, make_clean_graph, make_high_fanout_graph
from m3d_fault_loc.analysis.cli import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, main

SRC_DIR = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture()
def violation_dir(tmp_path):
    for i, factory in enumerate(VIOLATION_FIXTURES):
        factory().save(tmp_path / f"bad_{i}.json")
    return tmp_path


def test_check_clean_graph_exits_zero(tmp_path, capsys):
    make_clean_graph().save(tmp_path / "clean.json")
    assert main(["check", str(tmp_path)]) == EXIT_CLEAN
    assert "0 error(s)" in capsys.readouterr().out


def test_check_flags_every_fixture_with_correct_rule_ids(violation_dir, capsys):
    assert main(["check", str(violation_dir), "--format", "json"]) == EXIT_FINDINGS
    payload = json.loads(capsys.readouterr().out)
    fired = {v["rule_id"] for v in payload["violations"]}
    assert set(VIOLATION_FIXTURES.values()) <= fired
    assert payload["counts"]["error"] >= len(VIOLATION_FIXTURES)


def test_check_single_file_text_format(violation_dir, capsys):
    target = next(violation_dir.glob("bad_0.json"))
    assert main(["check", str(target)]) == EXIT_FINDINGS
    out = capsys.readouterr().out
    assert "[ERROR]" in out and str(target) in out


def test_check_warning_only_graph_exits_zero(tmp_path, capsys):
    make_high_fanout_graph(n_sinks=4).save(tmp_path / "fanout.json")
    assert main(["check", str(tmp_path), "--max-fanout", "2"]) == EXIT_CLEAN
    out = capsys.readouterr().out
    assert "M3D108" in out and "[WARNING]" in out


def test_check_corrupt_payload_is_a_finding(tmp_path, capsys):
    (tmp_path / "corrupt.json").write_text("{not json")
    assert main(["check", str(tmp_path)]) == EXIT_FINDINGS
    assert "M3D100" in capsys.readouterr().out


def test_check_missing_path_is_usage_error(capsys):
    assert main(["check", "does/not/exist"]) == EXIT_USAGE


def test_code_subcommand_is_clean_on_own_source(capsys):
    """Acceptance criterion: `m3dlint code src/` runs clean on this repo."""
    assert main(["code", str(SRC_DIR)]) == EXIT_CLEAN
    assert "0 error(s), 0 warning(s)" in capsys.readouterr().out


def test_code_subcommand_flags_footguns(tmp_path, capsys):
    (tmp_path / "bad.py").write_text(
        "import random\n"
        "def train_loop():\n"
        "    random.seed(1)\n"
        "    try:\n"
        "        pass\n"
        "    except:\n"
        "        pass\n"
    )
    assert main(["code", str(tmp_path), "--format", "json"]) == EXIT_FINDINGS
    payload = json.loads(capsys.readouterr().out)
    fired = {v["rule_id"] for v in payload["violations"]}
    assert {"M3D203", "M3D204"} <= fired


def test_rules_subcommand_lists_catalog(capsys):
    assert main(["rules", "--format", "json"]) == EXIT_CLEAN
    catalog = {r["id"] for r in json.loads(capsys.readouterr().out)}
    assert {"M3D101", "M3D106", "M3D204"} <= catalog


def test_concurrency_subcommand_is_clean_on_own_source(capsys):
    """Acceptance criterion: `m3dlint concurrency src/` runs clean here."""
    assert main(["concurrency", str(SRC_DIR)]) == EXIT_CLEAN
    assert "0 error(s), 0 warning(s)" in capsys.readouterr().out


def test_concurrency_subcommand_flags_lock_footguns(tmp_path, capsys):
    (tmp_path / "bad.py").write_text(
        "import threading\n"
        "def racy(fn):\n"
        "    guard = threading.Lock()\n"
        "    t = threading.Thread(target=fn)\n"
        "    return guard, t\n"
    )
    args = ["concurrency", str(tmp_path), "--format", "json", "--fail-on", "warning"]
    assert main(args) == EXIT_FINDINGS
    payload = json.loads(capsys.readouterr().out)
    fired = {v["rule_id"] for v in payload["violations"]}
    assert {"M3D303", "M3D305"} <= fired


def test_github_format_emits_annotations(tmp_path, capsys):
    (tmp_path / "serve").mkdir()
    bad = tmp_path / "serve" / "bad.py"
    bad.write_text(
        "import threading\n"
        "def spawn(fn):\n"
        "    return threading.Thread(target=fn)\n"
    )
    assert main(["concurrency", str(tmp_path), "--format", "github"]) == EXIT_FINDINGS
    out = capsys.readouterr().out
    assert f"::error file={bad},line=3,title=M3D305::" in out


def test_github_format_escapes_newlines_in_messages():
    from m3d_fault_loc.analysis.cli import _github_annotation
    from m3d_fault_loc.analysis.violations import Severity, Violation

    v = Violation(
        rule_id="M3D999", severity=Severity.WARNING, message="a\nb%c", location="x.py:7"
    )
    line = _github_annotation(v)
    assert line == "::warning file=x.py,line=7,title=M3D999::a%0Ab%25c"


def warning_only_tree(tmp_path):
    """A lint target producing exactly one WARNING and zero ERRORs."""
    (tmp_path / "bad.py").write_text(
        "import threading\n"
        "def spawn(fn):\n"
        "    return threading.Thread(target=fn)\n"
    )
    return tmp_path


def test_fail_on_error_ignores_warnings(tmp_path, capsys):
    assert main(["concurrency", str(warning_only_tree(tmp_path))]) == EXIT_CLEAN
    assert "1 warning(s)" in capsys.readouterr().out


def test_fail_on_warning_fails_on_warnings(tmp_path, capsys):
    target = str(warning_only_tree(tmp_path))
    assert main(["concurrency", target, "--fail-on", "warning"]) == EXIT_FINDINGS
    assert main(["concurrency", target, "--fail-on", "never"]) == EXIT_CLEAN


def test_fail_on_never_swallows_errors(tmp_path, capsys):
    (tmp_path / "corrupt.json").write_text("{not json")
    assert main(["check", str(tmp_path), "--fail-on", "never"]) == EXIT_CLEAN
    assert "M3D100" in capsys.readouterr().out


def test_rules_subcommand_includes_concurrency_family(capsys):
    assert main(["rules", "--format", "json"]) == EXIT_CLEAN
    catalog = {r["id"] for r in json.loads(capsys.readouterr().out)}
    assert {f"M3D30{i}" for i in range(1, 7)} <= catalog


def test_duplicate_rule_ids_are_rejected():
    from m3d_fault_loc.analysis.engine import RuleEngine, RuleRegistry
    from m3d_fault_loc.analysis.graph_rules import BUILTIN_GRAPH_RULES

    registry = RuleRegistry()

    class RuleA:
        id = "M3D999"

    class RuleB:
        id = "M3D999"

    registry.register(RuleA())
    with pytest.raises(ValueError, match="duplicate rule id: M3D999.*RuleA"):
        registry.register(RuleB())

    first = BUILTIN_GRAPH_RULES[0]
    with pytest.raises(ValueError, match="duplicate rule id"):
        RuleEngine(rules=[first(), first()])


def test_cli_runs_as_module(tmp_path):
    make_clean_graph().save(tmp_path / "clean.json")
    proc = subprocess.run(
        [sys.executable, "-m", "m3d_fault_loc.analysis.cli", "check", str(tmp_path)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC_DIR), "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )
    assert proc.returncode == EXIT_CLEAN, proc.stderr
