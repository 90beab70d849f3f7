"""m3d-bench harness: methodology, schema, CLI, and baseline fidelity.

The regression tripwire is only trustworthy if (a) the schema validator
rejects malformed files before ratios are computed, (b) ``compare`` exits
non-zero on a genuine slowdown (asserted here by injecting a synthetic
regression), and (c) the committed legacy baseline really computes the same
scores as the optimized path it is measured against.
"""

import copy
import json
from pathlib import Path

import numpy as np
import pytest

from m3d_fault_loc.bench.cases import CASES, BenchContext, legacy_node_scores_batch
from m3d_fault_loc.bench.cli import (
    EXIT_CLEAN,
    EXIT_REGRESSION,
    EXIT_USAGE,
    SPEEDUP_KEY,
    compare_payloads,
    main,
    next_bench_path,
    run_benchmarks,
)
from m3d_fault_loc.bench.harness import (
    BENCH_SCHEMA_VERSION,
    STAT_KEYS,
    machine_fingerprint,
    time_case,
    validate_payload,
)
from m3d_fault_loc.bench.workloads import WorkloadSpec, build_workload, repeat_batch

TINY = WorkloadSpec(name="tiny", n_graphs=4, n_gates=10, n_inputs=3)


# -- timing methodology -----------------------------------------------------


def test_time_case_stats_are_coherent():
    calls = []
    stats = time_case(lambda: calls.append(1), repeats=5, warmup=2)
    assert len(calls) == 7  # warmup runs happen but are not recorded
    assert set(STAT_KEYS) <= set(stats)
    assert stats["repeats"] == 5
    assert stats["min_s"] <= stats["median_s"] <= stats["max_s"]
    assert stats["min_s"] <= stats["trimmed_mean_s"] <= stats["max_s"]
    assert stats["p10_s"] <= stats["p90_s"]


def test_time_case_rejects_bad_arguments():
    with pytest.raises(ValueError, match="repeats"):
        time_case(lambda: None, repeats=0)
    with pytest.raises(ValueError, match="warmup"):
        time_case(lambda: None, warmup=-1)


def test_machine_fingerprint_names_the_stack():
    fp = machine_fingerprint()
    assert {"platform", "python", "numpy", "scipy", "cpu_count"} <= set(fp)


# -- workloads --------------------------------------------------------------


def test_workload_is_deterministic_across_builds():
    a, b = build_workload(TINY), build_workload(TINY)
    assert a.digests == b.digests  # byte-identical graphs both times
    assert len(a.graphs) == TINY.n_graphs


def test_repeat_batch_cycles_graphs():
    workload = build_workload(TINY)
    graphs = repeat_batch(workload, batch_size=10)
    assert len(graphs) == 10
    for i, graph in enumerate(graphs):
        assert graph is workload.graphs[i % TINY.n_graphs]


# -- baseline fidelity ------------------------------------------------------


def test_legacy_baseline_matches_optimized_batch_exactly():
    """The before/after headline is meaningless unless both paths compute
    identical scores; the optimization never traded accuracy for speed."""
    workload = build_workload(TINY)
    ctx = BenchContext(hidden=16)
    model = ctx.make_model()
    graphs = repeat_batch(workload, batch_size=9)
    optimized = model.node_scores_batch(graphs)
    legacy = legacy_node_scores_batch(model, graphs)
    assert len(optimized) == len(legacy) == 9
    for opt, leg in zip(optimized, legacy):
        assert np.array_equal(opt, leg)


# -- run + schema -----------------------------------------------------------


@pytest.fixture(scope="module")
def quick_payload():
    ctx = BenchContext(hidden=8, batch_size=6, concurrency=2, requests_per_client=2)
    return run_benchmarks(
        sizes={"tiny": TINY},
        case_names=list(CASES),
        ctx=ctx,
        repeats=2,
        warmup=1,
        quick=True,
        seed=7,
    )


def test_run_benchmarks_emits_schema_valid_payload(quick_payload):
    assert validate_payload(quick_payload) == []
    assert quick_payload["schema_version"] == BENCH_SCHEMA_VERSION
    covered = {row["case"] for row in quick_payload["results"]}
    assert covered == set(CASES)


def test_run_benchmarks_derives_speedup_headline(quick_payload):
    speedups = quick_payload["derived"][SPEEDUP_KEY]
    assert "tiny" in speedups and "median" in speedups
    assert speedups["median"] > 0


def test_validate_payload_rejects_malformed_files(quick_payload):
    assert validate_payload("not a dict") == ["payload must be a JSON object"]

    bad_version = copy.deepcopy(quick_payload)
    bad_version["schema_version"] = 99
    assert any("schema_version" in e for e in validate_payload(bad_version))

    empty = copy.deepcopy(quick_payload)
    empty["results"] = []
    assert any("results" in e for e in validate_payload(empty))

    missing_stat = copy.deepcopy(quick_payload)
    del missing_stat["results"][0]["stats"]["median_s"]
    assert any("median_s" in e for e in validate_payload(missing_stat))

    duplicated = copy.deepcopy(quick_payload)
    duplicated["results"].append(copy.deepcopy(duplicated["results"][0]))
    assert any("duplicate" in e for e in validate_payload(duplicated))

    negative = copy.deepcopy(quick_payload)
    negative["results"][0]["stats"]["median_s"] = -1.0
    assert any("finite" in e for e in validate_payload(negative))


# -- compare + regression tripwire ------------------------------------------


def _inject_regression(payload, case="node_scores_batch", factor=10.0):
    """A synthetic slowdown: one case's timings multiplied by ``factor``."""
    slowed = copy.deepcopy(payload)
    for row in slowed["results"]:
        if row["case"] == case:
            for key in STAT_KEYS:
                if key != "repeats":
                    row["stats"][key] *= factor
    return slowed


def test_compare_flags_injected_regression(quick_payload):
    slowed = _inject_regression(quick_payload)
    rows, regressions = compare_payloads(quick_payload, slowed, fail_pct=200.0)
    assert regressions  # 10x is far past a 3x tripwire
    flagged = {r["case"] for r in rows if r["regressed"]}
    assert flagged == {"node_scores_batch"}
    # the same comparison in reverse is a speedup, not a regression
    _, reverse = compare_payloads(slowed, quick_payload, fail_pct=200.0)
    assert reverse == []


def test_compare_without_tripwire_never_regresses(quick_payload):
    slowed = _inject_regression(quick_payload, factor=100.0)
    _, regressions = compare_payloads(quick_payload, slowed, fail_pct=None)
    assert regressions == []


def test_compare_cli_exits_nonzero_on_injected_regression(tmp_path, quick_payload, capsys):
    old = tmp_path / "old.json"
    new = tmp_path / "new.json"
    old.write_text(json.dumps(quick_payload))
    new.write_text(json.dumps(_inject_regression(quick_payload)))
    assert main(["compare", str(old), str(new), "--fail-on-regression", "200"]) == EXIT_REGRESSION
    assert "REGRESSION" in capsys.readouterr().out
    # identical files are clean under the same tripwire
    assert main(["compare", str(old), str(old), "--fail-on-regression", "200"]) == EXIT_CLEAN


def test_compare_cli_rejects_disjoint_and_invalid_inputs(tmp_path, quick_payload):
    old = tmp_path / "old.json"
    old.write_text(json.dumps(quick_payload))
    renamed = copy.deepcopy(quick_payload)
    for row in renamed["results"]:
        row["workload"] = "other"
    disjoint = tmp_path / "disjoint.json"
    disjoint.write_text(json.dumps(renamed))
    assert main(["compare", str(old), str(disjoint)]) == EXIT_USAGE

    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({"schema_version": 99}))
    assert main(["compare", str(old), str(invalid)]) == EXIT_USAGE
    assert main(["compare", str(old), str(tmp_path / "missing.json")]) == EXIT_USAGE


# -- run CLI ----------------------------------------------------------------


def test_next_bench_path_fills_first_gap(tmp_path):
    assert next_bench_path(tmp_path) == tmp_path / "BENCH_1.json"
    (tmp_path / "BENCH_1.json").write_text("{}")
    (tmp_path / "BENCH_3.json").write_text("{}")
    (tmp_path / "BENCH_notanumber.json").write_text("{}")
    assert next_bench_path(tmp_path) == tmp_path / "BENCH_2.json"


def test_run_cli_writes_auto_numbered_valid_file(tmp_path):
    argv = [
        "run", "--quick", "--sizes", "tiny", "--cases", "graph_build,cache_lookup",
        "--repeats", "1", "--warmup", "0", "--hidden", "8", "--dir", str(tmp_path),
    ]
    assert main(argv) == EXIT_CLEAN
    out = tmp_path / "BENCH_1.json"
    payload = json.loads(out.read_text())
    assert validate_payload(payload) == []
    assert {row["case"] for row in payload["results"]} == {"graph_build", "cache_lookup"}
    assert main(argv) == EXIT_CLEAN  # second run numbers itself BENCH_2
    assert (tmp_path / "BENCH_2.json").exists()


def test_run_cli_rejects_unknown_cases_and_sizes(tmp_path):
    base = ["run", "--quick", "--dir", str(tmp_path)]
    assert main(base + ["--cases", "no_such_case"]) == EXIT_USAGE
    assert main(base + ["--sizes", "galactic"]) == EXIT_USAGE
    assert not list(Path(tmp_path).glob("BENCH_*.json"))


def test_cases_cli_lists_catalog(capsys):
    assert main(["cases"]) == EXIT_CLEAN
    out = capsys.readouterr().out
    for name in CASES:
        assert name in out


# -- scenario + training cases ----------------------------------------------


def test_new_cases_are_cataloged():
    from m3d_fault_loc.bench.cases import CASE_DESCRIPTIONS

    for name in ("train_epoch", "scenario_generate"):
        assert name in CASES
        assert name in CASE_DESCRIPTIONS


def test_scenario_generate_case_covers_every_registered_scenario():
    from m3d_fault_loc.scenarios import scenario_names

    workload = build_workload(TINY)
    fn, meta, cleanup = CASES["scenario_generate"](workload, BenchContext(hidden=8))
    assert meta["scenarios_per_call"] == len(scenario_names())
    assert fn() > 0  # total node count across all generated graphs
    assert cleanup is None


def test_train_epoch_case_updates_the_model():
    workload = build_workload(TINY)
    ctx = BenchContext(hidden=8, batch_size=2)
    fn, meta, cleanup = CASES["train_epoch"](workload, ctx)
    assert meta["graphs_per_call"] == TINY.n_graphs
    first = fn()
    second = fn()  # Adam steps persist across calls: loss should move
    assert np.isfinite(first) and np.isfinite(second)
    assert first != second
    assert cleanup is None
