"""Evaluate a trained localizer on fresh (or saved) fault graphs.

Usage::

    PYTHONPATH=src python -m m3d_fault_loc.cli.evaluate --model runs/localizer.npz \
        [--data-dir graphs/] [--top-k 3] [--scenario seu_bitflip]

Reports top-1 and top-k localization accuracy plus the scenario's own
metrics (e.g. ``coverage_at_k`` for ``multi_delay`` and ``seu_bitflip``);
the dataset passes through the same contract gate as training, composed
with the scenario's M3D11x rules. ``--metrics-log`` appends the numbers as
an ``eval`` JSONL record tagged with the scenario — the same stream
``m3d-train --metrics-log`` writes, summarized by ``m3d-obs train``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from m3d_fault_loc.cli import argtypes
from m3d_fault_loc.data.dataset import CircuitGraphDataset, GraphContractError
from m3d_fault_loc.model.localizer import DelayFaultLocalizer
from m3d_fault_loc.obs.telemetry import TelemetryWriter
from m3d_fault_loc.scenarios import (
    DEFAULT_SCENARIO,
    ScenarioSpec,
    build_scenario_engine,
    get_scenario,
    hit_at_k,
    scenario_names,
)
from m3d_fault_loc.utils.seed import seed_everything


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--model", type=Path, required=True)
    parser.add_argument("--seed", type=argtypes.seed, default=1)
    parser.add_argument("--n-graphs", type=argtypes.positive_int, default=50)
    parser.add_argument("--n-gates", type=argtypes.positive_int, default=40)
    parser.add_argument("--n-inputs", type=argtypes.positive_int, default=6)
    parser.add_argument("--num-tiers", type=argtypes.positive_int, default=2)
    parser.add_argument("--top-k", type=argtypes.positive_int, default=3)
    parser.add_argument("--scenario", choices=scenario_names(), default=DEFAULT_SCENARIO,
                        help="fault scenario: picks the generator, contract rules, and metric")
    parser.add_argument("--data-dir", type=Path, default=None,
                        help="evaluate on saved graphs instead of synthesizing")
    parser.add_argument("--metrics-log", type=Path, default=None,
                        help="append the hit@k numbers as an eval JSONL record")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    seed_everything(args.seed)
    scenario = get_scenario(args.scenario)
    engine = build_scenario_engine(scenario.name)
    if not args.model.exists():
        print(f"no such model file: {args.model}", file=sys.stderr)
        return 2
    try:
        model = DelayFaultLocalizer.load(args.model)
    except ValueError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.data_dir is not None:
            dataset = CircuitGraphDataset.load_dir(args.data_dir, engine=engine)
        else:
            dataset = CircuitGraphDataset.from_graphs(
                scenario.generate(
                    ScenarioSpec(
                        n_graphs=args.n_graphs,
                        n_gates=args.n_gates,
                        n_inputs=args.n_inputs,
                        num_tiers=args.num_tiers,
                        seed=args.seed,
                    )
                ),
                engine=engine,
            )
    except GraphContractError as exc:
        print(f"contract gate rejected the dataset: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:  # --data-dir holds no graph files
        print(exc, file=sys.stderr)
        return 2
    # One forward pass per graph feeds every metric. Legacy hit@k on
    # fault_index stays unconditional — every scenario labels a primary
    # site — so downstream telemetry consumers keep their fields.
    graphs = list(dataset)
    scores = [model.node_scores(g) for g in graphs]
    top1 = hit_at_k(graphs, scores, 1)
    topk = hit_at_k(graphs, scores, args.top_k)
    scenario_metrics = scenario.evaluate(graphs, scores, k=args.top_k)
    print(f"evaluated {len(dataset)} graphs (scenario: {scenario.name})")
    print(f"top-1 localization accuracy: {top1:.3f}")
    print(f"top-{args.top_k} localization accuracy: {topk:.3f}")
    for key in sorted(scenario_metrics):
        print(f"{scenario.name} {key}: {scenario_metrics[key]:.4f}")
    if args.metrics_log is not None:
        with TelemetryWriter(args.metrics_log) as telemetry:
            telemetry.emit(
                "eval",
                model=str(args.model),
                scenario=scenario.name,
                n_graphs=len(dataset),
                top1=round(top1, 4),
                k=args.top_k,
                top_k_accuracy=round(topk, 4),
                **{k: round(v, 4) for k, v in sorted(scenario_metrics.items())},
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
