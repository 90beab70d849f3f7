"""Train the delay-fault localizer on synthetic M3D netlists.

Usage::

    PYTHONPATH=src python -m m3d_fault_loc.cli.train --n-graphs 200 --epochs 30 \
        --out runs/localizer.npz [--data-dir graphs/] [--scenario multi_delay]

``--scenario`` picks the fault scenario whose registered generator
synthesizes the training set (default ``single_delay``, the paper's
workload). Every graph — synthetic or loaded — passes through the
``m3dlint`` contract gate inside :class:`CircuitGraphDataset`, composed
with the scenario's M3D11x payload rules; a contract violation aborts the
run before the first epoch rather than after it.

``--metrics-log runs/train.jsonl`` appends a ``setup`` record (seconds spent
synthesizing or reading the graphs and gating them), one JSONL record per
epoch (loss, pre-clip gradient norm, learning rate, wall time) plus a final
record with the held-out accuracy — the stream ``m3d-obs train`` summarizes.
``--profile`` adds per-epoch per-phase ``profile`` rows (data_gen / forward /
backward / optimizer_step / eval wall time; ``--profile-memory`` adds
tracemalloc allocation peaks) to the same stream.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from m3d_fault_loc.cli import argtypes
from m3d_fault_loc.data.dataset import (
    CircuitGraphDataset,
    GraphContractError,
    read_graph_dir,
)
from m3d_fault_loc.model.localizer import DelayFaultLocalizer, TrainingExample
from m3d_fault_loc.model.optim import (
    Adam,
    NonFiniteLossError,
    clip_by_global_norm,
    global_grad_norm,
)
from m3d_fault_loc.obs.profile import PhaseProfiler, phase
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


def localization_accuracy(model: DelayFaultLocalizer, dataset: CircuitGraphDataset) -> float:
    """Fraction of graphs whose top-scored node is the true fault origin."""
    return hit_at_k(dataset, (model.node_scores(g) for g in dataset), 1)


def train(
    dataset: CircuitGraphDataset,
    rng: np.random.Generator,
    epochs: int = 30,
    batch_size: int = 8,
    lr: float = 1e-2,
    hidden: int = 32,
    seed: int = 0,
    clip_norm: float | None = None,
    log=print,
    telemetry: TelemetryWriter | None = None,
    scenario: str | None = None,
    profiler: PhaseProfiler | None = None,
) -> DelayFaultLocalizer:
    """Full-batch-per-graph training with minibatch gradient accumulation.

    A NaN/inf loss raises :class:`NonFiniteLossError` immediately — a model
    trained past that point is garbage, and saving it would poison every
    replica that serves it. Parameters left non-finite by the last
    step raise it too. ``clip_norm`` (optional) clips each
    accumulated minibatch gradient to that global L2 norm before the
    optimizer step. ``telemetry`` (optional) receives one ``epoch`` event
    per epoch: mean loss, max pre-clip gradient norm, lr, wall time —
    tagged with ``scenario`` when one is named. ``profiler`` (optional,
    ``--profile``) is drained once per epoch into per-phase ``profile``
    telemetry rows (data_gen / forward / backward / optimizer_step / eval).
    """
    model = DelayFaultLocalizer(hidden=hidden, seed=seed)
    optimizer = Adam(model.flat, lr=lr)
    # One flat gradient buffer; ``grads`` are its per-parameter views, which
    # clipping and the telemetry norm read exactly as they read a dict. Each
    # graph's gradient lands in ``scratch``, laid out the same way, and its
    # share of the minibatch mean in ``share``.
    grad_flat = np.zeros_like(model.flat)
    grads = model.views(grad_flat)
    scratch = np.empty_like(model.flat)
    share = np.empty_like(model.flat)
    # Built the first time epoch 0 reaches each graph, inside data_gen.
    examples: list[TrainingExample | None] = [None] * len(dataset)
    with profiler if profiler is not None else nullcontext():
        for epoch in range(epochs):
            epoch_t0 = time.perf_counter()
            order = rng.permutation(len(dataset))
            total_loss = 0.0
            max_norm = 0.0
            for start in range(0, len(order), batch_size):
                batch = order[start : start + batch_size]
                grad_flat.fill(0.0)
                for i in batch.tolist():
                    with phase("data_gen"):
                        example = examples[i]
                        if example is None:
                            example = examples[i] = model.example(dataset[i])
                    loss, _ = model.loss_and_grads(example, out=scratch)
                    if not math.isfinite(loss):
                        raise NonFiniteLossError(
                            f"non-finite loss {loss!r} at epoch {epoch}, graph index {i} "
                            f"({dataset[i].name}); lower --lr or pass --clip-norm"
                        )
                    total_loss += loss
                    grad_flat += np.divide(scratch, len(batch), out=share)
                with phase("optimizer_step"):
                    if clip_norm is not None:
                        norm = clip_by_global_norm(grads, clip_norm)
                    elif telemetry is not None:
                        norm = global_grad_norm(grads)
                    else:
                        norm = 0.0
                    max_norm = max(max_norm, norm)
                    optimizer.step(grad_flat)
            if telemetry is not None:
                tagged = {} if scenario is None else {"scenario": scenario}
                telemetry.emit(
                    "epoch",
                    epoch=epoch,
                    loss=round(total_loss / max(len(dataset), 1), 6),
                    grad_norm=round(max_norm, 6),
                    lr=lr,
                    wall_s=round(time.perf_counter() - epoch_t0, 6),
                    **tagged,
                )
            if log is not None and (epoch == epochs - 1 or epoch % 5 == 0):
                with phase("eval"):
                    acc = localization_accuracy(model, dataset)
                log(
                    f"epoch {epoch:3d}  loss {total_loss / max(len(dataset), 1):.4f}  "
                    f"train-acc {acc:.3f}"
                )
            if profiler is not None and telemetry is not None:
                for name, row in profiler.drain().items():
                    telemetry.emit("profile", epoch=epoch, phase=name, **row)
    # The loss guard only sees a step's result at the next graph; the last
    # step has no next graph.
    if not np.isfinite(model.flat).all():
        raise NonFiniteLossError(
            f"non-finite parameters after the last optimizer step (lr {lr!r}); "
            "lower --lr or pass --clip-norm"
        )
    return model


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=argtypes.seed, default=0)
    parser.add_argument("--n-graphs", type=argtypes.positive_int, default=200)
    parser.add_argument("--n-gates", type=argtypes.positive_int, default=40)
    parser.add_argument("--n-inputs", type=argtypes.positive_int, default=6)
    parser.add_argument("--num-tiers", type=argtypes.positive_int, default=2)
    parser.add_argument("--epochs", type=argtypes.positive_int, default=30)
    parser.add_argument("--batch-size", type=argtypes.positive_int, default=8)
    parser.add_argument("--lr", type=argtypes.positive_finite, default=1e-2)
    parser.add_argument("--clip-norm", type=argtypes.positive_finite, default=None,
                        help="clip accumulated gradients to this global L2 norm")
    parser.add_argument("--hidden", type=argtypes.positive_int, default=32)
    parser.add_argument("--test-fraction", type=argtypes.fraction, default=0.2)
    parser.add_argument("--scenario", choices=scenario_names(), default=DEFAULT_SCENARIO,
                        help="fault scenario whose generator synthesizes the dataset")
    parser.add_argument("--data-dir", type=Path, default=None,
                        help="load graphs from a directory instead of synthesizing")
    parser.add_argument("--save-data-dir", type=Path, default=None,
                        help="also serialize the training graphs for m3dlint check / reuse")
    parser.add_argument("--out", type=Path, default=Path("localizer.npz"))
    parser.add_argument("--metrics-log", type=Path, default=None,
                        help="append per-epoch telemetry (JSONL) for m3d-obs train")
    parser.add_argument("--profile", action="store_true",
                        help="per-epoch phase profiling (data_gen/forward/backward/"
                             "optimizer_step/eval) emitted as profile telemetry rows")
    parser.add_argument("--profile-memory", action="store_true",
                        help="also track per-phase allocation high-water via "
                             "tracemalloc (implies --profile; slows the loop)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    rng = seed_everything(args.seed)
    scenario = get_scenario(args.scenario)
    engine = build_scenario_engine(scenario.name)
    try:
        setup_t0 = time.perf_counter()
        if args.data_dir is not None:
            graphs = read_graph_dir(args.data_dir)
        else:
            graphs = scenario.generate(
                ScenarioSpec(
                    n_graphs=args.n_graphs,
                    n_gates=args.n_gates,
                    n_inputs=args.n_inputs,
                    num_tiers=args.num_tiers,
                    seed=args.seed,
                )
            )
        setup_t1 = time.perf_counter()
        dataset = CircuitGraphDataset.from_graphs(graphs, engine=engine)
        setup_t2 = time.perf_counter()
    except GraphContractError as exc:
        print(f"contract gate rejected the dataset: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:  # --data-dir holds no graph files
        print(exc, file=sys.stderr)
        return 2
    for warning in dataset.warnings:
        print(f"contract warning: {warning.render()}", file=sys.stderr)
    if args.save_data_dir is not None:
        dataset.save_dir(args.save_data_dir)

    train_set, test_set = dataset.split(rng, test_fraction=args.test_fraction)
    print(f"training on {len(train_set)} graphs, holding out {len(test_set)}")
    telemetry = None if args.metrics_log is None else TelemetryWriter(args.metrics_log)
    if telemetry is not None:
        telemetry.emit(
            "setup",
            source="data_dir" if args.data_dir is not None else "synthesized",
            generate_s=round(setup_t1 - setup_t0, 6),
            gate_s=round(setup_t2 - setup_t1, 6),
            n_graphs=len(dataset),
            scenario=scenario.name,
        )
    profiler = (
        PhaseProfiler(memory=args.profile_memory)
        if (args.profile or args.profile_memory)
        else None
    )
    try:
        model = train(
            train_set,
            rng,
            epochs=args.epochs,
            batch_size=args.batch_size,
            lr=args.lr,
            hidden=args.hidden,
            seed=args.seed,
            clip_norm=args.clip_norm,
            telemetry=telemetry,
            scenario=scenario.name,
            profiler=profiler,
        )
    except NonFiniteLossError as exc:
        print(f"training aborted: {exc}", file=sys.stderr)
        if telemetry is not None:
            telemetry.emit(
                "aborted", reason="non_finite_loss", detail=str(exc), scenario=scenario.name
            )
            telemetry.close()
        return 1
    test_acc = localization_accuracy(model, test_set)
    print(f"held-out localization accuracy: {test_acc:.3f}")
    if telemetry is not None:
        telemetry.emit(
            "final",
            epochs=args.epochs,
            train_graphs=len(train_set),
            test_graphs=len(test_set),
            test_accuracy=round(test_acc, 4),
            scenario=scenario.name,
        )
        telemetry.close()
    saved = model.save(
        args.out,
        metadata={
            "seed": args.seed,
            "epochs": args.epochs,
            "hidden": args.hidden,
            "lr": args.lr,
            "train_graphs": len(train_set),
            "test_graphs": len(test_set),
            "test_accuracy": round(test_acc, 4),
            "scenario": scenario.name,
            "data_dir": str(args.data_dir) if args.data_dir is not None else None,
        },
    )
    print(f"model saved to {saved}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
