"""Drive one workload end to end and collect its metric values.

A plain run (``trace=False``) measures the end-to-end metrics; a traced run
(``trace=True``) is a separate invocation that measures the per-layer
metrics and never reports end-to-end values, because the trace exporter
and the profiler add their own cost.

Serve workloads, plain run:

1. build the traffic from the seed (not part of ``setup_s``);
2. start the deployment :data:`SETUP_REPS` times, keeping the last one;
   ``setup_s`` is the median spawn-to-healthy time, at the reference machine
   speed (see :mod:`e2ebench.speed`);
3. send the warm set once, then let the workload's callers send back to
   back, with a short think time, for ``seconds``: latency percentiles and
   completed requests per second;
4. check every answer.

A traced serve run measures the same phase twice, ``seconds / 2`` each, on
fresh deployments: once plain and once with ``--trace-log``, so the p50
ratio is the tracing overhead. It then times back-to-back keep-alive health
round trips on the generator's own connections.

The training workload synthesizes and gates the dataset (``setup_s``,
median of :data:`SETUP_REPS`), trains with ``cli.train.train`` and scores
the held-out split against a hit@1 floor. ``p50_ms``/``p95_ms`` are
percentiles of the epoch times (200 epochs, so p95 has ten beyond it) and
``throughput_per_s`` is training graphs times epochs over their sum; all of
these are CPU-bound, so all are reported at the reference machine speed.
Its traced run trains once plain and once under a ``PhaseProfiler``.
"""

from __future__ import annotations

import os
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from m3d_fault_loc.cli.train import localization_accuracy, train
from m3d_fault_loc.data.dataset import CircuitGraphDataset
from m3d_fault_loc.model.localizer import DelayFaultLocalizer
from m3d_fault_loc.obs.profile import PhaseProfiler
from m3d_fault_loc.obs.telemetry import TelemetryWriter
from m3d_fault_loc.scenarios import (
    DEFAULT_SCENARIO,
    ScenarioSpec,
    build_scenario_engine,
    get_scenario,
)

from e2ebench import layers, speed
from e2ebench.loadgen import (
    Sample,
    Sender,
    Stream,
    client_gap_ms,
    closed_loop,
    round_trips,
    sender_count,
)
from e2ebench.servers import (
    ROOT,
    Deployment,
    peak_rss_mb,
    scrape,
    start_routed,
    start_serve,
)
from e2ebench.workloads import (
    WORKLOADS,
    Reference,
    ServeWorkload,
    TrainWorkload,
    Traffic,
    build_traffic,
    served_model,
    smoke,
)

SETUP_REPS = 3
#: Mean think time of a caller between a reply and its next request.
THINK_MS = 2.0
#: Ceiling on the warm-up; it ends when every warm body was sent once.
WARM_LIMIT_S = 60.0
#: Back-to-back keep-alive health round trips per sender.
HEALTH_PROBES = 10
#: Minibatches replayed to time gradient accumulation.
ACCUM_REPLAYS = 200
#: Scratch space for model files and trace logs, inside the checkout.
RUN_DIR = ROOT / "e2ebench" / ".run"
#: Failure reasons kept for the report.
MAX_NOTES = 5


@dataclass
class Outcome:
    """Metric values of one run plus its request accounting."""

    values: dict[str, float]
    attempted: int
    failed: int
    notes: list[str] = field(default_factory=list)
    info: dict[str, Any] = field(default_factory=dict)


def run_workload(name: str, seed: int, seconds: float, trace: bool, small: bool) -> Outcome:
    workload = WORKLOADS[name]
    if small:
        workload = smoke(workload)
    RUN_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{name}-", dir=RUN_DIR) as tmp:
        workdir = Path(tmp)
        if isinstance(workload, TrainWorkload):
            return _train_traced(workload, seed) if trace else _train_plain(workload, seed)
        if trace:
            return _serve_traced(workload, seed, seconds, workdir)
        return _serve_plain(workload, seed, seconds, workdir)


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q))


# -- serving ------------------------------------------------------------------


def _start(workload: ServeWorkload, model: Path, trace_dir: Path | None = None) -> Deployment:
    if workload.routed:
        return start_routed(model, trace_dir=trace_dir)
    return start_serve(model, trace_dir=trace_dir)


def _timed_start(workload: ServeWorkload, model: Path) -> tuple[Deployment, float]:
    """A deployment and its set-up time (s) at the reference machine speed."""
    before = speed.probe_median_ms()
    deployment = _start(workload, model)
    try:
        probe = (before + speed.probe_median_ms()) / 2
    except BaseException:
        deployment.stop()
        raise
    return deployment, speed.at_reference(deployment.setup_s, probe)


class _Session:
    """A deployment plus the generator's keep-alive connections to it."""

    def __init__(self, deployment: Deployment, callers: int):
        self.deployment = deployment
        self.senders = [Sender(deployment.port) for _ in range(sender_count(callers))]

    def warm(self, traffic: Traffic, tag: str) -> list[Sample]:
        """Send every warm body once, so caches fill and lazy set-up is done."""
        stream = Stream(np.asarray(traffic.warm), traffic.payloads, tag)
        samples, _ = closed_loop(self.senders, stream, WARM_LIMIT_S, limit=len(traffic.warm))
        return samples

    def close(self) -> None:
        for sender in self.senders:
            sender.close()
        self.deployment.stop()


def _check(reference: Reference, samples: list[Sample]) -> tuple[int, list[str]]:
    notes = [f"{s.trace_id}: {err}" for s in samples if (err := reference.check(s))]
    return len(notes), notes[:MAX_NOTES]


def _serve_plain(workload: ServeWorkload, seed: int, seconds: float, workdir: Path) -> Outcome:
    traffic = build_traffic(workload, seed)
    model = served_model()
    model_path = model.save(workdir / "model.npz")
    setup_times = []
    for _ in range(SETUP_REPS - 1):
        deployment, setup_s = _timed_start(workload, model_path)
        with deployment:
            setup_times.append(setup_s)
    deployment, setup_s = _timed_start(workload, model_path)
    setup_times.append(setup_s)
    session = _Session(deployment, workload.callers)
    try:
        warm = session.warm(traffic, f"warm{seed}")
        stream = Stream(traffic.stream, traffic.payloads, f"req{seed}")
        samples, elapsed = closed_loop(
            session.senders, stream, seconds, think_ms=THINK_MS, seed=seed
        )
        rss_mb = session.deployment.peak_rss_mb()
    finally:
        session.close()
    failed, notes = _check(Reference(model, traffic), warm + samples)
    latencies = [s.latency_ms for s in samples]
    return Outcome(
        values={
            "setup_s": statistics.median(setup_times),
            "p50_ms": _percentile(latencies, 50),
            "p95_ms": _percentile(latencies, 95),
            "throughput_per_s": len(samples) / elapsed,
            "peak_rss_mb": rss_mb,
        },
        attempted=len(warm) + len(samples),
        failed=failed,
        notes=notes,
        info={
            "samples": len(samples),
            "senders": len(session.senders),
            "client_gap_ms": client_gap_ms(samples),
        },
    )


def _serve_traced(workload: ServeWorkload, seed: int, seconds: float, workdir: Path) -> Outcome:
    traffic = build_traffic(workload, seed)
    model = served_model()
    model_path = model.save(workdir / "model.npz")
    checked: list[Sample] = []

    def phase(trace_dir: Path | None) -> tuple[list[Sample], list, list, list[float], list[str]]:
        session = _Session(_start(workload, model_path, trace_dir), workload.callers)
        try:
            checked.extend(session.warm(traffic, f"warm{seed}"))
            before = scrape(session.deployment)
            stream = Stream(traffic.stream, traffic.payloads, f"req{seed}")
            samples, _ = closed_loop(
                session.senders, stream, seconds / 2, think_ms=THINK_MS, seed=seed
            )
            checked.extend(samples)
            after = scrape(session.deployment)
            deployment = session.deployment
            health = round_trips(session.senders, deployment.health_path, HEALTH_PROBES, "rtt")
            return samples, before, after, health, deployment.replica_keys
        finally:
            session.close()

    plain = phase(None)[0]
    trace_dir = workdir / "traces"
    traced, before, after, health, replica_keys = phase(trace_dir)
    failed, notes = _check(Reference(model, traffic), checked)

    found = layers.serve_layers(traced, layers.read_traces(trace_dir), traffic, workload.routed)
    found.update(layers.counter_ratios(before, after))
    if workload.routed:
        found.update(layers.router_headers(traced, traffic, replica_keys))
    found["serve.server.health_rtt_ms"] = statistics.median(health)
    found["bench.client_gap_ms"] = client_gap_ms(traced)
    found["bench.trace_overhead_frac"] = (
        _percentile([s.latency_ms for s in traced], 50)
        / _percentile([s.latency_ms for s in plain], 50)
        - 1.0
    )
    return Outcome(
        values=found,
        attempted=len(checked),
        failed=failed,
        notes=notes,
        info={"traced_samples": len(traced), "plain_samples": len(plain)},
    )


# -- training -----------------------------------------------------------------


class _EpochRecorder(TelemetryWriter):
    """Keeps ``train()``'s telemetry events in memory instead of a file, and
    probes the machine's speed after each epoch (outside the epoch's time)."""

    def __init__(self) -> None:
        super().__init__(os.devnull)
        self.events: list[dict[str, Any]] = []

    def emit(self, event: str, **fields: Any) -> dict[str, Any]:
        record = {"event": event, **fields}
        if event == "epoch":
            record["probe_ms"] = speed.probe_ms()
        self.events.append(record)
        return record


def _dataset(workload: TrainWorkload, seed: int) -> tuple[CircuitGraphDataset, float, float]:
    """Synthesize and gate the dataset; return it with both durations (s),
    rescaled to the reference machine speed."""
    scenario = get_scenario(DEFAULT_SCENARIO)
    engine = build_scenario_engine(scenario.name)
    spec = ScenarioSpec(
        n_graphs=workload.n_graphs,
        n_gates=workload.n_gates,
        n_inputs=workload.n_inputs,
        num_tiers=workload.num_tiers,
        seed=seed,
    )
    before = speed.probe_median_ms()
    t0 = time.perf_counter()
    graphs = scenario.generate(spec)
    t1 = time.perf_counter()
    dataset = CircuitGraphDataset.from_graphs(graphs, engine=engine)
    t2 = time.perf_counter()
    probe = (before + speed.probe_median_ms()) / 2
    return dataset, speed.at_reference(t1 - t0, probe), speed.at_reference(t2 - t1, probe)


@dataclass
class _Training:
    #: Per-epoch wall times rescaled to the reference machine speed.
    epoch_ms: list[float]
    #: The same, as measured (what the profiler's phase times add up to).
    raw_epoch_ms: list[float]
    train_graphs: int
    hit1: float
    events: list[dict[str, Any]]
    #: Median speed probe over the run, for the record.
    probe_ms: float


def _train(
    workload: TrainWorkload,
    seed: int,
    dataset: CircuitGraphDataset,
    profiler: PhaseProfiler | None = None,
) -> _Training:
    rng = np.random.default_rng(seed)
    train_set, test_set = dataset.split(rng, test_fraction=workload.test_fraction)
    recorder = _EpochRecorder()
    first_probe = speed.probe_ms()
    model = train(
        train_set,
        rng,
        epochs=workload.epochs,
        batch_size=workload.batch_size,
        hidden=workload.hidden,
        seed=seed,
        log=None,
        telemetry=recorder,
        profiler=profiler,
    )
    epochs = [e for e in recorder.events if e["event"] == "epoch"]
    after = [e["probe_ms"] for e in epochs]
    # Each epoch at the mean speed of the probes just before and after it.
    probes = [(a + b) / 2 for a, b in zip([first_probe, *after], after)]
    return _Training(
        epoch_ms=[speed.at_reference(e["wall_s"] * 1e3, p) for e, p in zip(epochs, probes)],
        raw_epoch_ms=[e["wall_s"] * 1e3 for e in epochs],
        train_graphs=len(train_set),
        hit1=localization_accuracy(model, test_set),
        events=recorder.events,
        probe_ms=statistics.median(probes),
    )


def _floor_check(workload: TrainWorkload, run: _Training) -> tuple[int, list[str]]:
    if run.hit1 >= workload.hit1_floor:
        return 0, []
    return 1, [f"held-out hit@1 {run.hit1:.3f} is below the floor {workload.hit1_floor}"]


def _train_plain(workload: TrainWorkload, seed: int) -> Outcome:
    setup_times = [sum(_dataset(workload, seed)[1:]) for _ in range(SETUP_REPS - 1)]
    dataset, generate_s, gate_s = _dataset(workload, seed)
    setup_times.append(generate_s + gate_s)
    run = _train(workload, seed, dataset)
    failed, notes = _floor_check(workload, run)
    return Outcome(
        values={
            "setup_s": statistics.median(setup_times),
            "p50_ms": _percentile(run.epoch_ms, 50),
            "p95_ms": _percentile(run.epoch_ms, 95),
            "throughput_per_s": run.train_graphs * workload.epochs / (sum(run.epoch_ms) / 1e3),
            "peak_rss_mb": peak_rss_mb(),
        },
        attempted=1,
        failed=failed,
        notes=notes,
        info={"hit1": run.hit1, "epochs": len(run.epoch_ms), "probe_ms": run.probe_ms},
    )


#: Profiler phases that partition an epoch, as layer metric names.
TRAIN_PHASES = {
    "data_gen": "model.train_data_ms",
    "forward": "model.train_forward_ms",
    "backward": "model.train_backward_ms",
    "optimizer_step": "model.optim_step_ms",
}


def _grad_accum_ms(workload: TrainWorkload, seed: int, dataset: CircuitGraphDataset) -> float:
    """Replay of the per-minibatch work ``train()`` does outside the profiler's
    phases: zeroed gradient buffers and the running mean of per-graph grads."""
    model = DelayFaultLocalizer(hidden=workload.hidden, seed=seed)
    per_graph = [model.loss_and_grads(dataset[i])[1] for i in range(workload.batch_size)]
    t0 = time.perf_counter()
    for _ in range(ACCUM_REPLAYS):
        grads = {k: np.zeros_like(v) for k, v in model.params.items()}
        for g in per_graph:
            for k in grads:
                grads[k] += g[k] / len(per_graph)
    return (time.perf_counter() - t0) * 1e3 / ACCUM_REPLAYS


def _train_traced(workload: TrainWorkload, seed: int) -> Outcome:
    dataset, generate_s, gate_s = _dataset(workload, seed)
    plain = _train(workload, seed, dataset)
    traced = _train(workload, seed, dataset, profiler=PhaseProfiler())
    failed, notes = _floor_check(workload, traced)

    wall = dict.fromkeys(TRAIN_PHASES, 0.0)
    calls = dict.fromkeys(TRAIN_PHASES, 0)
    for event in traced.events:
        if event["event"] == "profile" and event["phase"] in TRAIN_PHASES:
            wall[event["phase"]] += event["wall_s"] * 1e3
            calls[event["phase"]] += event["calls"]
    epochs = len(traced.epoch_ms)
    per_epoch = {TRAIN_PHASES[p]: wall[p] / epochs for p in TRAIN_PHASES}
    accum_ms = _grad_accum_ms(workload, seed, dataset)
    per_epoch["model.grad_accum_ms"] = accum_ms * calls["optimizer_step"] / epochs
    found: dict[str, float] = {
        "scenarios.generate_s": generate_s,
        "analysis.dataset_gate_s": gate_s,
        # Per graph for data, forward and backward; per minibatch for the rest.
        **{TRAIN_PHASES[p]: wall[p] / max(calls[p], 1) for p in TRAIN_PHASES},
        "model.grad_accum_ms": accum_ms,
        "bench.trace_overhead_frac": (
            _percentile(traced.epoch_ms, 50) / _percentile(plain.epoch_ms, 50) - 1.0
        ),
        **layers.residual(float(np.mean(traced.raw_epoch_ms)), per_epoch, list(per_epoch)),
    }
    return Outcome(
        values=found,
        attempted=1,
        failed=failed,
        notes=notes,
        info={"hit1": traced.hit1, "phase_ms_per_epoch": per_epoch},
    )
