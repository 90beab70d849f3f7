"""Worker-pool chaos: the 4-worker topology under deterministic faults.

The single-worker chaos suite (``test_chaos.py``) keeps passing unchanged —
``num_workers=1`` routes through the same pool machinery — so this suite
covers only what needs siblings to exist:

- digest sharding spreads distinct graphs across workers and every request
  completes (nothing silently dropped);
- killing worker *i* of *n* fails only its shard's futures (crash
  isolation), reroutes its traffic to siblings while the restart backs off,
  flips ``/healthz`` to ``degraded-k-of-n``, and recovers to ``ok``;
- stalling one shard restarts only that worker — sibling restart counters
  stay at zero;
- the pool-wide storm resolves every admitted request to a result or a
  structured, trace-id-carrying failure;
- the shed ``Retry-After`` is queue-depth derived and jittered within ±20 %
  (bounds asserted, never the exact value);
- drain during a concurrent hot reload neither serves a half-loaded model
  nor strands futures.
"""

import threading
import time

import numpy as np
import pytest

from m3d_fault_loc.data.synthetic import synthesize_fault_dataset
from m3d_fault_loc.model.localizer import DelayFaultLocalizer
from m3d_fault_loc.serve.cache import graph_digest
from m3d_fault_loc.serve.registry import ModelRegistry
from m3d_fault_loc.serve.resilience import (
    ExponentialBackoff,
    LoadSheddedError,
    ServiceDrainingError,
    WorkerCrashedError,
    jittered,
)
from m3d_fault_loc.serve.service import LocalizationService
from m3d_fault_loc.testing.chaos import (
    CrashShardWorkerModel,
    SlowBatchModel,
    StallShardModel,
)

POOL = 4


@pytest.fixture(scope="module")
def graphs():
    rng = np.random.default_rng(11)
    return synthesize_fault_dataset(rng, n_graphs=16, n_gates=12, n_inputs=3)


def base_model():
    return DelayFaultLocalizer(hidden=8, seed=2)


def make_pool(model, **kwargs):
    kwargs.setdefault("num_workers", POOL)
    kwargs.setdefault("watchdog_interval_s", 0.03)
    kwargs.setdefault(
        "restart_backoff", ExponentialBackoff(base_s=0.01, factor=2.0, max_s=0.05)
    )
    kwargs.setdefault("drain_deadline_s", 2.0)
    return LocalizationService(model=model, **kwargs)


def wait_until(predicate, timeout=5.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def shard_of(service, graph):
    return int(graph_digest(graph)[:8], 16) % service.num_workers


def graph_on_shard(graphs, service, shard):
    for g in graphs:
        if shard_of(service, g) == shard:
            return g
    pytest.skip(f"no fixture graph hashes to shard {shard}")


# -- topology basics --------------------------------------------------------


def test_digest_sharding_spreads_and_everything_completes(graphs):
    with make_pool(base_model(), cache_size=1) as service:
        for g in graphs:
            result = service.localize(g, timeout_s=5.0)
            assert result.num_nodes == g.num_nodes
        shards = {shard_of(service, g) for g in graphs}
        assert len(shards) > 1, "16 distinct graphs should span multiple shards"
        busy = [i for i in range(POOL) if service.m_worker_batches[i].value > 0]
        assert set(busy) == shards
        pool = service.pool_snapshot()
        assert pool["state"] == "ok"
        assert pool["alive"] == POOL


def test_single_worker_pool_reports_queue_depth(graphs):
    with make_pool(base_model(), num_workers=1) as service:
        assert len(service._shards) == 1
        service.localize(graphs[0], timeout_s=5.0)
        assert service.queue_depth() == 0


def test_repeat_digest_routes_to_same_shard(graphs):
    with make_pool(base_model(), cache_size=1) as service:
        g = graphs[0]
        home = shard_of(service, g)
        for _ in range(3):
            service.localize(g, timeout_s=5.0)
        others = [
            i for i in range(POOL)
            if i != home and service.m_worker_batches[i].value > 0
        ]
        assert others == [], "repeat topology must stay on its home shard"


# -- crash isolation --------------------------------------------------------


@pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
def test_kill_worker_i_of_n_is_isolated_and_recovers(graphs):
    victim_shard = 0
    model = CrashShardWorkerModel(base_model(), target_shard=victim_shard, crash_on=1)
    with make_pool(model, cache_size=1) as service:
        victim_graph = graph_on_shard(graphs, service, victim_shard)
        with pytest.raises(WorkerCrashedError):
            service.localize(victim_graph, timeout_s=5.0)

        # Sibling shards never noticed: their requests succeed throughout.
        for g in graphs:
            if shard_of(service, g) != victim_shard:
                assert service.localize(g, timeout_s=5.0).num_nodes == g.num_nodes

        # Pool health degraded while the victim's restart is pending...
        assert wait_until(
            lambda: service.pool_snapshot()["state"].startswith("degraded")
            or service.pool_snapshot()["state"] == "ok",
            timeout=2.0,
        )
        # ...and the watchdog restart brings it back to ok, after which the
        # victim shard serves again (the shim only kills its first call).
        assert wait_until(lambda: service.pool_snapshot()["state"] == "ok", timeout=3.0)
        result = service.localize(victim_graph, timeout_s=5.0)
        assert result.num_nodes == victim_graph.num_nodes
        assert service.m_worker_restart_by[victim_shard].value >= 1
        for i in range(POOL):
            if i != victim_shard:
                assert service.m_worker_restart_by[i].value == 0


@pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
def test_rerouted_shard_serves_from_sibling_in_degraded_mode(graphs):
    victim_shard = 0
    # Long backoff keeps the victim shard rerouted while we probe it.
    model = CrashShardWorkerModel(
        base_model(), target_shard=victim_shard, crash_on=1, crash_count=1
    )
    with make_pool(
        model,
        cache_size=1,
        restart_backoff=ExponentialBackoff(base_s=0.5, factor=2.0, max_s=1.0),
    ) as service:
        victim_graph = graph_on_shard(graphs, service, victim_shard)
        with pytest.raises(WorkerCrashedError):
            service.localize(victim_graph, timeout_s=5.0)
        assert wait_until(lambda: service._shards[victim_shard].rerouted, timeout=2.0)

        # The same digest now lands on a sibling — and succeeds, because the
        # shim only sabotages the victim shard's worker thread.
        result = service.localize(victim_graph, timeout_s=5.0)
        assert result.num_nodes == victim_graph.num_nodes
        assert service.m_rerouted.value >= 1
        snapshot = service.pool_snapshot()
        assert snapshot["state"].startswith("degraded")
        assert victim_shard in snapshot["rerouted_shards"]
        # Recovery: backoff matures, the watchdog respawns, reroute clears.
        assert wait_until(lambda: service.pool_snapshot()["state"] == "ok", timeout=4.0)


def test_stall_one_shard_restarts_only_that_worker(graphs):
    victim_shard = 1
    model = StallShardModel(base_model(), target_shard=victim_shard)
    with make_pool(model, cache_size=1, stall_timeout_s=0.1) as service:
        victim_graph = graph_on_shard(graphs, service, victim_shard)
        results = {}

        def call():
            try:
                results["victim"] = service.localize(victim_graph, timeout_s=5.0)
            except Exception as exc:
                results["victim"] = exc

        thread = threading.Thread(target=call, daemon=True)
        thread.start()
        assert wait_until(lambda: model.stalled_calls >= 1, timeout=3.0)
        # Healthy siblings keep serving at full speed while shard 1 is wedged.
        for g in graphs[:6]:
            if shard_of(service, g) != victim_shard:
                service.localize(g, timeout_s=5.0)
        assert wait_until(
            lambda: service.m_worker_restart_by[victim_shard].value >= 1, timeout=3.0
        )
        model.release()
        thread.join(timeout=5.0)
        assert isinstance(results["victim"], WorkerCrashedError)
        for i in range(POOL):
            if i != victim_shard:
                assert service.m_worker_restart_by[i].value == 0


# -- nothing silently dropped ----------------------------------------------


@pytest.mark.filterwarnings("ignore::pytest.PytestUnhandledThreadExceptionWarning")
def test_storm_with_shard_kill_resolves_every_request(graphs):
    model = CrashShardWorkerModel(base_model(), target_shard=0, crash_on=2)
    with make_pool(model, cache_size=1, max_queue=256) as service:
        results: dict[int, object] = {}
        threads = []
        for i in range(32):
            g = graphs[i % len(graphs)]

            def call(key=i, graph=g):
                try:
                    results[key] = service.localize(graph, timeout_s=5.0)
                except Exception as exc:
                    results[key] = exc

            t = threading.Thread(target=call, daemon=True)
            t.start()
            threads.append(t)
        for t in threads:
            t.join(timeout=10.0)
        assert len(results) == 32, "every admitted request must resolve"
        crashed = [r for r in results.values() if isinstance(r, WorkerCrashedError)]
        ok = [r for r in results.values() if not isinstance(r, Exception)]
        assert len(ok) + len(crashed) == 32, f"unexpected outcomes: {results}"
        assert ok, "sibling shards must keep serving through the kill"


# -- jittered, queue-derived Retry-After ------------------------------------


def test_jittered_bounds_and_validation():
    values = [jittered(2.0) for _ in range(200)]
    assert all(1.6 <= v <= 2.4 for v in values), "±20% bounds"
    assert len(set(values)) > 1, "jitter must actually vary"
    assert jittered(0.0) == 0.0
    with pytest.raises(ValueError):
        jittered(-1.0)
    with pytest.raises(ValueError):
        jittered(1.0, fraction=1.0)


def test_shed_retry_after_scales_with_queue_depth(graphs):
    model = SlowBatchModel(base_model(), delay_s=0.5, slow_calls=None)
    with make_pool(
        model, num_workers=1, cache_size=1, max_queue=2, max_batch=1,
        shed_retry_after_s=1.0,
    ) as service:
        g0, g1, g2 = graphs[0], graphs[1], graphs[2]
        threads = [
            threading.Thread(
                target=lambda g=g: _swallow(service, g), daemon=True
            )
            for g in (g0, g1, g2)
        ]
        for t in threads:
            t.start()
        # One request occupies the worker, two fill max_queue=2; the next
        # must shed with a depth-derived, jittered hint: base 1.0s scaled by
        # (1 + depth/max_queue) ∈ [1, 2], jittered ±20% → [0.8, 2.4].
        assert wait_until(lambda: service.queue_depth() >= 2, timeout=3.0)
        hints = []
        for _ in range(5):
            try:
                service.localize(graphs[3], timeout_s=0.05)
            except LoadSheddedError as exc:
                hints.append(exc.retry_after_s)
            except Exception:
                pass
        assert hints, "a full queue must shed"
        assert all(0.8 <= h <= 2.4 for h in hints), hints
        # Depth 2 of 2 → scale factor 2.0 → lower bound with jitter is 1.6.
        assert max(hints) >= 1.0
        for t in threads:
            t.join(timeout=5.0)


def _swallow(service, graph):
    try:
        service.localize(graph, timeout_s=5.0)
    except Exception:
        pass


# -- drain under concurrent hot reload --------------------------------------


def test_drain_during_active_pointer_swap_is_clean(tmp_path, graphs):
    """SIGTERM mid-reload: no half-loaded model served, no stranded future.

    A writer thread flips the registry ACTIVE pointer in a tight loop while
    clients localize and the service drains. Every future must resolve —
    to a result carrying a *complete* model identity (name/version pair
    that was actually published) or to a structured draining error — and
    the service must end up draining with an empty pipeline.
    """
    registry = ModelRegistry(tmp_path / "registry")
    v1 = registry.publish(DelayFaultLocalizer(hidden=4, seed=0))
    v2 = registry.publish(DelayFaultLocalizer(hidden=4, seed=1), activate=False)
    published = {(v1.name, v1.version), (v2.name, v2.version)}

    service = LocalizationService(
        registry=registry,
        watchdog_interval_s=0.03,
        num_workers=2,
        drain_deadline_s=2.0,
    )
    service.start()
    stop_flipping = threading.Event()

    def flip():
        flip_to = [(v2.name, v2.version), (v1.name, v1.version)]
        i = 0
        while not stop_flipping.is_set():
            name, version = flip_to[i % 2]
            registry.activate(name, version)
            i += 1

    flipper = threading.Thread(target=flip, daemon=True)
    flipper.start()

    results: dict[int, object] = {}
    threads = []
    for i in range(24):
        g = graphs[i % len(graphs)]

        def call(key=i, graph=g):
            try:
                results[key] = service.localize(graph, timeout_s=5.0)
            except Exception as exc:
                results[key] = exc

        t = threading.Thread(target=call, daemon=True)
        t.start()
        threads.append(t)
        if i == 12:
            service.begin_drain()  # SIGTERM lands mid-traffic, mid-swap

    report = service.await_drain(2.0)
    stop_flipping.set()
    flipper.join(timeout=5.0)
    for t in threads:
        t.join(timeout=5.0)

    assert len(results) == 24, "every request must resolve during drain"
    for key, outcome in results.items():
        if isinstance(outcome, Exception):
            assert isinstance(outcome, (ServiceDrainingError, WorkerCrashedError)), (
                key,
                outcome,
            )
        else:
            # Never a half-loaded identity: the (name, version) pair must be
            # one that was actually published, never a mix of two swaps.
            assert (outcome.model_name, outcome.model_version) in published
    assert service.queue_depth() == 0
    assert report["failed"] >= 0
    assert service.health_snapshot()["status"] == "draining"
    service.close()
