"""Replica router: consistent-hash affinity, health-aware failover, drain.

Driven against :class:`m3d_fault_loc.testing.chaos.StubReplica` — a
programmable in-process replica with scripted faults — so every network
failure mode is injected deterministically:

- repeat payloads route to the same replica (cache affinity) and the ring's
  walk order is the failover preference;
- a partitioned replica (connect refused) fails over with zero lost
  requests; consecutive failures eject it; a healed replica is readmitted
  through the half-open probe;
- post-send failures are retried only for idempotent requests, never for
  non-idempotent ones; expired deadlines are never retried;
- a slow-loris connection does not stop the router from serving others;
- drain stops admission with a structured 503 and finishes in-flight work.
"""

import http.client
import json
import logging
import math
import threading
import time

import pytest

from m3d_fault_loc.model.localizer import DelayFaultLocalizer
from m3d_fault_loc.scenarios import ScenarioSpec, get_scenario
from m3d_fault_loc.serve.resilience import ExponentialBackoff
from m3d_fault_loc.serve.router import (
    ATTEMPTS_HEADER,
    REPLICA_EJECTED,
    REPLICA_HEADER,
    REPLICA_UP,
    HashRing,
    Replica,
    ReplicaRouter,
    RouterPolicy,
    create_router_server,
    parse_replica_spec,
)
from m3d_fault_loc.serve.server import create_server
from m3d_fault_loc.serve.service import LocalizationService
from m3d_fault_loc.testing.chaos import StubReplica, slow_loris


def wait_until(predicate, timeout=5.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def fast_policy(**overrides):
    defaults = dict(
        attempt_timeout_s=2.0,
        max_attempts=3,
        eject_after=2,
        cooldown_s=0.2,
        probe_interval_s=None,  # probing is opt-in per test
        probe_timeout_s=0.5,
        backoff=ExponentialBackoff(base_s=0.005, max_s=0.02),
        default_deadline_s=5.0,
    )
    defaults.update(overrides)
    return RouterPolicy(**defaults)


@pytest.fixture()
def two_replicas():
    a = StubReplica("a").start()
    b = StubReplica("b").start()
    yield a, b
    for stub in (a, b):
        if not stub.partitioned:
            stub.stop()


def make_router(stubs, **policy_overrides):
    return ReplicaRouter(
        [("127.0.0.1", s.port) for s in stubs], policy=fast_policy(**policy_overrides)
    )


# -- spec parsing and the ring ----------------------------------------------


def test_parse_replica_spec():
    assert parse_replica_spec("127.0.0.1:8361") == ("127.0.0.1", 8361)
    for bad in ("no-port", ":8080", "h:", "h:0", "h:99999", "h:abc"):
        with pytest.raises(ValueError):
            parse_replica_spec(bad)


def test_hash_ring_preference_is_deterministic_and_complete():
    ring = HashRing(["a:1", "b:2", "c:3"])
    order = ring.preference("some-digest")
    assert sorted(order) == ["a:1", "b:2", "c:3"]
    assert ring.preference("some-digest") == order
    assert ring.preference("another-digest") != order or True  # just determinism


def test_hash_ring_remaps_bounded_fraction_on_member_loss():
    keys = [f"r{i}:80" for i in range(4)]
    ring_all = HashRing(keys)
    ring_less = HashRing(keys[:-1])
    payloads = [f"payload-{i}" for i in range(200)]
    moved = sum(
        1
        for p in payloads
        if ring_all.preference(p)[0] != ring_less.preference(p)[0]
        and ring_all.preference(p)[0] != keys[-1]
    )
    # Only keys owned by the removed member should move (plus hash noise).
    assert moved <= 20, f"{moved}/200 unrelated keys remapped"


def test_replica_state_machine_half_open_single_trial():
    replica = Replica("h", 1, eject_after=2, cooldown_s=0.1)
    assert replica.state == REPLICA_UP
    replica.record_failure()
    assert replica.state == REPLICA_UP  # one failure is not ejection
    replica.record_failure()
    assert replica.state == REPLICA_EJECTED
    assert not replica.admit()
    assert wait_until(lambda: replica.admit(), timeout=1.0)  # half-open trial
    assert not replica.admit(), "only one half-open trial at a time"
    replica.record_failure()  # trial fails -> re-ejected with fresh cooldown
    assert replica.state == REPLICA_EJECTED
    assert wait_until(lambda: replica.admit(), timeout=1.0)
    replica.record_success()
    assert replica.state == REPLICA_UP


def test_replica_snapshot_and_transition_logs(caplog):
    replica = Replica("h", 1, eject_after=1, cooldown_s=60.0)
    with caplog.at_level(logging.INFO, logger="m3d_fault_loc"):
        replica.record_failure()
        assert replica.snapshot() == {
            "replica": "h:1",
            "state": "ejected",
            "requests": 1,
            "failures": 1,
            "ejections": 1,
        }
        replica.record_failure()  # late failure while ejected: no second ejection
        replica.record_success()
    assert replica.snapshot() == {
        "replica": "h:1",
        "state": "up",
        "requests": 3,
        "failures": 2,
        "ejections": 1,
    }
    events = [r.getMessage() for r in caplog.records if r.name == "m3d_fault_loc.serve.router"]
    assert events == ["replica_ejected", "replica_readmitted"]


@pytest.mark.parametrize(
    "field, value",
    [
        ("attempt_timeout_s", 0.0),
        ("attempt_timeout_s", math.nan),
        ("max_attempts", 0),
        ("eject_after", 0),
        ("cooldown_s", -1.0),
        ("cooldown_s", math.inf),
        ("probe_interval_s", 0.0),
        ("probe_timeout_s", 0.0),
        ("default_deadline_s", -5.0),
        ("default_deadline_s", math.inf),
    ],
)
def test_router_policy_rejects_out_of_range_values(field, value):
    with pytest.raises(ValueError, match=field):
        fast_policy(**{field: value})


def test_router_policy_accepts_zero_cooldown_and_no_prober():
    policy = fast_policy(cooldown_s=0.0, probe_interval_s=None)
    assert policy.cooldown_s == 0.0 and policy.probe_interval_s is None


# -- routing affinity and failover ------------------------------------------


def test_same_payload_routes_to_same_replica(two_replicas):
    router = make_router(two_replicas)
    body = b'{"graph": "stable-payload"}'
    first = router.dispatch("POST", "/localize", body, {})
    assert first.status == 200
    for _ in range(5):
        again = router.dispatch("POST", "/localize", body, {})
        assert again.replica == first.replica
    router.close()


def test_partitioned_replica_fails_over_with_zero_lost(two_replicas):
    a, b = two_replicas
    router = make_router(two_replicas)
    body = b'{"graph": "find-the-owner"}'
    owner_key = router.dispatch("POST", "/localize", body, {}).replica
    victim = a if owner_key == a.key else b
    victim.partition()
    for _ in range(10):
        response = router.dispatch("POST", "/localize", body, {})
        assert response.status == 200, response.body
        assert response.replica != owner_key
    router.close()


def test_consecutive_connect_failures_eject_then_heal_readmits(two_replicas):
    a, b = two_replicas
    router = make_router(two_replicas, probe_interval_s=0.05)
    router.start()
    body = b'{"graph": "eject-me"}'
    owner_key = router.dispatch("POST", "/localize", body, {}).replica
    victim = a if owner_key == a.key else b
    victim.partition()
    # Prober observes connect failures and ejects without live traffic.
    assert wait_until(
        lambda: router._by_key[victim.key].state == REPLICA_EJECTED, timeout=3.0
    )
    # Ejected replica is skipped outright: requests go straight to the
    # survivor with a single attempt.
    response = router.dispatch("POST", "/localize", body, {})
    assert response.status == 200
    assert response.attempts == 1
    assert response.replica != victim.key
    victim.heal()
    assert wait_until(
        lambda: router._by_key[victim.key].state == REPLICA_UP, timeout=3.0
    )
    router.close()
    victim.stop()


def test_scripted_503_fails_over_for_idempotent_requests(two_replicas):
    a, b = two_replicas
    router = make_router(two_replicas)
    body = b'{"graph": "failover-on-503"}'
    owner_key = router.dispatch("POST", "/localize", body, {}).replica
    owner = a if owner_key == a.key else b
    owner.fail_next(1)
    response = router.dispatch("POST", "/localize", body, {})
    assert response.status == 200
    assert response.replica != owner_key
    assert response.attempts == 2
    router.close()


def test_post_send_drop_not_retried_for_non_idempotent_path(two_replicas):
    a, b = two_replicas
    router = make_router(two_replicas)
    body = b'{"cmd": "mutate"}'
    owner_key = router.dispatch("POST", "/admin/mutate", body, {}).replica
    owner = a if owner_key == a.key else b
    owner.drop_next(1)
    response = router.dispatch("POST", "/admin/mutate", body, {})
    assert response.status == 502
    assert json.loads(response.body)["error"] == "replica_failed"
    assert response.attempts == 1, "a dropped non-idempotent request must not replay"
    router.close()


def test_post_send_drop_is_retried_for_localize(two_replicas):
    a, b = two_replicas
    router = make_router(two_replicas)
    body = b'{"graph": "retry-me"}'
    owner_key = router.dispatch("POST", "/localize", body, {}).replica
    owner = a if owner_key == a.key else b
    owner.drop_next(1)
    response = router.dispatch("POST", "/localize", body, {})
    assert response.status == 200, "POST /localize is a pure function: safe to replay"
    assert response.attempts == 2
    router.close()


def test_expired_deadline_is_never_retried(two_replicas):
    a, b = two_replicas
    router = make_router(two_replicas)
    body = b'{"graph": "hang"}'
    owner_key = router.dispatch("POST", "/localize", body, {}).replica
    owner = a if owner_key == a.key else b
    owner.hang_next(1)
    started = time.monotonic()
    response = router.dispatch(
        "POST", "/localize", body, {"X-M3D-Deadline-Ms": "150"}
    )
    elapsed = time.monotonic() - started
    assert response.status == 504
    assert json.loads(response.body)["error"] == "deadline_exceeded"
    assert elapsed < 2.0, "deadline must cut the attempt, not wait out the hang"
    router.close()


def test_all_replicas_down_yields_structured_502(two_replicas):
    a, b = two_replicas
    a.partition()
    b.partition()
    router = make_router(two_replicas)
    response = router.dispatch("POST", "/localize", b'{"graph": "x"}', {})
    assert response.status == 502
    assert json.loads(response.body)["error"] == "no_replica_available"
    assert router.m_no_replica.value == 1
    router.close()


def test_router_health_degrades_and_recovers(two_replicas):
    a, b = two_replicas
    router = make_router(two_replicas, probe_interval_s=0.05)
    router.start()
    assert router.health_snapshot()["status"] == "ok"
    a.partition()
    assert wait_until(
        lambda: router.health_snapshot()["status"].startswith("degraded"), timeout=3.0
    )
    assert router.health_snapshot()["status"] == "degraded-1-of-2"
    a.heal()
    assert wait_until(lambda: router.health_snapshot()["status"] == "ok", timeout=3.0)
    router.close()


def test_router_health_counts_replicas_up_of_three():
    router = ReplicaRouter([("127.0.0.1", port) for port in (1, 2, 3)], policy=fast_policy())
    victim = router.replicas[0]
    for _ in range(router.policy.eject_after):
        victim.record_failure()
    health = router.health_snapshot()
    assert health["status"] == "degraded-2-of-3"
    assert [w["state"] for w in health["replicas"]] == ["ejected", "up", "up"]
    for replica in router.replicas[1:]:
        for _ in range(router.policy.eject_after):
            replica.record_failure()
    assert router.health_snapshot()["status"] == "unhealthy"


def serve_model(model, port=0):
    server = create_server(LocalizationService(model=model), host="127.0.0.1", port=port)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, thread


def stop_server(server, thread):
    server.shutdown()
    server.server_close()
    server.service.close()
    thread.join(timeout=5.0)


def test_replacement_replica_serves_the_new_model_after_readmission():
    """A model change is a replica replacement: the replacement boots on the
    victim's port with a new artifact, the probe readmits it, and only its
    answers name the new model."""
    old_model = DelayFaultLocalizer(hidden=8, seed=0)
    new_model = DelayFaultLocalizer(hidden=8, seed=1)
    old_version = old_model.fingerprint()[:12]
    new_version = new_model.fingerprint()[:12]
    assert new_version != old_version
    graphs = get_scenario("single_delay").generate(
        ScenarioSpec(n_graphs=24, n_gates=12, n_inputs=3, seed=11)
    )
    bodies = [json.dumps({"graph": g.to_json_dict()}).encode() for g in graphs]
    victim, survivor = serve_model(old_model), serve_model(old_model)
    victim_key = f"127.0.0.1:{victim[0].port}"
    survivor_key = f"127.0.0.1:{survivor[0].port}"
    router = ReplicaRouter(
        [("127.0.0.1", victim[0].port), ("127.0.0.1", survivor[0].port)],
        policy=fast_policy(probe_interval_s=0.05),
    )
    router.start()
    try:
        stop_server(*victim)
        assert wait_until(lambda: router._by_key[victim_key].state == REPLICA_EJECTED)
        victim = serve_model(new_model, port=int(victim_key.rsplit(":", 1)[1]))
        assert wait_until(lambda: router._by_key[victim_key].state == REPLICA_UP)

        versions: dict[str, set[str]] = {victim_key: set(), survivor_key: set()}
        for body in bodies:
            response = router.dispatch("POST", "/localize", body, {})
            assert response.status == 200, response.body
            versions[response.replica].add(json.loads(response.body)["model"]["version"])
        assert versions == {victim_key: {new_version}, survivor_key: {old_version}}
    finally:
        router.close()
        stop_server(*victim)
        stop_server(*survivor)


# -- the HTTP front ----------------------------------------------------------


@pytest.fixture()
def http_router(two_replicas):
    router = make_router(two_replicas, probe_interval_s=0.1)
    server = create_router_server(router)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server, router
    server.shutdown()
    server.server_close()
    router.close()
    thread.join(timeout=5.0)


def http_post(port, path, body, headers=None, timeout=5.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("POST", path, body=body, headers=headers or {})
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


def http_get(port, path, timeout=5.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, dict(response.getheaders()), response.read()
    finally:
        conn.close()


def test_http_proxy_sets_replica_and_attempt_headers(http_router):
    server, _ = http_router
    status, headers, body = http_post(server.port, "/localize", b'{"graph": "h"}')
    assert status == 200
    assert REPLICA_HEADER in headers
    assert headers[ATTEMPTS_HEADER] == "1"
    assert "X-M3D-Trace-Id" in headers


def test_router_own_endpoints(http_router):
    server, router = http_router
    status, _, body = http_get(server.port, "/router/healthz")
    assert status == 200
    assert json.loads(body)["status"] == "ok"
    status, _, body = http_get(server.port, "/router/metrics")
    assert status == 200
    assert "m3d_route_requests_total" in json.loads(body)


def test_slow_loris_does_not_block_other_clients(http_router):
    server, _ = http_router
    holder = slow_loris("127.0.0.1", server.port, hold_s=1.5)
    try:
        started = time.monotonic()
        status, _, _ = http_post(server.port, "/localize", b'{"graph": "l"}')
        elapsed = time.monotonic() - started
        assert status == 200
        assert elapsed < 1.0, "one held connection must not serialize the router"
    finally:
        holder.join(timeout=5.0)


def test_drain_rejects_new_requests_with_structured_503(http_router):
    server, router = http_router
    router.begin_drain()
    status, _, body = http_post(server.port, "/localize", b'{"graph": "late"}')
    assert status == 503
    assert json.loads(body)["error"] == "draining"
    # Router-own health keeps answering during drain and reports it.
    status, _, body = http_get(server.port, "/router/healthz")
    assert json.loads(body)["status"] == "draining"
    router.await_drain(1.0)
    assert router.m_inflight.value == 0


# -- tracing, probes, and the fleet endpoint ---------------------------------


def test_dispatch_emits_route_trace_with_attempt_spans(two_replicas):
    from m3d_fault_loc.obs.trace import Tracer

    tracer = Tracer(tags={"process": "router"})
    router = ReplicaRouter(
        [("127.0.0.1", s.port) for s in two_replicas],
        policy=fast_policy(),
        tracer=tracer,
    )
    response = router.dispatch("POST", "/localize", b'{"graph": "trace-me"}', {})
    assert response.status == 200
    [trace] = tracer.recent(1)
    assert trace["name"] == "route"
    assert trace["tags"] == {"process": "router"}
    assert trace["meta"]["status"] == 200
    assert trace["meta"]["attempts"] == 1
    stages = [s["stage"] for s in trace["spans"]]
    assert "route_decision" in stages
    [attempt] = [s for s in trace["spans"] if s["stage"] == "upstream_attempt"]
    assert attempt["meta"]["replica"] == response.replica
    assert attempt["meta"]["outcome"] == 200
    assert attempt["meta"]["attempt"] == 1
    router.close()


def test_failover_trace_shows_backoff_and_failover_spans(two_replicas):
    from m3d_fault_loc.obs.trace import Tracer

    a, b = two_replicas
    tracer = Tracer(tags={"process": "router"})
    router = ReplicaRouter(
        [("127.0.0.1", s.port) for s in two_replicas],
        policy=fast_policy(),
        tracer=tracer,
    )
    body = b'{"graph": "failover-trace"}'
    owner_key = router.dispatch("POST", "/localize", body, {}).replica
    owner = a if owner_key == a.key else b
    owner.fail_next(1)
    response = router.dispatch("POST", "/localize", body, {})
    assert response.status == 200 and response.attempts == 2
    trace = tracer.recent(1)[0]
    by_stage = {}
    for span in trace["spans"]:
        by_stage.setdefault(span["stage"], []).append(span)
    outcomes = [s["meta"]["outcome"] for s in by_stage["upstream_attempt"]]
    assert outcomes == [503, 200]
    assert by_stage["retry_backoff"][0]["meta"]["attempt"] == 2
    [failover] = by_stage["failover"]
    assert failover["meta"]["owner"] == owner_key
    assert failover["meta"]["served_by"] == response.replica
    router.close()


def test_router_forwards_its_trace_id_downstream(two_replicas):
    from m3d_fault_loc.obs.trace import Tracer

    a, b = two_replicas
    router = ReplicaRouter(
        [("127.0.0.1", s.port) for s in two_replicas],
        policy=fast_policy(),
        tracer=Tracer(),
    )
    response = router.dispatch("POST", "/localize", b'{"graph": "fwd-id"}', {})
    served = a if response.replica == a.key else b
    forwarded = served.trace_ids_seen()
    assert forwarded, "the replica must receive the router's X-M3D-Trace-Id"
    assert not forwarded[-1].startswith("probe-")
    router.close()


def test_default_router_traces_and_forwards_its_trace_id(two_replicas):
    a, b = two_replicas
    router = make_router(two_replicas)  # no tracer passed: an in-process Tracer()
    response = router.dispatch("POST", "/localize", b'{"graph": "default-id"}', {})
    served = a if response.replica == a.key else b
    (route,) = router.tracer.recent()
    assert route["name"] == "route"
    assert served.trace_ids_seen() == [route["trace_id"]]
    router.close()


def test_probe_requests_carry_probe_trace_ids(two_replicas):
    a, _ = two_replicas
    router = make_router(two_replicas, probe_interval_s=0.05)
    router.start()
    assert wait_until(lambda: a.trace_ids_seen(), timeout=3.0)
    probe_ids = a.trace_ids_seen()
    assert all(t.startswith("probe-") for t in probe_ids), probe_ids
    # probe ids must survive the replica's trace-id sanitizer
    from m3d_fault_loc.obs.context import sanitize_trace_id

    assert sanitize_trace_id(probe_ids[0]) == probe_ids[0]
    router.close()


def test_router_fleet_endpoint_federates_member_metrics(http_router, two_replicas):
    server, _ = http_router
    a, b = two_replicas
    counter = {"type": "counter", "help": "requests", "value": 0}
    a.set_metrics({"m3d_requests_total": {**counter, "value": 7}})
    b.set_metrics({"m3d_requests_total": {**counter, "value": 5}})
    status, _, body = http_get(server.port, "/router/fleet")
    assert status == 200
    snap = json.loads(body)
    assert snap["status"] == "ok"
    assert snap["members"] == 2 and snap["reachable"] == 2
    # federation invariant: the merged counter equals the per-replica sum
    assert snap["merged"]["m3d_requests_total"]["value"] == 12
    by_addr = {
        r["replica"]: r["metrics"]["m3d_requests_total"]["value"]
        for r in snap["replicas"]
    }
    assert by_addr == {a.key: 7, b.key: 5}
    # the router contributes its own registry without an HTTP hop
    assert "m3d_route_requests_total" in snap["router"]
    assert "availability" in snap["slo"]


def test_failover_waterfall_stitches_across_processes(tmp_path):
    """Integration: real replicas + router, owner killed, logs stitched."""
    from m3d_fault_loc.model.localizer import DelayFaultLocalizer
    from m3d_fault_loc.obs.stitch import stitch_files
    from m3d_fault_loc.obs.telemetry import TelemetryWriter
    from m3d_fault_loc.obs.trace import Tracer
    from m3d_fault_loc.scenarios import ScenarioSpec, get_scenario
    from m3d_fault_loc.serve.server import create_server
    from m3d_fault_loc.serve.service import LocalizationService

    logs, servers, services, threads = [], [], [], []
    for i in range(2):
        log = tmp_path / f"replica_{i}.jsonl"
        tracer = Tracer(sink=TelemetryWriter(log))
        service = LocalizationService(
            model=DelayFaultLocalizer(hidden=8, seed=4),
            tracer=tracer,
        )
        server = create_server(service, host="127.0.0.1", port=0)
        tracer.tags.update(
            {"process": "replica", "addr": f"127.0.0.1:{server.port}"}
        )
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        logs.append(log)
        servers.append(server)
        services.append(service)
        threads.append(thread)

    router_log = tmp_path / "router.jsonl"
    router = ReplicaRouter(
        [("127.0.0.1", s.port) for s in servers],
        policy=fast_policy(),
        tracer=Tracer(sink=TelemetryWriter(router_log), tags={"process": "router"}),
    )
    try:
        graph = get_scenario("single_delay").generate(
            ScenarioSpec(n_graphs=1, n_gates=10, n_inputs=3, seed=11)
        )[0]
        body = json.dumps({"graph": graph.to_json_dict(), "top_k": 2}).encode()

        first = router.dispatch("POST", "/localize", body, {})
        assert first.status == 200
        owner_key = first.replica
        owner_idx = next(
            i for i, s in enumerate(servers) if f"127.0.0.1:{s.port}" == owner_key
        )
        # Kill the owner: connects now refuse, its log stops growing.
        servers[owner_idx].shutdown()
        servers[owner_idx].server_close()
        services[owner_idx].close()

        failover = router.dispatch("POST", "/localize", body, {})
        assert failover.status == 200
        assert failover.attempts == 2
        assert failover.replica != owner_key

        def stitched_failover():
            for s in stitch_files([router_log, *logs]):
                if len(s["attempts"]) == 2:
                    return s
            return None

        assert wait_until(lambda: stitched_failover() is not None, timeout=5.0)
        target = stitched_failover()
        assert target["processes"] == ["replica", "router"]
        assert [a["replica"] for a in target["attempts"]] == [
            owner_key, failover.replica,
        ]
        # the dead owner's side of attempt 1 is reported, not silently lost
        [gone] = target["missing_attempts"]
        assert gone["replica"] == owner_key
        assert gone["outcome"] == "connect"
        [served] = [h for h in target["hops"] if h["process"] == "replica"]
        assert served["addr"] == failover.replica
        assert served["attempt"] == 2
        # the first request stitched cleanly too: owner-side hop present
        full = next(
            s for s in stitch_files([router_log, *logs]) if len(s["attempts"]) == 1
        )
        assert any(
            h["process"] == "replica" and h["addr"] == owner_key
            for h in full["hops"]
        )
    finally:
        router.close()
        for idx, server in enumerate(servers):
            if idx != owner_idx:
                server.shutdown()
                server.server_close()
                services[idx].close()
        for thread in threads:
            thread.join(timeout=5.0)
