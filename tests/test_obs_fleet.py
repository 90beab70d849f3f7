"""Metrics federation: merge invariants, fleet status, SLO derivation."""

from typing import Any

import pytest

from m3d_fault_loc.obs.fleet import FleetScraper, _fraction_le, fleet_status, render_fleet_text
from m3d_fault_loc.serve.metrics import MetricsRegistry
from m3d_fault_loc.testing.chaos import StubReplica

BUCKETS = (0.01, 0.1, 1.0)


def metrics_payload(
    requests: float, errors: float, latencies: list[float] | None = None
) -> dict[str, Any]:
    """A realistic ``/metrics?format=json`` payload built by the real registry."""
    registry = MetricsRegistry()
    registry.counter("m3d_requests_total", "requests").inc(requests)
    registry.counter("m3d_request_errors_total", "errors").inc(errors)
    histogram = registry.histogram(
        "m3d_request_latency_seconds", "latency", buckets=BUCKETS
    )
    stage = registry.histogram(
        "m3d_stage_seconds", "per stage", buckets=BUCKETS, labels={"stage": "batch_infer"}
    )
    for value in latencies or ():
        histogram.observe(value)
        stage.observe(value)
    for scenario, n in (("single_delay", requests), ("seu_bitflip", errors)):
        registry.counter(
            "m3d_scenario_requests_total", "by scenario", labels={"scenario": scenario}
        ).inc(n)
    registry.state_gauge("m3d_health", "health", states=("ok", "draining"))
    return registry.to_json_dict()


LABELLED_COUNTERS = (
    'm3d_scenario_requests_total{scenario="single_delay"}',
    'm3d_scenario_requests_total{scenario="seu_bitflip"}',
)
LABELLED_HISTOGRAM = 'm3d_stage_seconds{stage="batch_infer"}'


@pytest.fixture
def two_stubs():
    a = StubReplica(name="a").start()
    b = StubReplica(name="b").start()
    a.set_metrics(metrics_payload(10, 1, [0.005, 0.05, 0.5]))
    b.set_metrics(metrics_payload(30, 2, [0.05, 0.05, 0.2]))
    yield a, b
    for stub in (a, b):
        try:
            stub.stop()
        except OSError:
            pass


def test_merge_metrics_counter_sum_invariant():
    replicas = [
        {"replica": "a", "metrics": metrics_payload(10, 1)},
        {"replica": "b", "metrics": metrics_payload(30, 2)},
    ]
    merged = FleetScraper.merge_metrics(replicas)
    # THE federation invariant: merged counters equal the per-replica sums
    assert merged["m3d_requests_total"]["value"] == 40
    assert merged["m3d_request_errors_total"]["value"] == 3
    assert merged["m3d_health"] == {"type": "state_gauge", "states": {"ok": 2}}


def test_merge_metrics_keeps_the_labels_of_a_labelled_series():
    series = 'm3d_x_total{scenario="a"}'
    replicas = [
        {"metrics": {series: {"type": "counter", "value": 1.0, "labels": {"scenario": "a"}}}},
        {"metrics": {series: {"type": "counter", "value": 1.0, "labels": {"scenario": "a"}}}},
    ]
    merged = FleetScraper.merge_metrics(replicas)
    assert merged[series] == {"type": "counter", "value": 2.0, "labels": {"scenario": "a"}}
    assert "labels" not in FleetScraper.merge_metrics(
        [{"metrics": metrics_payload(1, 0)}]
    )["m3d_requests_total"]


def test_merge_metrics_bucket_merges_histograms():
    replicas = [
        {"replica": "a", "metrics": metrics_payload(3, 0, [0.005, 0.05, 0.5])},
        {"replica": "b", "metrics": metrics_payload(3, 0, [0.05, 0.05, 0.2])},
    ]
    merged = FleetScraper.merge_metrics(replicas)
    latency = merged["m3d_request_latency_seconds"]
    assert latency["count"] == 6
    assert latency["buckets"]["+Inf"] == 6
    assert latency["buckets"]["0.01"] == 1
    assert 0.0 < latency["p50_ms"] <= 1000.0
    assert latency["p99_ms"] >= latency["p50_ms"]


def test_scrape_merged_equals_individual_sums(two_stubs):
    a, b = two_stubs
    scraper = FleetScraper(members=[a.key, b.key], timeout_s=2.0)
    snapshot = scraper.scrape()
    assert snapshot["status"] == "ok"
    assert snapshot["reachable"] == 2

    by_addr = {r["replica"]: r for r in snapshot["replicas"]}
    for name in ("m3d_requests_total", "m3d_request_errors_total", *LABELLED_COUNTERS):
        individual = sum(
            by_addr[addr]["metrics"][name]["value"] for addr in (a.key, b.key)
        )
        assert snapshot["merged"][name]["value"] == individual
    assert snapshot["merged"]["m3d_request_latency_seconds"]["count"] == 6
    # labelled series merge by (name, labels): bucket by bucket, per replica
    per_replica = [by_addr[addr]["metrics"][LABELLED_HISTOGRAM] for addr in (a.key, b.key)]
    merged = snapshot["merged"][LABELLED_HISTOGRAM]
    assert merged["count"] == 6
    assert merged["buckets"] == {
        bound: sum(p["buckets"][bound] for p in per_replica) for bound in merged["buckets"]
    }


def test_scrape_reports_degraded_when_member_down(two_stubs):
    a, b = two_stubs
    scraper = FleetScraper(members=[a.key, b.key], timeout_s=1.0)
    b.stop()
    snapshot = scraper.scrape()
    assert snapshot["status"] == "degraded-1-of-2"
    assert snapshot["reachable"] == 1
    down = next(r for r in snapshot["replicas"] if r["replica"] == b.key)
    assert down["reachable"] is False
    assert down["status"] == "unreachable"
    # merged view carries only the survivor's counters
    assert snapshot["merged"]["m3d_requests_total"]["value"] == 10
    assert "DOWN" in render_fleet_text(snapshot)


def test_scrape_counts_members_up_of_three():
    stubs = [StubReplica(name=name).start() for name in "abc"]
    try:
        scraper = FleetScraper(members=[s.key for s in stubs], timeout_s=1.0)
        stubs[2].stop()
        snapshot = scraper.scrape()
        assert snapshot["status"] == "degraded-2-of-3"
        assert snapshot["reachable"] == 2
    finally:
        for stub in stubs[:2]:
            stub.stop()


@pytest.mark.parametrize(
    "up, total, status",
    [
        (0, 0, "empty"),
        (0, 3, "unhealthy"),
        (1, 3, "degraded-1-of-3"),
        (2, 3, "degraded-2-of-3"),
        (3, 3, "ok"),
    ],
)
def test_fleet_status_counts_members_up(up, total, status):
    assert fleet_status(up, total) == status


def test_scrape_all_down_is_unhealthy():
    scraper = FleetScraper(members=["127.0.0.1:9", "127.0.0.1:10"], timeout_s=0.2)
    assert scraper.scrape()["status"] == "unhealthy"
    assert FleetScraper(members=[]).scrape()["status"] == "empty"


def test_slo_section(two_stubs):
    a, b = two_stubs
    scraper = FleetScraper(
        members=[a.key, b.key],
        timeout_s=2.0,
        availability_objective=0.9,
        latency_objective_ms=100.0,
    )
    slo = scraper.scrape()["slo"]
    # 3 errors / 40 requests on the first scrape
    assert slo["availability"] == pytest.approx(1.0 - 3 / 40)
    assert slo["availability_objective"] == 0.9
    assert slo["burn_rate"] == pytest.approx((3 / 40) / 0.1, abs=1e-3)
    # 4 of 6 latency samples are <= 100 ms
    assert slo["latency_attainment"] == pytest.approx(4 / 6, abs=0.1)
    assert slo["window_points"] == 1

    # the window accumulates across scrapes
    assert scraper.scrape()["slo"]["window_points"] == 2


def test_slo_availability_falls_back_to_reachability():
    scraper = FleetScraper(members=["127.0.0.1:9"], timeout_s=0.2)
    slo = scraper.scrape()["slo"]
    assert slo["availability"] == 0.0  # no counters anywhere, 0/1 reachable
    assert "latency_attainment" not in slo


def test_invalid_objective_rejected():
    with pytest.raises(ValueError, match="availability objective"):
        FleetScraper(members=[], availability_objective=1.0)


def test_fraction_le_interpolates():
    snap = {"buckets": {"0.1": 2, "1": 4, "+Inf": 4}, "count": 4}
    assert _fraction_le(snap, 0.1) == pytest.approx(0.5)
    assert _fraction_le(snap, 1.0) == pytest.approx(1.0)
    assert _fraction_le(snap, 0.55) == pytest.approx(0.75)  # halfway into (0.1, 1]
    assert _fraction_le(snap, 5.0) == pytest.approx(1.0)
    assert _fraction_le({"buckets": {}, "count": 0}, 0.1) is None


def test_render_fleet_text_mentions_slo_and_members(two_stubs):
    a, b = two_stubs
    snapshot = FleetScraper(members=[a.key, b.key], timeout_s=2.0).scrape()
    text = render_fleet_text(snapshot)
    assert "fleet: ok  (2/2 reachable)" in text
    assert a.key in text and b.key in text
    assert "slo: availability=" in text
    assert "m3d_requests_total: 40" in text
