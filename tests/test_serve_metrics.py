"""Metrics instruments: semantics, registry idempotence, both export formats."""

import sys
from pathlib import Path

import pytest

from m3d_fault_loc.serve.metrics import Histogram, MetricsRegistry

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
from check_prom import check_exposition  # noqa: E402 - scripts/ is not a package


def test_counter_monotonic():
    m = MetricsRegistry()
    c = m.counter("m3d_test_total", "things")
    c.inc()
    c.inc(3)
    assert c.value == 4
    with pytest.raises(ValueError, match="cannot decrease"):
        c.inc(-1)


def test_gauge_sets_point_in_time():
    g = MetricsRegistry().gauge("m3d_depth")
    g.set(7)
    g.set(2)
    assert g.value == 2


def test_histogram_buckets_are_cumulative():
    h = MetricsRegistry().histogram("m3d_lat", buckets=(0.01, 0.1, 1.0))
    for v in (0.005, 0.05, 0.5, 5.0):
        h.observe(v)
    snap = h.snapshot()
    assert snap["buckets"] == {"0.01": 1, "0.1": 2, "1": 3, "+Inf": 4}
    assert snap["count"] == 4
    assert snap["sum"] == pytest.approx(5.555)


def test_registration_idempotent_but_kind_checked():
    m = MetricsRegistry()
    assert m.counter("m3d_x") is m.counter("m3d_x")
    with pytest.raises(ValueError, match="already registered"):
        m.gauge("m3d_x")


def test_prometheus_rendering():
    m = MetricsRegistry()
    m.counter("m3d_reqs_total", "requests").inc(2)
    m.histogram("m3d_lat_seconds", "latency", buckets=(0.1, 1.0)).observe(0.05)
    text = m.render_prometheus()
    assert "# HELP m3d_reqs_total requests" in text
    assert "# TYPE m3d_reqs_total counter" in text
    assert "m3d_reqs_total 2" in text
    assert 'm3d_lat_seconds_bucket{le="0.1"} 1' in text
    assert 'm3d_lat_seconds_bucket{le="+Inf"} 1' in text
    assert "m3d_lat_seconds_count 1" in text


def test_json_export_shape():
    m = MetricsRegistry()
    m.counter("m3d_a_total").inc()
    m.histogram("m3d_b", buckets=(1.0,)).observe(0.5)
    payload = m.to_json_dict()
    assert payload["m3d_a_total"] == {"type": "counter", "help": "", "value": 1}
    assert payload["m3d_b"]["type"] == "histogram"
    assert payload["m3d_b"]["buckets"]["+Inf"] == 1


# -- empty / single-observation histograms ---------------------------------


def test_empty_histogram_snapshot_and_exposition_are_valid():
    h = Histogram("m3d_empty_seconds", "never observed", buckets=(0.1, 1.0))
    snap = h.snapshot()
    assert snap == {"buckets": {"0.1": 0, "1": 0, "+Inf": 0}, "sum": 0.0, "count": 0}
    lines = h.render_prometheus()
    assert 'm3d_empty_seconds_bucket{le="+Inf"} 0' in lines
    assert "m3d_empty_seconds_sum 0" in lines
    assert "m3d_empty_seconds_count 0" in lines
    assert h.percentile(99.0) == 0.0


def test_single_observation_histogram_accounting():
    h = Histogram("m3d_one_seconds", "one sample", buckets=(0.1, 1.0))
    h.observe(0.25)
    snap = h.snapshot()
    assert snap["buckets"] == {"0.1": 0, "1": 1, "+Inf": 1}
    assert snap["sum"] == pytest.approx(0.25)
    assert snap["count"] == 1
    # one sample: every percentile is that sample, exactly — no bucket smearing
    assert h.percentile(50.0) == pytest.approx(0.25)
    assert h.percentile(99.0) == pytest.approx(0.25)


def test_histogram_percentile_interpolates_within_buckets():
    h = Histogram("m3d_p_seconds", "", buckets=(1.0, 2.0, 4.0))
    for v in (0.5, 1.5, 1.5, 3.0):
        h.observe(v)
    # p50 target rank = 2: one sample below the (1, 2] bucket, so the
    # estimate lands halfway through it
    assert h.percentile(50.0) == pytest.approx(1.5)
    assert 2.0 <= h.percentile(75.0) <= 4.0
    # everything past the last finite bucket clamps to its bound
    h.observe(100.0)
    assert h.percentile(100.0) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        h.percentile(-1.0)


def test_duplicate_or_unsorted_buckets_rejected():
    with pytest.raises(ValueError, match="strictly increasing"):
        Histogram("m3d_dup", "", buckets=(0.1, 0.1, 1.0))
    with pytest.raises(ValueError, match="strictly increasing"):
        Histogram("m3d_rev", "", buckets=(1.0, 0.1))
    with pytest.raises(ValueError, match="strictly increasing"):
        Histogram("m3d_none", "", buckets=())


def test_exposition_passes_check_prom_including_empty_histograms():
    m = MetricsRegistry()
    m.counter("m3d_reqs_total", "requests").inc(2)
    m.histogram("m3d_empty_seconds", "no samples yet", buckets=(0.1, 1.0))
    one = m.histogram("m3d_one_seconds", "one sample", buckets=(0.1, 1.0))
    one.observe(0.25)
    m.state_gauge("m3d_state", "breaker", states=("closed", "open"))
    assert check_exposition(m.render_prometheus()) == []


# -- merge / snapshot round-trip (metrics federation) ----------------------


def test_histogram_merge_sums_buckets_and_totals():
    a = Histogram("m3d_lat", "", buckets=(0.1, 1.0, 5.0))
    b = Histogram("m3d_lat", "", buckets=(0.1, 1.0, 5.0))
    for v in (0.05, 0.5, 0.5):
        a.observe(v)
    for v in (0.5, 3.0, 10.0):
        b.observe(v)
    a.merge(b)
    snap = a.snapshot()
    assert snap["count"] == 6
    assert snap["sum"] == pytest.approx(14.55)
    assert snap["buckets"] == {"0.1": 1, "1": 4, "5": 5, "+Inf": 6}
    # the source is left untouched
    assert b.snapshot()["count"] == 3


def test_histogram_merge_rejects_mismatched_bounds():
    a = Histogram("m3d_lat", "", buckets=(0.1, 1.0))
    b = Histogram("m3d_lat", "", buckets=(0.1, 2.0))
    with pytest.raises(ValueError, match="bucket bounds differ"):
        a.merge(b)
    # nothing was folded in before the raise
    assert a.snapshot()["count"] == 0


def test_histogram_from_snapshot_round_trips_including_overflow():
    h = Histogram("m3d_lat", "", buckets=(0.1, 1.0))
    for v in (0.05, 0.5, 0.5, 9.0):  # 9.0 lives only in +Inf / count
        h.observe(v)
    rebuilt = Histogram.from_snapshot("m3d_lat", h.snapshot())
    assert rebuilt.buckets == h.buckets
    assert rebuilt.snapshot() == h.snapshot()
    assert rebuilt.percentile(50.0) == pytest.approx(h.percentile(50.0))


def test_histogram_from_snapshot_rejects_bad_inputs():
    with pytest.raises(ValueError, match="no finite buckets"):
        Histogram.from_snapshot("m3d_x", {"buckets": {"+Inf": 3}, "count": 3})
    with pytest.raises(ValueError, match="not cumulative"):
        Histogram.from_snapshot(
            "m3d_x",
            {"buckets": {"0.1": 5, "1": 2, "+Inf": 5}, "sum": 1.0, "count": 5},
        )


def test_merged_percentiles_with_leading_zero_count_buckets():
    # Regression: snapshots carry cumulative counts; treating them as
    # per-bucket counts made leading zero-count buckets look occupied after
    # a merge, dragging percentiles toward zero. Differencing in
    # from_snapshot keeps the merged estimate identical to a histogram that
    # observed every sample directly.
    bounds = (0.001, 0.01, 0.1, 1.0)
    samples_a = [0.5, 0.5, 0.7]
    samples_b = [0.6, 0.9]
    direct = Histogram("m3d_lat", "", buckets=bounds)
    for v in samples_a + samples_b:
        direct.observe(v)

    a = Histogram("m3d_lat", "", buckets=bounds)
    b = Histogram("m3d_lat", "", buckets=bounds)
    for v in samples_a:
        a.observe(v)
    for v in samples_b:
        b.observe(v)
    merged = Histogram.from_snapshot("m3d_lat", a.snapshot())
    merged.merge(Histogram.from_snapshot("m3d_lat", b.snapshot()))

    for q in (50.0, 90.0, 99.0):
        assert merged.percentile(q) == pytest.approx(direct.percentile(q))
    # every sample sits in the (0.1, 1.0] bucket; the three leading
    # zero-count buckets must not pull the estimate below it
    assert merged.percentile(50.0) > 0.1


def test_check_prom_catches_broken_expositions():
    assert any(
        "no preceding # TYPE" in p
        for p in check_exposition("m3d_orphan_total 1\n")
    )
    broken_hist = (
        "# TYPE m3d_h histogram\n"
        'm3d_h_bucket{le="0.1"} 2\n'
        'm3d_h_bucket{le="+Inf"} 1\n'
        "m3d_h_sum 1\n"
        "m3d_h_count 3\n"
    )
    problems = check_exposition(broken_hist)
    assert any("not cumulative" in p for p in problems)
    assert any("+Inf bucket" in p for p in problems)
    assert any(
        "missing the +Inf bucket" in p
        for p in check_exposition('# TYPE m3d_g histogram\nm3d_g_bucket{le="1"} 0\n'
                                  "m3d_g_sum 0\nm3d_g_count 0\n")
    )


# -- labelled series ---------------------------------------------------------


def test_labelled_series_share_one_family():
    m = MetricsRegistry()
    a = m.histogram("m3d_stage_seconds", "per stage", buckets=(0.1,), labels={"stage": "a"})
    b = m.histogram("m3d_stage_seconds", "per stage", buckets=(0.1,), labels={"stage": "b"})
    assert a is not b
    assert m.histogram("m3d_stage_seconds", "per stage", labels={"stage": "a"}) is a
    a.observe(0.05)
    b.observe(5.0)
    text = m.render_prometheus()
    assert text.count("# HELP m3d_stage_seconds per stage") == 1
    assert text.count("# TYPE m3d_stage_seconds histogram") == 1
    assert 'm3d_stage_seconds_bucket{stage="a",le="0.1"} 1' in text
    assert 'm3d_stage_seconds_bucket{stage="b",le="+Inf"} 1' in text
    assert 'm3d_stage_seconds_count{stage="b"} 1' in text
    assert check_exposition(text) == []


def test_family_keeps_one_kind_and_one_help_text():
    m = MetricsRegistry()
    m.counter("m3d_by_total", "by scenario", labels={"scenario": "a"})
    with pytest.raises(ValueError, match="already registered"):
        m.gauge("m3d_by_total", "by scenario", labels={"scenario": "b"})
    with pytest.raises(ValueError, match="already registered"):
        m.counter("m3d_by_total", "something else", labels={"scenario": "b"})


def test_json_export_keys_labelled_series_by_id():
    m = MetricsRegistry()
    m.counter("m3d_plain_total").inc()
    m.counter("m3d_by_total", labels={"scenario": "a"}).inc(2)
    m.state_gauge("m3d_state", states=("up", "down"), labels={"replica": "r1"})
    payload = m.to_json_dict()
    assert payload["m3d_plain_total"] == {"type": "counter", "help": "", "value": 1}
    assert payload['m3d_by_total{scenario="a"}'] == {
        "type": "counter", "help": "", "value": 2, "labels": {"scenario": "a"},
    }
    state = payload['m3d_state{replica="r1"}']
    assert (state["state"], state["labels"]) == ("up", {"replica": "r1"})
    assert 'm3d_state{replica="r1",state="up"} 1' in m.render_prometheus()


@pytest.mark.parametrize("name", ["1st", "a-b", "__reserved", ""])
def test_label_names_follow_the_prometheus_grammar(name):
    with pytest.raises(ValueError, match="invalid label name"):
        MetricsRegistry().counter("m3d_x_total", labels={name: "v"})


def test_instruments_refuse_the_label_they_render_themselves():
    with pytest.raises(ValueError, match="invalid label name"):
        MetricsRegistry().histogram("m3d_h", labels={"le": "1"})
    with pytest.raises(ValueError, match="invalid label name"):
        MetricsRegistry().state_gauge("m3d_s", states=("a",), labels={"state": "a"})


def test_label_values_are_escaped():
    m = MetricsRegistry()
    m.counter("m3d_x_total", labels={"path": 'a\\b"c\nd'}).inc()
    text = m.render_prometheus()
    assert 'm3d_x_total{path="a\\\\b\\"c\\nd"} 1' in text
    assert check_exposition(text) == []


def test_check_prom_checks_histograms_per_series():
    two_series = (
        "# TYPE m3d_s histogram\n"
        'm3d_s_bucket{stage="a",le="0.1"} 1\n'
        'm3d_s_bucket{stage="a",le="+Inf"} 2\n'
        'm3d_s_sum{stage="a"} 1\n'
        'm3d_s_count{stage="a"} 2\n'
        'm3d_s_bucket{stage="b",le="0.1"} 0\n'
        'm3d_s_bucket{stage="b",le="+Inf"} 1\n'
        'm3d_s_sum{stage="b"} 1\n'
        'm3d_s_count{stage="b"} 1\n'
    )
    assert check_exposition(two_series) == []
    broken = two_series.replace('stage="b",le="0.1"} 0', 'stage="b",le="0.1"} 5')
    assert check_exposition(broken) == [
        'histogram m3d_s{stage="b"}: bucket counts are not cumulative'
    ]
