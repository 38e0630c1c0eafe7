"""Tests for the observability layer: metrics core, exposition, spans
and the instrumented front-end."""

import json
import urllib.error
import urllib.request

import pytest

from repro.obs import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    SpanLog,
    histogram_quantile,
    process_rss_bytes,
    render_dump,
)
from repro.obs.httpd import CONTENT_TYPE, start_metrics_server
from repro.service import ServiceFrontend, SchedulingSession


def job(jid, demand=(1,), duration=1.0, **kw):
    return {"id": jid, "demand": list(demand), "duration": duration, **kw}


def frontend(caps=(4,), **kw):
    kw.setdefault("batch_size", 1)
    return ServiceFrontend(SchedulingSession(caps), **kw)


# ----------------------------------------------------------------------
# metrics core
# ----------------------------------------------------------------------
class TestFamilies:
    def test_counter_inc_and_value(self):
        reg = MetricsRegistry()
        c = reg.counter("repro_things_total", "things", labels=("kind",))
        c.inc(kind="a")
        c.inc(2, kind="a")
        c.inc(kind="b")
        assert c.value(kind="a") == 3
        assert c.value(kind="b") == 1
        assert c.value(kind="never") == 0

    def test_counter_rejects_negative(self):
        c = MetricsRegistry().counter("c_total")
        with pytest.raises(ValueError, match="only go up"):
            c.inc(-1)

    def test_gauge_set_and_inc(self):
        g = MetricsRegistry().gauge("g")
        g.set(5)
        g.inc(-2)
        assert g.value() == 3

    def test_label_set_must_match_declaration(self):
        c = MetricsRegistry().counter("c_total", labels=("op",))
        with pytest.raises(ValueError, match="takes labels"):
            c.inc(shard="0")
        with pytest.raises(ValueError, match="takes labels"):
            c.inc()

    def test_reregistration_is_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("c_total", "help", labels=("op",))
        b = reg.counter("c_total", "different help", labels=("op",))
        assert a is b

    def test_reregistration_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("m", labels=("op",))
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("m", labels=("op",))
        with pytest.raises(ValueError, match="already registered"):
            reg.counter("m", labels=("shard",))

    def test_histogram_boundaries_must_increase(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="strictly increase"):
            reg.histogram("h", buckets=(1.0, 1.0, 2.0))
        with pytest.raises(ValueError, match="strictly increase"):
            reg.histogram("h2", buckets=())


class TestDefaultBuckets:
    def test_ladder_is_frozen(self):
        # 1 / 2.5 / 5 per decade, 1e-6 .. 50: part of the merge contract
        assert len(DEFAULT_BUCKETS) == 24
        assert DEFAULT_BUCKETS[0] == 1e-6
        assert DEFAULT_BUCKETS[1] == pytest.approx(2.5e-6)
        assert DEFAULT_BUCKETS[-1] == 50.0
        assert all(a < b for a, b in zip(DEFAULT_BUCKETS, DEFAULT_BUCKETS[1:]))


class TestHistogram:
    def test_le_is_inclusive(self):
        h = MetricsRegistry().histogram("h", buckets=(1.0, 2.0, 4.0))
        bound = h.labels()
        bound.observe(1.0)   # lands in le="1" (inclusive)
        bound.observe(1.5)   # le="2"
        bound.observe(100.0)  # +Inf
        assert bound.counts == [1, 1, 0, 1]
        assert bound.count == 3
        assert bound.sum == pytest.approx(102.5)

    def test_exact_bucket_lines(self):
        reg = MetricsRegistry()
        h = reg.histogram("repro_h", "demo", buckets=(0.5, 2.0))
        h.observe(0.5)
        h.observe(1.0)
        h.observe(3.0)
        text = reg.render()
        assert 'repro_h_bucket{le="0.5"} 1\n' in text
        assert 'repro_h_bucket{le="2"} 2\n' in text       # cumulative
        assert 'repro_h_bucket{le="+Inf"} 3\n' in text
        assert "repro_h_sum 4.5\n" in text
        assert "repro_h_count 3" in text

    def test_quantile_interpolates(self):
        # 10 observations spread evenly through the (0, 1] bucket
        assert histogram_quantile((1.0, 2.0), [10, 0, 0], 0.5) == pytest.approx(0.5)
        # the landing bucket interpolates between its bounds
        assert histogram_quantile((1.0, 2.0), [0, 10, 0], 0.5) == pytest.approx(1.5)

    def test_quantile_inf_bucket_clamps(self):
        assert histogram_quantile((1.0, 2.0), [0, 0, 5], 0.99) == 2.0

    def test_quantile_empty_is_zero(self):
        assert histogram_quantile((1.0,), [0, 0], 0.5) == 0.0

    def test_quantile_range_checked(self):
        with pytest.raises(ValueError, match="quantile"):
            histogram_quantile((1.0,), [1, 0], 1.5)


# ----------------------------------------------------------------------
# exposition
# ----------------------------------------------------------------------
class TestExposition:
    def test_help_type_and_sample_lines(self):
        reg = MetricsRegistry()
        reg.counter("repro_req_total", "Requests handled", labels=("op",)).inc(
            op="submit"
        )
        text = reg.render()
        assert "# HELP repro_req_total Requests handled\n" in text
        assert "# TYPE repro_req_total counter\n" in text
        assert 'repro_req_total{op="submit"} 1\n' in text

    def test_label_value_escaping(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "x", labels=("v",)).inc(v='a"b\\c\nd')
        assert 'c_total{v="a\\"b\\\\c\\nd"} 1' in reg.render()

    def test_help_escaping(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "line one\nline two \\ slash")
        assert "# HELP c_total line one\\nline two \\\\ slash\n" in reg.render()

    def test_deterministic_across_insertion_orders(self):
        def build(order):
            reg = MetricsRegistry()
            for name in order:
                reg.counter(name, "h", labels=("op",))
            for op in ("b", "a", "c") if order[0] == "z_total" else ("c", "a", "b"):
                reg.get("a_total").inc(op=op)
                reg.get("z_total").inc(op=op)
            return reg.render()

        assert build(["z_total", "a_total"]) == build(["a_total", "z_total"])

    def test_samples_sorted_by_label_values(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total", labels=("op",))
        c.inc(op="zeta")
        c.inc(op="alpha")
        lines = [l for l in reg.render().splitlines() if l.startswith("c_total{")]
        assert lines == ['c_total{op="alpha"} 1', 'c_total{op="zeta"} 1']

    def test_integral_floats_lose_decimal_point(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(3.0)
        assert "\ng 3\n" in "\n" + reg.render()

    def test_render_equals_render_dump_of_dump(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "h", labels=("op",)).inc(op="x")
        reg.histogram("h_seconds", "h").observe(0.002)
        assert reg.render() == render_dump(reg.dump())

    def test_dump_round_trips_through_json(self):
        reg = MetricsRegistry()
        reg.histogram("h_seconds", "h", labels=("op",)).observe(0.1, op="a")
        dump = json.loads(json.dumps(reg.dump()))
        assert render_dump(dump) == reg.render()


def test_process_rss_is_positive_here():
    assert process_rss_bytes() > 0


# ----------------------------------------------------------------------
# span log
# ----------------------------------------------------------------------
class TestSpanLog:
    def test_ring_drops_oldest(self):
        log = SpanLog(capacity=2)
        for i in range(3):
            log.record("op", "request", float(i), 0.1, rid=i)
        assert len(log) == 2
        assert log.recorded == 3
        assert [s["rid"] for s in log.snapshot()] == [1, 2]

    def test_rid_filter_and_limit(self):
        log = SpanLog()
        log.record("submit", "request", 0.0, 0.1, rid=7)
        log.record("submit", "admit", 0.1, 0.1, rid=7)
        log.record("advance", "request", 0.2, 0.1, rid=8)
        assert [s["phase"] for s in log.snapshot(rid=7)] == ["request", "admit"]
        assert [s["phase"] for s in log.snapshot(limit=1)] == ["request"]
        assert log.snapshot(rid=99) == []

    def test_span_dict_shape(self):
        log = SpanLog(clock=lambda: 1.5)
        log.record("submit", "request", log.now(), 0.25, rid=3, tenant="acme")
        (span,) = log.snapshot()
        assert span == {
            "rid": 3, "tenant": "acme", "op": "submit",
            "phase": "request", "t0": 1.5, "dur": 0.25,
        }

    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="capacity"):
            SpanLog(capacity=0)


# ----------------------------------------------------------------------
# instrumented front-end
# ----------------------------------------------------------------------
class TestFrontendObservability:
    def test_request_counters_and_latency(self):
        fe = frontend()
        fe.handle_request({"op": "submit", "jobs": [job("a")]})
        fe.handle_request({"op": "drain"})
        fe.handle_request({"op": "nope"})
        m = fe.handle_request({"op": "metrics"})
        assert m["ok"]
        text = m["text"]
        assert 'repro_requests_total{op="submit"} 1\n' in text
        assert 'repro_requests_total{op="drain"} 1\n' in text
        assert 'repro_request_errors_total{op="nope",code="invalid_request"} 1' in text
        assert 'repro_request_latency_seconds_count{op="submit"} 1' in text
        assert 'repro_admission_outcomes_total{outcome="admitted"} 1' in text
        assert "repro_jobs_completed_total 1\n" in text

    def test_queue_gauges_after_submit_and_after_flush(self):
        """Refreshed once per tenant per request instead of twice per job:
        the values a scrape reads are the ones the per-job updates left."""
        fe = frontend(batch_size=100, batch_interval=9999.0)
        fe.handle_request({"op": "tenant", "name": "a", "weight": 3.0})

        def gauges():
            fams = {f["name"]: f["samples"] for f in fe.metrics.dump()}
            return {
                name: {s["values"][0]: s["value"] for s in fams[f"repro_queue_{name}"]}
                for name in ("depth", "stride_lag")
            }

        fe.handle_request({"op": "submit", "jobs": [
            job("a1", tenant="a"), job("a2", tenant="a"), job("b1", tenant="b"),
            job("a3", tenant="a"), job("b2", tenant="b"),
        ]})
        assert gauges() == {"depth": {"a": 3.0, "b": 2.0},
                            "stride_lag": {"a": 0.0, "b": 0.0}}
        r = fe.handle_request({"op": "flush"})
        assert r["admitted"] == ["a1", "b1", "a2", "a3", "b2"]
        # a paid 3 x 1/3, b paid 2 x 1 and drained last: the floor is b's
        assert gauges() == {"depth": {"a": 0.0, "b": 0.0},
                            "stride_lag": {"a": -1.0, "b": 0.0}}
        fe.handle_request({"op": "submit", "jobs": [job("b3", tenant="b"),
                                                     job("a4", tenant="a")]})
        assert gauges() == {"depth": {"a": 1.0, "b": 1.0},
                            "stride_lag": {"a": 0.0, "b": 0.0}}

    def test_spans_follow_a_request(self):
        fe = frontend()
        fe.handle_request({"v": 2, "rid": 41, "op": "submit", "jobs": [job("a")]})
        fe.handle_request({"v": 2, "rid": 42, "op": "drain"})
        # the flush happens inside the submit request, so admission is
        # attributed to rid 41; the drain's dispatch/request land on 42
        resp = fe.handle_request({"v": 2, "rid": 99, "op": "spans", "for_rid": 41})
        assert [s["phase"] for s in resp["spans"]] == ["admit", "request"]
        resp = fe.handle_request({"v": 2, "rid": 99, "op": "spans", "for_rid": 42})
        assert [s["phase"] for s in resp["spans"]] == ["dispatch", "request"]
        assert all(s["rid"] == 42 for s in resp["spans"])
        assert resp["recorded"] >= len(resp["spans"])

    def test_spans_limit_validated(self):
        fe = frontend()
        r = fe.handle_request({"op": "spans", "limit": -1})
        assert r["ok"] is False and r["error"] == "invalid_request"

    def test_status_carries_uptime_rss(self):
        t = [100.0]
        fe = ServiceFrontend(SchedulingSession((4,)), batch_size=1,
                             clock=lambda: t[0])
        t[0] = 107.5
        s = fe.handle_request({"op": "status"})
        assert s["uptime_seconds"] == pytest.approx(7.5)
        assert s["rss_bytes"] > 0
        assert "backend" not in s
        assert s["restarts"] == 0

    def test_restart_gauge_seeded_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SERVICE_RESTARTS", "3")
        fe = frontend()
        assert fe.handle_request({"op": "status"})["restarts"] == 3
        assert fe.handle_request({"op": "stats"})["restarts"] == 3
        assert "\nrepro_restarts 3\n" in fe.handle_request({"op": "metrics"})["text"]

    def test_backpressure_counted(self):
        fe = ServiceFrontend(SchedulingSession((4,)), batch_size=100,
                             batch_interval=9999.0, max_pending=1)
        fe.handle_request({"op": "submit", "jobs": [job("a"), job("b")]})
        text = fe.handle_request({"op": "metrics"})["text"]
        assert 'repro_admission_outcomes_total{outcome="backpressure"} 1' in text

    def test_restore_rebinds_session_metrics(self):
        fe = frontend()
        fe.handle_request({"op": "submit", "jobs": [job("a")]})
        fe.handle_request({"op": "drain"})
        snap = fe.handle_request({"op": "checkpoint"})["snapshot"]
        fe.handle_request({"op": "restore", "snapshot": snap})
        fe.handle_request({"op": "submit", "jobs": [job("b")]})
        fe.handle_request({"op": "drain"})
        # counters are registry-level: monotone across the restore
        assert "repro_jobs_completed_total 2\n" in (
            fe.handle_request({"op": "metrics"})["text"]
        )

    def test_shared_registry_is_allowed(self):
        reg = MetricsRegistry()
        a = ServiceFrontend(SchedulingSession((4,)), batch_size=1, metrics=reg)
        assert a.metrics is reg


# ----------------------------------------------------------------------
# HTTP listener
# ----------------------------------------------------------------------
class TestMetricsHttpd:
    def test_get_metrics_and_404(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "c").inc()
        with start_metrics_server(reg.render) as srv:
            url = f"http://{srv.host}:{srv.port}"
            with urllib.request.urlopen(f"{url}/metrics", timeout=5) as resp:
                assert resp.headers["Content-Type"] == CONTENT_TYPE
                assert b"c_total 1\n" in resp.read()
            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(f"{url}/other", timeout=5)
            assert exc.value.code == 404

    def test_render_failure_is_500_not_fatal(self):
        calls = []

        def render():
            calls.append(1)
            if len(calls) == 1:
                raise RuntimeError("boom")
            return "ok_metric 1\n"

        with start_metrics_server(render) as srv:
            url = f"http://{srv.host}:{srv.port}/metrics"
            with pytest.raises(urllib.error.HTTPError) as exc:
                urllib.request.urlopen(url, timeout=5)
            assert exc.value.code == 500
            with urllib.request.urlopen(url, timeout=5) as resp:
                assert resp.read() == b"ok_metric 1\n"
