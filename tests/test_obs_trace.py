"""Tests for repro.obs.trace: causal spans, sampling, analytics,
exporters, and the no-perturbation determinism guarantee."""

import json

import pytest

from repro.experiments.testbed import build_testbed
from repro.experiments.trace_breakdown import _waterfall_run
from repro.mesh import HttpRequest
from repro.obs import (
    Span,
    Trace,
    TraceCollector,
    Tracer,
    chrome_trace,
    critical_path,
    fault_detection_latency,
    get_tracer,
    layer_attribution,
    prometheus_text,
    set_tracer,
    span_from_dict,
    span_to_dict,
    take_collectors,
    traces_json,
    use_tracer,
)
from repro.obs.export import _escape_label
from repro.obs.telemetry import Telemetry
from repro.runtime import use_executor


def _span(trace_id=1, source="a", layer="l4", start=0.0, end=1.0,
          span_id=0, parent_id=0, name="", **kw):
    return Span(trace_id=trace_id, source=source, layer=layer,
                start_s=start, end_s=end, span_id=span_id,
                parent_id=parent_id, name=name, **kw)


class TestEmptyTraceRegression:
    """An empty span list must never crash trace analytics."""

    def test_empty_trace_defaults(self):
        trace = Trace(trace_id=7)
        assert trace.start_s == 0.0
        assert trace.end_s == 0.0
        assert trace.duration_s == 0.0
        assert trace.layers() == []
        assert trace.coverage == "none"
        assert trace.root() is None

    def test_empty_trace_critical_path_gap(self):
        # Regression: this crashed (min/max over an empty sequence)
        # before spans and causality were unified here.
        assert Trace(trace_id=7).critical_path_gap_s() == 0.0

    def test_empty_trace_analytics(self):
        trace = Trace(trace_id=7)
        assert critical_path(trace) == []
        assert layer_attribution(trace) == {}


class TestCausalModel:
    def test_root_children_and_depth(self):
        collector = TraceCollector()
        tracer = Tracer(collector=collector)
        handle = tracer.start("request", source="client", start_s=0.0)
        l7 = handle.add("gateway-l7", "l7", 0.2, 0.8)
        handle.add("replica-exec", "l7", 0.3, 0.7, parent_id=l7)
        handle.finish(1.0, status=200)
        trace = collector.trace(handle.trace_id)
        root = trace.root()
        assert root.name == "request" and root.annotation("status") == "200"
        children = trace.children(root.span_id)
        assert [span.name for span in children] == ["gateway-l7"]
        replica = next(s for s in trace.spans if s.name == "replica-exec")
        assert trace.depth(replica) == 2

    def test_add_tree_defers_nested_specs(self):
        collector = TraceCollector()
        tracer = Tracer(collector=collector)
        handle = tracer.start("request", start_s=1.0)
        handle.add_tree({
            "name": "tls-handshake", "layer": "tls",
            "start_s": 0.0, "end_s": 0.9,
            "annotations": {"peer": "gateway"},
            "children": [
                {"name": "tls-asym", "layer": "tls",
                 "start_s": 0.2, "end_s": 0.7},
            ],
        })
        handle.finish(2.0)
        trace = collector.trace(handle.trace_id)
        handshake = next(s for s in trace.spans if s.name == "tls-handshake")
        asym = next(s for s in trace.spans if s.name == "tls-asym")
        assert handshake.annotation("peer") == "gateway"
        assert asym.parent_id == handshake.span_id
        assert handshake.parent_id == trace.root().span_id

    def test_finish_is_idempotent(self):
        collector = TraceCollector()
        handle = Tracer(collector=collector).start("request", start_s=0.0)
        handle.finish(1.0, status=200)
        handle.finish(9.0, status=503)
        trace = collector.trace(handle.trace_id)
        assert len(trace.spans) == 1
        assert trace.root().annotation("status") == "200"

    def test_span_roundtrips_through_dict(self):
        span = _span(span_id=3, parent_id=1, name="x",
                     annotations=(("k", "v"),))
        assert span_from_dict(span_to_dict(span)) == span


class TestCollectorMigration:
    """Coverage and per-pod traffic aggregates survive ring eviction."""

    def test_pod_traffic_report_survives_eviction(self):
        collector = TraceCollector(max_traces=2)
        for trace_id in (1, 2, 3):
            collector.record(_span(trace_id=trace_id, pod="p1",
                                   bytes_out=10, bytes_in=5))
        assert collector.traces_evicted == 1
        assert len(collector.traces()) == 2
        assert collector.pod_traffic_report() == {"p1": 45}

    def test_coverage_report_folds_evicted(self):
        collector = TraceCollector(max_traces=1)
        collector.record(_span(trace_id=1, layer="l4"))
        collector.record(_span(trace_id=1, layer="l7"))
        collector.record(_span(trace_id=2, layer="l7"))  # evicts trace 1
        report = collector.coverage_report()
        assert report["full"] == 1      # evicted at full coverage
        assert report["partial"] == 1   # the live gateway-only trace


class TestAnalytics:
    def _nested_trace(self):
        collector = TraceCollector()
        handle = Tracer(collector=collector).start("request", start_s=0.0)
        l7 = handle.add("gateway-l7", "l7", 2.0, 8.0)
        handle.add("replica-exec", "l7", 3.0, 6.0, parent_id=l7,
                   source="replica/r1")
        handle.add("onnode-l4", "l4", 0.0, 2.0)
        handle.finish(10.0)
        return collector.trace(handle.trace_id)

    def test_critical_path_prefers_deepest_span(self):
        segments = critical_path(self._nested_trace())
        at_4s = next(seg for seg in segments if seg[0] <= 4.0 < seg[1])
        assert at_4s[3] == "replica/r1"  # not the enclosing gateway span

    def test_layer_attribution_is_exclusive_and_complete(self):
        trace = self._nested_trace()
        attribution = layer_attribution(trace)
        # l4 [0,2) + l7 [2,8) + root residue [8,10) = full 10s window.
        assert attribution["l4"] == pytest.approx(2.0)
        assert attribution["l7"] == pytest.approx(6.0)
        assert attribution["request"] == pytest.approx(2.0)
        assert sum(attribution.values()) == pytest.approx(trace.duration_s)

    def test_fault_detection_latency(self):
        collector = TraceCollector()
        tracer = Tracer(collector=collector)
        ok = tracer.start("request", start_s=0.0)
        ok.finish(1.0, status=200)
        bad = tracer.start("request", start_s=4.5)
        bad.finish(5.5, status=503)
        collector.mark_fault(4.0, "inject", "backend_crash", "b0")
        collector.mark_fault(90.0, "inject", "az_crash", "az9")
        report = fault_detection_latency(collector.traces(),
                                         collector.fault_marks)
        assert report[0]["latency_s"] == pytest.approx(1.5)
        assert report[0]["trace_id"] == bad.trace_id
        assert report[1]["latency_s"] is None  # never detected


class TestSamplingDeterminism:
    def test_sampler_is_seed_deterministic(self):
        def sampled_ids(seed):
            tracer = Tracer(sample_rate=0.5, seed=seed)
            ids = []
            for _ in range(64):
                handle = tracer.start("request")
                if handle is not None:
                    ids.append(handle.trace_id)
            return ids

        assert sampled_ids(3) == sampled_ids(3)
        assert sampled_ids(3) != sampled_ids(4)

    def test_trace_ids_consumed_even_when_sampled_out(self):
        tracer = Tracer(sample_rate=0.0, seed=1)
        for _ in range(5):
            assert tracer.start("request") is None
        assert tracer.traces_started == 5
        assert tracer.traces_sampled == 0
        assert tracer.collector.new_trace_id() == 6

    def test_tracing_does_not_perturb_simulation(self):
        """The central determinism rule: toggling tracing must not
        change model behavior (the sampler never touches sim.rng)."""
        def run_latencies(traced):
            run = build_testbed("canal", seed=19)
            latencies = []

            def scenario():
                connection = yield run.sim.process(
                    run.mesh.open_connection(run.client_pod, "svc1"))
                for _ in range(10):
                    response = yield run.sim.process(
                        run.mesh.request(connection, HttpRequest()))
                    latencies.append(response.latency_s)

            run.sim.process(scenario())
            if traced:
                with use_tracer(Tracer(sample_rate=0.5, seed=19)):
                    run.sim.run()
                take_collectors()
            else:
                run.sim.run()
            return latencies

        assert run_latencies(traced=False) == run_latencies(traced=True)

    def test_serial_vs_jobs_byte_identical(self):
        """The exhibit worker returns byte-identical span sets under a
        serial and a pooled executor."""
        spec = ("canal", 11, 6)
        with use_executor(jobs=1):
            serial = _waterfall_run(spec)
        with use_executor(jobs=2):
            pooled = _waterfall_run(spec)
        assert json.dumps(serial, sort_keys=True, default=str) == \
            json.dumps(pooled, sort_keys=True, default=str)


class TestAmbientTracer:
    def test_disabled_by_default(self):
        assert get_tracer() is None

    def test_use_tracer_scopes_and_restores(self):
        with use_tracer() as tracer:
            assert get_tracer() is tracer
        assert get_tracer() is None
        drained = take_collectors()
        assert tracer.collector in drained

    def test_set_tracer_registers_collector(self):
        tracer = Tracer()
        previous = set_tracer(tracer)
        try:
            assert get_tracer() is tracer
        finally:
            set_tracer(previous)
        assert tracer.collector in take_collectors()


class TestPrometheusEscaping:
    """Label values with backslashes, quotes, and newlines must escape
    per the text exposition format (backslash first, then quote, \\n)."""

    def test_escape_label_order(self):
        assert _escape_label("a\\b") == "a\\\\b"
        assert _escape_label('say "hi"') == 'say \\"hi\\"'
        assert _escape_label("line1\nline2") == "line1\\nline2"
        # Backslash escaping must not double-escape the sequences the
        # later replacements introduce.
        assert _escape_label('\\"\n') == '\\\\\\"\\n'

    def test_prometheus_text_escapes_label_values(self):
        telemetry = Telemetry(enabled=True)
        telemetry.inc("requests_total", service='svc "a"\\prod\nx')
        text = prometheus_text(telemetry)
        assert 'service="svc \\"a\\"\\\\prod\\nx"' in text
        assert "\n\n" not in text  # the raw newline never leaks


class TestExporters:
    def _collector(self):
        collector = TraceCollector()
        tracer = Tracer(collector=collector)
        handle = tracer.start("request", service="svc1", start_s=0.0)
        handle.add("onnode-l4", "l4", 0.0, 0.5, pod="p1", bytes_out=64,
                   bytes_in=32)
        handle.finish(1.0, status=200)
        collector.mark_fault(0.25, "inject", "replica_crash", "r1")
        return collector

    def test_chrome_trace_carries_causality_and_faults(self):
        collector = self._collector()
        payload = chrome_trace(collector.traces(),
                               fault_marks=collector.fault_marks)
        blob = json.dumps(payload)  # must be valid JSON
        events = payload["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        assert all(e["args"]["span_id"] for e in complete)
        root = next(e for e in complete if e["name"] == "request")
        assert root["args"]["a.status"] == "200"
        instants = [e for e in events if e["ph"] == "i"]
        assert instants and instants[0]["name"] == "inject:replica_crash"
        assert "replica_crash" in blob

    def test_traces_json_shape(self):
        collector = self._collector()
        payload = traces_json(collector.traces(), collector.fault_marks)
        assert len(payload["traces"]) == 1
        trace = payload["traces"][0]
        assert trace["coverage"] == "none"  # l4 only, no l7
        assert {span["name"] for span in trace["spans"]} == \
            {"request", "onnode-l4"}
        assert payload["fault_marks"][0]["kind"] == "replica_crash"
