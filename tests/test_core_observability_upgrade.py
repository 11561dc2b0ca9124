"""Tests for trace collection and rolling upgrades."""

import pytest

from repro.core import RollingUpgrade
from repro.experiments.cloud_ops import build_production_gateway
from repro.experiments.testbed import build_testbed
from repro.mesh import HttpRequest
from repro.obs.trace import Span, TraceCollector
from repro.simcore import Simulator


class TestTraceCollector:
    def _span(self, trace_id=1, source="onnode@w1", layer="l4",
              start=0.0, end=1.0, pod="", **kw):
        return Span(trace_id=trace_id, source=source, layer=layer,
                    start_s=start, end_s=end, pod=pod, **kw)

    def test_record_and_assemble(self):
        collector = TraceCollector()
        collector.record(self._span(start=0.0, end=1.0))
        collector.record(self._span(source="gateway/r1", layer="l7",
                                    start=1.0, end=2.0))
        trace = collector.trace(1)
        assert trace.duration_s == pytest.approx(2.0)
        assert trace.layers() == ["l4", "l7"]

    def test_coverage_levels(self):
        collector = TraceCollector()
        collector.record(self._span(trace_id=1, layer="l4"))
        collector.record(self._span(trace_id=1, layer="l7"))
        collector.record(self._span(trace_id=2, layer="l7"))
        assert collector.trace(1).coverage == "full"
        assert collector.trace(2).coverage == "partial"
        report = collector.coverage_report()
        assert report["full"] == 1 and report["partial"] == 1

    def test_unknown_trace_raises(self):
        with pytest.raises(KeyError):
            TraceCollector().trace(99)

    def test_pod_bytes_accumulate(self):
        collector = TraceCollector()
        collector.record(self._span(pod="p1", bytes_out=100, bytes_in=50))
        collector.record(self._span(trace_id=2, pod="p1", bytes_out=10,
                                    bytes_in=0))
        assert collector.pod_traffic_report() == {"p1": 160}

    def test_critical_path_gap(self):
        collector = TraceCollector()
        collector.record(self._span(start=0.0, end=1.0))
        collector.record(self._span(source="b", start=3.0, end=4.0))
        trace = collector.trace(1)
        assert trace.critical_path_gap_s() == pytest.approx(2.0)

    def test_critical_path_gap_merges_overlapping_spans(self):
        """An enclosing L7 span must not double-count the L4 span time:
        coverage is the union of intervals, not the sum of durations."""
        collector = TraceCollector()
        collector.record(self._span(source="gateway/r1", layer="l7",
                                    start=0.0, end=4.0))
        collector.record(self._span(source="onnode@w1", layer="l4",
                                    start=1.0, end=2.0))
        collector.record(self._span(source="onnode@w2", layer="l4",
                                    start=5.0, end=6.0))
        trace = collector.trace(1)
        # Covered: [0,4] ∪ [5,6] = 5s of the 6s end to end -> 1s gap
        # (a duration sum would claim 6s covered and report 0 gap).
        assert trace.critical_path_gap_s() == pytest.approx(1.0)

    def test_critical_path_gap_identical_spans(self):
        collector = TraceCollector()
        collector.record(self._span(start=0.0, end=2.0))
        collector.record(self._span(source="b", start=0.0, end=2.0))
        assert collector.trace(1).critical_path_gap_s() == pytest.approx(0.0)


class TestCanalTracing:
    def test_full_coverage_on_canal_path(self):
        """Canal's split observability reassembles end to end: node L4
        spans + gateway L7 span + app span."""
        collector = TraceCollector()
        run = build_testbed("canal", mesh_kwargs={"tracing": collector})

        def scenario():
            connection = yield run.sim.process(
                run.mesh.open_connection(run.client_pod, "svc1"))
            response = yield run.sim.process(
                run.mesh.request(connection, HttpRequest()))
            return response

        process = run.sim.process(scenario())
        run.sim.run()
        assert process.value.ok
        traces = collector.traces()
        assert len(traces) == 1
        trace = traces[0]
        assert trace.coverage == "full"
        # Causal model: a "request" root covering everything, TLS
        # handshake spans adopted from connection setup, the data-path
        # L4/L7/app segments underneath.
        assert set(trace.layers()) >= {"l4", "l7", "app", "tls", "request"}
        root = trace.root()
        assert root is not None and root.layer == "request"
        assert root.annotation("status") == "200"
        for span in trace.spans:
            if span is root:
                continue
            assert root.start_s <= span.start_s
            assert span.end_s <= root.end_s
            # Every span is causally reachable from the root.
            assert trace.depth(span) >= 1
        # The replica-exec span nests under the gateway L7 span.
        replica_spans = [s for s in trace.spans
                         if s.name == "replica-exec"]
        assert replica_spans
        parent = trace.span(replica_spans[0].parent_id)
        assert parent.name == "gateway-l7"
        # The root covers connection setup too, so it is longer than
        # the request latency alone; the critical path stays bounded.
        assert trace.critical_path_gap_s() < trace.duration_s

    def test_per_pod_metrics_from_spans(self):
        collector = TraceCollector()
        run = build_testbed("canal", mesh_kwargs={"tracing": collector})

        def scenario():
            connection = yield run.sim.process(
                run.mesh.open_connection(run.client_pod, "svc1"))
            for _ in range(3):
                yield run.sim.process(
                    run.mesh.request(connection, HttpRequest()))

        run.sim.process(scenario())
        run.sim.run()
        report = collector.pod_traffic_report()
        assert report[run.client_pod.name] == 3 * (128 + 1024)

    def test_tracing_off_by_default(self):
        run = build_testbed("canal")
        assert run.mesh.tracing is None


class TestRollingUpgrade:
    def _stack(self, seed=61):
        sim = Simulator(seed)
        gateway, services = build_production_gateway(
            sim, backends_per_az=4, services=6)
        for service in services:
            gateway.set_service_load(service.service_id, 20_000.0)
        return sim, gateway, services

    def test_all_replicas_upgraded(self):
        sim, gateway, services = self._stack()
        roller = RollingUpgrade(sim, gateway)
        process = sim.process(roller.run("v2"))
        sim.run()
        report = process.value
        total = sum(len(b.replicas) for b in gateway.all_backends)
        assert report.replicas_upgraded == total
        assert set(roller.replica_versions().values()) == {"v2"}

    def test_zero_outage_during_upgrade(self):
        """Fig 20's property: version updates cause no service outage."""
        sim, gateway, services = self._stack()
        roller = RollingUpgrade(sim, gateway)
        process = sim.process(roller.run("v2"))
        sim.run()
        assert process.value.outage_seconds == 0.0

    def test_duration_scales_with_fleet(self):
        """Rolling a large fleet takes hours (paper: ~4h)."""
        sim, gateway, services = self._stack()
        roller = RollingUpgrade(sim, gateway, drain_s=120.0, swap_s=90.0,
                                rejoin_s=30.0)
        process = sim.process(roller.run("v2"))
        sim.run()
        replicas = sum(len(b.replicas) for b in gateway.all_backends)
        assert process.value.duration_s == pytest.approx(240.0 * replicas)

    def test_single_replica_backend_skipped(self):
        sim = Simulator(0)
        from repro.core import GatewayConfig, MeshGateway
        from repro.core.replica import ReplicaConfig
        gateway = MeshGateway(sim, GatewayConfig(
            replicas_per_backend=1, backends_per_service_per_az=1,
            azs_per_service=1, replica=ReplicaConfig(cores=2)))
        gateway.deploy_backend("az1")
        roller = RollingUpgrade(sim, gateway)
        process = sim.process(roller.run("v2"))
        sim.run()
        report = process.value
        assert report.replicas_upgraded == 0
        assert report.skipped_backends == ["backend-1"]

    def test_healthy_state_restored(self):
        sim, gateway, services = self._stack()
        roller = RollingUpgrade(sim, gateway)
        sim.process(roller.run("v2"))
        sim.run()
        for backend in gateway.all_backends:
            assert backend.is_healthy
            assert all(not r.draining for r in backend.replicas)
