"""The benchmark's four workloads, each driven through public builders.

Every workload is a class with three phases that the worker times
separately:

* ``build()`` makes the fixtures the workload then drives (testbeds, a
  cluster with its control plane, a fleet region). It counts as set-up.
* ``run(span)`` is the measured work: simulated clients and control
  planes advancing ``Simulator.run``. ``span`` records a span around
  each call into a layer.
* ``check()`` verifies the simulated output and returns an
  :class:`Outcome`.

Inputs come only from the seed. All simulated clients are open loop
(Poisson arrivals at a fixed rate in simulated time), so a slower host
changes host time, never the simulated output. The ``small`` sizes are
for the benchmark's own tests.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Dict, List

from repro.core import CanalControlPlane
from repro.experiments.testbed import build_testbed
from repro.faults.audit import InvariantViolation
from repro.faults.plan import Fault, FaultPlan
from repro.faults.runtime import take_timelines
from repro.fleet import (
    FleetConfig,
    FleetDemand,
    FleetFaultEngine,
    FleetModel,
    FleetScaler,
    SessionDES,
)
from repro.fleet.validate import DEFAULT_SCENARIOS, compare_tiers
from repro.k8s import Cluster, PodPhase, ResourceRequest
from repro.mesh import IstioControlPlane
from repro.netsim import Topology
from repro.simcore import Simulator
from repro.workloads import OpenLoopDriver, ShortFlowDriver

__all__ = ["Outcome", "WORKLOADS"]


@dataclass
class Outcome:
    """What one workload run produced, read from public objects."""

    #: Simulated operations completed (the ``work_per_s`` numerator).
    ops: int
    attempted: int
    failed: int
    #: Simulated statistics covered by the reference digest.
    summary: Dict[str, object]
    #: Exact per-layer counts (simulated work, not host time).
    counts: Dict[str, float] = field(default_factory=dict)
    #: Output-check failures; empty when the output is correct.
    problems: List[str] = field(default_factory=list)


def _latency_summary(report) -> Dict[str, object]:
    latency = report.latency
    return {"offered": report.offered, "completed": report.completed,
            "ok": report.ok_count, "mean_s": latency.mean,
            "p50_s": latency.percentile(50), "p99_s": latency.percentile(99)}


def _check_reports(reports, problems: List[str]) -> Dict[str, int]:
    """Invariants of open-loop driver reports; returns op totals."""
    offered = completed = errors = 0
    for label, report in reports.items():
        if report.offered != report.completed:
            problems.append(f"{label}: offered {report.offered} != "
                            f"completed {report.completed}")
        if report.completed == 0:
            problems.append(f"{label}: no operation completed")
        offered += report.offered
        completed += report.completed
        errors += report.error_count
    return {"ops": completed, "attempted": offered,
            "failed": offered - completed + errors}


class MeshSteady:
    """Fig 11's probe: open-loop requests over 100 persistent connections.

    Each architecture runs below its throughput knee, so the run has no
    errors and every request completes.
    """

    name = "mesh_steady"
    #: (architecture, offered requests per simulated second).
    LOADS = (("istio", 1000.0), ("ambient", 4000.0), ("canal", 8000.0))

    def __init__(self, seed: int, small: bool = False):
        self.seed = seed
        self.duration_s = 0.05 if small else 1.0
        self.reports = {}

    def build(self) -> None:
        self.testbeds = [(mesh, rps, build_testbed(mesh, seed=self.seed))
                         for mesh, rps in self.LOADS]

    @property
    def sims(self) -> List[Simulator]:
        return [testbed.sim for _, _, testbed in self.testbeds]

    def run(self, span) -> None:
        for mesh, rps, testbed in self.testbeds:
            driver = OpenLoopDriver(testbed.sim, testbed.mesh,
                                    testbed.client_pod, "svc1", rps=rps,
                                    duration_s=self.duration_s,
                                    connections=100)
            with span(f"workloads.OpenLoopDriver/{mesh}"):
                self.reports[mesh] = testbed.run_driver(driver)

    def check(self) -> Outcome:
        problems: List[str] = []
        totals = _check_reports(self.reports, problems)
        summary = {mesh: _latency_summary(report)
                   for mesh, report in self.reports.items()}
        return Outcome(summary=summary, problems=problems, **totals)


class MeshShortflow:
    """HTTPS short flows on Canal with one on-node core.

    One new connection and mTLS handshake per request, once with crypto
    offloaded to the remote key server and once in software, at a rate
    below the software path's capacity (about 530 flows/s).
    """

    name = "mesh_shortflow"
    RATE = 450.0
    MODES = ("remote", "software")

    def __init__(self, seed: int, small: bool = False):
        self.seed = seed
        self.duration_s = 0.3 if small else 4.0
        self.reports = {}

    def build(self) -> None:
        self.testbeds = [
            (mode, build_testbed("canal", seed=self.seed, mesh_kwargs=dict(
                onnode_cores_per_node=1, crypto_offload=mode)))
            for mode in self.MODES]

    @property
    def sims(self) -> List[Simulator]:
        return [testbed.sim for _, testbed in self.testbeds]

    def run(self, span) -> None:
        for mode, testbed in self.testbeds:
            driver = ShortFlowDriver(testbed.sim, testbed.mesh,
                                     testbed.client_pod, "svc1",
                                     rps=self.RATE,
                                     duration_s=self.duration_s)
            with span(f"workloads.ShortFlowDriver/{mode}"):
                self.reports[mode] = testbed.run_driver(driver)

    def check(self) -> Outcome:
        problems: List[str] = []
        totals = _check_reports(self.reports, problems)
        summary = {mode: _latency_summary(report)
                   for mode, report in self.reports.items()}
        return Outcome(summary=summary, problems=problems, **totals)


class ClusterChurn:
    """Fig 14's control-plane run: create pods, then configure the mesh.

    ``create_pods_and_configure`` on a ``Topology.multi_az_region``
    cluster, once for Istio and once for Canal. The seed draws the
    existing deployments' sizes and resource requests and which one is
    scaled; the number of new pods is fixed, so the scheduling work is
    the same for every seed.
    """

    name = "cluster_churn"
    PLANES = (("istio", IstioControlPlane), ("canal", CanalControlPlane))
    DEPLOYMENTS = 3

    def __init__(self, seed: int, small: bool = False):
        self.seed = seed
        self.new_pods = 40 if small else 400
        self.reports = {}

    def build(self) -> None:
        rng = random.Random(self.seed)
        shapes = [(rng.randint(3, 8),
                   ResourceRequest(cpu_millicores=rng.randrange(100, 2001, 50),
                                   memory_mb=rng.randrange(128, 4097, 128)))
                  for _ in range(self.DEPLOYMENTS)]
        self.scaled = f"s{rng.randrange(self.DEPLOYMENTS)}"
        self.planes = []
        for mesh, plane_cls in self.PLANES:
            sim = Simulator(self.seed)
            topology = Topology.multi_az_region(
                azs=3, nodes_per_az=max(2, self.new_pods // 45))
            cluster = Cluster("churn", topology.all_nodes(),
                              node_cpu_millicores=10_000_000,
                              node_memory_mb=10_000_000)
            for index, (replicas, resources) in enumerate(shapes):
                name = f"s{index}"
                cluster.create_deployment(name, replicas=replicas,
                                          labels={"app": name},
                                          resources=resources)
                cluster.create_service(name, selector={"app": name})
            self.planes.append((mesh, sim, cluster, plane_cls(sim, cluster)))

    @property
    def sims(self) -> List[Simulator]:
        return [sim for _, sim, _, _ in self.planes]

    def run(self, span) -> None:
        for mesh, sim, _cluster, plane in self.planes:
            with span(f"mesh.create_pods_and_configure/{mesh}"):
                process = sim.process(plane.create_pods_and_configure(
                    self.new_pods, self.scaled))
                sim.run()
            self.reports[mesh] = process.value

    def check(self) -> Outcome:
        problems: List[str] = []
        summary = {}
        ops = pushes = push_bytes = 0
        for mesh, _sim, cluster, plane in self.planes:
            report = self.reports.get(mesh)
            targets = plane.targets_for_update("pods")
            names = {target.name for target in targets}
            ready = [pod for pod in cluster.pods.values()
                     if pod.phase is PodPhase.RUNNING
                     and _configured(pod, names)]
            expected = sum(deploy.replicas
                           for deploy in cluster.deployments.values())
            ops += len(ready) - (expected - self.new_pods)
            if len(ready) != expected or len(cluster.pods) != expected:
                problems.append(f"{mesh}: {len(ready)} of {expected} pods "
                                "running and configured")
            if report is None or report.targets != len(targets) or (
                    report.total_bytes
                    != sum(target.config_bytes for target in targets)):
                problems.append(f"{mesh}: configuration round incomplete")
                continue
            pushes += report.targets
            push_bytes += report.total_bytes
            summary[mesh] = {"pods": len(cluster.pods),
                             "targets": report.targets,
                             "bytes": report.total_bytes,
                             "build_cpu_s": report.build_cpu_s,
                             "completion_s": report.completion_s,
                             "pods_per_node": sorted(
                                 len(node.pods) for node in cluster.nodes)}
        attempted = self.new_pods * len(self.planes)
        counts = {"mesh.config_pushes": pushes,
                  "mesh.config_bytes": push_bytes,
                  "k8s.pods_created": attempted}
        return Outcome(ops=ops, attempted=attempted, failed=attempted - ops,
                       summary=summary, counts=counts, problems=problems)


def _configured(pod, target_names) -> bool:
    """A pod is configured once its sidecar or its node's proxy is."""
    return (f"sidecar-{pod.name}" in target_names
            or f"onnode-{pod.node_name}" in target_names)


class FleetChaos:
    """The fleet tier under chaos, in two parts.

    1. A fluid region (3 AZ x 100 backends x 150 services) with the
       Reuse-first scaler, an AZ crash, a backend crash and a
       query-of-death: the ``fluid_ops_day`` shape of
       ``benchmarks/bench_fleet.py``, over three hours instead of a day.
    2. The ``chaos_az`` fluid-vs-per-session agreement of
       ``fleet/validate.py`` at the run's seed. Its per-session twin
       holds about 80k pending session timers, so the simulator runs on
       the calendar agenda.

    The operation is one session offered to a model. The sessions the
    injected faults reject or disrupt are what the chaos is meant to
    produce, not failed operations: they are simulated output, held by
    the conservation ledgers at every seed and by the reference digest
    at the default seed, and counted in ``fleet.sessions_disrupted``.
    An operation fails only when the output check does, so the failure
    count is the same for every seed.
    """

    name = "fleet_chaos"

    #: Simulated seconds of the fluid region: 3 of the day's 24 hours.
    HORIZON_S = 10800.0

    def __init__(self, seed: int, small: bool = False):
        self.seed = seed
        self.small = small
        scenario = next(s for s in DEFAULT_SCENARIOS if s.name == "chaos_az")
        if small:
            scenario = dataclasses.replace(
                scenario, backends_per_az=10, services=8,
                mean_sessions=1200.0)
        # 1800 s still covers the fault plan, which ends at 1650 s.
        self.scenario = dataclasses.replace(scenario, horizon_s=1800.0,
                                            seed=seed)
        self.models = []

    def build(self) -> None:
        backends, services = (10, 15) if self.small else (100, 150)
        self.sim = Simulator(self.seed)
        config = FleetConfig(azs=3, backends_per_az=backends,
                             services=services, dt_s=60.0, sample_every=5)
        demand = FleetDemand(mean_sessions=800.0, amplitude=0.3,
                             session_rps=90.0)
        self.region = FleetModel(self.sim, config, demand)
        FleetScaler(self.sim, self.region)
        FleetFaultEngine(self.sim, self.region).arm(FaultPlan.of(
            Fault(kind="az_crash", at=3600.0, target="az:1",
                  duration_s=2700.0),
            Fault(kind="backend_crash", at=5400.0, target="backend:9",
                  duration_s=1200.0),
            Fault(kind="query_of_death", at=7200.0, target="service:6",
                  duration_s=1800.0, param=3.0)))

    @property
    def sims(self) -> List[Simulator]:
        return [model.sim for model in self.models]

    def run(self, span) -> None:
        # compare_tiers builds its models internally; catching each
        # model's start is how the check reads their ledgers.
        start = FleetModel.start
        models = self.models

        def recording_start(model, horizon_s):
            models.append(model)
            return start(model, horizon_s)

        FleetModel.start = recording_start
        try:
            with span("fleet.FleetModel/region"):
                self.region.start(self.HORIZON_S)
                self.sim.run(until=self.HORIZON_S)
            with span("fleet.compare_tiers/chaos_az"):
                self.validation = compare_tiers(self.scenario)
        finally:
            FleetModel.start = start

    def check(self) -> Outcome:
        problems: List[str] = []
        ledgers = []
        attempted = admitted = 0.0
        des_events = 0
        for model in self.models:
            try:
                model.check_invariants("benchmark")
            except InvariantViolation as violation:
                problems.append(f"{type(model).__name__}: {violation}")
            counters = model.counters
            attempted += counters.attempted
            admitted += counters.admitted
            ledgers.append({"model": type(model).__name__,
                            "attempted": counters.attempted,
                            "admitted": counters.admitted,
                            "rejected": counters.rejected,
                            "departed": counters.departed,
                            "disrupted": counters.disrupted,
                            "active": model.active_sessions(),
                            "config_pushes": counters.config_pushes})
            if isinstance(model, SessionDES):
                des_events += int(counters.admitted + counters.departed)
        if len(self.models) != 3:
            problems.append(f"expected 3 fleet models, saw {len(self.models)}")
        if not self.validation.ok:
            bad = [check.metric for check in self.validation.checks
                   if not check.ok]
            problems.append(f"compare_tiers failed on {', '.join(bad)}")
        injected = sum(1 for timeline in take_timelines()
                       for entry in timeline if entry["action"] == "inject")
        summary = {
            "ledgers": ledgers,
            "scaler": self.region.scaler.summary(),
            "validation": [[check.metric, check.fluid, check.reference]
                           for check in self.validation.checks],
        }
        counts = {"fleet.des_events": des_events,
                  "fleet.sessions_disrupted": sum(
                      ledger["disrupted"] for ledger in ledgers),
                  "faults.injected": injected}
        return Outcome(ops=round(admitted), attempted=round(attempted),
                       failed=0, summary=summary, counts=counts,
                       problems=problems)


WORKLOADS = {workload.name: workload for workload in
             (MeshSteady, MeshShortflow, ClusterChurn, FleetChaos)}
