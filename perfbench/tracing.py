"""Spans, per-layer self time and call counts for the traced run.

Nothing here edits the program's files.

* :class:`Spans` records named intervals, with their parents, around
  the benchmark's own calls into the layers.
* :class:`LayerSampler` attributes the run phase's self time to the
  ``src/repro`` packages. A CPU-time timer interrupts the process every
  millisecond (every kernel tick, in practice); the handler finds the
  innermost frame of ``repro`` code and charges the CPU time since the
  previous sample to that frame's package. Time in C builtins and in
  the standard library has no ``repro`` frame of its own, so it is
  charged to the ``repro`` package that called it. Sampling perturbs
  the run far less than a deterministic profiler, whose per-call cost
  would dwarf the small functions this program is made of.
* :class:`CallCounter` counts calls to the layers' entry points by
  wrapping them for the life of the traced process.
"""

from __future__ import annotations

import dis
import os
import signal
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List

__all__ = ["Spans", "LayerSampler", "CallCounter", "LAYERS"]

#: The ``src/repro`` packages reported one by one; time in any other
#: package, or in the benchmark's own code, is reported as ``other``.
LAYERS = ("simcore", "core", "mesh", "netsim", "crypto", "kernel", "k8s",
          "workloads", "fleet", "faults", "obs")

_RESUME = dis.opmap.get("RESUME")


class Spans:
    """Named intervals with parents, kept in memory until the run ends."""

    def __init__(self, origin_ns: int):
        self.origin_ns = origin_ns
        self.records: List[dict] = []
        self._open: List[int] = []

    def _now(self) -> float:
        # simlint: ignore[DET001] host time is what the benchmark measures
        return (time.monotonic_ns() - self.origin_ns) / 1e9

    @contextmanager
    def span(self, name: str):
        record = {"name": name, "start": self._now(), "end": None,
                  "parent": self._open[-1] if self._open else None}
        self.records.append(record)
        self._open.append(len(self.records) - 1)
        try:
            yield record
        finally:
            record["end"] = self._now()
            self._open.pop()


class LayerSampler:
    """Statistical self time per layer over one interval of the run."""

    INTERVAL_S = 0.001

    def __init__(self, src: str):
        #: ``src/repro/`` with a trailing separator.
        self.src = src
        self.cpu_s: Dict[str, float] = {layer: 0.0
                                        for layer in LAYERS + ("other",)}
        self.samples = 0
        #: CPU seconds of the whole sampled interval, set by :meth:`stop`.
        self.interval_cpu_s = 0.0
        self._layer_of_code: Dict[object, object] = {}
        self._start = self._last = 0.0

    def _layer(self, code):
        """The layer owning ``code``; None for code outside ``repro``."""
        layer = self._layer_of_code.get(code, False)
        if layer is False:
            layer = None
            if code.co_filename.startswith(self.src):
                package = code.co_filename[len(self.src):].split(os.sep)[0]
                layer = package if package in LAYERS else "other"
            self._layer_of_code[code] = layer
        return layer

    def _sample(self, _signum, frame) -> None:
        # simlint: ignore[DET001] host time is what the benchmark measures
        now = time.process_time()
        # The interpreter runs the handler at its next check point. When
        # that is a function's entry, the sampled time was spent before
        # the call, in the caller.
        if frame.f_code.co_code[frame.f_lasti] == _RESUME:
            frame = frame.f_back
        layer = None
        while frame is not None and layer is None:
            layer = self._layer(frame.f_code)
            frame = frame.f_back
        self.cpu_s[layer or "other"] += now - self._last
        self._last = now
        self.samples += 1

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        # simlint: ignore[DET001] host time is what the benchmark measures
        self._start = self._last = time.process_time()
        signal.setitimer(signal.ITIMER_PROF, self.INTERVAL_S,
                         self.INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        # simlint: ignore[DET001] host time is what the benchmark measures
        self.interval_cpu_s = time.process_time() - self._start

    def coverage(self) -> float:
        """Sampled CPU seconds over the interval's CPU seconds.

        The layers' self times are the raw sampled CPU seconds, so they
        add up to the interval's CPU time less the tail after the last
        sample; a sampler that stopped sampling part-way reads low."""
        if not self.interval_cpu_s:
            return 0.0
        return sum(self.cpu_s.values()) / self.interval_cpu_s


class CallCounter:
    """Counts calls to the layers' entry points."""

    def __init__(self):
        self.counts: Dict[str, int] = defaultdict(int)

    def wrap(self, owner, attribute: str, metric: str, weight=None) -> None:
        """Count calls to ``owner.attribute`` under ``metric``; with
        ``weight``, add ``weight(*args)`` per call instead of one."""
        original = owner.__dict__.get(attribute, getattr(owner, attribute))
        counts = self.counts
        if isinstance(original, property):
            getter = original.fget

            def counted_get(instance):
                counts[metric] += 1
                return getter(instance)

            setattr(owner, attribute, property(counted_get))
            return

        def counted(*args, **kwargs):
            counts[metric] += 1 if weight is None else weight(*args)
            return original(*args, **kwargs)

        setattr(owner, attribute, counted)

    def install(self) -> None:
        """Wrap every entry point a per-layer count reads."""
        from repro.core import CanalMesh
        from repro.fleet import FleetModel
        from repro.k8s import Cluster, ClusterNode, Pod
        from repro.mesh import AmbientMesh, IstioMesh, ambient, istio

        for mesh_cls in (IstioMesh, AmbientMesh, CanalMesh):
            self.wrap(mesh_cls, "open_connection", "mesh.connections_opened")
        # Istio and Ambient run crypto.tls.mtls_handshake through their
        # own module globals; Canal runs one handshake per proxy.
        for module in (istio, ambient):
            self.wrap(module, "mtls_handshake", "crypto.handshakes")
        self.wrap(CanalMesh, "_handshake", "crypto.handshakes")
        self.wrap(ClusterNode, "fits", "k8s.fit_checks")
        self.wrap(Pod, "total_resources", "k8s.resource_sums")
        self.wrap(Cluster, "endpoints", "k8s.endpoint_scans")
        # One fluid flow step visits every (service, shard slot); the
        # per-session twin overrides the step and is counted apart.
        self.wrap(FleetModel, "_advance_flows", "fleet.slot_updates",
                  weight=lambda model, *_: sum(
                      len(slots) for slots in model.slot_sessions))
