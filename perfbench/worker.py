"""One workload run in a fresh, single-threaded interpreter.

``run.py`` starts this script once per repetition, so every repetition
pays interpreter start-up and imports, and its peak memory is its own.
It prints one JSON line: phase times measured from the moment
``run.py`` started the process (``--origin-ns``, a ``time.monotonic_ns``
reading, which is system-wide on Linux), the calibration kernel's times
(see ``calibration.py``), peak RSS, the checked outcome and, with
``--trace``, the spans, per-layer self times and call counts
(see ``tracing.py``).
"""

import argparse
import hashlib
import json
import os
import resource
import sys

# The script's own directory is on sys.path.
from calibration import PeriodicCalibration
from tracing import Spans

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def summary_digest(summary) -> str:
    """SHA-256 of the canonical JSON of a simulated summary."""
    text = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--origin-ns", type=int, required=True)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--trace", action="store_true")
    options = parser.parse_args(argv)
    spans = Spans(options.origin_ns)
    # In a traced run the sampler would charge the kernel to "other".
    calibration = None if options.trace else PeriodicCalibration(spans)
    if calibration is not None:
        calibration.start()

    with spans.span("import"):
        from workloads import WORKLOADS
    workload = WORKLOADS[options.workload](options.seed, options.small)
    with spans.span("build"):
        workload.build()
    sampler = counter = None
    if options.trace:
        from tracing import CallCounter, LayerSampler
        counter = CallCounter()
        counter.install()
        sampler = LayerSampler(os.path.join(SRC, "repro", ""))
    with spans.span("run"):
        if sampler is not None:
            sampler.start()
        try:
            workload.run(spans.span)
        finally:
            if sampler is not None:
                sampler.stop()
    with spans.span("check"):
        outcome = workload.check()
        digest = summary_digest(outcome.summary)
    if calibration is not None:
        calibration.stop()

    ends = {record["name"]: record["end"] for record in spans.records
            if record["parent"] is None}
    phases = {"import_s": ends["import"],
              "build_s": ends["build"] - ends["import"],
              "run_s": ends["run"] - ends["build"],
              "check_s": ends["check"] - ends["run"]}
    result = {
        "wall_s": ends["check"],
        "setup_s": ends["build"],
        "phases": phases,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops": outcome.ops,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "summary": outcome.summary,
        "digest": digest,
        "calibrations": calibration.times if calibration is not None else [],
    }
    if options.trace:
        sims = workload.sims
        counts = dict(outcome.counts)
        counts.update(counter.counts)
        counts["simcore.events"] = sum(sim._sequence for sim in sims)
        counts["simcore.calendar_sims"] = sum(
            1 for sim in sims if sim.agenda_kind == "calendar")
        result["counts"] = counts
        result["layers"] = dict(sampler.cpu_s)
        result["coverage"] = sampler.coverage()
        result["samples"] = sampler.samples
        result["spans"] = spans.records
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
