"""The repository's benchmark: run one workload, check it, print metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload mesh_steady --seed 7 --seconds 30
    python3 perfbench/run.py --workload cluster_churn --trace 1

Workloads (see ``workloads.py``): ``mesh_steady``, ``mesh_shortflow``,
``cluster_churn``, ``fleet_chaos``. The command repeats the workload in
fresh single-threaded interpreters (``worker.py``) until ``--seconds``
have passed, at least three times, all pinned to one CPU, and reports
host times scaled to a reference speed by a calibration kernel timed
between the repetitions (``calibration.py``). Every repetition checks
its simulated output. At the
default seed, the digest of the simulated summary must also equal the
one recorded in ``reference.json`` (``--write-reference`` records it,
per workload and size).

With ``--trace 0`` the last line of standard output is a JSON object
with the end-to-end metrics: ``wall_s`` (process start to checked
output), ``setup_s`` (process start to the first measured operation),
``work_per_s`` (simulated operations per host second of the run
phase), ``peak_rss_mb`` and ``ok_rate`` (1 - failed / attempted).

With ``--trace 1`` the repetitions alternate between untraced and
traced runs, and the JSON carries the per-layer metrics: phase times,
each layer's sampled CPU self time in the traced run phase, the share
of the run phase's CPU time those samples cover, exact counts, the
tracing overhead and the calibration kernel's mean time. The spans and
tables of every traced repetition are written to
``perfbench/out/<workload>-seed<seed>.trace.json``.
"""

import argparse
import compileall
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from statistics import fmean, median

# The script's own directory is on sys.path.
from calibration import REFERENCE_S, kernel, pin_to_one_cpu
from tracing import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DEFAULT_SEED = 7
REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("mesh_steady", "mesh_shortflow", "cluster_churn", "fleet_chaos")
#: A run gives up starting repetitions past this many seconds, so it
#: ends well inside three minutes even when ``--seconds`` is large.
TIME_LIMIT_S = 150.0

COUNT_METRICS = ("simcore.events", "simcore.calendar_sims",
                 "mesh.connections_opened", "mesh.config_pushes",
                 "mesh.config_bytes", "crypto.handshakes", "k8s.fit_checks",
                 "k8s.resource_sums", "k8s.endpoint_scans",
                 "fleet.slot_updates", "fleet.des_events",
                 "fleet.sessions_disrupted", "faults.injected")


def source_identity() -> str:
    """The git commit of the checkout, or a digest of its sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=30)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for folder, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "src-" + digest.hexdigest()[:12]


def spawn(options, traced: bool, deadline: float) -> dict:
    """One repetition in a fresh interpreter; its parsed JSON result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env.pop("REPRO_SIM_AGENDA", None)
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", options.workload, "--seed", str(options.seed)]
    if traced:
        command.append("--trace")
    if options.small:
        command.append("--small")
    # simlint: ignore[DET001] host time is what the benchmark measures
    timeout = max(1.0, deadline - time.monotonic())
    # simlint: ignore[DET001] host time is what the benchmark measures
    command += ["--origin-ns", str(time.monotonic_ns())]
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited {done.returncode}:\n"
                           + done.stderr[-4000:])
    return json.loads(done.stdout.strip().splitlines()[-1])


def repeat(options) -> tuple:
    """Run repetitions for ``--seconds``; (untraced, traced) results.

    The calibration kernel runs before the first repetition and after
    each one. Every result carries the mean of the kernel times taken
    during and on either side of it (``calibration_s``) and the factor
    that scales its host times to the reference speed (``scale``; see
    ``calibration.py``).
    """
    # simlint: ignore[DET001] host time is what the benchmark measures
    started = time.monotonic()
    deadline = started + TIME_LIMIT_S
    plain, traced = [], []
    kinds = (plain, traced) if options.trace else (plain,)
    minimum = 1 if options.trace else 3
    before = kernel()
    while True:
        for results in kinds:
            result = spawn(options, results is traced, deadline)
            after = kernel()
            times = [before, *result["calibrations"], after]
            result["calibration_s"] = fmean(times)
            result["scale"] = fmean(REFERENCE_S / t for t in times)
            results.append(result)
            before = after
        # simlint: ignore[DET001] host time is what the benchmark measures
        elapsed = time.monotonic() - started
        per_round = elapsed / len(plain)
        if len(plain) >= minimum and (
                elapsed + per_round > options.seconds
                or elapsed + per_round > TIME_LIMIT_S):
            return plain, traced


def reference_key(options) -> str:
    return options.workload + ("@small" if options.small else "")


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)


def verify(options, results) -> list:
    """Problems across all repetitions; empty when the output is right."""
    problems = []
    for result in results:
        problems.extend(result["problems"])
    digests = {result["digest"] for result in results}
    if len(digests) != 1:
        problems.append("repetitions disagree on the simulated summary")
    if options.seed == DEFAULT_SEED:
        entry = load_reference().get(reference_key(options))
        if entry is None:
            problems.append(f"no reference for {reference_key(options)}")
        elif entry["digest"] not in digests:
            changed = sorted(
                key for key in entry["summary"]
                if entry["summary"][key] != results[0]["summary"].get(key))
            problems.append(
                f"summary digest {results[0]['digest'][:12]} != reference "
                f"{entry['digest'][:12]}; changed: {', '.join(changed)}")
    return problems


def end_to_end(plain, ok_rate: float) -> dict:
    """Host times scaled to the reference speed (``calibration.py``).

    Means over the repetitions, except for ``setup_s``, the median of
    its repetitions' values: a second in which start-up waits on the
    disk is not the program's cost, and ``setup_s`` has few seconds
    over which to average it out.
    """
    return {
        "wall_s": (fmean(r["scale"] * r["wall_s"] for r in plain), "s"),
        "setup_s": (median(r["scale"] * r["setup_s"] for r in plain), "s"),
        "work_per_s": (fmean(r["ops"] / (r["scale"] * r["phases"]["run_s"])
                             for r in plain), "ops/s"),
        "peak_rss_mb": (fmean(r["peak_rss_mb"] for r in plain), "MiB"),
        "ok_rate": (ok_rate, "ratio"),
    }


def per_layer(plain, traced, error_rate: float) -> dict:
    """Phase times scaled like the end-to-end ones; the traced run's
    times (``*.self_s``, ``trace.run_s``) as measured, in CPU and wall
    seconds, so that they can be compared with each other."""
    metrics = {}
    for phase in ("import_s", "build_s", "run_s", "check_s"):
        metrics[f"phase.{phase}"] = (
            fmean(r["scale"] * r["phases"][phase] for r in plain), "s")
    for layer in LAYERS + ("other",):
        metrics[f"{layer}.self_s"] = (
            fmean(r["layers"][layer] for r in traced), "s")
    counts = traced[0]["counts"]
    for name in COUNT_METRICS:
        unit = "bytes" if name.endswith("_bytes") else "count"
        metrics[name] = (counts.get(name, 0), unit)
    ops = traced[0]["ops"]
    metrics["simcore.events_per_op"] = (
        counts["simcore.events"] / ops if ops else 0.0, "events/op")
    pods = counts.get("k8s.pods_created", 0)
    metrics["k8s.fit_checks_per_pod"] = (
        counts["k8s.fit_checks"] / pods if pods else 0.0, "checks/pod")
    metrics["k8s.resource_sums_per_pod"] = (
        counts["k8s.resource_sums"] / pods if pods else 0.0, "sums/pod")
    metrics["trace.run_s"] = (
        fmean(r["phases"]["run_s"] for r in traced), "s")
    metrics["trace.samples"] = (
        fmean(r["samples"] for r in traced), "count")
    metrics["trace.coverage"] = (
        fmean(r["coverage"] for r in traced), "ratio")
    metrics["trace.overhead"] = (
        fmean(r["scale"] * r["wall_s"] for r in traced)
        / fmean(r["scale"] * r["wall_s"] for r in plain), "ratio")
    metrics["host.calibration_s"] = (
        fmean(r["calibration_s"] for r in plain + traced), "s")
    metrics["error_rate"] = (error_rate, "ratio")
    return metrics


def write_trace(options, header: dict, traced) -> str:
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir,
                        f"{options.workload}-seed{options.seed}.trace.json")
    runs = [{key: result[key] for key in ("phases", "layers", "counts",
                                          "spans", "wall_s")}
            for result in traced]
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"header": header, "runs": runs}, handle, indent=1)
        handle.write("\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="reduced sizes, for the benchmark's own tests")
    parser.add_argument("--write-reference", action="store_true",
                        help="record this workload's digest at the "
                             "default seed in reference.json, then exit")
    options = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2

    if options.write_reference:
        if options.seed != DEFAULT_SEED:
            parser.error("--write-reference records the default seed")
        # simlint: ignore[DET001] host time is what the benchmark measures
        result = spawn(options, False, time.monotonic() + TIME_LIMIT_S)
        if result["problems"]:
            print("\n".join(result["problems"]), file=sys.stderr)
            return 1
        try:
            reference = load_reference()
        except FileNotFoundError:
            reference = {}
        reference[reference_key(options)] = {"digest": result["digest"],
                                             "summary": result["summary"]}
        with open(REFERENCE, "w", encoding="utf-8") as handle:
            json.dump(reference, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"recorded {reference_key(options)} {result['digest'][:12]}")
        return 0

    pin_to_one_cpu()
    # Compile the sources first, so no repetition pays for bytecode.
    for folder in (os.path.join(SRC, "repro"), HERE):
        compileall.compile_dir(folder, quiet=1)
    try:
        plain, traced = repeat(options)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as error:
        print(f"perfbench: {options.workload} failed: {error}",
              file=sys.stderr)
        return 1
    problems = verify(options, plain + traced)
    attempted = sum(r["attempted"] for r in plain)
    failed = attempted if problems else sum(r["failed"] for r in plain)
    error_rate = failed / attempted if attempted else 1.0
    header = {"workload": options.workload, "seed": options.seed,
              "repetitions": len(plain), "traced": len(traced),
              "nproc": os.cpu_count(),
              "python": platform.python_version(),
              "source": source_identity()}
    print("perfbench " + " ".join(f"{k}={v}" for k, v in header.items()))
    print("repetitions " + json.dumps(
        {"wall_s": [r["wall_s"] for r in plain],
         "setup_s": [r["setup_s"] for r in plain],
         "run_s": [r["phases"]["run_s"] for r in plain],
         "scale": [r["scale"] for r in plain]}))
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    if options.trace:
        metrics = per_layer(plain, traced, error_rate)
        print(f"trace written to {write_trace(options, header, traced)}")
    else:
        metrics = end_to_end(plain, 1.0 - error_rate)
    print(json.dumps({
        "correct": not problems,
        "attempted": max(1, attempted),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
