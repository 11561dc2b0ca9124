"""Measure a commit's baseline: every workload over several seeds.

Usage, from the root of the repository::

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json
    python3 perfbench/baseline.py --seeds 7 --trace 1 --workload fleet_chaos

Runs ``run.py`` once per (workload, seed), one after another, and
records for each metric the median and quartiles of its values, as
``statistics.quantiles(values, n=4)`` gives them, and the spread: the
distance between the quartiles as a share of the median. For the
end-to-end metrics that spread is what each metric's bound in
``BENCHMARK.json`` must exceed.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from run import ROOT, WORKLOADS, source_identity


def parse_seeds(text: str) -> list:
    """``"1-10"`` or ``"3,5,8"`` to a list of seeds."""
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(part) for part in text.split(",")]


def describe(values: list) -> dict:
    entry = {"median": statistics.median(values), "n": len(values)}
    if len(values) >= 2:
        low, _, high = statistics.quantiles(values, n=4)
        entry.update(q1=low, q3=high,
                     spread=(high - low) / entry["median"]
                     if entry["median"] else 0.0)
    return entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="30")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--out", help="write the summary JSON here")
    options = parser.parse_args(argv)
    workloads = options.workload or list(WORKLOADS)
    report = {"source": source_identity(), "nproc": os.cpu_count(),
              "python": platform.python_version(),
              "date": time.strftime("%Y-%m-%d", time.gmtime()),
              "seconds": float(options.seconds), "trace": options.trace,
              "workloads": {}, "repetitions": {}}
    status = 0
    for workload in workloads:
        values, units, repetitions = {}, {}, {}
        for seed in parse_seeds(options.seeds):
            done = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", options.seconds, "--trace", options.trace],
                cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            for line in lines:
                if line.startswith("repetitions "):
                    repetitions[seed] = json.loads(line.split(" ", 1)[1])
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = {"correct": False, "metrics": {}}
            if done.returncode != 0 or not result["correct"]:
                status = 1
                print(f"{workload} seed {seed}: failed\n{done.stderr}",
                      file=sys.stderr)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={metric['value']:.6g}"
                for name, metric in result["metrics"].items()), flush=True)
        report["workloads"][workload] = {
            name: dict(describe(series), unit=units[name])
            for name, series in values.items()}
        report["repetitions"][workload] = repetitions
    for workload, metrics in report["workloads"].items():
        for name, entry in metrics.items():
            if "spread" in entry:
                print(f"{workload:15s} {name:28s} median={entry['median']:.6g}"
                      f" spread={entry['spread']:.4f}")
    if options.out:
        with open(options.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
