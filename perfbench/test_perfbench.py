"""The benchmark's own tests, at reduced sizes.

Run from the root of the repository::

    python3 -m pytest perfbench/test_perfbench.py -q

Each test starts ``run.py`` as a user would, with ``--small`` sizes and
a one-second budget, so the run makes the minimum number of
repetitions.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

from run import HERE, ROOT, WORKLOADS

OUT = os.path.join(HERE, "out")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    BENCHMARK = json.load(handle)


def bench(workload, *args, cwd=ROOT):
    """Run the benchmark; (exit code, stdout lines, parsed last line)."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--small", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return done.returncode, lines, result


def declared(kind):
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[kind]}


def printed(result):
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


def test_declared_workloads_are_the_ones_run():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_printed_with_its_unit(workload):
    code, _, result = bench(workload)
    assert code == 0 and result["correct"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert printed(result) == declared("end_to_end")
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_fleet_chaos_fails_no_operation_at_other_seeds():
    # The sessions its faults disrupt are simulated output, not failures,
    # so the failure count does not depend on the seed.
    for seed in ("8", "9"):
        code, _, result = bench("fleet_chaos", "--seed", seed)
        assert code == 0 and result["correct"]
        assert result["failed"] == 0
        assert result["metrics"]["ok_rate"]["value"] == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_layer_metric_and_adds_up(workload):
    code, _, result = bench(workload, "--trace", "1")
    assert code == 0 and result["correct"]
    assert printed(result) == declared("per_layer")
    metrics = {name: metric["value"]
               for name, metric in result["metrics"].items()}
    layers = sum(value for name, value in metrics.items()
                 if name.endswith(".self_s"))
    # The layers' sampled CPU seconds add up to the run phase's CPU
    # time, short of the tail after the last sample; a sampler that
    # loses samples undercounts, one that loses frames charges "other".
    assert 0.9 <= metrics["trace.coverage"] <= 1.0 + 1e-9
    assert metrics["trace.samples"] / layers >= 50
    assert metrics["other.self_s"] <= 0.05 * layers
    assert layers <= metrics["trace.run_s"] * 1.05
    with open(os.path.join(OUT, f"{workload}-seed7.trace.json"),
              encoding="utf-8") as handle:
        trace = json.load(handle)
    spans = trace["runs"][0]["spans"]
    names = [span["name"] for span in spans if span["parent"] is None]
    assert names == ["import", "build", "run", "check"]
    assert any(span["parent"] == names.index("run") for span in spans)


def test_largest_layer_per_workload():
    expected = {"mesh_steady": "simcore", "cluster_churn": "k8s",
                "fleet_chaos": "fleet"}
    for workload, layer in expected.items():
        _, _, result = bench(workload, "--trace", "1")
        self_s = {name.split(".")[0]: metric["value"]
                  for name, metric in result["metrics"].items()
                  if name.endswith(".self_s")}
        assert max(self_s, key=self_s.get) == layer, (workload, self_s)


def test_other_seed_changes_inputs_not_metric_names():
    names, digests = {}, {}
    for seed in ("7", "8"):
        code, _, result = bench("cluster_churn", "--seed", seed)
        assert code == 0 and result["correct"]
        names[seed] = printed(result)
        done = subprocess.run(
            [sys.executable, "perfbench/worker.py", "--workload",
             "cluster_churn", "--seed", seed, "--small", "--origin-ns", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180,
            env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))
        digests[seed] = json.loads(done.stdout)["digest"]
    assert names["7"] == names["8"]
    assert digests["7"] != digests["8"]


def test_wrong_reference_fails_the_check(monkeypatch, capsys):
    import run

    reference = run.load_reference()
    reference["mesh_steady@small"]["digest"] = "0" * 64
    os.makedirs(OUT, exist_ok=True)
    wrong = os.path.join(OUT, "wrong-reference.json")
    with open(wrong, "w", encoding="utf-8") as handle:
        json.dump(reference, handle)
    monkeypatch.setattr(run, "REFERENCE", wrong)
    code = run.main(["--workload", "mesh_steady", "--small",
                     "--seconds", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["ok_rate"]["value"] == 0.0


def test_without_the_program_exits_nonzero_and_prints_nothing():
    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        code, lines, _ = bench("mesh_steady", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert code != 0
    assert lines == []
