"""Self-tests of the benchmark: an injected slowdown shows at the right
layer, counters repeat exactly per seed, and wrong outputs fail the run.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
The workloads run at reduced sizes here; the command uses the full ones.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
import time

import pytest

import repro.core.pipeline as pipeline_mod
import repro.shard.api as shard_api
from perfbench import run, workloads
from repro.serving.service import RESULT_STAGE

SLEEP_S = 0.2
FIELDS = ("window", "music", "star")
CORE_LAYERS = ("geometry.deploy_s", "network.link_s", "core.stage1_s",
               "core.stage2_s", "core.stage3_s", "core.refine_s",
               "core.byproducts_s")
#: Exact counts: they must not depend on timing.
COUNTER_PREFIXES = ("core.", "shard.", "serving.", "runtime.receptions",
                    "rounds", "broadcasts_per_node", "homotopy_ok_ratio")


def small_workloads(workdir):
    return {
        "paper_fields": workloads.PaperFields(fields=FIELDS, num_nodes=300),
        "mega_sharded": workloads.MegaSharded(spec="mega_smoke", scale=1.0,
                                              grid="2x2", jobs=2),
        "serve_zipf": workloads.ServeZipf(workdir, requests=60,
                                          catalog_size=4, num_nodes=200),
        "distributed_sim": workloads.DistributedSim(num_nodes=300),
    }


def values(report):
    return {name: value for name, (value, _) in report.metrics.items()}


def test_injected_sleep_shows_at_its_layer(monkeypatch):
    wl = workloads.PaperFields(fields=FIELDS, num_nodes=300)
    inputs = wl.setup(seed=3)
    wl.trace(inputs)  # warm imports and lazy engine set-up
    base_trace = values(wl.trace(inputs))
    base_rate = values(wl.measure(inputs, 0.0))["fields_per_s"]

    slow = pipeline_mod.identify_loops

    def sleepy_identify_loops(*args, **kwargs):
        time.sleep(SLEEP_S)
        return slow(*args, **kwargs)

    monkeypatch.setattr(pipeline_mod, "identify_loops", sleepy_identify_loops)
    slow_trace = values(wl.trace(inputs))
    slow_rate = values(wl.measure(inputs, 0.0))["fields_per_s"]

    injected = SLEEP_S * len(FIELDS)
    rise = slow_trace["core.loops_s"] - base_trace["core.loops_s"]
    assert 0.9 * injected <= rise <= 1.5 * injected
    assert slow_rate < base_rate * 0.9
    for layer in CORE_LAYERS:
        assert abs(slow_trace[layer] - base_trace[layer]) < 0.25 * injected, \
            layer


@pytest.mark.parametrize("name", ["paper_fields", "mega_sharded",
                                  "serve_zipf", "distributed_sim"])
def test_counters_repeat_exactly_per_seed(name, tmp_path):
    def counters():
        wl = small_workloads(tmp_path)[name]
        report = wl.trace(wl.setup(seed=5))
        assert report.failures == []
        return {key: value for key, value in values(report).items()
                if key.startswith(COUNTER_PREFIXES) and not key.endswith("_s")}

    first = counters()
    assert first
    assert counters() == first


def run_small(monkeypatch, capsys, name, workload, trace=0):
    monkeypatch.setattr(run, "make_workload", lambda *args: workload)
    code = run.main(["--workload", name, "--seed", "2", "--seconds", "0",
                     "--trace", str(trace)])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


@pytest.mark.parametrize("name", ["paper_fields", "mega_sharded",
                                  "serve_zipf", "distributed_sim"])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_in_its_unit(name, trace, monkeypatch, capsys,
                                           tmp_path):
    code, result = run_small(monkeypatch, capsys, name,
                             small_workloads(tmp_path)[name], trace)
    assert code == 0 and result["correct"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = run.declared_metrics()[trace]
    assert {metric: value["unit"] for metric, value
            in result["metrics"].items()} == declared
    if not trace:
        assert all(value["value"] > 0 for value in result["metrics"].values())


def test_wrong_sharded_skeleton_fails_the_run(monkeypatch, capsys, tmp_path):
    refine = shard_api.refine_skeleton

    def lossy_refine(*args, **kwargs):
        skeleton = refine(*args, **kwargs)
        skeleton.edges.discard(min(skeleton.edges, key=sorted))
        return skeleton

    monkeypatch.setattr(shard_api, "refine_skeleton", lossy_refine)
    code, result = run_small(monkeypatch, capsys, "mega_sharded",
                             small_workloads(tmp_path)["mega_sharded"])
    assert code == 1 and result["correct"] is False


def test_poisoned_cache_entry_fails_the_run(monkeypatch, capsys, tmp_path):
    wl = small_workloads(tmp_path)["serve_zipf"]
    setup = wl.setup

    def poisoned_setup(seed):
        inputs = setup(seed)
        first, second = inputs.networks[:2]
        wrong = dataclasses.replace(workloads.extract_skeleton(second),
                                    network=first)
        inputs.cache.put(RESULT_STAGE,
                         (first.content_hash(), workloads.SkeletonParams()),
                         wrong)
        return inputs

    monkeypatch.setattr(wl, "setup", poisoned_setup)
    code, result = run_small(monkeypatch, capsys, "serve_zipf", wl)
    assert code == 1 and result["correct"] is False


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_fields",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_failed_operation_fails_the_run(monkeypatch, capsys, tmp_path):
    distributed = workloads.extract_skeleton_distributed

    def async_raises(network, scheduler="sync", **kwargs):
        if scheduler == "async":
            raise RuntimeError("injected scheduler failure")
        return distributed(network, scheduler=scheduler, **kwargs)

    monkeypatch.setattr(workloads, "extract_skeleton_distributed",
                        async_raises)
    code, result = run_small(monkeypatch, capsys, "distributed_sim",
                             small_workloads(tmp_path)["distributed_sim"])
    assert code == 1 and result["correct"] is False
    assert result["failed"] >= 1
