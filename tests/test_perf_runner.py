"""The executor's fail-fast mode and its determinism contract.

Worker-count resolution, serial/parallel bit-identity of
:meth:`ResilientRunner.map_results`, fail-fast propagation of a task's
own exception, the task-context plumbing, and the end-to-end contract on
real runners: ``run_fig4_scenarios`` and the figure suite produce
row-identical reports serially, with ``jobs=2``, and against a cold or
warm artifact cache.
"""

import os
import time
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.experiments import run_fig1_pipeline, run_fig4_scenarios
from repro.experiments.suite import run_figure_suite, suite_shards
from repro.observability import Tracer, build_metrics
from repro.perf import ArtifactCache
from repro.resilience import ResilientRunner, resolve_jobs, task_context

SCALE = 0.1  # keep the end-to-end parity runs quick
FIG4_SUBSET = ["window", "one_hole"]  # two scenarios: parity, not coverage


def _square(x):  # module-level: must pickle into pool workers
    return x * x


def _context_probe(config):
    cache, _tracer = task_context(config.get("cache_dir"))
    if cache is None:
        return None
    return cache.get_or_build("probe", (config["key"],),
                              lambda: f"built-{config['key']}")


def _current_context(_config):
    return task_context()


def _missing_repro(config):
    raise ModuleNotFoundError("No module named 'repro'", name="repro")


def _fail_odd(config):
    # Task 1 fails last (after a stall), task 3 first: the lower index
    # must still be the one raised.
    if config == 1:
        time.sleep(0.3)
    if config % 2:
        raise ValueError(f"task {config} failed")
    return config


def _hard_exit(config):
    if config == 0:
        os._exit(1)  # kills the worker process, poisons the pool
    return config


# -- worker-count resolution ----------------------------------------------


class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 5

    def test_rejects_garbage_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            resolve_jobs(None)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            resolve_jobs(0)

    def test_effective_jobs_defaults_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        # A call that was not asked for parallelism must not fork.
        assert resolve_jobs(None) == 1
        assert ResilientRunner().jobs == 1
        assert resolve_jobs(4) == 4
        monkeypatch.setenv("REPRO_JOBS", "2")
        assert resolve_jobs(None) == 2
        assert ResilientRunner().jobs == 2


# -- fail-fast fan-out -----------------------------------------------------


class TestParallelRunner:
    def test_serial_and_parallel_identical(self):
        configs = list(range(20))
        serial = ResilientRunner(1).map_results(_square, configs)
        parallel = ResilientRunner(2).map_results(_square, configs)
        assert serial == parallel == [x * x for x in configs]

    def test_map_preserves_config_order(self):
        # Uneven work sizes: completion order != submission order.
        configs = [2000, 1, 1500, 2, 900]
        assert ResilientRunner(3).map_results(_square, configs) == \
            [x * x for x in configs]

    def test_single_config_runs_inline(self):
        assert ResilientRunner(8).map_results(_square, [3]) == [9]


class TestFailFast:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_task_exception_propagates_unchanged(self, jobs):
        with pytest.raises(ModuleNotFoundError) as info:
            ResilientRunner(jobs).map_results(_missing_repro, [0, 1, 2])
        assert type(info.value) is ModuleNotFoundError
        assert info.value.name == "repro"
        assert info.value.args == ("No module named 'repro'",)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_lowest_failed_index_is_raised(self, jobs):
        with pytest.raises(ValueError, match="task 1 failed"):
            ResilientRunner(jobs).map_results(_fail_odd, [0, 1, 2, 3])

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_attempt_and_no_counters(self, jobs):
        tracer = Tracer(record_events=False)
        runner = ResilientRunner(jobs, tracer=tracer)
        outcomes = runner.map(_square, [1, 2, 3], stage="s")
        assert [(o.ok, o.attempts, o.retries) for o in outcomes] == \
            [(True, 1, 0)] * 3
        assert runner.stage_counters == {}
        report = build_metrics(tracer)
        assert report.task_retries == report.task_failures == {}

    def test_worker_death_raises(self):
        with pytest.raises(BrokenProcessPool):
            ResilientRunner(2).map(_hard_exit, [0, 1, 2])


# -- task context ---------------------------------------------------------


class TestTaskContext:
    def test_set_and_restore(self):
        cache, tracer = ArtifactCache(), Tracer(record_events=False)
        previous = task_context()
        runner = ResilientRunner(1, cache=cache, tracer=tracer)
        assert runner.map_results(_current_context, [0]) == [(cache, tracer)]
        assert task_context() == previous
        # Restored even when the task raises.
        with pytest.raises(ModuleNotFoundError):
            runner.map_results(_missing_repro, [0])
        assert task_context() == previous

    def test_cache_dir_fallback_rebuilds_disk_cache(self, tmp_path):
        # The spawn-worker path: no inherited context, only a cache_dir.
        ArtifactCache(disk_dir=tmp_path).get_or_build(
            "probe", ("k",), lambda: "warmed")
        value, = ResilientRunner(1).map_results(
            _context_probe, [{"cache_dir": str(tmp_path), "key": "k"}])
        assert value == "warmed"  # served from the shared disk tier

    def test_workers_share_disk_tier(self, tmp_path):
        configs = [{"cache_dir": str(tmp_path), "key": i % 2}
                   for i in range(6)]
        results = ResilientRunner(2).map_results(_context_probe, configs)
        assert results == ["built-0", "built-1"] * 3


# -- end-to-end determinism on real runners -------------------------------


class TestRunnerParity:
    @pytest.fixture(scope="class")
    def reference(self):
        return run_fig4_scenarios(scale=SCALE, names=FIG4_SUBSET)

    def test_fig4_parallel_bit_identical(self, reference):
        parallel = run_fig4_scenarios(scale=SCALE, names=FIG4_SUBSET, jobs=2)
        assert parallel.rows == reference.rows
        assert parallel.notes == reference.notes

    def test_fig4_cached_bit_identical_cold_and_warm(self, reference, tmp_path):
        cache = ArtifactCache(disk_dir=tmp_path)
        cold = run_fig4_scenarios(scale=SCALE, names=FIG4_SUBSET, cache=cache)
        tracer = Tracer(record_events=False)
        warm = run_fig4_scenarios(scale=SCALE, names=FIG4_SUBSET,
                                  cache=cache, tracer=tracer)
        assert cold.rows == warm.rows == reference.rows
        report = build_metrics(tracer)
        assert report.cache_hit_rate >= 0.8  # acceptance: warm re-run
        assert report.total_cache_misses == 0

    def test_fig4_cached_parallel_bit_identical(self, reference, tmp_path):
        cache = ArtifactCache(disk_dir=tmp_path)
        parallel = run_fig4_scenarios(scale=SCALE, names=FIG4_SUBSET,
                                      jobs=2, cache=cache)
        assert parallel.rows == reference.rows


class TestSuite:
    def test_shards_cover_selected_runners_in_order(self):
        shards = suite_shards(("fig1", "fig4"))
        assert [runner for _, runner, _ in shards] == ["fig1"] + ["fig4"] * 10
        keys = [key for key, _, _ in shards]
        assert keys == sorted(keys)

    def test_unknown_runner_rejected(self):
        with pytest.raises(ValueError, match="unknown suite runner"):
            suite_shards(("fig1", "nope"))

    def test_suite_merge_matches_direct_runner(self):
        (merged,) = run_figure_suite(scale=SCALE, runners=["fig1"])
        direct = run_fig1_pipeline(scale=SCALE)
        assert merged.rows == direct.rows
        assert merged.notes == direct.notes

    def test_suite_parallel_and_cached_identical(self, tmp_path):
        serial = run_figure_suite(scale=SCALE, runners=["fig1", "fig6"])
        cache = ArtifactCache(disk_dir=tmp_path)
        parallel = run_figure_suite(scale=SCALE, runners=["fig1", "fig6"],
                                    jobs=2, cache=cache)
        assert [r.rows for r in parallel] == [r.rows for r in serial]
        assert [r.notes for r in parallel] == [r.notes for r in serial]
