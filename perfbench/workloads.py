"""The four benchmark workloads.

Each workload generates all of its inputs from the run seed in
:meth:`setup`, measures end-to-end numbers untraced in :meth:`measure`,
measures per-layer numbers in :meth:`trace` (one untraced unit, then the
same unit traced, so the gap is the tracing overhead), and verifies the
program's outputs outside every timed region.  Both ``measure`` and
``trace`` return a :class:`Report`; a non-empty ``Report.failures`` makes
the command exit non-zero.

Layers are timed from outside: spans around calls into the public
functions of ``repro.geometry``/``repro.network`` (deployment and link
building), ``repro.core`` (the four stages), ``repro.shard``,
``repro.perf`` (the artifact cache), ``repro.serving`` and
``repro.runtime``.
"""

from __future__ import annotations

import random
import shutil
import sys
import tempfile
import time
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import repro.core.distributed as distributed_mod
import repro.core.pipeline as pipeline_mod
import repro.network.scenarios as scenarios_mod
import repro.shard.api as shard_api
from repro.analysis.metrics import network_wraps_point, preserved_holes
from repro.core import (SkeletonParams, SkeletonResult, compute_indices,
                        extract_skeleton, extract_skeleton_distributed,
                        find_critical_nodes)
from repro.geometry import Point
from repro.network import PAPER_SCENARIOS, SensorNetwork, UnitDiskRadio, \
    get_mega_spec
from repro.perf import ArtifactCache
from repro.serving import ServiceConfig, SkeletonService
from repro.shard import diff_results, run_sharded

from .probe import Probe, TimedCache, derive_seed, nearest_rank, \
    peak_rss_mb, repeat_until, tail_percentile, timed

#: The stage functions ``SkeletonExtractor.extract`` calls, in call order,
#: with the layer each is charged to.  They are looked up on
#: ``repro.core.pipeline`` at call time — the module the extractor itself
#: resolves them from — so the traced split always times exactly the
#: functions the untraced run executes.
CORE_STAGES = (
    ("compute_indices", "core.stage1_s"),
    ("find_critical_nodes", "core.stage1_s"),
    ("build_voronoi", "core.stage2_s"),
    ("build_coarse_skeleton", "core.stage3_s"),
    ("detect_boundary_nodes", "core.byproducts_s"),
    ("identify_loops", "core.loops_s"),
    ("refine_skeleton", "core.refine_s"),
    ("segmentation_from_voronoi", "core.byproducts_s"),
)

#: serve_zipf: share of requests that name a network never served before.
FRESH_SHARE = 0.03
#: serve_zipf: share of a catalog deployment's sensors that fail to make a
#: fresh network.
FAILED_SHARE = 0.01
#: serve_zipf: closed-loop clients, i.e. submits per burst.
CLIENTS = 4
#: serve_zipf: exponent of the Zipf popularity over the catalog.
ZIPF_S = 1.2
#: serve_zipf: entries the cache's memory tier holds (fewer than the catalog).
MEMORY_ENTRIES = 4
#: mega_sharded: fields built per set-up and run one after another.
MEGA_FIELDS = 4
#: mega_sharded: the pool size ``perf.parallel_speedup`` compares with one
#: worker.
POOL_JOBS = 2
#: distributed_sim: the paper fields run under both schedulers.
DISTRIBUTED_FIELDS = ("window", "two_holes")
#: distributed_sim: deployments of each field per set-up.
DEPLOYMENTS = 3


@dataclass
class Report:
    """What one run measured and whether its outputs were correct."""

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: context printed beside the metrics (percentile used, sample counts).
    info: Dict[str, object] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)

    def add(self, name: str, value, unit: str) -> None:
        self.metrics[name] = (value, unit)

    def add_layers(self, probe: Probe, names, unit: str = "s") -> None:
        for name in names:
            self.add(name, probe.seconds.get(name, 0.0), unit)

    def add_peak_rss(self) -> None:
        """Record the peak RSS so far; called when the timed region ends,
        before the output checks run their own reference extractions."""
        self.add("peak_rss_mb", peak_rss_mb(), "MB")


def attempt(fn, *args, **kwargs):
    """``(ok, value)``: a raised exception is a failed operation, reported
    on stderr and counted; any failed operation fails the run."""
    try:
        return True, fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - counted as a failed operation
        print(f"failed operation: {type(exc).__name__}: {exc}", file=sys.stderr)
        return False, None


def overhead_ratio(traced_s: float, untraced_s: float) -> float:
    return traced_s / untraced_s - 1.0


# ---------------------------------------------------------------------------
# paper_fields
# ---------------------------------------------------------------------------

class PaperFields:
    """The paper's 11 evaluation fields, built and extracted one after
    another: closed loop, one client, no cache."""

    name = "paper_fields"
    setup_repeats = 3
    min_reps = 1

    def __init__(self, fields=None, num_nodes: Optional[int] = None):
        self.fields = tuple(fields) if fields else tuple(PAPER_SCENARIOS)
        #: ``None`` keeps the paper's node counts.
        self.num_nodes = num_nodes

    def setup(self, seed: int):
        inputs = []
        for name in self.fields:
            scenario = PAPER_SCENARIOS[name]
            if self.num_nodes is not None:
                scenario = scenario.scaled(self.num_nodes)
            inputs.append((scenario, derive_seed(seed, self.name, name)))
        return inputs

    @staticmethod
    def _request(scenario, field_seed):
        network = scenario.build(seed=field_seed)
        return network, extract_skeleton(network)

    def _pass(self, inputs):
        """One request per field: ``[(seconds, (ok, (network, result)))]``."""
        return [timed(attempt, self._request, scenario, field_seed)
                for scenario, field_seed in inputs]

    @staticmethod
    def _traced_request(scenario, field_seed, probe: Probe):
        """``Scenario.build`` then ``SkeletonExtractor.extract``, step by
        step, with each public call timed into its layer."""
        rng = random.Random(field_seed)
        area = scenario.field()
        n = scenario.num_nodes
        with probe.span("geometry.deploy_s"):
            positions = scenarios_mod.uniform_deployment(area, n, rng=rng)
        radio = UnitDiskRadio(scenarios_mod.estimate_range_for_degree(
            area, n, scenario.target_avg_degree))
        with probe.span("network.link_s"):
            network = scenarios_mod.build_network(
                positions, radio=radio, field=area, rng=rng,
            ).largest_component_subgraph()
        params = SkeletonParams()
        stage = {fn: (getattr(pipeline_mod, fn), layer)
                 for fn, layer in CORE_STAGES}

        def call(fn, *args, **kwargs):
            function, layer = stage[fn]
            with probe.span(layer):
                return function(*args, **kwargs)

        index_data = call("compute_indices", network, params)
        critical = call("find_critical_nodes", network, index_data, params)
        voronoi = call("build_voronoi", network, critical, params)
        coarse = call("build_coarse_skeleton", voronoi, index_data.index,
                      params)
        boundary = call("detect_boundary_nodes", network,
                        index_data.khop_sizes,
                        params.boundary_threshold_factor)
        analysis = call("identify_loops", coarse, voronoi, params,
                        boundary_nodes=boundary, index=index_data.index)
        skeleton = call("refine_skeleton", coarse, analysis, voronoi, params)
        segmentation = call("segmentation_from_voronoi", voronoi)
        result = SkeletonResult(
            network=network, params=params, index_data=index_data,
            critical_nodes=critical, voronoi=voronoi, coarse=coarse,
            loop_analysis=analysis, skeleton=skeleton,
            segmentation=segmentation, boundary_nodes=boundary,
        )
        probe.count("network.nodes", network.num_nodes)
        probe.count("network.edges", network.num_edges)
        probe.count("core.sites", len(critical))
        probe.count("core.segment_nodes", len(voronoi.segment_nodes))
        probe.count("core.coarse_edges", len(coarse.edges))
        probe.count("core.loops", len(analysis.loops))
        probe.count("core.fake_loops", len(analysis.fake))
        probe.count("core.skeleton_nodes", len(skeleton.nodes))
        return network, result

    def _check(self, outcomes, report: Report) -> None:
        """The vectorized backend must equal the pure-Python reference
        backend; checked on the smallest field, where the reference is
        cheap."""
        done = [value for _, (ok, value) in outcomes if ok]
        if not done:
            report.failures.append("paper_fields: no field completed")
            return
        network, result = min(done, key=lambda nr: nr[0].num_nodes)
        reference = extract_skeleton(network, SkeletonParams(backend="reference"))
        for line in diff_results(result, reference):
            report.failures.append(f"paper_fields reference backend: {line}")

    @staticmethod
    def _homotopy_ok_ratio(outcomes) -> float:
        """Share of fields whose skeleton has one cycle per hole the
        network preserves (evaluation, not a gate)."""
        done = [value for _, (ok, value) in outcomes if ok]
        return sum(result.final_cycle_rank() == preserved_holes(network)
                   for network, result in done) / len(outcomes)

    def measure(self, inputs, seconds: float) -> Report:
        # Passes repeat identical requests, so each field's fastest pass
        # filters out bursts of load from outside the benchmark.
        report = Report()
        field_times = []

        def unit():
            outcomes = self._pass(inputs)
            field_times.append([t for t, _ in outcomes])
            report.attempted += len(outcomes)
            report.failed += sum(not ok for _, (ok, _) in outcomes)
            return outcomes

        _, outcomes = repeat_until(unit, seconds, self.min_reps)
        fastest = [min(times) for times in zip(*field_times)]
        report.add("fields_per_s", len(inputs) / sum(fastest), "1/s")
        report.add("ops_per_s", len(inputs) / sum(fastest), "1/s")
        report.add_peak_rss()
        report.info["pass_s"] = [round(sum(times), 3) for times in field_times]
        self._check(outcomes, report)
        return report

    def trace(self, inputs) -> Report:
        untraced_s, outcomes = timed(self._pass, inputs)
        probe = Probe()
        traced_s, traced = timed(
            lambda: [attempt(self._traced_request, scenario, field_seed, probe)
                     for scenario, field_seed in inputs])
        report = Report(attempted=2 * len(inputs))
        report.failed = sum(not ok for _, (ok, _) in outcomes) + \
            sum(not ok for ok, _ in traced)
        for (scenario, _), (_, (ok_u, plain)), (ok_t, split) in zip(
                inputs, outcomes, traced):
            if not (ok_u and ok_t):
                continue
            if plain[0].content_hash() != split[0].content_hash():
                report.failures.append(f"{scenario.name}: traced network "
                                       "differs from Scenario.build")
            for line in diff_results(plain[1], split[1]):
                report.failures.append(
                    f"{scenario.name}: traced stages differ from "
                    f"extract_skeleton: {line}")
        self._check(outcomes, report)
        report.add_layers(probe, ["geometry.deploy_s", "network.link_s",
                                  "core.stage1_s", "core.stage2_s",
                                  "core.stage3_s", "core.loops_s",
                                  "core.refine_s", "core.byproducts_s"])
        for name in ("network.nodes", "network.edges", "core.sites",
                     "core.segment_nodes", "core.coarse_edges", "core.loops",
                     "core.fake_loops", "core.skeleton_nodes"):
            report.add(name, probe.counts.get(name, 0), "count")
        report.add("homotopy_ok_ratio", self._homotopy_ok_ratio(outcomes),
                   "ratio")
        report.add("trace.overhead_ratio",
                   overhead_ratio(traced_s, untraced_s), "ratio")
        return report


# ---------------------------------------------------------------------------
# mega_sharded
# ---------------------------------------------------------------------------

class MegaSharded:
    """One large perturbed-grid field through tiling, halo replication,
    the process pool and the merge.

    Set-up builds ``MEGA_FIELDS`` fields from the seed: one field's time
    depends on its loops (finishing one took 0.50-0.87 s across seeds),
    and a run over several varies less from seed to seed.  Measured runs
    use *jobs* workers; the traced run takes the first field and also
    times one worker against ``POOL_JOBS`` for ``perf.parallel_speedup``.
    """

    name = "mega_sharded"
    setup_repeats = 3
    min_reps = 1

    def __init__(self, spec: str = "mega_100k", scale: float = 0.3,
                 grid: str = "4x4", jobs: int = 2):
        self.spec = get_mega_spec(spec).scaled(scale)
        self.grid = grid
        self.jobs = jobs

    def setup(self, seed: int):
        return [self.spec.build(seed=derive_seed(seed, self.name, k))
                for k in range(MEGA_FIELDS)]

    def _run(self, network, jobs: int):
        return run_sharded(network, self.spec.params(), grid=self.grid,
                           jobs=jobs)

    def _check(self, network, run, report: Report) -> None:
        mono = extract_skeleton(network, self.spec.params())
        for line in diff_results(mono, run.result):
            report.failures.append(f"mega_sharded vs monolithic: {line}")

    def _homotopy_ok_ratio(self, network, run) -> float:
        """1.0 when the skeleton has one cycle per hole the network
        preserves; the holes' centres come from the grid spec."""
        spacing = self.spec.spacing
        preserved = sum(
            network_wraps_point(network, Point((i0 + i1 - 1) / 2 * spacing,
                                               (j0 + j1 - 1) / 2 * spacing))
            for i0, j0, i1, j1 in self.spec.holes)
        return float(run.result.final_cycle_rank() == preserved)

    def measure(self, networks, seconds: float) -> Report:
        # Passes repeat identical runs, so each field's fastest pass
        # filters out bursts of load from outside the benchmark.
        report = Report()
        run_times = []

        def unit():
            timed_runs = [timed(self._run, network, self.jobs)
                          for network in networks]
            run_times.append([t for t, _ in timed_runs])
            report.attempted += len(timed_runs)
            report.failed += sum(run.is_degraded for _, run in timed_runs)
            return [run for _, run in timed_runs]

        _, runs = repeat_until(unit, seconds, self.min_reps)
        fastest = [min(times) for times in zip(*run_times)]
        report.add("mega_wall_s", sum(fastest) / len(fastest), "s")
        report.add("ops_per_s", len(fastest) / sum(fastest), "1/s")
        report.add_peak_rss()
        report.info.update(nodes=[network.num_nodes for network in networks],
                           pass_s=[round(sum(t), 3) for t in run_times])
        # A monolithic extraction takes as long as a sharded one, so a run
        # checks its first field only; each seed checks a different one.
        self._check(networks[0], runs[0], report)
        return report

    def trace(self, networks) -> Report:
        network = networks[0]
        untraced_s, untraced = timed(self._run, network, self.jobs)
        probe = Probe()
        with probe.wrapped(shard_api, "plan_tiles", "shard.plan_s"):
            traced_s, run = timed(self._run, network, self.jobs)
        serial_s, serial = timed(self._run, network, 1)
        pool_s, pool = timed(self._run, network, POOL_JOBS)
        plan = run.plan
        runs = (untraced, run, serial, pool)
        report = Report(attempted=len(runs))
        report.failed = sum(r.is_degraded for r in runs)
        self._check(network, run, report)
        for line in diff_results(serial.result, pool.result):
            report.failures.append(f"mega_sharded jobs=1 vs jobs={POOL_JOBS}: "
                                   f"{line}")
        report.add("shard.plan_s", probe.seconds["shard.plan_s"], "s")
        for phase in ("stage1", "flood", "paths", "finish"):
            report.add(f"shard.{phase}_s", run.timings[f"shard:{phase}"], "s")
        report.add("shard.tiles", plan.num_tiles, "count")
        report.add("shard.replication", plan.replication_factor(), "ratio")
        report.add("shard.halo_hops", plan.halo_hops, "count")
        report.add("shard.flood_batches", run.num_flood_batches, "count")
        report.add("perf.parallel_speedup", serial_s / pool_s, "ratio")
        report.add("homotopy_ok_ratio", self._homotopy_ok_ratio(network, run),
                   "ratio")
        report.add("trace.overhead_ratio",
                   overhead_ratio(traced_s, untraced_s), "ratio")
        report.info.update(nodes=network.num_nodes, jobs1_s=serial_s,
                           pool_s=pool_s)
        return report


# ---------------------------------------------------------------------------
# serve_zipf
# ---------------------------------------------------------------------------

@dataclass
class ServeInputs:
    networks: List[SensorNetwork]   # catalog first, then the fresh ones
    catalog_size: int
    bursts: List[List[int]]          # network indices, one per client
    cache: ArtifactCache             # warmed in set-up; replays copy its disk


@dataclass
class Replay:
    """One pass of the request stream against a freshly warmed cache."""

    elapsed_s: float
    burst_s: List[float]
    #: ``(network index, status, latency_s)`` in request order.
    requests: List[Tuple[int, str, float]]
    #: the first artifact served per network index.
    served: Dict[int, SkeletonResult]
    service: SkeletonService
    cache: ArtifactCache


class ServeZipf:
    """Closed-loop clients against an inline ``SkeletonService`` over a
    disk-backed cache whose memory tier is smaller than the catalog.

    Set-up warms a disk cache with the catalog.  Every replay starts a
    service over a new cache on a copy of that disk tier, so each replay
    begins from the same state: every catalog result on disk, the memory
    tier empty.
    """

    name = "serve_zipf"
    setup_repeats = 3
    min_reps = 3

    def __init__(self, workdir: Path, requests: int = 1200,
                 catalog_size: int = 8, num_nodes: int = 900):
        self.workdir = Path(workdir)
        self.requests = requests
        self.catalog_size = catalog_size
        self.num_nodes = num_nodes

    def _network(self, seed: int, index: int) -> SensorNetwork:
        names = sorted(PAPER_SCENARIOS)
        scenario = PAPER_SCENARIOS[names[index % len(names)]]
        return scenario.build(seed=derive_seed(seed, self.name, index),
                              num_nodes=self.num_nodes)

    def _degraded(self, seed: int, index: int, catalog) -> SensorNetwork:
        """A catalog deployment after ``FAILED_SHARE`` of its sensors fail:
        a network never served before, without deploying another field."""
        base = catalog[index % len(catalog)]
        rng = random.Random(derive_seed(seed, self.name, "failed", index))
        failed = set(rng.sample(range(base.num_nodes),
                                max(1, round(base.num_nodes * FAILED_SHARE))))
        return base.induced_subgraph(
            [u for u in range(base.num_nodes) if u not in failed]
        ).largest_component_subgraph()

    def _new_dir(self) -> str:
        self.workdir.mkdir(parents=True, exist_ok=True)
        return tempfile.mkdtemp(prefix="cache-", dir=self.workdir)

    def _warm_cache(self, catalog) -> ArtifactCache:
        cache = ArtifactCache(max_entries=MEMORY_ENTRIES,
                              disk_dir=self._new_dir())
        warm = SkeletonService(cache=cache)
        for network in catalog:
            warm.request(network, "result")
        return cache

    def _replay_cache(self, inputs: ServeInputs, cache_type=ArtifactCache,
                      **kwargs) -> ArtifactCache:
        """A cache on a copy of set-up's warmed disk tier."""
        disk_dir = self._new_dir()
        shutil.copytree(inputs.cache.disk_dir, disk_dir, dirs_exist_ok=True)
        return cache_type(max_entries=MEMORY_ENTRIES, disk_dir=disk_dir,
                          **kwargs)

    def setup(self, seed: int) -> ServeInputs:
        n_bursts = max(1, self.requests // CLIENTS)
        # Each fresh network arrives in one burst and is asked for by two
        # clients at once: one computation, one dedup rider.
        n_fresh = max(1, round(self.requests * FRESH_SHARE / 2))
        catalog = [self._network(seed, i) for i in range(self.catalog_size)]
        networks = catalog + [self._degraded(seed, i, catalog)
                              for i in range(n_fresh)]
        rng = random.Random(derive_seed(seed, self.name, "stream"))
        weights = [1.0 / (rank + 1) ** ZIPF_S
                   for rank in range(self.catalog_size)]
        fresh_at = dict(zip(sorted(rng.sample(range(n_bursts), n_fresh)),
                            range(self.catalog_size,
                                  self.catalog_size + n_fresh)))
        bursts = []
        for b in range(n_bursts):
            picks = rng.choices(range(self.catalog_size), weights=weights,
                                k=CLIENTS)
            if b in fresh_at:
                picks[0] = picks[1] = fresh_at[b]
            bursts.append(picks)
        cache = self._warm_cache(catalog)
        return ServeInputs(networks, self.catalog_size, bursts, cache)

    def _replay(self, inputs: ServeInputs, cache=None,
                probe: Optional[Probe] = None) -> Replay:
        """Drive every burst through a new service.

        The replay starts from the state set-up left: *cache* (by default
        a new cache on a copy of the warmed disk tier), and fresh networks
        whose content hash was never computed (rebuilt through the public
        constructor).
        """
        catalog = inputs.networks[:inputs.catalog_size]
        networks = catalog + [
            SensorNetwork(net.positions, net.adjacency, field=net.field,
                          radio=net.radio)
            for net in inputs.networks[inputs.catalog_size:]]
        if cache is None:
            cache = self._replay_cache(inputs)
        service = SkeletonService(ServiceConfig(), cache=cache)
        hashed = set()
        burst_s, requests, served = [], [], {}
        t0 = time.perf_counter()
        for burst in inputs.bursts:
            tb = time.perf_counter()
            if probe is not None:
                for i in burst:
                    if i >= inputs.catalog_size and i not in hashed:
                        hashed.add(i)
                        with probe.span("network.content_hash_s"):
                            networks[i].content_hash()
            service.pause()
            if probe is None:
                tickets = [service.submit(networks[i], "result") for i in burst]
                service.resume(drain=True)
            else:
                with probe.span("serving.submit_s"):
                    tickets = [service.submit(networks[i], "result")
                               for i in burst]
                with probe.span("serving.drain_s"):
                    service.resume(drain=True)
            for i, ticket in zip(burst, tickets):
                response = ticket.result(timeout=0)
                requests.append((i, response.status, response.latency))
                if response.ok and i not in served:
                    served[i] = response.artifact
            burst_s.append(time.perf_counter() - tb)
        return Replay(time.perf_counter() - t0, burst_s, requests, served,
                      service, cache)

    def _check(self, inputs: ServeInputs, replay: Replay,
               report: Report) -> None:
        for i, artifact in sorted(replay.served.items()):
            for line in diff_results(extract_skeleton(inputs.networks[i]),
                                     artifact):
                report.failures.append(f"serve_zipf network {i}: {line}")
        self._check_accounting(replay, report)

    @staticmethod
    def _check_accounting(replay: Replay, report: Report) -> None:
        stats = replay.service.stats()
        if stats.completed != len(replay.requests):
            report.failures.append(
                f"serve_zipf: {stats.completed} completed of "
                f"{len(replay.requests)} submitted")
        quarantined = sum(replay.cache.quarantined.values())
        if quarantined:
            report.failures.append(
                f"serve_zipf: {quarantined} cache entries quarantined")

    @staticmethod
    def _tally(replay: Replay, report: Report) -> None:
        report.attempted += len(replay.requests)
        report.failed += sum(status != "ok"
                             for _, status, _ in replay.requests)

    @staticmethod
    def _counters(service) -> Dict[str, int]:
        stats = service.stats()
        return {"serving.cache_hits": stats.cache_hits,
                "serving.dedup_hits": stats.dedup_hits,
                "serving.computed": stats.computed,
                "serving.shed": stats.shed}

    def measure(self, inputs: ServeInputs, seconds: float) -> Report:
        # Every replay does identical work from identical state, so each
        # burst's and each request's fastest replay filters out load from
        # outside the benchmark.
        report = Report()
        first = self._replay(inputs)
        self._tally(first, report)
        replays = [(first.elapsed_s, first.burst_s, first.requests)]
        while len(replays) < self.min_reps or \
                sum(elapsed for elapsed, _, _ in replays) < seconds:
            replay = self._replay(inputs)
            self._tally(replay, report)
            self._check_accounting(replay, report)
            shutil.rmtree(replay.cache.disk_dir)
            replays.append((replay.elapsed_s, replay.burst_s, replay.requests))
            del replay  # so peak RSS does not grow with the replays
        report.add_peak_rss()
        self._check(inputs, first, report)
        runs = [requests for _, _, requests in replays]
        latencies = [min(requests[k][2] for requests in runs)
                     for k in range(len(first.requests))
                     if all(requests[k][1] == "ok" for requests in runs)]
        if not latencies:
            report.failures.append("serve_zipf: no request succeeded")
            return report
        burst_s = [min(times) for times in zip(*(b for _, b, _ in replays))]
        report.add("requests_per_s", len(first.requests) / sum(burst_s), "1/s")
        report.add("ops_per_s", len(first.requests) / sum(burst_s), "1/s")
        self._add_latencies(latencies, report)
        report.info.update(replays=len(replays),
                           **self._counters(first.service))
        return report

    @staticmethod
    def _add_latencies(latencies, report: Report) -> None:
        report.add("request_latency_p50_s", nearest_rank(latencies, 50.0), "s")
        pct, tail, samples = tail_percentile(latencies)
        report.add("request_latency_tail_s", tail, "s")
        report.info.update(tail_percentile=pct, latency_samples=samples)

    def trace(self, inputs: ServeInputs) -> Report:
        untraced = self._replay(inputs)
        report = Report()
        self._tally(untraced, report)
        self._check(inputs, untraced, report)
        self._add_latencies([latency for _, status, latency
                             in untraced.requests if status == "ok"], report)

        probe = Probe()
        cache = self._replay_cache(inputs, cache_type=TimedCache, probe=probe)
        with ExitStack() as stack:
            for fn, layer in CORE_STAGES:
                stack.enter_context(probe.wrapped(pipeline_mod, fn, layer))
            traced = self._replay(inputs, cache=cache, probe=probe)
        self._tally(traced, report)
        self._check_accounting(traced, report)
        for i, artifact in sorted(traced.served.items()):
            for line in diff_results(untraced.served[i], artifact):
                report.failures.append(f"serve_zipf traced network {i}: {line}")
        report.add_layers(probe, ["serving.submit_s", "serving.drain_s",
                                  "perf.cache_lookup_s", "perf.cache_put_s",
                                  "network.content_hash_s",
                                  "core.stage1_s", "core.stage2_s",
                                  "core.stage3_s", "core.loops_s",
                                  "core.refine_s", "core.byproducts_s"])
        for name, value in self._counters(traced.service).items():
            report.add(name, value, "count")
        for stage, counts in sorted(cache.stats().items()):
            hits = counts["hits"]
            lookups = hits + counts["misses"]
            if lookups:
                report.add("perf.cache_hit_ratio." + stage.replace(":", "_"),
                           hits / lookups, "ratio")
        report.add("perf.cache_disk_bytes",
                   sum(p.stat().st_size for p in cache.disk_dir.glob("*.pkl")),
                   "bytes")
        report.add("perf.cache_quarantined", sum(cache.quarantined.values()),
                   "count")
        report.add("trace.overhead_ratio",
                   overhead_ratio(traced.elapsed_s, untraced.elapsed_s),
                   "ratio")
        return report


# ---------------------------------------------------------------------------
# distributed_sim
# ---------------------------------------------------------------------------

class DistributedSim:
    """Stages 1-2 as message-passing protocols, sync and zero-jitter async.

    Set-up deploys each field ``DEPLOYMENTS`` times from the seed: the
    protocols' rounds, and with them a run's time, follow the deployment
    (one pass over one deployment of each field ranged over ±15 % across
    seeds), and several deployments vary less from seed to seed.
    """

    name = "distributed_sim"
    setup_repeats = 3
    min_reps = 1
    schedulers = ("sync", "async")

    def __init__(self, num_nodes: Optional[int] = None):
        self.num_nodes = num_nodes

    def setup(self, seed: int):
        return [PAPER_SCENARIOS[name].build(
                    seed=derive_seed(seed, self.name, name, k),
                    num_nodes=self.num_nodes)
                for name in DISTRIBUTED_FIELDS for k in range(DEPLOYMENTS)]

    def _pass(self, networks):
        """``[(network, scheduler, seconds, (ok, result))]``."""
        return [(network, scheduler) + timed(attempt,
                                             extract_skeleton_distributed,
                                             network, scheduler=scheduler)
                for network in networks for scheduler in self.schedulers]

    def _check(self, outcomes, report: Report) -> None:
        params = SkeletonParams()
        by_network = {}
        for network, scheduler, _, (ok, result) in outcomes:
            if ok:
                by_network.setdefault(id(network), (network, {}))[1][
                    scheduler] = result
        for network, results in by_network.values():
            label = f"distributed_sim n={network.num_nodes}"
            missing = sorted(set(self.schedulers) - set(results))
            if missing:
                report.failures.append(
                    f"{label}: no result from scheduler(s) {missing}")
                continue
            sync, async_ = results["sync"], results["async"]
            for line in diff_results(sync, async_):
                report.failures.append(f"{label} sync vs async: {line}")
            if sync.run_stats.broadcasts != async_.run_stats.broadcasts:
                report.failures.append(
                    f"{label}: sync broadcasts {sync.run_stats.broadcasts} != "
                    f"async {async_.run_stats.broadcasts}")
            index_data = compute_indices(network, params)
            for attr in ("khop_sizes", "centrality", "index"):
                if getattr(sync.index_data, attr) != getattr(index_data, attr):
                    report.failures.append(
                        f"{label}: stage-1 {attr} differs from compute_indices")
            if sync.critical_nodes != find_critical_nodes(network, index_data,
                                                          params):
                report.failures.append(
                    f"{label}: critical nodes differ from find_critical_nodes")

    def _costs(self, outcomes, report: Report) -> None:
        sync = [(network, result) for network, scheduler, _, (ok, result)
                in outcomes if ok and scheduler == "sync"]
        nodes = sum(network.num_nodes for network, _ in sync)
        report.add("rounds", sum(r.run_stats.rounds for _, r in sync), "count")
        report.add("broadcasts_per_node",
                   sum(r.run_stats.broadcasts for _, r in sync) / max(1, nodes),
                   "1/node")

    def measure(self, networks, seconds: float) -> Report:
        # Passes repeat identical runs, so each run's fastest pass filters
        # out bursts of load from outside the benchmark.
        report = Report()
        run_times = []

        def unit():
            outcomes = self._pass(networks)
            run_times.append([t for _, _, t, _ in outcomes])
            report.attempted += len(outcomes)
            report.failed += sum(not ok for _, _, _, (ok, _) in outcomes)
            return outcomes

        _, outcomes = repeat_until(unit, seconds, self.min_reps)
        sim_wall_s = sum(min(times) for times in zip(*run_times))
        report.add("sim_wall_s", sim_wall_s, "s")
        report.add("ops_per_s", len(outcomes) / sim_wall_s, "1/s")
        report.add_peak_rss()
        self._costs(outcomes, report)
        report.info["pass_s"] = [round(sum(times), 3) for times in run_times]
        self._check(outcomes, report)
        return report

    def trace(self, networks) -> Report:
        outcomes = self._pass(networks)
        probe = Probe()
        traced = []
        for network in networks:
            for scheduler in self.schedulers:
                stages = f"runtime.{scheduler}_s"
                before = probe.seconds[stages]
                with probe.wrapped(distributed_mod, "run_distributed_stages",
                                   stages):
                    total, outcome = timed(attempt, extract_skeleton_distributed,
                                           network, scheduler=scheduler)
                probe.seconds["core.distributed_finish_s"] += \
                    total - (probe.seconds[stages] - before)
                traced.append((network, scheduler, total, outcome))
        report = Report(attempted=len(outcomes) + len(traced))
        report.failed = sum(not ok for _, _, _, (ok, _) in outcomes + traced)
        self._check(outcomes, report)
        for (_, _, _, (ok_u, plain)), (_, _, _, (ok_t, split)) in zip(
                outcomes, traced):
            if ok_u and ok_t:
                for line in diff_results(plain, split):
                    report.failures.append(f"distributed_sim traced: {line}")
        report.add_layers(probe, ["runtime.sync_s", "runtime.async_s",
                                  "core.distributed_finish_s"])
        report.add("runtime.receptions",
                   sum(result.run_stats.receptions
                       for _, _, _, (ok, result) in traced if ok), "count")
        self._costs(traced, report)
        report.add("trace.overhead_ratio", overhead_ratio(
            sum(t for _, _, t, _ in traced), sum(t for _, _, t, _ in outcomes)),
            "ratio")
        return report
