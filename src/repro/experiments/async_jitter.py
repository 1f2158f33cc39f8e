"""E-ASYNC — skeleton stability under asynchronous, jittered delivery.

The paper's protocol description leans on synchrony twice: phase
boundaries are counted in global rounds, and the Voronoi construction
assumes concurrent waves travel "at approximately the same speed".  This
experiment removes both props: the distributed stages run on the
event-driven runtime (:mod:`repro.runtime.async_scheduler`), where every
frame draws a per-link latency and phase boundaries come from adaptive
local timeouts.  The sweep raises the jitter magnitude from zero (the
degenerate model, provably identical to the synchronous run) through
multiples of the base latency, with a uniform-jitter arm and a
heavy-tailed (straggler) arm, and reports:

* skeleton correctness — connectivity and homotopy, with the failure knee
  per arm exactly as E-FAULT reports it for message loss;
* skeleton drift — :func:`~repro.analysis.skeleton_stability` against the
  synchronous baseline extraction (the stability-vs-jitter curve);
* the price of asynchrony — correction broadcasts, suppressed
  corrections, and the convergence detector's virtual-time/event figures.

Scale note: like E-FAULT, homotopy checks need density; runners clamp the
scale to ``MIN_ASYNC_SCALE``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..analysis import evaluate_skeleton, failure_knee, skeleton_stability
from ..core import extract_skeleton_distributed
from ..network import get_scenario
from ..observability import Tracer
from ..resilience import ResilientRunner, task_context
from ..runtime import AsyncProfile, LatencyModel
from .figures import _holes, _medial
from .harness import ExperimentReport, scaled_nodes

__all__ = ["run_async_jitter", "DEFAULT_JITTERS", "MIN_ASYNC_SCALE"]

DEFAULT_JITTERS = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0)
MIN_ASYNC_SCALE = 0.5


def _latency(kind: str, jitter: float, seed: int) -> LatencyModel:
    if jitter == 0.0:
        return LatencyModel.fixed()
    if kind == "uniform":
        return LatencyModel.uniform_jitter(jitter, seed=seed)
    return LatencyModel.heavy_tail(jitter, seed=seed)


def _async_task(config: Dict) -> List[dict]:
    """One scenario's full jitter sweep (all arms) — pure in its config.

    The synchronous baseline extraction is computed once per scenario and
    shared by every arm in the task, exactly as the serial sweep does.
    """
    cache, tracer = task_context(config.get("cache_dir"))
    name = config["name"]
    scenario = get_scenario(name)
    n = scaled_nodes(scenario.num_nodes, config["scale"])
    seed = config["seed"]
    if cache is None:
        network = scenario.build(seed=seed, num_nodes=n)
    else:
        network = cache.get_or_build(
            "scenario", (scenario, seed, n, "default"),
            lambda: scenario.build(seed=seed, num_nodes=n),
            tracer=tracer,
        )
    medial = _medial(scenario, cache, tracer)
    holes = _holes(network, cache, tracer)
    baseline = extract_skeleton_distributed(network)
    latency_seed = config["latency_seed"]
    rows: List[dict] = []
    for kind in config["kinds"]:
        for jitter in config["jitters"]:
            latency = _latency(kind, jitter, latency_seed)
            run_tracer = Tracer(record_events=False)
            result = extract_skeleton_distributed(
                network,
                scheduler="async",
                latency=latency,
                tracer=run_tracer,
                # A deployment tunes timeouts to the expected
                # worst-case latency, so the grace scales with the
                # model's tail (for the degenerate model this is the
                # default grace of two base latencies).  Flushes are
                # held for about one jitter so same-wave entries
                # re-aggregate; zero keeps the degenerate run on the
                # synchronous-equivalent path.
                async_profile=AsyncProfile(
                    grace=2.0 * latency.max_delay / latency.base,
                    aggregation_delay=jitter,
                ),
            )
            quality = evaluate_skeleton(
                network, result.skeleton.nodes, result.skeleton.edges,
                medial_axis=medial, preserved_hole_count=holes,
            )
            drift = skeleton_stability(
                network, baseline.skeleton.nodes,
                network, result.skeleton.nodes,
            )
            stats = result.run_stats
            convergence = stats.convergence
            per_phase = run_tracer.metrics().phase_broadcasts()
            rows.append(dict(
                scenario=name,
                arm=kind,
                jitter=jitter,
                nodes=network.num_nodes,
                broadcasts=stats.broadcasts,
                corrections=stats.corrections,
                suppressed=stats.corrections_suppressed,
                virtual_time=round(convergence.virtual_time, 2),
                events=convergence.events,
                quiesced=stats.quiesced,
                critical_nodes=len(result.critical_nodes),
                skeleton_nodes=len(result.skeleton.nodes),
                connected=quality.connected,
                cycles=quality.cycle_count,
                preserved_holes=holes,
                homotopy_ok=quality.homotopy_ok,
                stability_mean=round(drift.mean_distance, 4),
                stability_hausdorff=round(drift.hausdorff, 4),
                bcast_nbr=per_phase.get("nbr", 0),
                bcast_size=per_phase.get("size", 0),
                bcast_index=per_phase.get("index", 0),
                bcast_site=per_phase.get("site", 0),
            ))
    return rows


def run_async_jitter(scale: float = 1.0, seed: int = 1,
                     jitters: Sequence[float] = DEFAULT_JITTERS,
                     names: Sequence[str] = ("window", "two_holes"),
                     kinds: Sequence[str] = ("uniform", "heavy_tail"),
                     latency_seed: int = 7,
                     jobs: Optional[int] = None,
                     cache=None, tracer=None) -> ExperimentReport:
    """Sweep delivery jitter over *names* scenarios on the async runtime.

    One row per (scenario, latency arm, jitter magnitude) with message
    accounting — algorithmic broadcasts, correction broadcasts, suppressed
    corrections — convergence-detector figures, skeleton quality, and
    drift against the synchronous baseline.  Notes carry each arm's
    failure knee.  Determinism: every cell is a pure function of
    ``(seed, latency_seed, jitter)``, and with ``jobs > 1`` the scenarios
    fan out over the pool but merge in scenario order, so the report is
    bit-identical to the serial run.
    """
    scale = max(scale, MIN_ASYNC_SCALE)
    report = ExperimentReport(
        "E-ASYNC",
        "skeleton stability vs delivery jitter (event-driven runtime, "
        "adaptive phase timeouts)",
    )
    cache_dir = (str(cache.disk_dir)
                 if cache is not None and cache.disk_dir is not None else None)
    configs = [
        {"name": name, "scale": scale, "seed": seed,
         "latency_seed": latency_seed, "jitters": tuple(jitters),
         "kinds": tuple(kinds), "cache_dir": cache_dir}
        for name in names
    ]
    runner = ResilientRunner(jobs, cache=cache, tracer=tracer)
    results = runner.map_results(_async_task, configs)
    knee_rows: Dict[str, List[dict]] = {kind: [] for kind in kinds}
    for rows in results:
        for row in rows:
            report.add_row(**row)
            knee_rows[row["arm"]].append(row)
    for kind, rows in knee_rows.items():
        for scenario_name, knee in sorted(
            failure_knee(rows, rate_key="jitter").items()
        ):
            knee_txt = "none in sweep" if knee.knee_rate is None \
                else f"{knee.knee_rate:g}"
            ok_txt = "never" if knee.max_ok_rate is None \
                else f"{knee.max_ok_rate:g}"
            report.add_note(
                f"[{kind}] {scenario_name}: correct up to jitter={ok_txt}, "
                f"knee={knee_txt}"
            )
    return report
