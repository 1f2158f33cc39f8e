"""E-FAULT — skeleton degradation under lossy delivery.

The paper evaluates robustness to radio *models* (QUDG, log-normal,
Figs. 6–7) but keeps delivery itself perfect.  This experiment completes
the picture: the distributed stages run over the fault-injection fabric of
:mod:`repro.runtime.faults`, sweeping the per-link drop probability with
link-layer ack/retry on and off, and reporting where the extracted skeleton
stops being connected and homotopic — the *failure knee*.

Scale note: hole preservation needs density; below roughly half the paper's
node counts the Window corridors leak their holes and homotopy becomes
vacuous, so runners clamp the scale to ``MIN_FAULT_SCALE``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..analysis import evaluate_skeleton, failure_knee
from ..core import extract_skeleton_distributed
from ..network import get_scenario
from ..observability import Tracer
from ..resilience import ResilientRunner, task_context
from ..runtime import FaultPlan, RetryPolicy
from .figures import _holes, _medial
from .harness import ExperimentReport, scaled_nodes

__all__ = ["run_fault_degradation", "DEFAULT_DROP_RATES", "MIN_FAULT_SCALE"]

DEFAULT_DROP_RATES = (0.0, 0.05, 0.1, 0.2, 0.3, 0.4)
MIN_FAULT_SCALE = 0.5


def _build_scenario(name: str, seed: int, scale: float, cache, tracer):
    scenario = get_scenario(name)
    n = scaled_nodes(scenario.num_nodes, scale)
    if cache is None:
        return scenario.build(seed=seed, num_nodes=n)
    return cache.get_or_build(
        "scenario", (scenario, seed, n, "default"),
        lambda: scenario.build(seed=seed, num_nodes=n),
        tracer=tracer,
    )


def _fault_task(config: Dict) -> List[dict]:
    """One (scenario, retry arm) sweep over all drop rates — pure in its
    config, so arms fan out over the process pool independently."""
    cache, tracer = task_context(config.get("cache_dir"))
    name = config["name"]
    arm = config["arm"]
    policy = (RetryPolicy(max_retries=config["max_retries"])
              if arm == "retry" else None)
    network = _build_scenario(name, config["seed"], config["scale"],
                              cache, tracer)
    medial = _medial(get_scenario(name), cache, tracer)
    holes = _holes(network, cache, tracer)
    rows: List[dict] = []
    for rate in config["drop_rates"]:
        plan = FaultPlan(seed=config["fault_seed"], drop_probability=rate)
        # At brutal drop rates a phase can starve without ever
        # completing; return the partial extraction and let the
        # quality metrics record the degradation instead of
        # aborting the sweep.
        run_tracer = Tracer(record_events=False)
        result = extract_skeleton_distributed(
            network, fault_plan=plan, retry_policy=policy,
            deadline_action="return_partial", tracer=run_tracer,
        )
        quality = evaluate_skeleton(
            network, result.skeleton.nodes, result.skeleton.edges,
            medial_axis=medial, preserved_hole_count=holes,
        )
        stats = result.run_stats
        per_phase = run_tracer.metrics().phase_broadcasts()
        rows.append(dict(
            scenario=name,
            arm=arm,
            drop_rate=rate,
            nodes=network.num_nodes,
            broadcasts=stats.broadcasts,
            retries=stats.retries,
            drops=stats.drops,
            redundant=stats.redundant_deliveries,
            quiesced=stats.quiesced,
            critical_nodes=len(result.critical_nodes),
            skeleton_nodes=len(result.skeleton.nodes),
            connected=quality.connected,
            cycles=quality.cycle_count,
            preserved_holes=holes,
            homotopy_ok=quality.homotopy_ok,
            bcast_nbr=per_phase.get("nbr", 0),
            bcast_size=per_phase.get("size", 0),
            bcast_index=per_phase.get("index", 0),
            bcast_site=per_phase.get("site", 0),
        ))
    return rows


def run_fault_degradation(scale: float = 1.0, seed: int = 1,
                          drop_rates: Sequence[float] = DEFAULT_DROP_RATES,
                          names: Sequence[str] = ("window", "two_holes"),
                          max_retries: int = 3,
                          fault_seed: int = 7,
                          include_no_retry: bool = True,
                          jobs: Optional[int] = None,
                          cache=None, tracer=None) -> ExperimentReport:
    """Sweep per-link drop probability over *names* scenarios.

    One row per (scenario, retry arm, drop rate) with full message
    accounting — broadcasts (algorithmic), retries, drops, redundant
    deliveries — and skeleton quality.  Notes carry each arm's failure
    knee.  Determinism: every cell is a pure function of
    ``(seed, fault_seed, plan)``, and with ``jobs > 1`` the (scenario,
    arm) sweeps fan out over the pool but merge in sweep order, so the
    report is bit-identical to the serial run.
    """
    scale = max(scale, MIN_FAULT_SCALE)
    report = ExperimentReport(
        "E-FAULT",
        f"skeleton degradation vs per-link drop rate "
        f"(ack/retry, max_retries={max_retries})",
    )
    arms = ["retry"] + (["no_retry"] if include_no_retry else [])
    cache_dir = (str(cache.disk_dir)
                 if cache is not None and cache.disk_dir is not None else None)
    configs = [
        {"name": name, "arm": arm, "scale": scale, "seed": seed,
         "fault_seed": fault_seed, "max_retries": max_retries,
         "drop_rates": tuple(drop_rates), "cache_dir": cache_dir}
        for name in names
        for arm in arms
    ]
    runner = ResilientRunner(jobs, cache=cache, tracer=tracer)
    results = runner.map_results(_fault_task, configs)
    knee_rows: Dict[str, List[dict]] = {arm: [] for arm in arms}
    for rows in results:
        for row in rows:
            report.add_row(**row)
            knee_rows[row["arm"]].append(row)
    for arm, rows in knee_rows.items():
        for scenario_name, knee in sorted(failure_knee(rows).items()):
            knee_txt = "none in sweep" if knee.knee_rate is None \
                else f"{knee.knee_rate:g}"
            ok_txt = "never" if knee.max_ok_rate is None \
                else f"{knee.max_ok_rate:g}"
            report.add_note(
                f"[{arm}] {scenario_name}: correct up to drop={ok_txt}, "
                f"knee={knee_txt}"
            )
    return report
