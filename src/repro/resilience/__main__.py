"""Chaos drills for the resilient execution layer.

Two self-checking modes over a supervised sharded extraction::

    python -m repro.resilience --mode recover   # kill + corrupt, recover
    python -m repro.resilience --mode degrade   # exhaust a tile's budget

``recover`` warms an on-disk artifact cache, corrupts one entry, kills
one worker task on its first attempt, and asserts the supervised rerun
is bit-identical to the clean baseline (with the retry and quarantine
counters proving both faults actually fired).  ``degrade`` kills one
stage-1 tile on every attempt and asserts the pipeline returns a
connected partial skeleton with a populated
:class:`~repro.resilience.DegradedReport` instead of raising.

Exit status 0 when the drill's assertions hold, 1 when they do not —
wired into CI as the ``chaos-smoke`` job.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Optional, Sequence

from ..core import SkeletonParams
from ..network import get_scenario
from ..observability import Tracer, build_metrics
from ..perf import ArtifactCache
from . import (ExecutorFaultPlan, SupervisorPolicy, corrupt_cache_entries,
               resolve_jobs)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.resilience",
        description="Deterministic chaos drills for the supervised "
                    "sharded pipeline.",
    )
    parser.add_argument("--mode", choices=("recover", "degrade"),
                        default="recover",
                        help="recover: kill+corrupt then assert bit-identity; "
                             "degrade: exhaust a tile and assert a partial "
                             "result (default: recover)")
    parser.add_argument("--scenario", default="window")
    parser.add_argument("--nodes", type=int, default=None,
                        help="node-count override")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--grid", default="2x2")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes (default: REPRO_JOBS or serial)")
    parser.add_argument("--max-attempts", type=int, default=3,
                        help="supervision attempt budget (default: 3)")
    return parser


def _connected(nodes, edges) -> bool:
    """Is the (non-empty) skeleton graph one component?"""
    if not nodes:
        return False
    adjacency = {v: set() for v in nodes}
    for edge in edges:
        a, b = tuple(edge)
        adjacency[a].add(b)
        adjacency[b].add(a)
    seen = set()
    stack = [next(iter(nodes))]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        stack.extend(adjacency[v] - seen)
    return len(seen) == len(nodes)


def _drill_recover(network, params, args, policy) -> int:
    from ..shard import diff_results, run_sharded

    baseline = run_sharded(network, params, grid=args.grid, jobs=args.jobs)
    chaos_dir = tempfile.mkdtemp(prefix="repro-chaos-")
    try:
        warm_cache = ArtifactCache(disk_dir=chaos_dir)
        run_sharded(network, params, grid=args.grid, jobs=args.jobs,
                    cache=warm_cache)
        victims = corrupt_cache_entries(chaos_dir, "shard:flood", limit=1)
        print(f"corrupted {len(victims)} cached artifact(s): {victims}")

        plan = ExecutorFaultPlan(kill_tasks={("shard:stage1", 0): 1})
        tracer = Tracer(record_events=False)
        run = run_sharded(network, params, grid=args.grid, jobs=args.jobs,
                          cache=ArtifactCache(disk_dir=chaos_dir),
                          tracer=tracer, supervisor=policy, fault_plan=plan)
        divergences = diff_results(baseline.result, run.result)
        retries = sum(c["retries"] for c in run.supervision.values())
        # The quarantine directory is the authoritative evidence: with
        # jobs > 1 the rotten entry is caught inside a pool worker, whose
        # cache instance (and quarantine counter) never crosses back to
        # this process — but the moved file does.
        quarantined = len(list(Path(chaos_dir, "quarantine").glob("*.pkl")))
        quarantined = max(quarantined,
                          build_metrics(tracer).total_quarantined)
        print(f"supervision: {run.supervision}")
        print(f"retries={retries} quarantined={quarantined} "
              f"divergences={len(divergences)}")

        ok = True
        if divergences:
            print(f"FAIL: recovered result diverged: {divergences[0]}")
            ok = False
        if retries < 1:
            print("FAIL: the injected kill was never retried")
            ok = False
        if quarantined < 1:
            print("FAIL: the corrupted artifact was never quarantined")
            ok = False
        if run.degraded is not None:
            print(f"FAIL: run degraded unexpectedly: "
                  f"{run.degraded.summary()}")
            ok = False
        if ok:
            print("recover drill: killed worker retried, corrupt artifact "
                  "quarantined and recomputed, result bit-identical")
        return 0 if ok else 1
    finally:
        shutil.rmtree(chaos_dir, ignore_errors=True)


def _drill_degrade(network, params, args, policy) -> int:
    from ..shard import run_sharded

    plan = ExecutorFaultPlan(
        kill_tasks={("shard:stage1", 0): policy.max_attempts})
    run = run_sharded(network, params, grid=args.grid, jobs=args.jobs,
                      supervisor=policy, fault_plan=plan)
    report = run.degraded
    if report is None:
        print("FAIL: expected a DegradedReport, run came back complete")
        return 1
    print(f"degraded: {report.summary()}")
    print(f"supervision: {run.supervision}")

    ok = True
    if not report.failed_tiles:
        print("FAIL: no failed tiles recorded")
        ok = False
    if not 0.0 < report.coverage < 1.0:
        print(f"FAIL: coverage {report.coverage} not a proper fraction")
        ok = False
    if not report.affected_seams:
        print("FAIL: no affected seams recorded")
        ok = False
    skeleton = run.result.skeleton
    if not _connected(skeleton.nodes, skeleton.edges):
        print("FAIL: partial skeleton is empty or disconnected")
        ok = False
    if ok:
        print(f"degrade drill: tile {report.failed_tiles} lost, partial "
              f"skeleton connected with {len(skeleton.nodes)} nodes, "
              f"verdict={report.verdict}")
    return 0 if ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        resolve_jobs(args.jobs)
        policy = SupervisorPolicy(max_attempts=args.max_attempts,
                                  backoff_base=0.001)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    network = get_scenario(args.scenario).build(seed=args.seed,
                                                num_nodes=args.nodes)
    params = SkeletonParams()
    print(f"chaos drill mode={args.mode} scenario={args.scenario} "
          f"n={network.num_nodes} grid={args.grid} "
          f"max_attempts={args.max_attempts}")
    if args.mode == "recover":
        return _drill_recover(network, params, args, policy)
    return _drill_degrade(network, params, args, policy)


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main(sys.argv[1:]))
