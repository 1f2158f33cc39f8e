"""The event-driven fabric's delivery order and event accounting.

Three guards on :class:`~repro.runtime.AsyncScheduler` that the
zero-jitter equivalence oracle cannot give:

* **golden pins** — full distributed extractions on one Window deployment
  under uniform and heavy-tail jitter, drops/flaps/crashes with link-layer
  retries, and a virtual-time deadline and an event budget that cut the
  run short.  Every counter, the convergence report, the critical nodes
  and a digest of the skeleton edges are pinned, so any change to how the
  scheduler queues, orders or counts deliveries that shifts a single
  frame fails here;
* **order** — a probe protocol checks, independently of how the event
  queue is laid out, that every receiver hears frames in non-decreasing
  ``(virtual time, frame send order)`` — DESIGN §9's per-instant order;
* **accounting** — ``events`` counts deliveries and timer fires, not
  queue entries.

Print the observed pin values (to compare by hand, never to paste over a
failing pin after a fabric change) with::

    PYTHONPATH=src python -m tests.test_async_fabric
"""

import hashlib
import itertools
from functools import partialmethod

import pytest

from repro.core import extract_skeleton_distributed
from repro.geometry.primitives import Point
from repro.network import UnitDiskRadio, build_network, get_scenario
from repro.runtime import (
    AsyncProfile,
    AsyncScheduler,
    CrashWindow,
    FaultPlan,
    LatencyModel,
    NodeProtocol,
    RetryPolicy,
)

SCENARIO, SEED, NODES = "window", 7, 400

_COUNTERS = ("broadcasts", "receptions", "rounds", "retries", "drops",
             "acks_dropped", "redundant_deliveries", "corrections",
             "corrections_suppressed", "seen_evictions", "quiesced")
_REPORT = ("events", "deliveries", "timer_fires", "max_outstanding",
           "virtual_time", "quiesced")


def _configs():
    uniform = LatencyModel.uniform_jitter(0.5, seed=3)
    return {
        "uniform": dict(latency=uniform),
        "heavy_tail": dict(
            latency=LatencyModel.heavy_tail(0.5, seed=3),
            async_profile=AsyncProfile(aggregation_delay=0.3),
        ),
        "faults": dict(
            latency=uniform,
            fault_plan=FaultPlan(
                seed=11, drop_probability=0.05, flap_probability=0.02,
                crashes={5: CrashWindow(start=2, end=6),
                         40: CrashWindow(start=0, end=3),
                         77: CrashWindow(start=4)},
            ),
            retry_policy=RetryPolicy(max_retries=3),
        ),
        "deadline": dict(latency=uniform, deadline=22.0,
                         deadline_action="return_partial"),
        "max_events": dict(latency=uniform, deadline_action="return_partial",
                           max_events=46000),
    }


def observe(name, network):
    """Run one config and return its pinned observables."""
    kwargs = dict(_configs()[name])
    max_events = kwargs.pop("max_events", None)
    with pytest.MonkeyPatch.context() as mp:
        if max_events is not None:
            # The event budget is a scheduler argument the pipeline leaves
            # at its default; tighten it for this one run.
            mp.setattr(AsyncScheduler, "run", partialmethod(
                AsyncScheduler.run, max_events=max_events))
        result = extract_skeleton_distributed(network, scheduler="async",
                                              **kwargs)
    stats = result.run_stats
    report = stats.convergence
    edges = sorted(tuple(sorted(e)) for e in result.skeleton.edges)
    return {
        "stats": {f: getattr(stats, f) for f in _COUNTERS},
        "report": {f: getattr(report, f) for f in _REPORT},
        "critical": list(result.critical_nodes),
        "edges": hashlib.sha256(repr(edges).encode()).hexdigest()[:16],
    }


GOLDEN = {
    "uniform": {"stats": {"broadcasts": 2960,
                          "receptions": 46174,
                          "rounds": 46175,
                          "retries": 0,
                          "drops": 0,
                          "acks_dropped": 0,
                          "redundant_deliveries": 0,
                          "corrections": 4567,
                          "corrections_suppressed": 3132,
                          "seen_evictions": 0,
                          "quiesced": True},
                "report": {"events": 47630,
                           "deliveries": 46174,
                           "timer_fires": 1456,
                           "max_outstanding": 16282,
                           "virtual_time": 27.28870437949624,
                           "quiesced": True},
                "critical": [9, 80, 119, 123, 152, 157, 164, 169, 222, 239,
                             253, 279, 292],
                "edges": "016c8b8a5e8df047"},
    "heavy_tail": {"stats": {"broadcasts": 2968,
                             "receptions": 43832,
                             "rounds": 43815,
                             "retries": 0,
                             "drops": 0,
                             "acks_dropped": 0,
                             "redundant_deliveries": 0,
                             "corrections": 4147,
                             "corrections_suppressed": 727,
                             "seen_evictions": 0,
                             "quiesced": True},
                   "report": {"events": 53837,
                              "deliveries": 43832,
                              "timer_fires": 10005,
                              "max_outstanding": 5092,
                              "virtual_time": 84.32075223566564,
                              "quiesced": True},
                   "critical": [2, 8, 13, 20, 22, 23, 26, 32, 40, 44, 46, 59,
                                94, 109, 123, 137, 146, 157, 164, 165, 169,
                                172, 176, 182, 183, 187, 188, 189, 191, 194,
                                200, 205, 206, 208, 210, 212, 216, 225, 228,
                                235, 239, 240, 241, 259, 267, 268, 272, 274,
                                277, 281, 287, 289, 290, 292, 294],
                   "edges": "9fa7dac454eb69b8"},
    "faults": {"stats": {"broadcasts": 2920,
                         "receptions": 71315,
                         "rounds": 71316,
                         "retries": 4629,
                         "drops": 5532,
                         "acks_dropped": 2408,
                         "redundant_deliveries": 25366,
                         "corrections": 4552,
                         "corrections_suppressed": 3182,
                         "seen_evictions": 0,
                         "quiesced": True},
               "report": {"events": 85074,
                          "deliveries": 71315,
                          "timer_fires": 1766,
                          "max_outstanding": 18846,
                          "virtual_time": 37.91849931430197,
                          "quiesced": True},
               "critical": [9, 59, 80, 123, 127, 128, 130, 141, 157, 164, 169,
                            216, 223, 229, 237, 239, 270, 274, 277, 279, 290,
                            292, 295],
               "edges": "63e45f7b40bb850c"},
    "deadline": {"stats": {"broadcasts": 2931,
                           "receptions": 46067,
                           "rounds": 45888,
                           "retries": 0,
                           "drops": 0,
                           "acks_dropped": 0,
                           "redundant_deliveries": 0,
                           "corrections": 4567,
                           "corrections_suppressed": 3132,
                           "seen_evictions": 0,
                           "quiesced": False},
                 "report": {"events": 47343,
                            "deliveries": 45887,
                            "timer_fires": 1456,
                            "max_outstanding": 16282,
                            "virtual_time": 21.97798360699318,
                            "quiesced": False},
                 "critical": [9, 80, 119, 123, 152, 157, 164, 169, 222, 239,
                              253, 279, 292],
                 "edges": "ada42bb78be87d10"},
    "max_events": {"stats": {"broadcasts": 2775,
                             "receptions": 45130,
                             "rounds": 44546,
                             "retries": 0,
                             "drops": 0,
                             "acks_dropped": 0,
                             "redundant_deliveries": 0,
                             "corrections": 4567,
                             "corrections_suppressed": 3132,
                             "seen_evictions": 0,
                             "quiesced": False},
                   "report": {"events": 46001,
                              "deliveries": 44545,
                              "timer_fires": 1456,
                              "max_outstanding": 16282,
                              "virtual_time": 18.53329038597775,
                              "quiesced": False},
                   "critical": [9, 80, 119, 123, 152, 157, 164, 169, 222, 239,
                                253, 279, 292],
                   "edges": "1b4077ff675af73d"},
}


@pytest.fixture(scope="module")
def network():
    return get_scenario(SCENARIO).build(seed=SEED, num_nodes=NODES)


class TestGoldenPins:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_fabric_pinned(self, name, network):
        assert observe(name, network) == GOLDEN[name]

    def test_every_config_pinned(self):
        assert sorted(GOLDEN) == sorted(_configs())


class _OrderProbe(NodeProtocol):
    """Floods two waves per node (one at start, one from a timer) up to
    three hops, logging ``(now, frame)`` at every delivery.  ``frame`` is
    a network-wide broadcast counter, i.e. the frame send order."""

    HOPS = 3

    def __init__(self, node_id, frames):
        super().__init__(node_id)
        self.frames = frames
        self.forwarded = set()
        self.heard = []

    def on_start(self, api):
        self._send(api, (self.node_id, 0), 0)
        api.set_timer(1.5, "second-wave")

    def on_timer(self, tag, api):
        self._send(api, (self.node_id, 1), 0)

    def on_message(self, message, api):
        wave, hops, frame = message.payload
        self.heard.append((api.now, frame))
        if wave not in self.forwarded and hops + 1 < self.HOPS:
            self.forwarded.add(wave)
            self._send(api, wave, hops + 1)

    def _send(self, api, wave, hops):
        api.broadcast("probe", (wave, hops, next(self.frames)))


def _grid(cols=5, rows=4):
    positions = [Point(float(x), float(y))
                 for y in range(rows) for x in range(cols)]
    return build_network(positions, radio=UnitDiskRadio(1.5))


class TestDeliveryOrder:
    @pytest.mark.parametrize("latency", [
        LatencyModel.uniform_jitter(0.5, seed=5),
        # A low cap clamps many draws to the same maximum, so frames of
        # different senders share arrival instants.
        LatencyModel.heavy_tail(0.5, seed=5, tail_cap=1.5),
    ], ids=["uniform", "heavy_tail"])
    @pytest.mark.parametrize("plan,policy", [
        (None, None),
        (FaultPlan(seed=5, drop_probability=0.2), RetryPolicy(max_retries=2)),
    ], ids=["bare", "arq"])
    def test_receivers_hear_time_then_send_order(self, latency, plan, policy):
        frames = itertools.count()
        sched = AsyncScheduler(_grid(), lambda v: _OrderProbe(v, frames),
                               latency=latency, fault_plan=plan,
                               retry_policy=policy)
        stats = sched.run()
        assert stats.quiesced
        shared_instants = 0
        for probe in sched.protocols:
            heard = probe.heard
            assert heard, f"node {probe.node_id} heard nothing"
            assert heard == sorted(heard), f"node {probe.node_id} out of order"
            shared_instants += sum(a[0] == b[0] for a, b in zip(heard, heard[1:]))
        if latency.kind == "heavy_tail":
            # Non-vacuous: same-instant frames really had to be ordered.
            assert shared_instants > 0
        if policy is not None:
            assert stats.retries > 0


class TestEventAccounting:
    def test_events_count_deliveries_not_queue_entries(self, network):
        result = extract_skeleton_distributed(network, scheduler="async")
        stats = result.run_stats
        report = stats.convergence
        assert report.quiesced and stats.retries == 0 and stats.drops == 0
        assert report.events == report.deliveries + report.timer_fires
        assert report.deliveries == stats.receptions
        assert (report.events, report.deliveries, report.timer_fires) == \
            (18808, 17920, 888)


if __name__ == "__main__":  # pragma: no cover - manual inspection
    import pprint
    import time

    net = get_scenario(SCENARIO).build(seed=SEED, num_nodes=NODES)
    print("nodes", net.num_nodes)
    for config in _configs():
        t0 = time.perf_counter()
        observed = observe(config, net)
        print(f"# {config}: {time.perf_counter() - t0:.2f} s")
        pprint.pprint({config: observed}, width=74, compact=True,
                      sort_dicts=False)
