"""The benchmark's workloads: one user path of ``repro`` each.

Every workload is a closed loop with one client: the next op starts
only when the previous one returns.  Construction is the workload's
set-up (imports of the program modules it drives, seeded input
generation, program objects); :meth:`op` is the timed unit of work and
:meth:`check` verifies its output outside timing.  Program entry
points are looked up through their modules at call time, so the traced
run's wrappers (see ``tracing.py``) see every call.

All inputs are generated here from the ``--seed`` argument; the program
receives only the generated inputs.  ``paper_report`` is the exception:
its inputs are the paper's parameters, fixed in the program, so the seed
does not change it.
"""

from __future__ import annotations

import math
import time
from pathlib import Path
from typing import Optional

import numpy as np


def derived_seed(seed: int, purpose: int) -> int:
    """A 31-bit program seed drawn from the benchmark seed."""
    return int(np.random.SeedSequence([seed, purpose]).generate_state(1)[0] >> 1)


class Workload:
    """Interface shared by the workloads below."""

    name = ""
    #: Ops per round.  A round is the unit the traced run alternates
    #: between traced and untraced, and the loop only stops between
    #: rounds, so a run covers whole rounds.
    round_size = 1

    def before_op(self) -> None:
        """Per-op preparation made outside timing."""

    def op(self, index: int):
        """Run op ``index`` of the current round and return its output."""
        raise NotImplementedError

    def check(self, index: int, result) -> bool:
        """Whether op ``index``'s output is correct (outside timing)."""
        raise NotImplementedError

    def rate_sample(self, result, seconds: float) -> tuple[float, float]:
        """(work units, seconds) this op adds to the throughput figure."""
        return 1.0, seconds

    def tier(self, index: int) -> Optional[str]:
        """The contention tier of op ``index`` (ccn workloads only)."""
        return None

    def finish(self) -> tuple[int, int]:
        """Checks made after timing, as (attempted, failed)."""
        return 0, 0

    def close(self) -> None:
        """Release files the set-up wrote."""


class PaperReport(Workload):
    """``repro report``: every paper table and figure, from cold caches."""

    name = "paper_report"

    def __init__(self, root: Path):
        from repro.analysis import reporting
        from repro.core import zipf

        self._reporting = reporting
        self._zipf = zipf
        self.expected = (root / "REPORT.md").read_bytes()

    def before_op(self) -> None:
        # Each op costs one `repro report`: a fresh process has no memo.
        self._zipf.clear_zipf_caches()

    def op(self, index: int) -> str:
        return self._reporting.generate_report()

    def check(self, index: int, result: str) -> bool:
        return result.encode() == self.expected


#: `repro serve` defaults (Scenario defaults plus the CLI's N, c, n).
SERVE_CATALOG = 10**6
SERVE_TICKS = 1200
SERVE_RANKS_PER_TICK = 500
#: Streams start with idle ticks (no traffic yet) and carry an empty
#: measurement window every this many ticks.
SERVE_IDLE_LEAD = 2
SERVE_EMPTY_EVERY = 100


def serve_stream(seed: int) -> str:
    """A seeded wire-format stream whose Zipf exponent drifts sinusoidally.

    Ranks are drawn by inverting the continuous Zipf CDF on
    ``[1, N + 1)`` and flooring, which needs no O(N) table per tick.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    phase = rng.uniform(0.0, 2.0 * math.pi)
    ticks = np.arange(SERVE_TICKS)
    exponent = 0.8 + 0.12 * np.sin(2.0 * math.pi * ticks / 300.0 + phase)
    a = (1.0 - exponent)[:, None]
    u = rng.random((SERVE_TICKS, SERVE_RANKS_PER_TICK))
    x = (1.0 + u * ((SERVE_CATALOG + 1.0) ** a - 1.0)) ** (1.0 / a)
    ranks = np.clip(x.astype(np.int64), 1, SERVE_CATALOG)
    lines = [""] * SERVE_IDLE_LEAD
    for tick, row in enumerate(ranks):
        if tick and tick % SERVE_EMPTY_EVERY == 0:
            lines.append("")
        else:
            lines.append(" ".join(map(str, row.tolist())))
    return "\n".join(lines) + "\n"


class ServeReplay(Workload):
    """``repro serve`` replaying a seeded measurement file, one tick per op.

    When the file is exhausted a fresh service replays it from the
    start, as a new ``repro serve`` process would.
    """

    name = "serve_replay"

    def __init__(self, seed: int, work_dir: Path):
        from repro.core.optimizer import optimal_strategy
        from repro.core.scenario import Scenario
        from repro.service import ingest, loop, policy

        self._ingest = ingest
        self._loop = loop
        self._policy = policy
        self._optimal_strategy = optimal_strategy
        self.scenario = Scenario(
            alpha=0.5,
            gamma=5.0,
            n_routers=20,
            catalog_size=SERVE_CATALOG,
            capacity=10.0**3,
            unit_cost=26.7,
            peer_delta=2.2842,
        )
        work_dir.mkdir(parents=True, exist_ok=True)
        self.path = work_dir / f"serve-{seed}-{id(self)}.txt"
        self.path.write_text(serve_stream(seed))
        self._stream = open(self.path)
        self.passes: list[tuple[object, list]] = []
        self._new_pass()

    def _new_pass(self) -> None:
        service = self._loop.OptimizerService(
            self.scenario,
            memory=0.5,
            policy=self._policy.DeadBandPolicy(dead_band=0.0),
        )
        self.service = service
        self.ticks: list = []
        self.passes.append((service, self.ticks))

    def op(self, index: int):
        line = self._stream.readline()
        if not line:
            self._stream.seek(0)
            self._new_pass()
            line = self._stream.readline()
        return self.service.ingest(self._ingest.parse_line(line))

    def check(self, index: int, result) -> bool:
        # Levels are checked against the scalar oracle after timing.
        self.ticks.append(result)
        return result.index == len(self.ticks) - 1

    def finish(self) -> tuple[int, int]:
        failed = 0
        for service, ticks in self.passes:
            tracker = service.tracker
            active = sum(1 for tick in ticks if tick.action != "idle")
            if tracker.cold_solves + tracker.warm_solves + tracker.skipped != active:
                failed += 1
            for tick in ticks:
                if tick.action not in ("cold", "warm"):
                    continue
                model = self.scenario.replace(exponent=tick.estimate).model()
                level = self._optimal_strategy(model, check_conditions=False).level
                if not abs(level - tick.level) <= 1e-9:
                    failed += 1
        return len(self.passes), failed

    def close(self) -> None:
        self._stream.close()
        self.path.unlink(missing_ok=True)


#: The `contention_sweep` level grid and US-A set-up (c = 100, Zipf(0.8, 10^4)).
CCN_LEVELS = tuple(round(i / 10, 1) for i in range(9)) + (0.85, 0.9, 0.95, 1.0)
CCN_CAPACITY = 100
#: Requests per grid point: the sweep's default for independent arrivals;
#: a quarter of it under contention, where a request costs ~10x more, so
#: that one pass over the three contended regimes stays near 5 s.
CCN_REQUESTS = {False: 40_000, True: 10_000}
CCN_CHECK_REQUESTS = 3_000


class CCNSweep(Workload):
    """``repro ccn us-a --sweep`` at one contention tier: one grid point per op.

    A round is the whole level grid over every regime of the tier, so a
    run covers the grid a whole number of times.  Each op includes
    engine construction and strategy installation.
    """

    def __init__(self, seed: int, *, contended: bool):
        from repro.analysis.contention import DEFAULT_CONTENTION_CONFIGS
        from repro.catalog import IRMWorkload, ZipfModel
        from repro.ccn import BatchedCCNEngine, CCNNetwork
        from repro.core import ProvisioningStrategy
        from repro.topology import load_topology

        self._engine_cls = BatchedCCNEngine
        self._network_cls = CCNNetwork
        self._workload_cls = IRMWorkload
        self._strategy_cls = ProvisioningStrategy
        self.name = "ccn_contended" if contended else "ccn_independent"
        self.topology = load_topology("us-a")
        self.popularity = ZipfModel(0.8, 10_000)
        self.stream_seed = derived_seed(seed, 2)
        self.requests = CCN_REQUESTS[contended]
        self.points = []
        for config in DEFAULT_CONTENTION_CONFIGS:
            if (config.interarrival_ms < 1.0) != contended:
                continue
            tier = "independent" if not contended else (
                "contended" if config.queue is None else "queued"
            )
            for level in CCN_LEVELS:
                self.points.append((tier, config.interarrival_ms, config.queue, level))
        self.round_size = len(self.points)

    def _strategy(self, level: float):
        return self._strategy_cls(
            capacity=CCN_CAPACITY, n_routers=self.topology.n_routers, level=level
        )

    def op(self, index: int):
        _, interarrival, queue, level = self.points[index]
        engine = self._engine_cls(
            self.topology, origin_gateway=self.topology.nodes[0], queue=queue
        )
        engine.install_strategy(self._strategy(level))
        workload = self._workload_cls(
            self.popularity, self.topology.nodes, seed=self.stream_seed
        )
        return engine.run_workload(
            workload, self.requests, interarrival_ms=interarrival
        )

    def check(self, index: int, result) -> bool:
        queue = self.points[index][2]
        issued = result.requests_issued
        if issued != self.requests or int(result.outcome_counts.sum()) != issued:
            return False
        return queue is not None or result.requests_completed == issued

    def rate_sample(self, result, seconds: float) -> tuple[float, float]:
        return float(result.requests_issued), seconds

    def tier(self, index: int) -> Optional[str]:
        return self.points[index][0]

    def finish(self) -> tuple[int, int]:
        """One small run of the tier's unqueued regime against the scalar network."""
        _, interarrival, _, _ = next(p for p in self.points if p[2] is None)
        level = CCN_LEVELS[self.stream_seed % len(CCN_LEVELS)]
        network = self._network_cls(
            self.topology, origin_gateway=self.topology.nodes[0]
        )
        network.install_strategy(self._strategy(level))
        scalar = network.run_workload(
            self._workload_cls(
                self.popularity, self.topology.nodes, seed=self.stream_seed
            ),
            CCN_CHECK_REQUESTS,
            interarrival_ms=interarrival,
        )
        engine = self._engine_cls(self.topology, origin_gateway=self.topology.nodes[0])
        engine.install_strategy(self._strategy(level))
        batched = engine.run_workload(
            self._workload_cls(
                self.popularity, self.topology.nodes, seed=self.stream_seed
            ),
            CCN_CHECK_REQUESTS,
            interarrival_ms=interarrival,
        )
        return 1, 0 if _ccn_equivalent(scalar, batched) else 1


_CCN_COUNTERS = (
    "requests_issued",
    "requests_completed",
    "origin_productions",
    "cs_hits",
    "interest_transmissions",
    "data_transmissions",
    "pit_aggregations",
)


def _ccn_equivalent(scalar, batched) -> bool:
    """Counters and hop multisets identical; latencies to float-sum order.

    US-A link latencies are measured distances, so the scalar network
    (absolute timeline) and the engine (issue-relative offsets) add
    them in different orders; 1e-9 relative is the repository's own
    equivalence tolerance for that case.
    """
    if any(getattr(scalar, n) != getattr(batched, n) for n in _CCN_COUNTERS):
        return False
    if not np.array_equal(
        np.sort(np.asarray(scalar.interest_hops)), np.sort(batched.interest_hops)
    ):
        return False
    lat_s = np.sort(np.asarray(scalar.latencies_ms))
    lat_b = np.sort(batched.latencies_ms)
    return lat_s.shape == lat_b.shape and bool(
        np.allclose(lat_s, lat_b, rtol=1e-9, atol=0.0)
    )


#: `repro scale` defaults: 1000 routers, 20 regions, 3 tiers, dynamic
#: LRU, c = 100, level 0.5, Zipf(0.8, 10^4), 10^6 requests.
SCALE_REQUESTS = 1_000_000


class ScaleSharded(Workload):
    """``repro scale``: generate the hierarchy, then the sharded run, serially."""

    name = "scale_sharded"

    def __init__(self, seed: int):
        from repro.simulation import sharded
        from repro.topology import hierarchy

        self._sharded = sharded
        self._hierarchy = hierarchy
        self.topology_seed = derived_seed(seed, 3)
        self.run_seed = derived_seed(seed, 4)
        self.reference = None

    def op(self, index: int):
        topology = self._hierarchy.generate_hierarchy(
            self.topology_seed, routers=1000, regions=20, tiers=3
        )
        start = time.perf_counter()
        result = self._sharded.run_sharded(
            topology,
            requests=SCALE_REQUESTS,
            capacity=100,
            mode="dynamic",
            policy="lru",
            coordination_level=0.5,
            exponent=0.8,
            catalog_size=10_000,
            seed=self.run_seed,
            shards=None,
        )
        return result, time.perf_counter() - start

    def check(self, index: int, result) -> bool:
        run, _ = result
        metrics = run.metrics
        if self.reference is None:
            self.reference = metrics
        tiers = metrics.local_fraction + metrics.peer_fraction + metrics.origin_load
        return (
            metrics.requests == SCALE_REQUESTS
            and sum(m.requests for m in run.region_metrics) == SCALE_REQUESTS
            and metrics.local_hits + metrics.peer_hits + metrics.origin_hits
            == SCALE_REQUESTS
            and abs(tiers - 1.0) <= 1e-12
            and metrics == self.reference
        )

    def rate_sample(self, result, seconds: float) -> tuple[float, float]:
        run, sim_seconds = result
        return float(run.requests), sim_seconds


_FACTORIES = {
    "paper_report": lambda root, seed, work_dir: PaperReport(root),
    "serve_replay": lambda root, seed, work_dir: ServeReplay(seed, work_dir),
    "ccn_independent": lambda root, seed, work_dir: CCNSweep(seed, contended=False),
    "ccn_contended": lambda root, seed, work_dir: CCNSweep(seed, contended=True),
    "scale_sharded": lambda root, seed, work_dir: ScaleSharded(seed),
}
WORKLOADS = tuple(_FACTORIES)


def make_workload(name: str, root: Path, seed: int, work_dir: Path) -> Workload:
    """Set up workload ``name`` for checkout ``root``; scratch files go to ``work_dir``."""
    return _FACTORIES[name](root, seed, work_dir)
