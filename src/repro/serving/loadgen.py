"""Synthetic load generation against the serving gateway.

Two canonical harnesses:

* **Closed loop** -- N client coroutines, each issuing a request, awaiting
  the response, and immediately issuing the next.  Offered load adapts to
  service capacity; this is the latency-vs-concurrency curve the serving
  benchmark sweeps (1/8/64 clients).
* **Open loop** -- arrivals fire on a seeded exponential (Poisson) clock
  regardless of completions.  Offered load is fixed, so driving the rate
  past capacity exercises admission control: the gateway must shed with
  typed rejections while completed requests keep a bounded latency.

Request histories come from the real workload layer: a region preset's
archetype mixture (``repro.workload.regions``) generates the fleet, and
each request carries one database's login timestamps -- the same arrays
``HistoryStore.login_array()`` would serve in the simulator.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import DEFAULT_CONFIG
from repro.serving.requests import ErrorResponse, PredictRequest, Response
from repro.serving.server import PredictionServer
from repro.types import SECONDS_PER_DAY
from repro.workload.regions import RegionPreset, generate_region_traces

DAY = SECONDS_PER_DAY


def fleet_login_arrays(
    preset: RegionPreset = RegionPreset.EU1,
    n_databases: int = 60,
    now: int = 29 * DAY,
    span_days: int = 31,
    seed: int = 0,
    history_days: Optional[int] = None,
) -> List[Tuple[int, ...]]:
    """Per-database sorted login tuples as the history store would hold
    them at ``now``: region-preset traces clipped to the retention
    window.  Databases with no logins in the window are dropped (the
    gateway answers them trivially; they would dilute the benchmark)."""
    history_days = (
        DEFAULT_CONFIG.history_days if history_days is None else history_days
    )
    start = now - history_days * DAY
    traces = generate_region_traces(
        preset, n_databases, span_days=span_days, seed=seed
    )
    fleets = []
    for trace in traces:
        logins = tuple(
            s.start for s in trace.sessions if start <= s.start < now
        )
        if logins:
            fleets.append(logins)
    return fleets


@dataclass
class LoadReport:
    """Outcome of one load-generation run."""

    mode: str
    clients: int
    offered: int
    completed: int
    shed: int
    errors: int
    duration_s: float
    latencies_ms: List[float] = field(default_factory=list)
    shed_by_kind: Dict[str, int] = field(default_factory=dict)

    @property
    def throughput_rps(self) -> float:
        return self.completed / self.duration_s if self.duration_s > 0 else 0.0

    def percentile_ms(self, p: float) -> float:
        if not self.latencies_ms:
            return 0.0
        ordered = sorted(self.latencies_ms)
        rank = max(
            0, min(len(ordered) - 1, round(p / 100.0 * len(ordered)) - 1)
        )
        return ordered[rank]

    def summary(self) -> Dict[str, object]:
        return {
            "mode": self.mode,
            "clients": self.clients,
            "offered": self.offered,
            "completed": self.completed,
            "shed": self.shed,
            "errors": self.errors,
            "duration_s": round(self.duration_s, 4),
            "throughput_rps": round(self.throughput_rps, 1),
            "p50_ms": round(self.percentile_ms(50.0), 3),
            "p99_ms": round(self.percentile_ms(99.0), 3),
            "shed_by_kind": dict(self.shed_by_kind),
        }


def _account(report: LoadReport, response: Response, latency_ms: float) -> None:
    if isinstance(response, ErrorResponse):
        report.shed += 1
        report.shed_by_kind[response.kind] = (
            report.shed_by_kind.get(response.kind, 0) + 1
        )
        if response.kind == "unavailable":
            report.errors += 1
    else:
        report.completed += 1
        report.latencies_ms.append(latency_ms)


async def closed_loop(
    server: PredictionServer,
    fleets: Sequence[Sequence[int]],
    now: int,
    clients: int,
    requests_per_client: int,
    region: str = "EU1",
    config: str = "default",
    seed: int = 0,
    database_ids: Optional[Sequence[str]] = None,
    regions: Optional[Sequence[str]] = None,
) -> LoadReport:
    """``clients`` concurrent request loops, each issuing
    ``requests_per_client`` predictions back-to-back.

    ``database_ids`` (aligned with ``fleets``) switches the storm to
    *by-id* requests: each request carries the database's identity
    instead of its login array, so the server (or sharded worker)
    resolves history from its registry/arena -- the zero-serialisation
    hot path.  ``regions``, also aligned, spreads requests over a
    multi-region fleet (required to exercise sharded routing); both
    default to the classic single-region inline-logins storm.
    """
    report = LoadReport(
        mode="closed",
        clients=clients,
        offered=clients * requests_per_client,
        completed=0,
        shed=0,
        errors=0,
        duration_s=0.0,
    )

    async def client(client_id: int) -> None:
        rng = random.Random(seed * 1_000_003 + client_id)
        for i in range(requests_per_client):
            target = rng.randrange(len(fleets))
            request = PredictRequest(
                request_id=f"c{client_id}-{i}",
                logins=()
                if database_ids is not None
                else tuple(fleets[target]),
                now=now,
                region=regions[target] if regions is not None else region,
                config=config,
                tenant=f"client-{client_id}",
                database_id=database_ids[target]
                if database_ids is not None
                else None,
            )
            started = time.perf_counter()
            response = await server.submit(request)
            _account(
                report, response, (time.perf_counter() - started) * 1000.0
            )

    started = time.perf_counter()
    await asyncio.gather(*(client(c) for c in range(clients)))
    report.duration_s = time.perf_counter() - started
    return report


async def open_loop(
    server: PredictionServer,
    fleets: Sequence[Sequence[int]],
    now: int,
    rate_rps: float,
    n_requests: int,
    region: str = "EU1",
    config: str = "default",
    seed: int = 0,
    deadline_ms: Optional[float] = None,
    database_ids: Optional[Sequence[str]] = None,
    regions: Optional[Sequence[str]] = None,
) -> LoadReport:
    """Fire ``n_requests`` arrivals at ``rate_rps`` (seeded Poisson
    inter-arrivals) without waiting for completions, then await them all.

    ``database_ids``/``regions`` (aligned with ``fleets``) switch to the
    by-id multi-region storm exactly as in :func:`closed_loop`.

    Arrival times are precomputed and paced against the wall clock: when
    the generator falls behind schedule (inter-arrival gaps below the
    event loop's sleep resolution), arrivals fire back-to-back without
    sleeping.  Offered load therefore tracks ``rate_rps`` as bursts
    rather than being silently floored by per-sleep overhead -- which is
    exactly what an overload benchmark needs.  Each latency runs from the
    arrival's *due* time, not from when its task first ran, so time the
    generator spent behind schedule (a blocked loop, a slow batch) is
    charged to the requests that waited it out instead of being omitted
    (coordinated omission)."""
    report = LoadReport(
        mode="open",
        clients=0,
        offered=n_requests,
        completed=0,
        shed=0,
        errors=0,
        duration_s=0.0,
    )
    rng = random.Random(seed * 1_000_003 + 999_331)
    tasks: List[asyncio.Task] = []
    loop = asyncio.get_running_loop()

    async def fire(i: int, due: float) -> None:
        target = rng.randrange(len(fleets))
        request = PredictRequest(
            request_id=f"o-{i}",
            logins=() if database_ids is not None else tuple(fleets[target]),
            now=now,
            region=regions[target] if regions is not None else region,
            config=config,
            deadline_ms=deadline_ms,
            database_id=database_ids[target]
            if database_ids is not None
            else None,
        )
        response = await server.submit(request)
        _account(report, response, (time.perf_counter() - due) * 1000.0)

    offsets = []
    t = 0.0
    for _ in range(n_requests):
        t += rng.expovariate(rate_rps)
        offsets.append(t)

    started = time.perf_counter()
    for i, offset in enumerate(offsets):
        due = started + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(loop.create_task(fire(i, due)))
    await asyncio.gather(*tasks)
    report.duration_s = time.perf_counter() - started
    return report
