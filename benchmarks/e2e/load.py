"""The benchmark's own load generator: closed loop, open loop, TCP client.

Differences from ``repro.serving.loadgen`` that matter for the numbers:

* open-loop latency is timed from the instant a request was **due**, not
  from when its task got to run, so a stalled event loop charges its stall
  to every request it delayed (no coordinated omission), and how late the
  generator fired is reported as ``loadgen.late_ms_p99``;
* requests are built before the clock starts, so constructing them is not
  billed to the server;
* every response is handed to a :class:`Ledger` that keeps what the
  correctness gate needs, not only a latency.
"""

from __future__ import annotations

import asyncio
import json
import time
from array import array
from typing import Awaitable, Callable, Dict, List, Optional, Sequence, Tuple

from repro.serving.requests import (
    PredictResponse,
    Request,
    Response,
    decode_response,
    encode_request,
)

Submit = Callable[[Request], Awaitable[Response]]


class Ledger:
    """Per-phase record of what was sent and what came back."""

    def __init__(self, phase: str, limit_ms: float, keep: Callable[[int], bool]):
        self.phase = phase
        self.limit_ms = limit_ms
        #: ``keep(i)`` selects the requests whose full response is retained
        #: for the out-of-band comparison after the timed window.
        self.keep = keep
        self.sent = 0
        self.succeeded = 0
        self.failed = 0
        self.within_limit = 0
        self.failures_by_kind: Dict[str, int] = {}
        self.latencies_ms = array("d")
        self.queue_wait_ms = array("d")
        self.late_ms = array("d")
        #: (request index, response) pairs retained for verification.
        self.kept: List[Tuple[int, PredictResponse]] = []

    def record(self, index: int, response: Response, latency_ms: float) -> None:
        self.sent += 1
        if not isinstance(response, PredictResponse):
            # Shed, errored or mistyped: failed, and missed the limit.
            self.failed += 1
            kind = getattr(response, "kind", type(response).__name__)
            self.failures_by_kind[kind] = self.failures_by_kind.get(kind, 0) + 1
            return
        self.succeeded += 1
        self.latencies_ms.append(latency_ms)
        self.queue_wait_ms.append(response.queue_wait_ms)
        if latency_ms <= self.limit_ms:
            self.within_limit += 1
        if self.keep(index):
            self.kept.append((index, response))

    def counts(self) -> Dict[str, object]:
        return {
            "sent": self.sent,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "within_limit": self.within_limit,
            "failures_by_kind": dict(self.failures_by_kind),
        }


async def closed_loop_block(
    submit: Submit,
    requests: Sequence[Sequence[Tuple[int, Request]]],
    ledger: Ledger,
) -> float:
    """One closed-loop block: ``requests[c]`` is client ``c``'s pre-built
    ``(index, request)`` list, issued back to back, each awaiting its
    response before the next goes out.  Returns the block's wall seconds."""

    async def client(script: Sequence[Tuple[int, Request]]) -> None:
        for index, request in script:
            started = time.perf_counter()
            response = await submit(request)
            ledger.record(
                index, response, (time.perf_counter() - started) * 1e3
            )

    started = time.perf_counter()
    await asyncio.gather(*(client(script) for script in requests))
    return time.perf_counter() - started


async def open_loop(
    fire: Callable[[int], Awaitable[Response]],
    due_offsets: Sequence[float],
    ledger: Ledger,
) -> float:
    """Fire request ``i`` at ``start + due_offsets[i]`` whether or not
    earlier ones have completed; ``fire(i)`` performs whatever the schedule
    attaches to the request (writes, scans) and returns its response.
    Latency runs from the **due** time.  Returns the wall seconds from the
    first due time to the last completion."""
    loop = asyncio.get_running_loop()
    tasks: List[asyncio.Task] = []
    started = time.perf_counter()

    async def one(index: int, due: float) -> None:
        ledger.late_ms.append((time.perf_counter() - due) * 1e3)
        response = await fire(index)
        ledger.record(index, response, (time.perf_counter() - due) * 1e3)

    for index, offset in enumerate(due_offsets):
        due = started + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(loop.create_task(one(index, due)))
    await asyncio.gather(*tasks)
    return time.perf_counter() - started


class TcpClient:
    """One connection to ``serve_tcp``: newline-delimited JSON, one request
    in flight at a time (the front end answers each line before reading the
    next)."""

    def __init__(self) -> None:
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def connect(self, host: str, port: int) -> None:
        self._reader, self._writer = await asyncio.open_connection(host, port)

    async def submit(self, request: Request) -> Response:
        assert self._reader is not None and self._writer is not None
        self._writer.write(
            (json.dumps(encode_request(request)) + "\n").encode("utf-8")
        )
        line = await self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return decode_response(json.loads(line))

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = self._reader = None
