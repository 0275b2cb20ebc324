"""Deadline-aware micro-batching with bounded admission.

The batcher is the server's only buffer, and it is *bounded*: when the
queue is full, :meth:`MicroBatcher.offer` fails immediately with a
retry-after hint instead of growing without limit -- overload turns
into explicit backpressure at the edge, never into unbounded memory and
latency.  Dequeued requests whose deadline already passed are shed
*before* the forward pass so an overloaded server stops wasting compute
on answers nobody is waiting for.

Determinism: micro-batches are sorted by ``request_id`` before they are
handed to the engine.  Concurrent clients race into the queue in
nondeterministic order; canonical ordering makes the stacked arrays --
and therefore every per-request numeric result -- a pure function of
the batch *membership*, never of arrival interleaving.  (Batch
membership itself can still shift results by an ulp: BLAS kernels pick
different block schedules for different batch sizes.  See
``docs/serving.md``.)
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Callable

from .types import InferenceRequest

__all__ = ["BatcherConfig", "OfferRejected", "MicroBatcher"]


@dataclass(frozen=True)
class BatcherConfig:
    """Tuning knobs of the micro-batcher.

    Attributes
    ----------
    max_batch:
        Hard cap on requests per forward pass.
    batch_window:
        Seconds the batcher waits after the first request of a batch for
        more to coalesce.  The central latency/throughput dial: larger
        windows fill bigger batches (amortizing the forward) at the cost
        of added queueing latency.  ``BENCH_serve.json`` sweeps it.
    capacity:
        Bound of the admission queue.  Requests beyond it are rejected
        with a retry-after hint.
    idle_poll:
        How often an idle worker wakes to check for shutdown.
    """

    max_batch: int = 32
    batch_window: float = 0.005
    capacity: int = 256
    idle_poll: float = 0.05

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1")
        if self.batch_window < 0:
            raise ValueError("batch_window must be >= 0")


class OfferRejected(Exception):
    """Admission failed: the bounded queue is full.

    Carries the backpressure hint the server surfaces to clients as a
    typed shed response.
    """

    def __init__(self, retry_after: float, depth: int) -> None:
        super().__init__(f"queue full ({depth} waiting); retry in {retry_after:.3f}s")
        self.retry_after = retry_after
        self.depth = depth


class MicroBatcher:
    """Bounded queue + window-based coalescing, single-consumer."""

    def __init__(self, config: BatcherConfig | None = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.config = config or BatcherConfig()
        self.clock = clock
        self._queue: asyncio.Queue[InferenceRequest] = asyncio.Queue(
            maxsize=self.config.capacity)
        #: EWMA of seconds one full service round takes (collect + forward),
        #: seeding the retry-after estimate before any batch completed.
        self._service_ewma = max(self.config.batch_window, 1e-3)
        self.shed_expired_total = 0
        self.rejected_total = 0

    # ------------------------------------------------------------------
    # producer side
    # ------------------------------------------------------------------
    def offer(self, request: InferenceRequest) -> None:
        """Admit a request or raise :class:`OfferRejected` immediately.

        Admission never blocks the caller: a full queue is an explicit,
        typed rejection whose ``retry_after`` estimates when the backlog
        will have drained enough to admit again.
        """
        try:
            self._queue.put_nowait(request)
        except asyncio.QueueFull:
            self.rejected_total += 1
            raise OfferRejected(self.retry_after(), self.depth()) from None

    def depth(self) -> int:
        return self._queue.qsize()

    def retry_after(self) -> float:
        """Estimated drain time of the current backlog (seconds)."""
        batches_queued = self.depth() / self.config.max_batch
        return max(self._service_ewma, (1.0 + batches_queued) * self._service_ewma)

    def record_service_time(self, seconds: float) -> None:
        """Feed one completed batch's wall time into the EWMA."""
        self._service_ewma += 0.2 * (max(seconds, 1e-6) - self._service_ewma)

    # ------------------------------------------------------------------
    # consumer side
    # ------------------------------------------------------------------
    async def next_batch(self) -> tuple[list[InferenceRequest], list[InferenceRequest]]:
        """Collect one micro-batch: ``(live, expired)``.

        Waits up to ``idle_poll`` for a first request (returning two
        empty lists if none arrived, so the caller can check shutdown),
        then coalesces arrivals for ``batch_window`` seconds or until
        ``max_batch`` is reached.  Expired requests are separated out so
        the server sheds them without a forward pass; survivors come
        back in canonical ``request_id`` order.
        """
        raw: list[InferenceRequest] = []
        if self._queue.empty():
            try:
                raw.append(await asyncio.wait_for(self._queue.get(),
                                                  timeout=self.config.idle_poll))
            except asyncio.TimeoutError:
                return [], []

        window_ends = self.clock() + self.config.batch_window
        while len(raw) < self.config.max_batch:
            # Requests already queued are taken without a Task each; only
            # an empty queue is awaited, and only while the window is open.
            try:
                raw.append(self._queue.get_nowait())
                continue
            except asyncio.QueueEmpty:
                pass
            remaining = window_ends - self.clock()
            if remaining <= 0.0:
                break
            try:
                raw.append(await asyncio.wait_for(self._queue.get(),
                                                  timeout=remaining))
            except asyncio.TimeoutError:
                continue

        now = self.clock()
        live = [request for request in raw if not request.expired(now)]
        expired = [request for request in raw if request.expired(now)]
        self.shed_expired_total += len(expired)
        live.sort(key=lambda request: request.request_id)
        return live, expired

    def drain_nowait(self) -> list[InferenceRequest]:
        """Pull every queued request synchronously (shutdown path)."""
        drained: list[InferenceRequest] = []
        while True:
            try:
                drained.append(self._queue.get_nowait())
            except asyncio.QueueEmpty:
                return drained
