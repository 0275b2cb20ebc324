"""The asyncio inference server: admission -> micro-batch -> ladder -> reply.

One background worker task owns the whole pipeline: it pulls
deadline-filtered micro-batches from the :class:`MicroBatcher`, asks the
:class:`CircuitBreaker` which ladder rung to serve at, runs the
synchronous :class:`BatchInferenceEngine` in the default executor under
a hard ``handler_timeout``, and resolves every request's future with a
typed :class:`InferenceResponse`.

Invariants the chaos suite holds this file to:

* every submitted request resolves exactly once -- with an action or a
  typed shed/degraded/error verdict, never silently;
* a stalled or crashing handler cannot wedge the loop: the executor
  call is bounded by ``handler_timeout`` and the batch is answered with
  TTC-gated safety actions while the breaker records the failure;
* shutdown drains: queued requests resolve as ``shed-shutdown`` and the
  worker exits cleanly.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Callable

from .batcher import BatcherConfig, MicroBatcher, OfferRejected
from .breaker import BreakerConfig, CircuitBreaker
from .engine import BatchInferenceEngine
from .health import HealthReport, HealthTracker
from .types import (BatchStats, InferenceRequest, InferenceResponse,
                    RequestIdSequence, ServiceLevel, Verdict)

__all__ = ["ServerConfig", "InferenceServer"]


@dataclass(frozen=True)
class ServerConfig:
    """Server-level knobs; batcher/breaker carry their own configs."""

    batcher: BatcherConfig = field(default_factory=BatcherConfig)
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    #: Hard wall-clock bound on one engine call.  On expiry the batch is
    #: answered with safety-fallback actions and the breaker records a
    #: handler failure.  (The stuck executor thread is abandoned, not
    #: killed -- Python offers no safe preemption -- so sustained stalls
    #: trip the ladder down to rungs that never enter the executor.)
    handler_timeout: float = 2.0
    #: Default per-request deadline when the client does not send one;
    #: ``None`` disables implicit deadlines.
    default_deadline: float | None = None


class InferenceServer:
    """Single-process HEAD-as-a-service facade over one engine."""

    def __init__(self, engine: BatchInferenceEngine,
                 config: ServerConfig | None = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.engine = engine
        self.config = config or ServerConfig()
        self.clock = clock
        self.batcher = MicroBatcher(self.config.batcher, clock)
        self.breaker = CircuitBreaker(self.config.breaker, clock)
        self.health = HealthTracker(max_batch=self.config.batcher.max_batch)
        self._pending: dict[str, asyncio.Future[InferenceResponse]] = {}
        self._request_ids = RequestIdSequence()
        self._worker: asyncio.Task | None = None
        self._draining = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        if self._worker is not None:
            raise RuntimeError("server already started")
        self._draining = False
        self._worker = asyncio.create_task(self._run(), name="repro-serve-worker")

    async def stop(self) -> None:
        """Drain and shut down; every in-flight request still resolves."""
        self._draining = True
        if self._worker is not None:
            await self._worker
            self._worker = None
        for request in self.batcher.drain_nowait():
            self._resolve(InferenceResponse(
                request_id=request.request_id, verdict=Verdict.SHED_SHUTDOWN,
                detail="server draining"))
        # Anything still pending (shouldn't happen) must not hang callers.
        for request_id in list(self._pending):
            self._resolve(InferenceResponse(
                request_id=request_id, verdict=Verdict.SHED_SHUTDOWN,
                detail="server stopped"))

    @property
    def running(self) -> bool:
        return self._worker is not None and not self._worker.done()

    # ------------------------------------------------------------------
    # client-facing
    # ------------------------------------------------------------------
    def submit_nowait(self, graph, deadline: float | None = None,
                      request_id: str | None = None
                      ) -> asyncio.Future[InferenceResponse]:
        """Admit one request; the returned future always resolves.

        Backpressure and shutdown are delivered as already-resolved
        futures carrying typed shed verdicts -- callers never see an
        exception from admission.
        """
        loop = asyncio.get_running_loop()
        future: asyncio.Future[InferenceResponse] = loop.create_future()
        rid = request_id if request_id is not None else self._request_ids()
        self.health.note_request()
        now = self.clock()
        if deadline is None and self.config.default_deadline is not None:
            deadline = now + self.config.default_deadline
        if self._draining or not self.running:
            future.set_result(InferenceResponse(
                request_id=rid, verdict=Verdict.SHED_SHUTDOWN,
                detail="server not accepting requests"))
            return future
        request = InferenceRequest(graph=graph, request_id=rid,
                                   deadline=deadline, submitted_at=now)
        try:
            self.batcher.offer(request)
        except OfferRejected as rejection:
            future.set_result(InferenceResponse(
                request_id=rid, verdict=Verdict.SHED_QUEUE_FULL,
                retry_after=rejection.retry_after,
                detail=f"queue depth {rejection.depth}"))
            return future
        self._pending[rid] = future
        return future

    async def submit(self, graph, deadline: float | None = None,
                     request_id: str | None = None) -> InferenceResponse:
        return await self.submit_nowait(graph, deadline=deadline,
                                        request_id=request_id)

    def health_report(self) -> HealthReport:
        capacity = self.config.batcher.capacity
        depth = self.batcher.depth()
        return HealthReport(
            ready=(self.running and not self._draining and depth < capacity),
            level=self.breaker.level,
            breaker_state=self.breaker.state,
            queue_depth=depth,
            queue_capacity=capacity,
            batch_occupancy=self.health.occupancy(),
            requests_total=self.health.requests_total,
            responses_total=self.health.responses_total,
            shed_expired_total=self.batcher.shed_expired_total,
            rejected_total=self.batcher.rejected_total,
            handler_failures_total=self.health.handler_failures_total,
            breaker_trips=self.breaker.trips,
            breaker_recoveries=self.breaker.recoveries,
            p50_latency=self.health.latency_quantile(0.50),
            p99_latency=self.health.latency_quantile(0.99),
            draining=self._draining,
        )

    # ------------------------------------------------------------------
    # worker
    # ------------------------------------------------------------------
    async def _run(self) -> None:
        while True:
            live, expired = await self.batcher.next_batch()
            for request in expired:
                self._resolve(InferenceResponse(
                    request_id=request.request_id, verdict=Verdict.SHED_DEADLINE,
                    latency=self.clock() - request.submitted_at,
                    detail="deadline passed before compute"))
            if not live:
                if self._draining:
                    return
                continue
            try:
                await self._serve_batch(live, shed_expired=len(expired))
            except Exception as error:
                # Last-ditch guard: a bug anywhere in batch accounting
                # must not kill the worker or strand a future.
                for request in live:
                    self._resolve(InferenceResponse(
                        request_id=request.request_id, verdict=Verdict.ERROR,
                        latency=self.clock() - request.submitted_at,
                        detail=f"serve loop {type(error).__name__}: {error}"))

    async def _serve_batch(self, live: list[InferenceRequest],
                           shed_expired: int) -> None:
        level, probe = self.breaker.plan()
        started = self.clock()
        graphs = [request.graph for request in live]
        handler_failure = False
        detail = ""
        loop = asyncio.get_running_loop()
        try:
            results = await asyncio.wait_for(
                loop.run_in_executor(None, self.engine.infer, graphs, level),
                timeout=self.config.handler_timeout)
        except asyncio.TimeoutError:
            handler_failure = True
            detail = f"handler exceeded {self.config.handler_timeout:.3f}s"
        except Exception as error:
            handler_failure = True
            detail = f"handler raised {type(error).__name__}: {error}"
        if handler_failure:
            # The batch still gets typed, safe answers -- computed inline
            # (pure numpy TTC math, no executor) so a wedged thread pool
            # cannot block them.  If even the safety path fails for a
            # request, that request resolves as a typed ERROR: the worker
            # must outlive any engine misbehavior.
            results = []
            for request in live:
                try:
                    results.append(self.engine.infer(
                        [request.graph], ServiceLevel.SAFETY_FALLBACK)[0])
                except Exception as fallback_error:
                    detail = (f"{detail}; fallback raised "
                              f"{type(fallback_error).__name__}")
                    results.append(None)

        service_time = self.clock() - started
        self.batcher.record_service_time(service_time)
        now = self.clock()
        deadline_misses = sum(1 for request in live if request.expired(now))
        # "Degraded" for breaker purposes means *worse than the rung we
        # planned to serve at*: guard-replaced rows, poisoned inputs, or
        # answers that fell to a lower rung.  Serving CV answers while
        # the ladder stands at CV is healthy, not degraded -- otherwise
        # half-open probes could never succeed.
        degraded = sum(1 for result in results
                       if result is None or result.level > level
                       or result.degraded_rows)
        stats = BatchStats(size=len(live), level=level,
                           degraded_requests=degraded,
                           deadline_misses=deadline_misses,
                           shed_expired=shed_expired,
                           handler_failure=handler_failure,
                           service_time=service_time)
        self.breaker.record(stats, probe=probe)
        self.health.note_batch(stats)

        for request, result in zip(live, results):
            if result is None:
                self._resolve(InferenceResponse(
                    request_id=request.request_id, verdict=Verdict.ERROR,
                    latency=now - request.submitted_at, detail=detail))
                continue
            self._resolve(InferenceResponse(
                request_id=request.request_id, verdict=result.verdict,
                action=result.action, level=result.level,
                degraded_rows=result.degraded_rows,
                latency=now - request.submitted_at,
                detail=detail))

    def _resolve(self, response: InferenceResponse) -> None:
        future = self._pending.pop(response.request_id, None)
        if future is None or future.done():
            return
        self.health.note_response(response.latency)
        future.set_result(response)
