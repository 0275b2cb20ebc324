"""Health and readiness reporting for the inference server.

A load balancer (or the chaos harness) asks two different questions:
*liveness* ("is the process making progress?") and *readiness* ("should
new traffic be routed here right now?").  The report answers both from
counters the server already keeps -- queue depth against capacity,
recent batch occupancy, breaker rung and state, shed/rejection totals --
without taking any locks or touching the model.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .types import BatchStats, ServiceLevel

__all__ = ["HealthReport", "HealthTracker"]


@dataclass(frozen=True)
class HealthReport:
    """Point-in-time snapshot; ``to_wire()`` is the /health response body."""

    ready: bool
    level: ServiceLevel
    breaker_state: str
    queue_depth: int
    queue_capacity: int
    batch_occupancy: float      # mean recent batch size / max_batch
    requests_total: int
    responses_total: int
    shed_expired_total: int
    rejected_total: int
    handler_failures_total: int
    breaker_trips: int
    breaker_recoveries: int
    p50_latency: float
    p99_latency: float
    draining: bool

    def to_wire(self) -> dict:
        payload = dict(self.__dict__)
        payload["level"] = self.level.label
        return payload


@dataclass
class HealthTracker:
    """Rolling accumulators behind :class:`HealthReport`.

    Owned by the server; fed once per resolved response / completed
    batch from the single worker task, so plain ints suffice.
    """

    max_batch: int = 32
    requests_total: int = 0
    responses_total: int = 0
    handler_failures_total: int = 0
    _batch_sizes: deque[int] = field(default_factory=lambda: deque(maxlen=64))
    _latencies: deque[float] = field(default_factory=lambda: deque(maxlen=512))

    def note_request(self) -> None:
        self.requests_total += 1

    def note_response(self, latency: float) -> None:
        self.responses_total += 1
        self._latencies.append(latency)

    def note_batch(self, stats: BatchStats) -> None:
        if stats.size:
            self._batch_sizes.append(stats.size)
        if stats.handler_failure:
            self.handler_failures_total += 1

    def occupancy(self) -> float:
        if not self._batch_sizes:
            return 0.0
        return (sum(self._batch_sizes) / len(self._batch_sizes)) / self.max_batch

    def latency_quantile(self, q: float) -> float:
        if not self._latencies:
            return 0.0
        ordered = sorted(self._latencies)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]
