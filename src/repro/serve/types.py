"""Request/response vocabulary of the HEAD inference service.

Every request submitted to the server resolves to exactly one
:class:`InferenceResponse`, and every response is either an action or a
*typed* shed verdict -- "the server never answers with silence" is the
core robustness invariant the chaos suite asserts.  The degradation
ladder (:class:`ServiceLevel`) reuses the guard/fallback ordering
introduced with the fault-injection layer: full HEAD first, the
:class:`~repro.faults.guard.PerceptionGuard` constant-velocity
perception next, TTC-gated :class:`~repro.decision.safety` emergency
answers last.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum, IntEnum

from ..decision.pamdp import ParameterizedAction
from ..perception.graph import SpatialTemporalGraph

__all__ = ["ServiceLevel", "Verdict", "RequestIdSequence", "InferenceRequest",
           "InferenceResponse", "BatchStats"]


class ServiceLevel(IntEnum):
    """Rungs of the degradation ladder, best (0) to most degraded (2)."""

    FULL_HEAD = 0        # batched LST-GAT prediction + BP-DQN decision
    CV_PERCEPTION = 1    # constant-velocity perception + BP-DQN decision
    SAFETY_FALLBACK = 2  # TTC-gated emergency answers only, no networks

    @property
    def label(self) -> str:
        return self.name.lower()


class Verdict(Enum):
    """Typed outcome of one request.  Values are wire-stable strings."""

    OK = "ok"                              # full-quality answer
    DEGRADED_PERCEPTION = "degraded-perception"  # guard/CV stepped in
    DEGRADED_FALLBACK = "degraded-fallback"      # safety-ladder answer
    SHED_QUEUE_FULL = "shed-queue-full"    # backpressure at admission
    SHED_DEADLINE = "shed-deadline"        # expired before/while queued
    SHED_SHUTDOWN = "shed-shutdown"        # submitted to a draining server
    CLIENT_TIMEOUT = "client-timeout"      # client-side await timed out
    ERROR = "error"                        # handler raised; typed, not silent

    @property
    def is_shed(self) -> bool:
        return self in (Verdict.SHED_QUEUE_FULL, Verdict.SHED_DEADLINE,
                        Verdict.SHED_SHUTDOWN)

    @property
    def has_action(self) -> bool:
        return self in (Verdict.OK, Verdict.DEGRADED_PERCEPTION,
                        Verdict.DEGRADED_FALLBACK)

    @property
    def retryable(self) -> bool:
        """Verdicts a well-behaved client may retry with fresh budget."""
        return self.is_shed or self in (Verdict.CLIENT_TIMEOUT, Verdict.ERROR)


class RequestIdSequence:
    """Monotonic fallback ids for requests submitted without one.

    Request ids are also the canonical micro-batch sort key (see the
    batcher), so they must be unique and orderable within a server's
    lifetime.  The counter is *per instance* -- the server owns one --
    rather than a module global: a module-level counter mutated from
    coroutine context couples unrelated servers in one process and is
    silently duplicated per worker on fork, colliding ids across
    workers (the ``coroutine-shared-mutable-global`` lint rule).
    """

    def __init__(self) -> None:
        self._counter = itertools.count()

    def __call__(self) -> str:
        return f"r{next(self._counter):08d}"


@dataclass
class InferenceRequest:
    """One client question: a perception graph plus its time budget.

    Attributes
    ----------
    graph:
        The spatial-temporal graph G(t) perceived by the client AV.
    request_id:
        Unique orderable id; the batcher sorts micro-batches by it so
        arrival-order races never change numerics.
    deadline:
        Absolute monotonic-clock instant after which the answer is
        worthless to the client; ``None`` means no deadline.
    submitted_at:
        Monotonic enqueue instant (stamped by the server).
    """

    graph: SpatialTemporalGraph
    request_id: str
    deadline: float | None = None
    submitted_at: float = 0.0

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now >= self.deadline


@dataclass
class InferenceResponse:
    """The single, typed resolution of one request."""

    request_id: str
    verdict: Verdict
    action: ParameterizedAction | None = None
    level: ServiceLevel | None = None
    #: Rows of this request's prediction the guard had to replace
    #: (0 when perception was healthy or never ran).
    degraded_rows: int = 0
    #: Seconds from submit to resolution (0 for admission-time sheds).
    latency: float = 0.0
    #: Backpressure hint: suggested client wait before retrying.
    retry_after: float | None = None
    detail: str = ""
    #: Attempts consumed when the response came through the retry client.
    attempts: int = 1

    def __post_init__(self) -> None:
        if self.verdict.has_action and self.action is None:
            raise ValueError(f"verdict {self.verdict.value} requires an action")
        if not self.verdict.has_action and self.action is not None:
            raise ValueError(f"verdict {self.verdict.value} must not carry an action")

    @property
    def ok(self) -> bool:
        return self.verdict.has_action

    def to_wire(self) -> dict:
        """JSON-serializable view (the TCP transport's response body)."""
        payload: dict = {"id": self.request_id, "verdict": self.verdict.value,
                         "latency_ms": self.latency * 1e3,
                         "degraded_rows": self.degraded_rows,
                         "detail": self.detail, "attempts": self.attempts}
        if self.level is not None:
            payload["level"] = self.level.label
        if self.action is not None:
            payload["action"] = {"behavior": self.action.behavior.name,
                                 "accel": self.action.accel}
        if self.retry_after is not None:
            payload["retry_after_ms"] = self.retry_after * 1e3
        return payload


@dataclass
class BatchStats:
    """Per-micro-batch health sample consumed by the circuit breaker."""

    size: int = 0
    level: ServiceLevel = ServiceLevel.FULL_HEAD
    degraded_requests: int = 0      # guard fallback and/or poisoned inputs
    deadline_misses: int = 0        # resolved after their deadline
    shed_expired: int = 0           # shed before compute
    handler_failure: bool = False   # stall/timeout/exception in the handler
    service_time: float = 0.0
