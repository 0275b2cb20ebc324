"""HEAD-as-a-service: overload-resilient async micro-batching inference.

The simulation loop calls HEAD once per ego vehicle per decision step;
a fleet backend calls it for thousands of vehicles concurrently.  This
package turns the (already batched) LST-GAT forward and
:meth:`~repro.decision.agents.PDQNAgent.act_batch` into a service that
stays safe and explicit under overload:

* :mod:`~repro.serve.types` -- the request/response vocabulary and the
  :class:`ServiceLevel` degradation ladder;
* :mod:`~repro.serve.batcher` -- bounded admission + deadline-aware
  micro-batch coalescing (backpressure, never unbounded queues);
* :mod:`~repro.serve.breaker` -- circuit breaker stepping the ladder
  down under NaN storms / deadline-miss storms, half-open probes up;
* :mod:`~repro.serve.engine` -- the synchronous compute core executing
  one micro-batch at a given rung;
* :mod:`~repro.serve.server` -- the asyncio worker loop tying the above
  together, with health/readiness reporting;
* :mod:`~repro.serve.client` -- timeouts, jittered backoff, retry
  budget;
* :mod:`~repro.serve.loadgen` -- seeded open-loop load + invariants
  (the chaos harness drives this against :mod:`repro.faults.service`);
* :mod:`~repro.serve.transport` -- newline-JSON TCP edge.

See ``docs/serving.md`` for the architecture and tuning guide.
"""

from .types import (BatchStats, InferenceRequest, InferenceResponse,
                    RequestIdSequence, ServiceLevel, Verdict)
from .batcher import BatcherConfig, MicroBatcher, OfferRejected
from .breaker import BreakerConfig, CircuitBreaker
from .engine import BatchInferenceEngine, ItemResult, safety_action_from_graph
from .health import HealthReport, HealthTracker
from .server import InferenceServer, ServerConfig
from .client import ClientConfig, RetryBudget, ServeClient
from .loadgen import LoadProfile, LoadReport, make_graph_pool, run_load
from .transport import TcpClient, TcpTransport, decode_graph, encode_graph

__all__ = [
    "ServiceLevel", "Verdict", "InferenceRequest", "InferenceResponse",
    "BatchStats", "RequestIdSequence",
    "BatcherConfig", "MicroBatcher", "OfferRejected",
    "BreakerConfig", "CircuitBreaker",
    "BatchInferenceEngine", "ItemResult", "safety_action_from_graph",
    "HealthReport", "HealthTracker",
    "InferenceServer", "ServerConfig",
    "ClientConfig", "RetryBudget", "ServeClient",
    "LoadProfile", "LoadReport", "make_graph_pool", "run_load",
    "TcpTransport", "TcpClient", "encode_graph", "decode_graph",
]
