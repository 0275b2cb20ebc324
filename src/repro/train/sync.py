"""Zero-copy policy broadcast between the learner and actor workers.

The learner publishes its policy networks as one flat ``float64``
vector in a shared-memory block (``multiprocessing.RawArray``); workers
map the same pages and copy the vector into their local module
parameters when the version counter moves.  Publishing is one in-place
copy of each module's store vector -- no pickling, no queue traffic, no
per-sync allocation -- which is what keeps the sync interval a
staleness knob rather than a throughput tax.

A plain ``Lock`` guards the (vector, version) pair so a reader can
never observe a torn write.  Contention is negligible: the learner
writes once per round, each worker reads at most once per episode.
"""

from __future__ import annotations

import numpy as np

from ..nn.module import Module

__all__ = ["SharedPolicy", "policy_modules"]


def policy_modules(agent) -> list[Module]:
    """The broadcastable network modules of an agent, in a canonical order.

    Sorted attribute-name order, the same convention the checkpoint
    introspection uses -- learner and factory-built actors hold the same
    attribute names, so both sides agree on the flat layout without
    exchanging any metadata.
    """
    return [getattr(agent, name) for name in sorted(vars(agent))
            if isinstance(getattr(agent, name), Module)]


class SharedPolicy:
    """A versioned flat parameter vector in shared memory.

    Built from a ``multiprocessing`` *context* so the synchronization
    primitives match the start method in use; the object itself is
    picklable through ``Process(args=...)`` (the shared segments are
    inherited by handle, not copied).
    """

    def __init__(self, ctx, size: int) -> None:
        self.size = size
        self._block = ctx.RawArray("d", size)
        self._version = ctx.Value("q", 0, lock=False)
        self._lock = ctx.Lock()

    def _vector(self) -> np.ndarray:
        return np.frombuffer(self._block, dtype=np.float64)

    def publish(self, modules: list[Module]) -> int:
        """Write the modules' parameters and bump the version; returns it."""
        with self._lock:
            np.concatenate([module.store()[0] for module in modules],
                           out=self._vector())
            self._version.value += 1
            return int(self._version.value)

    def refresh(self, modules: list[Module], held_version: int) -> int:
        """Load the latest vector into ``modules`` if it moved; returns
        the version now held."""
        with self._lock:
            current = int(self._version.value)
            if current != held_version:
                offset = 0
                for module in modules:
                    own = module.store()[0]
                    np.copyto(own, self._vector()[offset:offset + own.size])
                    offset += own.size
            return current

    @staticmethod
    def for_agent(ctx, agent) -> "SharedPolicy":
        return SharedPolicy(ctx, sum(m.num_parameters() for m in policy_modules(agent)))
