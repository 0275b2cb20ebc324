"""Safety fallback: TTC-gated emergency braking over any controller.

When perception reports degraded confidence -- the
:class:`~repro.faults.guard.PerceptionGuard` had to replace predictor
output, or the scene in front closes in faster than the policy reacts
-- the safest parameterized action is unambiguous: keep the lane and
brake at the comfort limit.  :class:`SafetyFallbackPolicy` wraps any
:class:`Controller` and overrides its action exactly in those cases,
leaving nominal driving untouched.

The time-to-collision test runs on the *perceived* front target (area
2 of the paper's layout), so the fallback sees the same sensor-limited
world as every other method; phantoms at the detection boundary are R
meters out and therefore never trip the threshold.  One TTC rule serves
a perception scene (:func:`front_ttc`) and a graph (:func:`front_ttc_from_graph`).
"""

from __future__ import annotations

import numpy as np

from ..perception.graph import OUTPUT_SCALE, SpatialTemporalGraph
from ..perception.phantom import TrackKind
from ..sim import constants
from .pamdp import AugmentedState, LaneBehavior, ParameterizedAction
from .policies import Controller

__all__ = ["SafetyFallbackPolicy", "TTC_DEGRADED", "front_ttc",
           "front_ttc_from_graph"]

#: Gap below which the follower is effectively touching the leader.
_CONTACT_GAP = 0.5

#: Braking threshold (s) while perception is untrusted: the policy is
#: flying partially blind, so braking starts earlier than nominal.
TTC_DEGRADED = 3.0

#: Index of the paper's area 2 (directly ahead) in a graph's target axis.
_FRONT_ROW = 1


def _ttc(gap: float, closing: float) -> float | None:
    """The TTC rule: ``0.0`` on (near-)contact, ``None`` while opening."""
    if gap <= _CONTACT_GAP:
        return 0.0
    if closing <= 0.0:
        return None
    return gap / closing


def front_ttc(env) -> float | None:
    """Time-to-collision against the perceived front target, if closing.

    Returns ``None`` when there is no perception frame, the front slot
    is empty, or the gap is opening; ``0.0`` on (near-)contact.
    """
    frame = env.frame
    av = env.av
    if frame is None or av is None:
        return None
    target = frame.scene.node(2)
    if target.kind is TrackKind.ZERO:
        return None
    return _ttc(target.lon - av.lon - constants.VEHICLE_LENGTH,
                av.v - target.v)


def front_ttc_from_graph(graph: SpatialTemporalGraph) -> float | None:
    """:func:`front_ttc` on the graph's last-step front-target row.

    The row's scaled ``[d_lat, d_lon, v_rel]`` is converted back to
    physical units.  Returns ``None`` for an empty (all-zero) slot, a
    non-finite row, or an opening gap; ``0.0`` on (near-)contact.
    """
    row = graph.target_features[-1, _FRONT_ROW]
    if not np.isfinite(row).all() or not row.any():
        return None
    d_lon = float(row[1]) * float(OUTPUT_SCALE[1])
    v_rel = float(row[2]) * float(OUTPUT_SCALE[2])
    return _ttc(d_lon - constants.VEHICLE_LENGTH, -v_rel)


class SafetyFallbackPolicy(Controller):
    """Wrap ``inner`` with a degradation-aware emergency-braking override.

    Parameters
    ----------
    inner:
        The controller making nominal decisions.
    guard:
        Optional :class:`~repro.faults.guard.PerceptionGuard` whose
        per-frame confidence widens the braking threshold when the
        predictor had to be overridden.
    ttc_brake:
        Hard threshold (s): below it the AV brakes regardless of the
        inner policy.
    ttc_degraded:
        Cautious threshold (s) used while perception confidence is
        below ``min_confidence`` -- degraded predictions mean the inner
        policy is flying partially blind, so braking starts earlier.
    """

    def __init__(self, inner: Controller, guard=None,
                 ttc_brake: float = 1.5, ttc_degraded: float = TTC_DEGRADED,
                 min_confidence: float = 1.0) -> None:
        self.inner = inner
        self.guard = guard
        self.ttc_brake = ttc_brake
        self.ttc_degraded = ttc_degraded
        self.min_confidence = min_confidence
        self.name = f"{getattr(inner, 'name', 'controller')}+fallback"
        self.overrides = 0

    def begin_episode(self) -> None:
        self.inner.begin_episode()

    def _degraded(self) -> bool:
        return (self.guard is not None
                and self.guard.last_confidence < self.min_confidence)

    def select_action(self, env, state: AugmentedState) -> ParameterizedAction:
        action = self.inner.select_action(env, state)
        ttc = front_ttc(env)
        threshold = self.ttc_degraded if self._degraded() else self.ttc_brake
        if ttc is not None and ttc < threshold:
            self.overrides += 1
            return ParameterizedAction(LaneBehavior.KEEP, -constants.A_MAX)
        return action
