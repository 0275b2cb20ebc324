"""TraCI-like control facade over the simulation engine.

The paper couples HEAD to SUMO through TraCI ("retrieve values of
simulated objects and manipulate their behaviors online").  This module
exposes the same interaction style -- domain objects with getters and
online setters plus ``simulationStep`` -- so code written against the
paper's description maps one-to-one onto this simulator.
"""

from __future__ import annotations

from .engine import CollisionEvent, SimulationEngine

__all__ = ["TraCI"]


class _VehicleDomain:
    """``traci.vehicle``-style accessor bound to an engine.

    ``faults`` / ``fault_vid`` optionally route :meth:`setManeuver`
    accelerations through a :class:`~repro.faults.injector.FaultInjector`
    (actuator delay/clamp faults), for the given vehicle id or for all
    vehicles when ``fault_vid`` is None.
    """

    def __init__(self, engine: SimulationEngine, faults=None,
                 fault_vid: str | None = None) -> None:
        self._engine = engine
        self._faults = faults
        self._fault_vid = fault_vid

    def getIDList(self) -> list[str]:
        """Ids of all vehicles currently in the simulation."""
        return sorted(self._engine.vehicles)

    def getLaneIndex(self, vid: str) -> int:
        """Lane number (1 = leftmost), the paper's ``.lat``."""
        return self._engine.get(vid).lane

    def getLanePosition(self, vid: str) -> float:
        """Longitudinal position from the origin (m), the paper's ``.lon``."""
        return self._engine.get(vid).lon

    def getSpeed(self, vid: str) -> float:
        """Longitudinal velocity (m/s)."""
        return self._engine.get(vid).v

    def getLeader(self, vid: str) -> tuple[str, float] | None:
        """``(leader_id, gap)`` in the vehicle's lane, or None."""
        vehicle = self._engine.get(vid)
        leader = self._engine.leader_of(vehicle)
        if leader is None:
            return None
        return leader.vid, vehicle.gap_to(leader)

    def getFollower(self, vid: str) -> tuple[str, float] | None:
        """``(follower_id, gap)`` in the vehicle's lane, or None."""
        vehicle = self._engine.get(vid)
        follower = self._engine.follower_of(vehicle)
        if follower is None:
            return None
        return follower.vid, follower.gap_to(vehicle)

    def setManeuver(self, vid: str, lane_delta: int, accel: float) -> None:
        """Command a parameterized maneuver for the next step."""
        if self._faults is not None and (self._fault_vid is None
                                         or vid == self._fault_vid):
            accel = self._faults.filter_accel(accel)
        self._engine.set_maneuver(vid, lane_delta, accel)

    def remove(self, vid: str) -> None:
        """Remove a vehicle from the simulation."""
        self._engine.remove_vehicle(vid)


class _SimulationDomain:
    """``traci.simulation``-style accessor bound to an engine."""

    def __init__(self, engine: SimulationEngine) -> None:
        self._engine = engine

    def getTime(self) -> float:
        """Simulated wall time in seconds."""
        from . import constants
        return self._engine.step_count * constants.DT


class TraCI:
    """Top-level facade: ``traci.vehicle``, ``traci.simulation``, stepping.

    Pass ``faults`` (a :class:`~repro.faults.injector.FaultInjector`) to
    degrade the actuator path of ``fault_vid`` -- or of every vehicle
    when ``fault_vid`` is None -- mirroring how a real TraCI coupling
    would sit between the decision stack and the simulated plant.
    """

    def __init__(self, engine: SimulationEngine, faults=None,
                 fault_vid: str | None = None) -> None:
        self.engine = engine
        self.faults = faults
        self.vehicle = _VehicleDomain(engine, faults=faults, fault_vid=fault_vid)
        self.simulation = _SimulationDomain(engine)

    def simulationStep(self) -> list[CollisionEvent]:
        """Advance the simulation one step; return new collision events."""
        return self.engine.step()
