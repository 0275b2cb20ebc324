"""Trajectory recording and the NGSIM-like "REAL" dataset substitute.

The paper trains LST-GAT on REAL, a merge of the NGSIM US-101 and I-80
recordings: conventional vehicles on a 1.14 km six-lane highway segment
sampled at the paper's 0.5 s granularity.  NGSIM raw data cannot be
shipped offline, so :func:`generate_real_dataset` synthesizes an
equivalent corpus by simulating heterogeneous human drivers (randomized
Krauss/IDM parameters, MOBIL lane changes) on the same geometry and
recording every vehicle's state per step.  The statistical features the
predictor consumes -- dense multi-lane interaction, lane changes,
heterogeneous speeds, 0.5 s sampling -- are preserved; see DESIGN.md.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from ..seeding import default_generator
from ..sim import Road, SimulationEngine, populate_traffic, replenish_traffic
from ..sim.vehicle import VehicleState

__all__ = ["Snapshot", "TrajectorySet", "record_trajectories", "generate_real_dataset"]

#: Length of the NGSIM US-101 / I-80 merged segment (m), from the paper.
REAL_SEGMENT_LENGTH = 1140.0

#: Snapshot maps vehicle id -> state at one time step.
Snapshot = dict[str, VehicleState]


@dataclass
class TrajectorySet:
    """A recorded traffic scene: one snapshot per time step.

    Attributes
    ----------
    snapshots:
        ``snapshots[t][vid]`` is the state of ``vid`` at step ``t``;
        vehicles appear only while they are on the segment.
    road:
        Geometry the scene was recorded on.
    """

    snapshots: list[Snapshot]
    road: Road

    def __len__(self) -> int:
        return len(self.snapshots)

    def vehicle_ids(self) -> list[str]:
        """All vehicle ids that ever appear, sorted."""
        ids: set[str] = set()
        for snapshot in self.snapshots:
            ids.update(snapshot)
        return sorted(ids)

    def presence_span(self, vid: str) -> tuple[int, int]:
        """Return ``(first_step, last_step)`` at which ``vid`` is present."""
        steps = [t for t, snapshot in enumerate(self.snapshots) if vid in snapshot]
        if not steps:
            raise KeyError(f"vehicle {vid!r} never appears")
        return steps[0], steps[-1]

    def split(self, ratio: float = 0.8) -> tuple["TrajectorySet", "TrajectorySet"]:
        """Chronological train/test split (paper uses 4:1)."""
        if not 0.0 < ratio < 1.0:
            raise ValueError("split ratio must be in (0, 1)")
        cut = int(len(self.snapshots) * ratio)
        return (TrajectorySet(self.snapshots[:cut], self.road),
                TrajectorySet(self.snapshots[cut:], self.road))

    # ------------------------------------------------------------------
    # persistence (NGSIM-like flat records)
    # ------------------------------------------------------------------
    def to_records(self) -> np.ndarray:
        """Flatten to NGSIM-like rows ``(step, vehicle_index, lane, lon, v)``."""
        ids = {vid: index for index, vid in enumerate(self.vehicle_ids())}
        rows = [
            (t, ids[vid], state.lat, state.lon, state.v)
            for t, snapshot in enumerate(self.snapshots)
            for vid, state in sorted(snapshot.items())
        ]
        return np.array(rows, dtype=np.float64)

    def save(self, path: str | Path) -> Path:
        """Persist to ``.npz`` (records + road geometry)."""
        path = Path(path)
        if path.suffix != ".npz":
            path = path.with_suffix(path.suffix + ".npz")
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, records=self.to_records(),
                 road=np.array([self.road.length, self.road.num_lanes,
                                self.road.lane_width, self.road.v_min, self.road.v_max]))
        return path

    @staticmethod
    def load(path: str | Path) -> "TrajectorySet":
        """Load a set persisted by :meth:`save`."""
        with np.load(Path(path)) as archive:
            records = archive["records"]
            length, lanes, width, v_min, v_max = archive["road"]
        road = Road(length=float(length), num_lanes=int(lanes), lane_width=float(width),
                    v_min=float(v_min), v_max=float(v_max))
        steps = int(records[:, 0].max()) + 1 if len(records) else 0
        snapshots: list[Snapshot] = [{} for _ in range(steps)]
        for step, vehicle_index, lane, lon, velocity in records:
            snapshots[int(step)][f"v{int(vehicle_index)}"] = VehicleState(
                lat=int(lane), lon=float(lon), v=float(velocity))
        return TrajectorySet(snapshots, road)


def record_trajectories(engine: SimulationEngine, steps: int) -> TrajectorySet:
    """Run ``engine`` for ``steps`` steps recording every vehicle state."""
    snapshots: list[Snapshot] = []
    for _ in range(steps):
        snapshots.append({vid: vehicle.state for vid, vehicle in engine.vehicles.items()})
        engine.step()
    return TrajectorySet(snapshots, engine.road)


def generate_real_dataset(seed: int = 0, steps: int = 300,
                          density_per_km: float = 170.0,
                          slowdown_rate: float = 0.004,
                          slowdown_duration: int = 12,
                          road: Road | None = None) -> TrajectorySet:
    """Synthesize the REAL dataset substitute (see module docstring).

    NGSIM US-101 / I-80 are congested stop-and-go recordings, so besides
    high density the generator injects random slowdown events: a driver
    temporarily halves their desired speed (distraction, merging truck,
    rubbernecking), which launches the backward-propagating braking
    waves characteristic of those datasets.  These events are what give
    interaction-aware predictors their edge -- a target's imminent
    braking is visible in its *leader's* state before it shows in the
    target's own history.

    Parameters
    ----------
    seed:
        Seeds the traffic draw, driver imperfection and slowdown events.
    steps:
        Recording length; 300 steps = 150 s of traffic.
    density_per_km:
        Total density; NGSIM's congested segments run well above free flow.
    slowdown_rate:
        Per-vehicle per-step probability of starting a slowdown event.
    slowdown_duration:
        Event length in steps (12 steps = 6 s).
    """
    road = road or Road(length=REAL_SEGMENT_LENGTH)
    rng = default_generator(seed)
    engine = SimulationEngine(road=road, rng=rng)
    populate_traffic(engine, rng, density_per_km=density_per_km)
    snapshots: list[Snapshot] = []
    active_slowdowns: dict[str, tuple[int, float]] = {}
    for _ in range(steps):
        replenish_traffic(engine, rng, density_per_km=density_per_km)
        _advance_slowdowns(engine, rng, active_slowdowns,
                           slowdown_rate, slowdown_duration)
        snapshots.append({vid: vehicle.state for vid, vehicle in engine.vehicles.items()})
        engine.step()
    return TrajectorySet(snapshots, road)


def _advance_slowdowns(engine: SimulationEngine, rng: np.random.Generator,
                       active: dict[str, tuple[int, float]],
                       rate: float, duration: int) -> None:
    """Start, tick, and end the random slowdown events."""
    for vid in list(active):
        steps_left, original = active[vid]
        vehicle = engine.vehicles.get(vid)
        if vehicle is None or steps_left <= 0:
            if vehicle is not None:
                vehicle.profile = replace(vehicle.profile, desired_speed=original)
            del active[vid]
        else:
            active[vid] = (steps_left - 1, original)
    for vid, vehicle in engine.vehicles.items():
        if vid not in active and rng.random() < rate:
            profile = vehicle.profile
            active[vid] = (duration, profile.desired_speed)
            vehicle.profile = replace(profile, desired_speed=profile.desired_speed
                                      * float(rng.uniform(0.25, 0.55)))
