"""Microscopic multi-lane traffic simulator (SUMO substitute).

Provides the road, vehicles, car-following and lane-change models, the
stepping engine with collision detection, traffic population helpers and
a TraCI-like control facade.
"""

from . import constants
from .road import Road
from .vehicle import Vehicle, VehicleState, DriverProfile
from .carfollowing import CarFollowingModel, IDM, ACC, Krauss, free_road_gap
from .lanechange import MOBIL
from .engine import SimulationEngine, CollisionEvent, Maneuver
from .spawn import (random_profile, populate_traffic, replenish_traffic,
                    insert_autonomous_vehicle, build_episode)
from .traci import TraCI
from .render import render_window
from .metrics import FlowState, measure_flow, TimeSpaceRecorder
from . import scenarios

__all__ = [
    "constants", "Road",
    "Vehicle", "VehicleState", "DriverProfile",
    "CarFollowingModel", "IDM", "ACC", "Krauss", "free_road_gap",
    "MOBIL",
    "SimulationEngine", "CollisionEvent", "Maneuver",
    "random_profile", "populate_traffic", "replenish_traffic",
    "insert_autonomous_vehicle", "build_episode",
    "TraCI",
    "render_window",
    "FlowState", "measure_flow", "TimeSpaceRecorder",
    "scenarios",
]
