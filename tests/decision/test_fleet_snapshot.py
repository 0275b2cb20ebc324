"""The fleet's one world snapshot per step must not outlive a wreck.

``FleetEnv.step`` takes one snapshot after the engine step, for the
step records and the next sensing.  When an AV crashes and leaves the
world, the survivors must sense the world without it.
"""

from repro.decision.fleet import FleetEnv
from repro.decision.pamdp import LaneBehavior, ParameterizedAction
from repro.perception.module import EnhancedPerception
from repro.sim.road import Road
from repro.sim.vehicle import VehicleState

KEEP = ParameterizedAction(LaneBehavior.KEEP, 0.0)


def test_survivor_stops_sensing_a_discarded_av():
    env = FleetEnv([EnhancedPerception(predictor=None) for _ in range(2)],
                   road=Road(length=1000.0), density_per_km=6.0)
    env.reset(seed=3)
    engine = env.engine
    cvs = [vid for vid, vehicle in engine.vehicles.items()
           if not vehicle.is_autonomous]
    engine.discard_vehicles(cvs[1:])
    engine.get("av").state = VehicleState(lat=1, lon=100.0, v=20.0)
    # av1 drives into the back of the one CV left, beside and ahead of av.
    engine.get("av1").state = VehicleState(lat=2, lon=120.0, v=20.0)
    engine.get(cvs[0]).state = VehicleState(lat=2, lon=131.5, v=5.0)
    states = env._perceive_active()
    assert "av1" in env.perceptions[0].buffer.current_ids()

    env.step({vid: KEEP for vid in states})
    assert env.active_ids() == ["av"]
    assert "av1" not in engine.vehicles
    assert "av1" not in env.perceptions[0].buffer.current_ids()
