"""Enhanced perception walkthrough: sensor limits and phantom vehicles.

Builds a hand-crafted traffic scene around an autonomous vehicle,
queries the range/occlusion-limited sensor, and shows how the phantom
vehicle construction (paper Eqs. 4-6) fills every hole before LST-GAT
predicts the surrounding vehicles' next states.

Run:  python examples/occlusion_perception.py
"""

import numpy as np

from repro.perception import (EnhancedPerception, LSTGAT, Sensor, TrackKind,
                              to_networkx)
from repro.seeding import default_generator
from repro.sim import Road, SimulationEngine, Vehicle, VehicleState


def build_scene_engine() -> SimulationEngine:
    """A scene with an occluded leader-of-leader and an off-road side."""
    road = Road(length=2000.0)
    engine = SimulationEngine(road=road, rng=default_generator(0))
    engine.add_vehicle(Vehicle("av", VehicleState(lat=1, lon=500.0, v=20.0),
                               is_autonomous=True))
    # Directly ahead: visible.
    engine.add_vehicle(Vehicle("leader", VehicleState(lat=1, lon=530.0, v=18.0)))
    # Behind the leader: hidden in its shadow (occlusion missing).
    engine.add_vehicle(Vehicle("hidden", VehicleState(lat=1, lon=560.0, v=17.0)))
    # Front-right: visible.
    engine.add_vehicle(Vehicle("side", VehicleState(lat=2, lon=520.0, v=21.0)))
    # Far ahead, outside the 100 m detection radius (range missing).
    engine.add_vehicle(Vehicle("far", VehicleState(lat=2, lon=700.0, v=22.0)))
    return engine


def main() -> None:
    engine = build_scene_engine()
    road = engine.road

    sensor = Sensor(detection_range=100.0)
    world = {vid: vehicle.state for vid, vehicle in engine.vehicles.items()}
    observed = sensor.observe("av", engine.get("av").state, world, road)
    print("== Sensor view (R = 100 m, occlusion shadows) ==")
    for vid in sorted(world):
        if vid == "av":
            continue
        status = "visible" if vid in observed else "NOT visible"
        print(f"  {vid:>7}: {status}")

    perception = EnhancedPerception(
        predictor=LSTGAT(attention_dim=32, lstm_dim=32, rng=default_generator(1)))
    # Feed a few frames so tracks accumulate history.
    for _ in range(5):
        frame = perception.perceive(engine, "av")
        engine.step()

    print("\n== Perceived scene: 6 targets around the AV ==")
    area_names = {1: "front-left", 2: "front", 3: "front-right",
                  4: "rear-left", 5: "rear", 6: "rear-right"}
    for area in range(1, 7):
        target = frame.scene.node(area)
        label = target.vid or target.kind.label
        print(f"  C{area} ({area_names[area]:>11}): {label:<18} "
              f"lane {target.lane:>2}  lon {target.lon:7.1f}  v {target.v:5.1f}")

    surroundings = {(i, j): frame.scene.node(i, j)
                    for i in range(1, 7) for j in range(1, 7)}
    phantoms = [(key, node) for key, node in surroundings.items()
                if node.kind.is_phantom]
    print(f"\n{frame.scene.phantom_count()} phantom nodes constructed; "
          f"examples among the surroundings:")
    for (i, j), node in phantoms[:5]:
        print(f"  C{i}.{j}: {node.kind.label:<18} lane {node.lane:>2} "
              f"lon {node.lon:7.1f}")

    occluded = [key for key, node in surroundings.items()
                if node.kind is TrackKind.PHANTOM_OCCLUSION]
    print(f"occlusion phantoms at: {occluded}")

    graph = to_networkx(frame.scene, road)
    print(f"\nSpatial graph g(t): {graph.number_of_nodes()} nodes, "
          f"{graph.number_of_edges()} edges (paper: 42 nodes)")

    print("\n== LST-GAT one-step predictions (untrained weights, demo only) ==")
    print("   target      d_lat     d_lon     v_rel")
    for area in range(1, 7):
        d_lat, d_lon, v_rel = frame.prediction[area - 1]
        print(f"   C{area}       {d_lat:8.2f}  {d_lon:8.2f}  {v_rel:8.2f}")


if __name__ == "__main__":
    main()
