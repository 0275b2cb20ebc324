"""Block-drawn spawn against the scalar oracle in ``tests/oracles/spawn.py``.

``populate_traffic`` draws each lane's uniforms as ``(n, 10)`` blocks,
one slot at a time only where a slot can land in ``keep_clear`` (such
a slot draws 1 value, not 10).  It must build the world the scalar
draws build and leave the generator in the same state, for any road,
density and window -- including windows spanning many slots and
windows at either road end, where clipping decides.
"""

from dataclasses import astuple

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.sim import Road, SimulationEngine, populate_traffic
from repro.sim.spawn import SPAWN_CLEARANCE
from tests.oracles import spawn as oracle


def world(populate, seed, road, density, keep_clear):
    rng = np.random.default_rng(seed)
    engine = SimulationEngine(road=road, rng=np.random.default_rng(0))
    created = populate(engine, rng, density, keep_clear=keep_clear)
    vehicles = [(vehicle.vid, vehicle.lane, vehicle.lon, vehicle.v,
                 astuple(vehicle.profile)) for vehicle in engine.vehicles.values()]
    return [vehicle.vid for vehicle in created], vehicles, rng.bit_generator.state


@st.composite
def windows(draw, length, spacing):
    kind = draw(st.sampled_from(["none", "default", "span"]))
    if kind == "none":
        return None
    if kind == "default":
        return (0.0, SPAWN_CLEARANCE)
    lon_min = draw(st.floats(-spacing, length + spacing))
    return (lon_min, lon_min + draw(st.integers(1, 40)) * spacing
            + draw(st.floats(0.0, spacing)))


@st.composite
def scenes(draw):
    length = draw(st.floats(200.0, 5000.0))
    density = draw(st.floats(10.0, 400.0))
    lanes = draw(st.integers(1, 6))
    per_lane = max(int(round(density * length / 1000.0)) // lanes, 1)
    keep_clear = draw(windows(length, length / per_lane))
    return length, density, lanes, keep_clear


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), scene=scenes())
@example(seed=7, scene=(3000.0, 180.0, 6, (0.0, SPAWN_CLEARANCE)))
@example(seed=3, scene=(1000.0, 200.0, 6, (100.0, 700.0)))
@example(seed=5, scene=(500.0, 40.0, 3, (480.0, 600.0)))
def test_block_draws_match_scalar_oracle(seed, scene):
    length, density, lanes, keep_clear = scene
    road = Road(length=length, num_lanes=lanes)
    expected = world(oracle.populate_traffic, seed, road, density, keep_clear)
    assert world(populate_traffic, seed, road, density, keep_clear) == expected
