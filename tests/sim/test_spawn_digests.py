"""Pinned spawn output: episode and fleet worlds are bitwise stable.

Each entry is ``(vehicle count, SHA-256 over the sorted vehicle ids and
their lane/lon/speed)``, the world digest the end-to-end benchmark
checks on re-reset.  The values were recorded before spawn stopped
querying the engine's lane index between inserts; any change to the RNG
draw order, placement rule or equilibration shows up here.
"""

import hashlib

import numpy as np
import pytest

from repro.sim import Road, build_episode
from repro.sim.spawn import build_fleet_episode

EPISODES = {
    (1000.0, 200): [
        (194, "c9cd4df18480549f7780ff579c8461f7d81d3fe74d5dc4b001e6f16846473461"),
        (193, "e68c16e93327e7c5c8212db209ab7b4b8177b504c1824e23564693b8b7cfdfa1"),
        (193, "ef2ae4386084e1ea49d3399a525d47e4af1daab4b75dbc20fed2d91d18105316"),
        (193, "9160628c936b3eaf70bdde2dfbc258517ba8783139d3887c038d1c8d5015132b"),
        (194, "73ea0e2a4cb0f914cc27c1a2591c1437ce9778de329b9621aaf6325b85d3d352"),
    ],
    (3000.0, 180): [
        (535, "11bd9971c5c1559e7e72d4d900a528d59e1b9e0d321b688382e5218af9784f94"),
        (535, "0fd199291f15801279ffeda72fe69e71ffcc15bae7a00694012343dbe4a42eb8"),
        (537, "ad775d79760abe2d429ebe60c9acfd805978ced6682fed2c8e9004726ddbc6a7"),
        (535, "25994fb4e7619a60ee20777812fc369392b6252684172171eeb75336fe6d1ba0"),
        (537, "8875d2b973d91fa92f615c48732e1205eaa6f9b7470e87d9d4be9a6131aff59a"),
    ],
    (500.0, 40): [
        (18, "b835eaa8329f9eb8cdae31b30fded871820d6a945abea82af7dc37ae11cd30ed"),
        (17, "4560eda2cbc6a31d02175c3b9af0341f327b8627045be715988e2013f17e4436"),
        (16, "65e2aa6afa202638b7c29aa6ab9dc17666a7790cabbf86c5148425844b6982ce"),
        (16, "5c9d1c0053a05677d530c7311c9a7b8fb9fda6e4bf013e4355cf6a8f16d28782"),
        (19, "eb7e0da0b46857aa76dfa8486cfeff39665647f200b6fa5ccb06661137b094bd"),
    ],
}

FLEET_OF_8 = [
    (527, "13540fb270a6069dc9c5d2311808633b50077ab214d1a6109b423e646fde943e"),
    (528, "9e056abf069743329c9099968aea5c75eed365ee3a6a5188e6e921c484fae464"),
    (532, "9d4900b888bc7fa0424a779314e22cfd0314571f1f51eeb5d42908f590fdaa6c"),
    (528, "947fe0b1bf28a83abaefd83887407c5efb6ecd036e656fac680a875814a1f4dc"),
    (531, "1255e093841237977f1e97a40c7955b3e524e3a0bafad02ed3870a817b50f38d"),
]


def world_digest(engine):
    vehicles = sorted(engine.vehicles.values(), key=lambda vehicle: vehicle.vid)
    state = np.array([(vehicle.lane, vehicle.lon, vehicle.v) for vehicle in vehicles],
                     dtype=np.float64)
    digest = hashlib.sha256(",".join(vehicle.vid for vehicle in vehicles).encode())
    digest.update(state.tobytes())
    return len(vehicles), digest.hexdigest()


@pytest.mark.parametrize("length,density", sorted(EPISODES))
def test_episode_worlds_are_pinned(length, density):
    for seed, expected in enumerate(EPISODES[(length, density)]):
        engine, _ = build_episode(seed, Road(length=length), density)
        assert world_digest(engine) == expected, f"seed {seed}"


def test_fleet_worlds_are_pinned():
    for seed, expected in enumerate(FLEET_OF_8):
        engine, _ = build_fleet_episode(seed, num_avs=8)
        assert world_digest(engine) == expected, f"seed {seed}"
