"""Tests for spatial-temporal graph construction (Eqs. 7-9)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.perception import (CONTRIBUTORS, FEATURE_DIM, ObservationBuffer,
                              build_graph, build_scene, to_networkx)
from repro.perception.graph import EGO_SCALE, OUTPUT_SCALE, RELATIVE_SCALE
from repro.sim import Road, VehicleState

Z = 5


@pytest.fixture
def road():
    return Road(length=100000.0)


def state(lane, lon, v=10.0):
    return VehicleState(lat=lane, lon=lon, v=v)


def make_scene(road, observed):
    buffer = ObservationBuffer(history_steps=Z)
    for _ in range(Z):
        buffer.update({**observed, "ego": state(3, 5000.0, 10.0)})
    return build_scene("ego", buffer, road, detection_range=100.0)


def test_graph_shapes(road):
    graph = build_graph(make_scene(road, {"front": state(3, 5020.0)}), road)
    assert graph.target_features.shape == (Z, 6, FEATURE_DIM)
    assert graph.contributor_features.shape == (Z, 6, CONTRIBUTORS, FEATURE_DIM)
    assert graph.ego_features.shape == (Z, 6, FEATURE_DIM)
    assert graph.target_mask.shape == (6,)
    assert graph.history_steps == Z


def test_relative_features_eq7(road):
    graph = build_graph(make_scene(road, {"front": state(4, 5030.0, 14.0)}), road)
    # "front" is in area 3 (front-right): index 2.
    vector = graph.target_features[-1, 2] * RELATIVE_SCALE
    assert vector[0] == pytest.approx(1 * road.lane_width)  # d_lat
    assert vector[1] == pytest.approx(30.0)                 # d_lon
    assert vector[2] == pytest.approx(4.0)                  # v_rel
    assert vector[3] == pytest.approx(0.0)                  # observed -> IF=0


def test_phantom_indicator_set(road):
    graph = build_graph(make_scene(road, {}), road)
    assert np.all(graph.target_features[:, :, 3] == 1.0)
    assert np.all(graph.target_mask == 0.0)


def test_ego_raw_features_eq8_first_row(road):
    graph = build_graph(make_scene(road, {"front": state(3, 5020.0)}), road)
    ego_vector = graph.ego_features[-1, 0] * EGO_SCALE
    assert ego_vector[0] == pytest.approx(3)
    assert ego_vector[1] == pytest.approx(5000.0)
    assert ego_vector[2] == pytest.approx(10.0)
    assert ego_vector[3] == pytest.approx(0.0)
    # Ego replicated across targets.
    assert np.allclose(graph.ego_features[:, 0], graph.ego_features[:, 3])


def test_mirror_slot_carries_ego_raw_state(road):
    graph = build_graph(make_scene(road, {"front": state(3, 5020.0)}), road)
    # front target is area 2 (index 1); its mirror slot is 5.
    mirror_vector = graph.contributor_features[-1, 1, 5]
    assert np.allclose(mirror_vector, graph.ego_features[-1, 0])


def test_self_loop_slot_equals_target(road):
    graph = build_graph(make_scene(road, {"front": state(3, 5020.0)}), road)
    assert np.allclose(graph.contributor_features[:, :, 0, :], graph.target_features)


def test_zero_nodes_all_zero(road):
    graph = build_graph(make_scene(road, {}), road)
    # All phantom targets -> non-mirror surroundings zero-padded.
    for area_index in range(6):
        mirror = {0: 5, 1: 4, 2: 3, 3: 2, 4: 1, 5: 0}[area_index]
        for slot in range(1, CONTRIBUTORS):
            if slot - 1 == mirror:
                continue
            assert np.allclose(graph.contributor_features[:, area_index, slot], 0.0)


def test_networkx_export_42_nodes_48_edges(road):
    scene = make_scene(road, {"front": state(3, 5020.0)})
    nxg = to_networkx(scene, road)
    assert nxg.number_of_nodes() == 42
    # 36 surrounding->target edges + 6 self-loops.
    assert nxg.number_of_edges() == 42
    assert nxg.has_edge("C2.5", "C2")
    assert nxg.has_edge("C2", "C2")
    assert nxg.nodes["C2"]["kind"] == "observed"
    assert set(nxg.successors("C1.1")) == {"C1"}
    # Node features are build_graph's rows, bit for bit.
    graph = build_graph(scene, road)
    for area in range(1, 7):
        for slot in range(CONTRIBUTORS):
            name = f"C{area}.{slot}" if slot else f"C{area}"
            assert (nxg.nodes[name]["feature"].tobytes()
                    == graph.contributor_features[-1, area - 1, slot].tobytes())


def test_package_imports_without_networkx():
    # networkx ships only in the test/dev extras; the export imports it
    # on first use, so importing the package must not pull it in.
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    code = ("import sys, repro, repro.perception, repro.decision, "
            "repro.sim, repro.serve; print('networkx' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == "False"


def test_output_scale_consistent_with_relative_scale():
    assert np.allclose(OUTPUT_SCALE, RELATIVE_SCALE[:3])


def test_build_graphs_batched_equals_per_scene(road):
    """Stacked fleet featurization is independent of batch composition."""
    from repro.perception.graph import build_graphs

    scenes = [
        make_scene(road, {"front": state(3, 5020.0)}),
        make_scene(road, {"left": state(2, 4990.0, 8.0),
                          "right": state(4, 5015.0, 12.0)}),
        make_scene(road, {}),
    ]
    batched = build_graphs(scenes, road)
    assert len(batched) == len(scenes)
    for scene, graph in zip(scenes, batched):
        alone = build_graph(scene, road)
        np.testing.assert_array_equal(graph.target_features,
                                      alone.target_features)
        np.testing.assert_array_equal(graph.contributor_features,
                                      alone.contributor_features)
        np.testing.assert_array_equal(graph.target_mask, alone.target_mask)
        np.testing.assert_array_equal(graph.ego_features, alone.ego_features)


def test_build_graphs_empty_and_mismatched(road):
    from repro.perception.graph import build_graphs

    assert build_graphs([], road) == []
    short_buffer = ObservationBuffer(history_steps=Z - 1)
    short_buffer.update({"ego": state(3, 5000.0, 10.0)})
    short = build_scene("ego", short_buffer, road, detection_range=100.0)
    full = make_scene(road, {"front": state(3, 5020.0)})
    with pytest.raises(ValueError, match="history length"):
        build_graphs([full, short], road)
