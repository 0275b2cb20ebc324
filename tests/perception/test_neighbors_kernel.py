"""Batched six-key-area kernel vs the scalar classifier (hypothesis).

``SpatialHash.six_area_neighbors`` answers M queries in one call and
promises bit-identical results to the scalar ``select_neighbors``
oracle (``tests/oracles/perception.py``), *including*
tie-breaking: equal-distance candidates resolve to the first one in
candidate iteration order.  Longitudes are drawn from a coarse grid so
exact ties (and exactly-alongside/exactly-coincident cases) are common
rather than measure-zero.

The kernel has two code paths -- a scalar loop for up to four query
rows and a masked vectorized pass above that -- so fleet sizes are
drawn across the threshold and both paths are additionally pinned
against each other row by row.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.spatial import SpatialHash
from repro.sim.vehicle import VehicleState
from tests.oracles.perception import select_neighbors

NUM_LANES = 4

def states(min_lane, max_lane):
    return st.builds(
        VehicleState,
        lat=st.integers(min_lane, max_lane),
        lon=st.integers(0, 15).map(lambda tick: tick * 5.0),
        v=st.just(0.0),
    )


#: Candidates live in physical lanes, like the observed vehicles the
#: production call sites index.  Centers additionally cover the
#: boundary lanes 0 and NUM_LANES + 1 (phantom construction can query
#: from there); the kernel must return empty areas, not crash.
candidate_states = states(1, NUM_LANES)
center_states = states(0, NUM_LANES + 1)


def select_neighbors_batch(centers, candidates, num_lanes):
    """Kernel rows mapped back to candidate ids, one dict per center.

    Hash rows follow the dict's iteration order, the order the scalar
    classifier's tie-breaking depends on.
    """
    ids = list(candidates)
    index = SpatialHash(
        np.array([candidates[vid].lat for vid in ids], dtype=np.int64),
        np.array([candidates[vid].lon for vid in ids], dtype=np.float64),
        num_lanes)
    matrix = index.six_area_neighbors(
        np.array([state.lat for state in centers], dtype=np.int64),
        np.array([state.lon for state in centers], dtype=np.float64))
    return [{area: ids[row] for area, row in enumerate(rows, 1) if row >= 0}
            for rows in matrix.tolist()]


def as_dict(states):
    return {f"v{index}": state for index, state in enumerate(states)}


@settings(max_examples=120, deadline=None)
@given(candidates=st.lists(candidate_states, min_size=0, max_size=25),
       centers=st.lists(center_states, min_size=1, max_size=8))
def test_batch_matches_scalar_classifier(candidates, centers):
    world = as_dict(candidates)
    got = select_neighbors_batch(centers, world, NUM_LANES)
    # area_of returns None for a candidate at the center's exact
    # position, so the scalar call needs no self-filtering either.
    want = [select_neighbors(center, world) for center in centers]
    assert got == want


@settings(max_examples=120, deadline=None)
@given(candidates=st.lists(candidate_states, min_size=1, max_size=25),
       centers=st.lists(center_states, min_size=5, max_size=10))
def test_vectorized_path_matches_scalar_path(candidates, centers):
    """>=5 rows take the masked pass; one row takes the scalar loop."""
    lane = np.fromiter((state.lat for state in candidates), dtype=np.int64)
    lon = np.fromiter((state.lon for state in candidates), dtype=np.float64)
    center_lane = np.fromiter((state.lat for state in centers),
                              dtype=np.int64)
    center_lon = np.fromiter((state.lon for state in centers),
                             dtype=np.float64)
    batched = SpatialHash(lane, lon, NUM_LANES).six_area_neighbors(
        center_lane, center_lon)
    for row in range(len(centers)):
        single = SpatialHash(lane, lon, NUM_LANES).six_area_neighbors(
            center_lane[row:row + 1], center_lon[row:row + 1])
        np.testing.assert_array_equal(batched[row], single[0])


def test_tie_break_first_candidate_wins():
    """Two rear candidates at the same spot: iteration order decides."""
    center = VehicleState(lat=2, lon=50.0, v=0.0)
    tied_a = VehicleState(lat=2, lon=30.0, v=0.0)
    tied_b = VehicleState(lat=2, lon=30.0, v=0.0)
    for world in ({"a": tied_a, "b": tied_b}, {"b": tied_b, "a": tied_a}):
        winner = next(iter(world))
        assert select_neighbors(center, world)[5] == winner
        assert select_neighbors_batch([center], world, NUM_LANES)[0][5] \
            == winner


def test_exactly_alongside_is_rear_in_adjacent_lane():
    """Equal lon one lane over -> areas 4/6; same lane -> excluded."""
    center = VehicleState(lat=2, lon=50.0, v=0.0)
    world = {
        "left": VehicleState(lat=1, lon=50.0, v=0.0),
        "same": VehicleState(lat=2, lon=50.0, v=0.0),
        "right": VehicleState(lat=3, lon=50.0, v=0.0),
    }
    result = select_neighbors_batch([center], world, NUM_LANES)[0]
    assert result == {4: "left", 6: "right"}
    assert result == select_neighbors(center, world)


def test_empty_candidates():
    center = VehicleState(lat=1, lon=0.0, v=0.0)
    assert select_neighbors_batch([center], {}, NUM_LANES) == [{}]
