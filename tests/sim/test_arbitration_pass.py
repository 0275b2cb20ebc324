"""Lane-change arbitration against its row-by-row form in ``tests/oracles/engine.py``.

``_abort_conflicting_changes`` tests every mover against every keeper
claim in one comparison and walks only the movers' claims on each
other.  It must abort the same movers as the row-by-row loop -- leaving
the same lane deltas, targets and cooldowns -- including in dense
conflicts where an aborted mover's claim on its own lane blocks a
later mover.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.sim.engine import _abort_conflicting_changes
from tests.oracles.engine import abort_conflicting_changes

#: Claim endpoints on a coarse grid, so intervals touch and overlap often.
ends = st.one_of(st.integers(0, 40).map(lambda step: step * 2.5),
                 st.floats(0.0, 100.0))


@st.composite
def scenes(draw):
    count = draw(st.integers(0, 40))
    lanes = draw(st.integers(1, 6))
    column = lambda values: np.array(
        draw(st.lists(values, min_size=count, max_size=count)))
    lane = column(st.integers(1, lanes)).astype(np.int64)
    lane_delta = column(st.sampled_from([-1, 0, 0, 1])).astype(np.int64)
    role = column(st.sampled_from(["mover", "keeper", "neither"]))
    claim_lo = column(ends).astype(float)
    claim_hi = claim_lo + column(st.floats(0.0, 12.0)).astype(float)
    movers = (role == "mover") & (lane_delta != 0)
    keepers = (role == "keeper") | ((role == "mover") & (lane_delta == 0))
    cooldown = column(st.integers(0, 4)).astype(np.int64)
    return movers, keepers, lane, lane_delta, lane + lane_delta, cooldown, \
        claim_lo, claim_hi


def arbitrate(arbiter, scene):
    movers, keepers, lane, lane_delta, target, cooldown, lo, hi = (
        column.copy() for column in scene)
    arbiter(movers, keepers, lane, lane_delta, target, cooldown, lo, hi)
    return lane_delta, target, cooldown


def assert_alike(scene):
    fast = arbitrate(_abort_conflicting_changes, scene)
    slow = arbitrate(abort_conflicting_changes, scene)
    for got, expected in zip(fast, slow):
        assert got.tobytes() == expected.tobytes()
    return fast


@settings(max_examples=400, deadline=None)
@given(scene=scenes())
def test_array_arbitration_matches_row_loop(scene):
    assert_alike(scene)


def test_aborted_mover_claims_its_own_lane_ahead_of_later_movers():
    """Row 0 aborts against a keeper in lane 3 and claims lane 2, which
    then blocks row 1's move into lane 2; row 2 moves clear of both."""
    scene = (np.array([True, True, True, False]),
             np.array([False, False, False, True]),
             np.array([2, 1, 4, 3]),
             np.array([1, 1, -1, 0]),
             np.array([3, 2, 3, 3]),
             np.array([4, 4, 4, 0]),
             np.array([10.0, 12.0, 40.0, 14.0]),
             np.array([20.0, 22.0, 50.0, 24.0]))
    lane_delta, target, cooldown = assert_alike(scene)
    assert lane_delta.tolist() == [0, 0, -1, 0]
    assert target.tolist() == [2, 1, 3, 3]
    assert cooldown.tolist() == [0, 0, 4, 0]
