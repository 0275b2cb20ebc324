"""Six-key-area neighbor selection (paper Fig. 2).

Around any center vehicle the six most influential surrounding vehicles
are the nearest ones in the front-left (1), front (2), front-right (3),
rear-left (4), rear (5) and rear-right (6) areas.  The index order
matches Eq. 4, so position ``i`` here is the paper's ``C_i``.

The query itself is
:meth:`~repro.sim.spatial.SpatialHash.six_area_neighbors`, bit-identical
to the scalar per-pair classifier kept as the test oracle
``tests/oracles/perception.py``.
"""

from __future__ import annotations

__all__ = ["AREA_COUNT", "MIRROR_AREA"]

#: Number of key areas around a center vehicle.
AREA_COUNT = 6

#: Area index of the center seen from its own neighbor: if B occupies
#: area i around A, then A occupies area MIRROR_AREA[i] around B
#: (paper footnote 1: A = C_{1.6} = C_{2.5} = C_{3.4} = ...).
MIRROR_AREA = {1: 6, 2: 5, 3: 4, 4: 3, 5: 2, 6: 1}
