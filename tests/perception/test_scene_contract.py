"""Perceived scenes and G(t) arrays on paths no golden pins, bit for bit.

``lstgat_trace.npz`` and ``golden_single_av_trace.json`` cover one
noise-free, fault-free, phantom-enabled episode.  Three perception
paths they leave open are pinned here, each as a ``(count, sha256)``
fingerprint:

* offline sample generation (:func:`~repro.perception.build_samples`)
  through a noisy sensor;
* the HEAD-w/o-PVC ablation (``use_phantoms=False``), whose phantom
  slots become zero nodes;
* a faulty sensor whose dropout bursts outlast the tracker's
  ``max_gap``, so tracks age out and are re-acquired with fresh
  front-padding.

A fingerprint covers, per perceived scene, the bytes of every
:func:`~repro.perception.build_graph` array, the kind of each of the 42
nodes in graph order (target C_i, then C_{i.1}..C_{i.6}) and the six
target vids.
"""

import hashlib

import numpy as np

from repro.data import generate_real_dataset
from repro.decision.environment import DrivingEnv
from repro.decision.pamdp import LaneBehavior, ParameterizedAction
from repro.faults import FaultInjector, FaultSchedule, FaultySensor
from repro.perception import AREA_COUNT, Sensor, TrackKind, build_samples
from repro.perception import dataset as dataset_module
from repro.perception.graph import build_graph
from repro.perception.module import EnhancedPerception
from repro.sim.road import Road

SAMPLES_FINGERPRINT = (
    156, "d29fd17840aca114119464922ac9cb57c0e075ee13d01aeeae3b68a3543be41b")
NO_PHANTOMS_FINGERPRINT = (
    41, "65572f7398e5add4cab619be3e55e9aa6bea2e797b20eb6156038f98ad252fab")
DROPOUT_FINGERPRINT = (
    41, "8be9a3df12d903e719344a1e7a5aa501c86f9ef99536bbd1515dab7cba0a5559")

#: Dropout bursts of 5 steps against the tracker's default max_gap of 2.
DROPOUTS = FaultSchedule(dropout_rate=0.15, dropout_burst=5, seed=11)


def scene_rows(scene):
    """Kind names of the 42 nodes in graph order, and the six target vids."""
    kinds = [TrackKind(int(code)).name for code in scene.kinds]
    vids = [scene.node(area).vid for area in range(1, AREA_COUNT + 1)]
    return kinds, vids


def scene_bytes(scene, graph):
    """Everything one perceived scene and its G(t) arrays hold."""
    kinds, vids = scene_rows(scene)
    arrays = (graph.target_features, graph.contributor_features,
              graph.target_mask, graph.ego_features)
    return (b"".join(array.tobytes() for array in arrays)
            + ",".join(kinds).encode() + ",".join(map(str, vids)).encode())


def fingerprint(chunks):
    return len(chunks), hashlib.sha256(b"".join(chunks)).hexdigest()


def drive(env, seed):
    """One episode of a fixed lane-weave; the bytes of every frame."""
    env.reset(seed)
    chunks = [scene_bytes(env.frame.scene, env.frame.graph)]
    step = 0
    while not env.done():
        delta = (0, 1, 0, -1)[(step // 6) % 4]
        if not env.road.is_valid_lane(env.av.lane + delta):
            delta = 0
        env.step(ParameterizedAction(LaneBehavior.from_delta(delta),
                                     (1.5, -1.0, 0.5)[step % 3]))
        chunks.append(scene_bytes(env.frame.scene, env.frame.graph))
        step += 1
    return chunks


def test_noisy_sample_generation(monkeypatch):
    trajectories = generate_real_dataset(seed=4, steps=40, density_per_km=120)
    chunks = []

    def recording_build_graph(scene, road):
        graph = build_graph(scene, road)
        chunks.append(scene_bytes(scene, graph))
        return graph

    monkeypatch.setattr(dataset_module, "build_graph", recording_build_graph)
    sensor = Sensor(position_noise=0.5, velocity_noise=0.5, seed=3)
    samples = build_samples(trajectories, sensor=sensor, max_egos=2,
                            rng=np.random.default_rng(0))
    assert len(samples) == len(chunks) > 0
    chunks += [sample.truth.tobytes() + sample.graph.target_mask.tobytes()
               + repr(sample.target_ids).encode() for sample in samples]
    assert fingerprint(chunks) == SAMPLES_FINGERPRINT


def test_phantomless_ablation_episode():
    env = DrivingEnv(EnhancedPerception(predictor=None, use_phantoms=False),
                     road=Road(length=600.0), density_per_km=120.0,
                     max_steps=40)
    assert fingerprint(drive(env, 2)) == NO_PHANTOMS_FINGERPRINT


def test_dropout_outlasting_max_gap_episode():
    injector = FaultInjector(DROPOUTS)
    perception = EnhancedPerception(predictor=None,
                                    sensor=FaultySensor(Sensor(), injector))
    assert DROPOUTS.dropout_burst > perception.buffer.max_gap
    env = DrivingEnv(perception, road=Road(length=600.0),
                     density_per_km=120.0, max_steps=40, faults=injector)
    # Count ids whose track was pruned and later re-acquired.
    tracked, lost, reacquired = set(), set(), set()
    original_update = perception.buffer.update

    def watching_update(observed):
        original_update(observed)
        now = set(perception.buffer.tracked_ids())
        reacquired.update(now & lost)
        lost.update(tracked - now)
        tracked.clear()
        tracked.update(now)

    perception.buffer.update = watching_update
    chunks = drive(env, 3)
    assert injector.log.dropped > 0 and reacquired
    assert fingerprint(chunks) == DROPOUT_FINGERPRINT
