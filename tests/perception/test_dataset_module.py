"""Tests for sample generation and the online EnhancedPerception facade."""

import numpy as np
import pytest

from repro.data import generate_real_dataset, record_trajectories
from repro.perception import (EnhancedPerception, LSTGAT, Sensor, TrackKind,
                              build_samples, train_test_samples)
from repro.perception.graph import OUTPUT_SCALE
from repro.sim import Road, SimulationEngine, Vehicle, VehicleState, populate_traffic


@pytest.fixture(scope="module")
def dataset():
    return generate_real_dataset(seed=4, steps=60, density_per_km=120)


def test_build_samples_structure(dataset):
    samples = build_samples(dataset, max_egos=2, rng=np.random.default_rng(0))
    assert samples
    for sample in samples[:10]:
        assert sample.graph.target_features.shape == (5, 6, 4)
        assert sample.truth.shape == (6, 3)
        # masked rows carry zero truth
        for index, flag in enumerate(sample.graph.target_mask):
            if flag == 0.0:
                assert np.allclose(sample.truth[index], 0.0)


def test_ground_truth_matches_recording(dataset):
    """Unmasked labels must equal the recorded future relative state."""
    samples = build_samples(dataset, ego_ids=[dataset.vehicle_ids()[0]])
    road = dataset.road
    checked = 0
    for sample in samples:
        mask = sample.graph.target_mask
        for index in range(6):
            if mask[index] == 1.0:
                # d_lon truth must be within the sensor+motion envelope
                d_lon = sample.truth[index, 1] * OUTPUT_SCALE[1]
                assert abs(d_lon) < 150.0
                checked += 1
    assert checked > 0


def test_build_samples_explicit_egos(dataset):
    vid = dataset.vehicle_ids()[5]
    samples = build_samples(dataset, ego_ids=[vid])
    first, last = dataset.presence_span(vid)
    assert 0 < len(samples) <= last - first + 1


def test_train_test_samples_split(dataset):
    train, test = train_test_samples(dataset, ratio=0.8, max_egos=2,
                                     rng=np.random.default_rng(1))
    assert train and test


def test_build_samples_rejects_short_scene():
    road = Road(length=400.0)
    engine = SimulationEngine(road=road, rng=np.random.default_rng(0))
    engine.add_vehicle(Vehicle("v0", VehicleState(1, 0.0, 10.0)))
    trajectories = record_trajectories(engine, steps=3)
    with pytest.raises(ValueError):
        build_samples(trajectories, max_egos=1)


class TestEnhancedPerception:
    def make_engine(self):
        road = Road(length=2000.0)
        engine = SimulationEngine(road=road, rng=np.random.default_rng(3))
        populate_traffic(engine, np.random.default_rng(3), density_per_km=100)
        av = Vehicle("av", VehicleState(3, 500.0, 15.0), is_autonomous=True)
        engine.add_vehicle(av)
        return engine

    def test_perceive_produces_frame(self):
        engine = self.make_engine()
        perception = EnhancedPerception(predictor=None)
        frame = perception.perceive(engine, "av")
        assert frame.prediction.shape == (6, 3)
        assert np.allclose(frame.prediction, 0.0)  # predictor disabled
        assert frame.scene.nodes.shape == (42, 5, 3)

    def test_perceive_with_predictor(self):
        engine = self.make_engine()
        model = LSTGAT(attention_dim=16, lstm_dim=16, rng=np.random.default_rng(0))
        perception = EnhancedPerception(predictor=model)
        frame = perception.perceive(engine, "av")
        assert np.isfinite(frame.prediction).all()
        # physical units: one-step relative lon within plausible bounds
        assert np.all(np.abs(frame.prediction[:, 1]) < 1000.0)

    def test_phantomless_mode_zeroes_unobserved(self):
        engine = self.make_engine()
        perception = EnhancedPerception(predictor=None, use_phantoms=False)
        frame = perception.perceive(engine, "av")
        kinds = {TrackKind(int(code)) for code in frame.scene.kinds}
        assert TrackKind.PHANTOM_RANGE not in kinds
        assert TrackKind.PHANTOM_OCCLUSION not in kinds
        assert TrackKind.PHANTOM_INHERENT not in kinds

    def test_history_accumulates_across_steps(self):
        engine = self.make_engine()
        perception = EnhancedPerception(predictor=None)
        for _ in range(4):
            engine.set_maneuver("av", 0, 0.5)
            frame = perception.perceive(engine, "av")
            engine.step()
        history = frame.scene.ego
        assert history.shape == (5, 3)
        assert history[-1, 1] > history[0, 1] or (history[0] == history[1]).all()

    def test_reset_clears_state(self):
        engine = self.make_engine()
        perception = EnhancedPerception(predictor=None)
        perception.perceive(engine, "av")
        assert "av" in perception.buffer  # the ego's own track
        perception.reset()
        assert perception.buffer.tracked_ids() == []
