"""Tests for the auxiliary tooling: renderer, multistep rollout,
bootstrap significance, the CLI, and the src/tests boundary."""

import ast
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.data import generate_real_dataset
from repro.eval import bootstrap_difference, bootstrap_mean
from repro.perception import (LSTGAT, build_samples, horizon_errors, rollout,
                              train_predictor)
from repro.sim import (Road, SimulationEngine, Vehicle, VehicleState,
                       render_window)


class TestRenderer:
    def make_engine(self):
        engine = SimulationEngine(road=Road(length=500.0, num_lanes=3),
                                  rng=np.random.default_rng(0))
        engine.add_vehicle(Vehicle("av", VehicleState(2, 100.0, 15.0),
                                   is_autonomous=True))
        engine.add_vehicle(Vehicle("cv", VehicleState(2, 120.0, 12.0)))
        engine.add_vehicle(Vehicle("far", VehicleState(1, 400.0, 12.0)))
        return engine

    def test_render_marks_vehicles(self):
        text = render_window(self.make_engine(), "av")
        assert "A" in text
        assert text.count("v") >= 1
        assert "lane 1" in text and "lane 3" in text

    def test_out_of_window_vehicle_hidden(self):
        text = render_window(self.make_engine(), "av", half_width=50.0)
        # 'far' is 300 m ahead -> not rendered; only 'cv' shows as v.
        grid_rows = [line for line in text.splitlines() if line.startswith("lane")]
        assert sum(row.count("v") for row in grid_rows) == 1

    def test_header_reports_focus_state(self):
        text = render_window(self.make_engine(), "av")
        assert "lane 2" in text.splitlines()[0]
        assert "15.0 m/s" in text.splitlines()[0]


class TestMultistep:
    @pytest.fixture(scope="class")
    def setup(self):
        dataset = generate_real_dataset(seed=5, steps=100, density_per_km=110)
        train_set, test_set = dataset.split()
        train = build_samples(train_set, max_egos=3)
        test = build_samples(test_set, max_egos=2)
        model = LSTGAT(attention_dim=16, lstm_dim=16, rng=np.random.default_rng(0))
        train_predictor(model, train, epochs=3, batch_size=32)
        return model, test_set, test

    def test_rollout_shape(self, setup):
        model, _, test = setup
        predictions = rollout(model, test[0].graph, horizon=4)
        assert predictions.shape == (4, 6, 3)
        assert np.isfinite(predictions).all()

    def test_rollout_rejects_bad_horizon(self, setup):
        model, _, test = setup
        with pytest.raises(ValueError):
            rollout(model, test[0].graph, horizon=0)

    def test_error_grows_with_horizon(self, setup):
        """Paper Sec. III-A(2): multi-step errors accumulate."""
        model, test_set, test = setup
        errors = horizon_errors(model, test_set, test[:40], horizon=4)
        assert errors.horizons == [1, 2, 3, 4]
        assert errors.displacement[-1] > errors.displacement[0]

    def test_samples_carry_provenance(self, setup):
        _, _, test = setup
        sample = test[0]
        assert sample.ego_id is not None
        assert sample.step is not None
        assert len(sample.target_ids) == 6


class TestBootstrap:
    def test_mean_interval_contains_truth(self):
        rng = np.random.default_rng(0)
        values = rng.normal(5.0, 1.0, size=200)
        interval = bootstrap_mean(values, rng=np.random.default_rng(1))
        assert interval.contains(5.0)
        assert interval.low < interval.estimate < interval.high

    def test_difference_detects_separation(self):
        rng = np.random.default_rng(0)
        a = rng.normal(5.0, 0.5, size=100)
        b = rng.normal(4.0, 0.5, size=100)
        interval = bootstrap_difference(a, b, rng=np.random.default_rng(1))
        assert interval.low > 0.0  # clearly separated

    def test_paired_difference_removes_shared_variance(self):
        rng = np.random.default_rng(0)
        difficulty = rng.normal(0.0, 5.0, size=80)
        a = difficulty + 1.0 + rng.normal(0, 0.1, size=80)
        b = difficulty + rng.normal(0, 0.1, size=80)
        interval = bootstrap_difference(a, b, rng=np.random.default_rng(1))
        assert interval.low > 0.5  # the +1 offset is resolvable despite noise

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_mean([])
        with pytest.raises(ValueError):
            bootstrap_difference([1.0], [1.0, 2.0])

    def test_str_format(self):
        text = str(bootstrap_mean([1.0, 2.0, 3.0]))
        assert "@" in text and "[" in text


class TestCLI:
    def test_parser_subcommands(self):
        parser = build_parser()
        for command in ("generate-data", "train", "evaluate", "drive", "info"):
            args = parser.parse_args([command] if command != "train"
                                     else [command, "--episodes", "1"])
            assert args.command == command

    def test_info_command(self, capsys):
        assert main(["info"]) == 0
        output = capsys.readouterr().out
        assert "paper" in output and "3000" in output

    def test_generate_data_command(self, tmp_path, capsys):
        out = tmp_path / "real.npz"
        assert main(["generate-data", "--steps", "10", "--out", str(out)]) == 0
        assert out.exists()

    def test_drive_command(self, capsys):
        assert main(["drive", "--seed", "3", "--steps", "3", "--every", "1"]) == 0
        output = capsys.readouterr().out
        assert "lane" in output


SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def test_src_has_no_test_imports_or_reference_switches():
    """Scalar oracles live in tests/oracles: ``src/`` never imports
    ``tests``, and no sim/decision function takes a ``reference`` switch
    to a second step path."""
    problems = []
    for path in sorted(SRC.rglob("*.py")):
        package = path.relative_to(SRC).parts[0]
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                names = []
            problems += [f"{path}: imports {name}" for name in names
                         if name.split(".")[0] == "tests"]
            if package in ("sim", "decision") and isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                problems += [f"{path}:{node.lineno}: {node.name}(reference=)"
                             for param in ast.walk(node.args)
                             if isinstance(param, ast.arg)
                             and param.arg == "reference"]
    assert not problems
