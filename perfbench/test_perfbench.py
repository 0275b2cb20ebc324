"""Tests of the benchmark itself.

Run from the repository root with ``python -m pytest perfbench -q``.
"""

import importlib
import inspect
import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from layers import LAYERS  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import Phase  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bindings() -> dict[tuple[int, str], object]:
    """Every attribute a tracer may rebind: class methods of the targets
    and each module-level binding of a targeted function."""
    found = {}
    for targets in LAYERS.values():
        for target in targets:
            module = importlib.import_module(target.module)
            owner_name, _, attr = target.qualname.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                found[(id(owner), attr)] = vars(owner)[attr]
                continue
            function = getattr(module, attr)
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").startswith("repro"):
                    for key, value in vars(other).items():
                        if value is function:
                            found[(id(other), key)] = value
    return found


def owners() -> dict[int, object]:
    found = {}
    for targets in LAYERS.values():
        for target in targets:
            module = importlib.import_module(target.module)
            owner_name, _, _ = target.qualname.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            found[id(owner)] = owner
    for other in list(sys.modules.values()):
        if getattr(other, "__name__", "").startswith("repro"):
            found[id(other)] = other
    return found


def current(key: tuple[int, str], table: dict[int, object]) -> object:
    return vars(table[key[0]])[key[1]]


def test_tracer_restores_every_attribute_it_patches():
    before = bindings()
    table = owners()
    tracer = Tracer(LAYERS)
    with tracer:
        assert tracer.missing == []
        patched = [key for key in before if current(key, table) is not before[key]]
        # every binding is wrapped: functions imported by name included
        assert sorted(patched) == sorted(before)
        for key in before:
            assert inspect.unwrap(current(key, table)) is before[key]
    for key, original in before.items():
        assert current(key, table) is original


def test_tracer_restores_after_an_exception_inside():
    before = bindings()
    table = owners()
    with pytest.raises(RuntimeError):
        with Tracer(LAYERS):
            raise RuntimeError("boom")
    assert all(current(key, table) is value for key, value in before.items())


def test_self_time_subtracts_direct_children():
    tracer = Tracer({"outer": (), "inner": ()})
    tracer.spans[:] = [
        (2, 1, "inner", 10, 40, 0),
        (3, 1, "inner", 50, 60, 0),
        (1, 0, "outer", 0, 100, 0),
        (5, 4, "outer", 5, 15, 1),     # same-layer child: one outer call
        (4, 0, "outer", 0, 20, 1),
    ]
    stats = tracer.layer_stats()
    assert stats["outer"].self_ns == (100 - 40) + (20 - 10) + 10
    assert stats["outer"].calls == 2
    assert stats["outer"].outer_ns == 120
    assert stats["inner"].self_ns == 40 and stats["inner"].calls == 2
    assert tracer.root_ns() == 120


@pytest.mark.parametrize("name", ["eval-drive", "reset-paper", "train-online",
                                  "serve-fleet"])
def test_traced_and_untraced_runs_produce_identical_digests(name):
    workload = workloads.WORKLOADS[name](3)
    plain = workload.run(workload.setup(), blocks=1)
    tracer = Tracer(LAYERS)
    with tracer:
        traced = workload.run(workload.setup(), blocks=1, tracer=tracer)
    assert plain.digests and plain.digests == traced.digests
    assert not plain.failures and not traced.failures
    assert tracer.spans, "the traced run recorded no spans"


@pytest.mark.parametrize("name", ["eval-drive", "reset-paper", "train-online",
                                  "serve-fleet"])
def test_workload_generation_is_deterministic_in_the_seed(name):
    first = workloads.WORKLOADS[name](5).setup().warm_digest
    again = workloads.WORKLOADS[name](5).setup().warm_digest
    other = workloads.WORKLOADS[name](6).setup().warm_digest
    assert first and first == again
    assert other != first


def test_episode_seeds_of_different_runs_do_not_overlap():
    runs = [{workloads.episode_seed(seed, index) for index in range(-50, 5000)}
            for seed in range(4)]
    assert all(not (runs[a] & runs[b]) for a in range(4) for b in range(a))


def test_declared_workloads_are_the_ones_the_benchmark_runs():
    declared = [workload["name"] for workload in SPEC["workloads"]]
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS) == declared


def test_every_metric_name_is_well_formed_and_declared():
    phase = Phase(units=3, attempted=3, wall_s=1.0, cpu_s=1.0,
                  latencies_s=[0.1, 0.2, 0.3], rates=[3.0], kernel_s=[5e-3])
    emitted_e2e = run.end_to_end_metrics(0.5, phase, 1.0)
    emitted_layers = run.per_layer_metrics(Tracer(LAYERS), phase,
                                           phase, {}, {}, 0.7, 3e-3, [])
    declared_e2e = [metric["name"] for metric in SPEC["end_to_end"]]
    declared_layers = [metric["name"] for metric in SPEC["per_layer"]]
    assert sorted(emitted_e2e) == sorted(declared_e2e)
    assert sorted(emitted_layers) == sorted(declared_layers)
    names = declared_e2e + declared_layers + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    declared = {metric["name"]: metric["unit"]
                for metric in SPEC["end_to_end"] + SPEC["per_layer"]}
    for name, entry in {**emitted_e2e, **emitted_layers}.items():
        assert entry["unit"] == declared[name], name


def test_missing_program_source_exits_nonzero_without_a_result(tmp_path,
                                                               monkeypatch,
                                                               capsys):
    monkeypatch.setattr(run, "SOURCE", tmp_path / "src")
    code = run.main(["--workload", "eval-drive", "--seed", "0",
                     "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""
