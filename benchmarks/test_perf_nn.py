"""NN-engine microbenchmark: VJP registry vs pre-refactor closure engine.

Times one full LST-GAT training step (forward + masked-MSE backward) at
the paper's scale (z=5 history steps, 6 targets, 64-dim attention and
LSTM) on the **live** engine and on the frozen pre-refactor engine in
``tests/oracles/nn.py``, after asserting the two produce the identical
loss and matching parameter gradients on the exact benchmark workload.
Per-op throughput for the hottest registry primitives is reported
alongside.  Results land in ``BENCH_nn.json`` at the repo root.

Methodology (see ``benchmarks/_bench_io.py``): interleaved best-of-N.
``REPRO_BENCH_NN_PROFILE=smoke`` shrinks the repeat counts for CI;
the 2.5x speedup gate is asserted in every profile (the CI job treats
a noisy-runner failure as informational via ``continue-on-error``).
"""

import os
from pathlib import Path

import numpy as np
import pytest

from _bench_io import best_of, interleaved_best, write_bench
from repro import nn
from repro.nn.recurrent import lstm_sequence
from tests.oracles.nn import legacy_lstgat_step
from repro.perception.graph import SpatialTemporalGraph
from repro.perception.lstgat import LSTGAT

pytestmark = pytest.mark.perf

GOLDEN_PATH = (Path(__file__).resolve().parent.parent / "tests" / "nn"
               / "golden" / "lstgat_trace.npz")

SPEEDUP_GATE = 2.5

PROFILES = {
    # repeats / inner for the step benchmark, repeats / inner for ops
    "full": {"repeats": 9, "inner": 60, "op_repeats": 7, "op_inner": 200},
    "smoke": {"repeats": 3, "inner": 10, "op_repeats": 3, "op_inner": 30},
}


def load_workload():
    """The golden-trace workload: paper-scale graph + trained-ish params."""
    golden = np.load(GOLDEN_PATH)
    graph = SpatialTemporalGraph(
        golden["target_features"], golden["contributor_features"],
        golden["target_mask"], golden["ego_features"])
    model = LSTGAT(attention_dim=64, lstm_dim=64,
                   rng=np.random.default_rng(7))
    model.load_state_dict({key[len("param::"):]: golden[key]
                           for key in golden.files
                           if key.startswith("param::")})
    return model, graph, golden["truth"]


def op_benchmarks(rng: np.random.Generator):
    """Forward+backward closures for the hottest registry primitives."""
    mat_a = nn.Tensor(rng.normal(size=(64, 64)), requires_grad=True)
    mat_b = nn.Tensor(rng.normal(size=(64, 64)), requires_grad=True)
    ein_a = nn.Tensor(rng.normal(size=(8, 16, 32)), requires_grad=True)
    ein_b = nn.Tensor(rng.normal(size=(8, 32, 16)), requires_grad=True)
    lin_x = nn.Tensor(rng.normal(size=(30, 72)), requires_grad=True)
    lin_w = nn.Tensor(rng.normal(size=(64, 72)), requires_grad=True)
    lin_b = nn.Tensor(rng.normal(size=(64,)), requires_grad=True)
    soft = nn.Tensor(rng.normal(size=(5, 6, 7, 4)), requires_grad=True)
    proj = nn.Tensor(rng.normal(size=(6, 5, 256)), requires_grad=True)
    whh = nn.Tensor(rng.normal(size=(256, 64)) * 0.1, requires_grad=True)
    state = nn.Tensor(np.zeros((6, 64)))

    def fwd_bwd(build):
        def run():
            out = build()
            out.sum().backward()
        return run

    return {
        "matmul_64x64": fwd_bwd(lambda: mat_a @ mat_b),
        "einsum_bij_bjk": fwd_bwd(
            lambda: nn.einsum("bij,bjk->bik", ein_a, ein_b)),
        "linear_30x72_to_64": fwd_bwd(lambda: nn.linear(lin_x, lin_w, lin_b)),
        "softmax_axis2": fwd_bwd(lambda: soft.softmax(axis=2)),
        "lstm_sequence_b6_t5_h64": fwd_bwd(
            lambda: lstm_sequence(proj, whh, state, state)),
    }


def test_nn_engine_speedup():
    profile_name = os.environ.get("REPRO_BENCH_NN_PROFILE", "full")
    profile = PROFILES[profile_name]
    model, graph, truth = load_workload()
    state = model.state_dict()
    baseline = model.kinematic_baseline(graph)

    def fused_step() -> float:
        model.zero_grad()
        loss = model.loss(graph, truth)
        loss.backward()
        return loss.item()

    def legacy_step() -> float:
        _, loss, _ = legacy_lstgat_step(
            state, graph.target_features, graph.contributor_features,
            graph.ego_features, baseline, truth, graph.target_mask)
        return loss

    # Equivalence on the exact benchmark workload: identical loss and
    # matching parameter gradients, or the timing compares nothing.
    fused_loss = fused_step()
    _, legacy_loss, legacy_grads = legacy_lstgat_step(
        state, graph.target_features, graph.contributor_features,
        graph.ego_features, baseline, truth, graph.target_mask)
    assert fused_loss == legacy_loss, "engines disagree on the loss"
    for name, param in model.named_parameters():
        np.testing.assert_allclose(param.grad, legacy_grads[name],
                                   atol=1e-10, rtol=0, err_msg=name)

    for _ in range(profile["inner"] // 2):   # interleaved warmup
        fused_step()
        legacy_step()
    best = interleaved_best({"fused": fused_step, "legacy": legacy_step},
                            repeats=profile["repeats"],
                            inner=profile["inner"])
    speedup = best["legacy"] / best["fused"]

    ops = {}
    rng = np.random.default_rng(0)
    for name, run in op_benchmarks(rng).items():
        run()  # warmup
        per_call = best_of(run, repeats=profile["op_repeats"],
                           inner=profile["op_inner"])
        ops[name] = {"per_call_us": per_call * 1e6,
                     "calls_per_s": 1.0 / per_call}

    workload = {"scenario": "lstgat_golden_trace", "history_steps": 5,
                "targets": 6, "attention_dim": 64, "lstm_dim": 64,
                "profile": profile_name, **profile}
    path = write_bench("nn", {
        "workload": workload,
        "equivalent": True,
        "fused_best_s_per_step": best["fused"],
        "legacy_best_s_per_step": best["legacy"],
        "fused_steps_per_s": 1.0 / best["fused"],
        "legacy_steps_per_s": 1.0 / best["legacy"],
        "speedup": speedup,
        "gate": SPEEDUP_GATE,
        "ops": ops,
    }, config=workload)
    print(f"\nBENCH_nn: fused {best['fused'] * 1e3:.3f}ms/step "
          f"({1.0 / best['fused']:.0f} steps/s), legacy "
          f"{best['legacy'] * 1e3:.3f}ms/step, speedup {speedup:.2f}x "
          f"-> {path.name}")

    assert speedup >= SPEEDUP_GATE, (
        f"NN engine speedup {speedup:.2f}x below {SPEEDUP_GATE}x gate")
