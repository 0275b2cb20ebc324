"""Registry-driven gradcheck: every VJP op verified against finite differences.

The autograd engine routes every backward rule through the VJP registry
(``repro.nn.tensor.defvjp``), so this suite enumerates the registry and
refuses to pass unless **each** registered op has at least one
finite-difference case here: an op cannot be registered without being
gradchecked (``test_every_registered_op_has_gradcheck_cases``).

Cases deliberately use non-square shapes (so transposed-gradient bugs
cannot cancel), broadcasting inputs (so ``_unbroadcast`` reductions are
exercised), and degenerate size-0 / size-1 shapes (so empty-tape edge
cases keep working).  Outputs are reduced with a *weighted* sum -- a
plain ``.sum()`` would let element-permutation bugs slip through.
"""

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor
from repro.nn.recurrent import lstm_sequence, lstm_step
from repro.decision.networks import branched_q, branched_x
from repro.perception.lstgat import gat_attention

EPS = 1e-6


def numeric_grad(func, value: np.ndarray, eps: float = EPS) -> np.ndarray:
    """Central finite-difference gradient of scalar-valued ``func``."""
    grad = np.zeros_like(value)
    flat = value.reshape(-1)
    grad_flat = grad.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + eps
        upper = func(value)
        flat[index] = original - eps
        lower = func(value)
        flat[index] = original
        grad_flat[index] = (upper - lower) / (2 * eps)
    return grad


def weighted(out: Tensor) -> Tensor:
    """Reduce ``out`` to a scalar with distinct per-element weights."""
    weights = np.linspace(0.5, 1.5, out.data.size).reshape(out.shape)
    return (out * Tensor(weights)).sum()


class Case:
    """One gradcheck case: named input arrays + a scalar-valued builder."""

    def __init__(self, inputs: dict, fn, tolerance: float = 1e-5) -> None:
        self.inputs = inputs
        self.fn = fn
        self.tolerance = tolerance


def run_case(case: Case) -> None:
    tensors = {name: Tensor(array.copy(), requires_grad=True)
               for name, array in case.inputs.items()}
    out = case.fn(tensors)
    out.backward()
    for name, array in case.inputs.items():
        def scalar(value, name=name):
            local = {other: Tensor(value if other == name
                                   else case.inputs[other])
                     for other in case.inputs}
            return case.fn(local).item()

        expected = numeric_grad(scalar, array.copy())
        grad = tensors[name].grad
        assert grad is not None, f"no gradient reached input {name!r}"
        assert grad.shape == array.shape, \
            f"gradient shape {grad.shape} != input shape {array.shape} for {name!r}"
        assert grad.dtype == np.float64
        np.testing.assert_allclose(
            grad, expected, rtol=case.tolerance, atol=case.tolerance,
            err_msg=f"gradient mismatch for input {name!r}")


def _arr(shape, low=-2.0, high=2.0, seed=0):
    rng = np.random.default_rng(seed + 1000 * int(np.prod(shape, initial=1)))
    return rng.uniform(low, high, size=shape)


def _distinct(shape, seed=0):
    """Values with pairwise gaps >> EPS, none near 0 (safe for relu kinks)."""
    size = int(np.prod(shape, initial=1))
    values = np.linspace(-2.0, 2.0, size + 1)[:size]
    values = values[np.abs(values) > 0.05]  # drop anything near the kink
    while values.size < size:
        values = np.concatenate([values, values[:1] + 2.5])
    rng = np.random.default_rng(seed)
    return rng.permutation(values[:size]).reshape(shape)


# ----------------------------------------------------------------------
# The registry coverage table.  KEYS MUST MATCH nn.registered_ops():
# adding a new op without a case here fails
# test_every_registered_op_has_gradcheck_cases.
# ----------------------------------------------------------------------
CASES: dict[str, list[Case]] = {
    "add": [
        Case({"a": _arr((2, 3)), "b": _arr((2, 3), seed=1)},
             lambda t: weighted(t["a"] + t["b"])),
        Case({"a": _arr((2, 3)), "b": _arr((3,), seed=2)},
             lambda t: weighted(t["a"] + t["b"])),          # broadcast
        Case({"a": _arr((1, 1)), "b": _arr((1, 1), seed=3)},
             lambda t: weighted(t["a"] + t["b"])),          # size-1
        Case({"a": _arr((0, 3)), "b": _arr((3,), seed=4)},
             lambda t: weighted(t["a"] + t["b"])),          # size-0
    ],
    "sub": [
        Case({"a": _arr((2, 3)), "b": _arr((1, 3), seed=5)},
             lambda t: weighted(t["a"] - t["b"])),
    ],
    "neg": [
        Case({"a": _arr((3, 2))}, lambda t: weighted(-t["a"])),
    ],
    "mul": [
        Case({"a": _arr((2, 3)), "b": _arr((3,), seed=6)},
             lambda t: weighted(t["a"] * t["b"])),
        Case({"a": _arr((1, 1)), "b": _arr((1, 1), seed=7)},
             lambda t: weighted(t["a"] * t["b"])),
    ],
    "div": [
        Case({"a": _arr((2, 3)), "b": _arr((3,), low=1.0, high=2.0, seed=8)},
             lambda t: weighted(t["a"] / t["b"])),
    ],
    "pow": [
        Case({"a": _arr((2, 3), low=0.5, high=2.0)},
             lambda t: weighted(t["a"] ** 1.7)),
        Case({"a": _arr((3, 2))}, lambda t: weighted(t["a"] ** 2)),
    ],
    "tanh": [
        Case({"a": _arr((2, 3))}, lambda t: weighted(t["a"].tanh())),
    ],
    "relu": [
        Case({"a": _distinct((2, 3))}, lambda t: weighted(t["a"].relu())),
    ],
    "leaky_relu": [
        Case({"a": _distinct((3, 2), seed=1)},
             lambda t: weighted(t["a"].leaky_relu(0.2))),
    ],
    "matmul": [
        Case({"a": _arr((2, 3)), "b": _arr((3, 4), seed=9)},
             lambda t: weighted(t["a"] @ t["b"])),
        Case({"a": _arr((3,)), "b": _arr((3, 4), seed=10)},
             lambda t: weighted(t["a"] @ t["b"])),          # vec @ mat
        Case({"a": _arr((2, 3)), "b": _arr((3,), seed=11)},
             lambda t: weighted(t["a"] @ t["b"])),          # mat @ vec
        Case({"a": _arr((2, 3, 4)), "b": _arr((2, 4, 2), seed=12)},
             lambda t: weighted(t["a"] @ t["b"])),          # batched
        Case({"a": _arr((2, 3, 4)), "b": _arr((4, 2), seed=13)},
             lambda t: weighted(t["a"] @ t["b"])),          # broadcast batch
    ],
    "sum": [
        Case({"a": _arr((2, 3))}, lambda t: t["a"].sum()),
        Case({"a": _arr((2, 3, 2))},
             lambda t: weighted(t["a"].sum(axis=(0, 2), keepdims=True))),
        Case({"a": _arr((0, 4))}, lambda t: t["a"].sum()),  # size-0
    ],
    "mean": [
        Case({"a": _arr((2, 3))}, lambda t: t["a"].mean()),
        Case({"a": _arr((2, 3))}, lambda t: weighted(t["a"].mean(axis=1))),
    ],
    "reshape": [
        Case({"a": _arr((2, 3))}, lambda t: weighted(t["a"].reshape(3, 2))),
        Case({"a": _arr((1, 6))}, lambda t: weighted(t["a"].reshape(6))),
    ],
    "transpose": [
        Case({"a": _arr((2, 3))}, lambda t: weighted(t["a"].transpose())),
        Case({"a": _arr((2, 3, 4))},
             lambda t: weighted(t["a"].transpose(2, 0, 1))),
    ],
    "getitem": [
        Case({"a": _arr((4, 5))}, lambda t: weighted(t["a"][1:, ::2])),
        Case({"a": _arr((4, 5))}, lambda t: weighted(t["a"][2])),
        Case({"a": _arr((4, 5))}, lambda t: weighted(t["a"][0:0])),  # size-0 view
    ],
    "softmax": [
        Case({"a": _arr((2, 5))}, lambda t: weighted(t["a"].softmax(axis=-1))),
        Case({"a": _arr((3, 2))}, lambda t: weighted(t["a"].softmax(axis=0))),
    ],
    "linear": [
        Case({"x": _arr((5, 3)), "w": _arr((4, 3), seed=14),
              "b": _arr((4,), seed=15)},
             lambda t: weighted(nn.linear(t["x"], t["w"], t["b"]))),
        Case({"x": _arr((5, 3)), "w": _arr((4, 3), seed=16)},
             lambda t: weighted(nn.linear(t["x"], t["w"]))),   # no bias
        Case({"x": _arr((2, 3, 3)), "w": _arr((4, 3), seed=17),
              "b": _arr((4,), seed=18)},
             lambda t: weighted(nn.linear(t["x"], t["w"], t["b"]))),  # 3-D batch
    ],
    "einsum": [
        Case({"a": _arr((2, 3)), "b": _arr((3, 4), seed=19)},
             lambda t: weighted(nn.einsum("ij,jk->ik", t["a"], t["b"]))),
        Case({"a": _arr((2, 3, 4)), "b": _arr((2, 4, 2), seed=20)},
             lambda t: weighted(nn.einsum("bij,bjk->bik", t["a"], t["b"]))),
        Case({"a": _arr((2, 3)), "b": _arr((2, 3), seed=21)},
             lambda t: weighted(nn.einsum("ij,ij->", t["a"], t["b"]))),
        Case({"a": _arr((2, 3, 4)), "b": _arr((4, 2), seed=22)},
             lambda t: weighted(nn.einsum("ijk,kl->il", t["a"], t["b"]))),
        Case({"a": _arr((0, 3)), "b": _arr((3, 4), seed=23)},
             lambda t: weighted(nn.einsum("ij,jk->ik", t["a"], t["b"]))),
    ],
    "concat": [
        Case({"a": _arr((2, 3)), "b": _arr((1, 3), seed=24),
              "c": _arr((4, 3), seed=25)},
             lambda t: weighted(nn.concat([t["a"], t["b"], t["c"]], axis=0))),
        Case({"a": _arr((2, 2)), "b": _arr((2, 3), seed=26)},
             lambda t: weighted(nn.concat([t["a"], t["b"]], axis=1))),
        Case({"a": _arr((2, 3)), "b": _arr((0, 3), seed=27)},
             lambda t: weighted(nn.concat([t["a"], t["b"]], axis=0))),
    ],
    "lstm_step": [
        Case({"gates": _arr((2, 12)), "cell": _arr((2, 3), seed=31)},
             lambda t: weighted(lstm_step(t["gates"], t["cell"]))),
        Case({"gates": _arr((1, 4)), "cell": _arr((1, 1), seed=32)},
             lambda t: weighted(lstm_step(t["gates"], t["cell"]))),  # H=1
    ],
    "lstm_sequence": [
        Case({"proj": _arr((2, 3, 8)), "whh": _arr((8, 2), seed=33),
              "h": _arr((2, 2), seed=34), "c": _arr((2, 2), seed=35)},
             lambda t: weighted(lstm_sequence(t["proj"], t["whh"],
                                              t["h"], t["c"])),
             tolerance=1e-4),
        Case({"proj": _arr((1, 1, 4)), "whh": _arr((4, 1), seed=36),
              "h": _arr((1, 1), seed=37), "c": _arr((1, 1), seed=38)},
             lambda t: weighted(lstm_sequence(t["proj"], t["whh"],
                                              t["h"], t["c"])),
             tolerance=1e-4),                               # single step, H=1
    ],
}

def _branched_inputs(batch: int, hidden: int, accels: bool, seed: int) -> dict:
    """Rows and weights of a fused BP-DQN network, weights in store order."""
    shapes = {"current": (batch, 7, 4), "future": (batch, 6, 4)}
    if accels:
        shapes["accels"] = (batch, 3)
    for branch, width in [("c", 4), ("f", 4)] + ([("a", 3)] if accels else []):
        reduced = 3 if branch == "a" else 1
        shapes.update({f"{branch}_lift_w": (hidden, width), f"{branch}_lift_b": (hidden,),
                       f"{branch}_reduce_w": (reduced, hidden),
                       f"{branch}_reduce_b": (reduced,)})
    merged = 16 if accels else 13
    shapes.update({"merge_w": (3, merged), "merge_b": (3,)})
    return {name: _arr(shape, seed=seed + index)
            for index, (name, shape) in enumerate(shapes.items())}


def _branched(op, inputs: dict):
    """A case calling ``op`` on its tensors in the order they were declared.

    The seeds below leave every input with a nonzero gradient (no branch
    entirely dead).
    """
    names = list(inputs)
    return Case(inputs, lambda t: weighted(op(*(t[name] for name in names))))


CASES["branched_x"] = [
    _branched(branched_x, _branched_inputs(2, 3, accels=False, seed=40)),
    _branched(branched_x, _branched_inputs(1, 1, accels=False, seed=40)),  # B=1, H=1
]
CASES["branched_q"] = [
    _branched(branched_q, _branched_inputs(2, 3, accels=True, seed=40)),
    _branched(branched_q, _branched_inputs(1, 1, accels=True, seed=41)),  # B=1, H=1
]


def _gat_case(z: int, n: int, heads: int, head_dim: int, slope: float,
              seed: int) -> Case:
    """A ``gat_attention`` case; no slot is padding (a zero slot's mask
    would flip under the finite-difference step)."""
    hidden = heads * head_dim
    shapes = {"targets": (z, n, 4), "contributors": (z, n, 7, 4),
              "phi1": (hidden, 4), "attn_src": (heads, head_dim),
              "attn_dst": (heads, head_dim), "phi3": (hidden, 8)}
    inputs = {name: _arr(shape, seed=seed + index)
              for index, (name, shape) in enumerate(shapes.items())}
    return Case(inputs, lambda t: weighted(gat_attention(
        *(t[name] for name in shapes), negative_slope=slope)))


CASES["gat_attention"] = [
    _gat_case(2, 3, heads=2, head_dim=3, slope=0.2, seed=50),
    _gat_case(1, 1, heads=1, head_dim=1, slope=0.7, seed=51),   # z=1, n=1, K=1
]

ALL_CASES = [(op, index) for op, cases in sorted(CASES.items())
             for index in range(len(cases))]


def test_every_registered_op_has_gradcheck_cases():
    """The registry and this table must stay in lockstep, both ways."""
    registered = set(nn.registered_ops())
    covered = set(CASES)
    assert covered == registered, (
        f"ops registered without a gradcheck case: "
        f"{sorted(registered - covered)}; "
        f"cases for unregistered ops: {sorted(covered - registered)}")
    assert all(cases for cases in CASES.values())


@pytest.mark.parametrize("op,index", ALL_CASES,
                         ids=[f"{op}-{index}" for op, index in ALL_CASES])
def test_registry_gradcheck(op, index):
    run_case(CASES[op][index])
