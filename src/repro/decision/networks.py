"""x- and Q-network structures for the P-DQN family (paper Section IV-B).

Two structural variants share the same optimization paradigm:

* **Branched (BP-DQN, Fig. 6)** -- the paper's contribution: the current
  states h^t, the future states f^{t+1}, and (for Q) the acceleration
  vector x_out are processed in *separate* computational branches
  (Eqs. 24-27), avoiding erroneous weight sharing between inputs of
  different scales.
* **Single-branch (vanilla P-DQN)** -- everything is flattened into one
  vector and pushed through a shared MLP, the structure the paper
  improves upon.

Both expose the same interface:

* ``x_net(current, future) -> (B, 3)`` accelerations, one per lane
  behavior, bounded to [-a', a'] by ``a' * tanh`` (Eq. 25);
* ``q_net(current, future, accels) -> (B, 3)`` Q-values, one per lane
  behavior paired with its acceleration (Eq. 27).
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..sim import constants
from .pamdp import CURRENT_SHAPE, FUTURE_SHAPE
from ..seeding import resolve_rng

__all__ = ["BranchEncoder", "BranchedXNetwork", "BranchedQNetwork",
           "VanillaXNetwork", "VanillaQNetwork", "NUM_BEHAVIORS",
           "branched_x", "branched_q"]

#: Three lane behaviors: ll, lr, lk.
NUM_BEHAVIORS = 3

_FLAT_STATE = CURRENT_SHAPE[0] * CURRENT_SHAPE[1] + FUTURE_SHAPE[0] * FUTURE_SHAPE[1]


class BranchEncoder(nn.Module):
    """Parameters of the per-vehicle scalar reduction of Eqs. 24/26.

    A shared two-layer ReLU map, ``lift`` then ``reduce``, applied to each
    vehicle row: ``(B, N, 4) -> (B, N)``.  The module only holds the two
    layers; the branched networks run it inside their fused ops
    (:func:`branched_x`, :func:`branched_q`).
    """

    def __init__(self, in_features: int, hidden_dim: int,
                 rng: np.random.Generator) -> None:
        super().__init__()
        self.lift = nn.Linear(in_features, hidden_dim, rng=rng)
        self.reduce = nn.Linear(hidden_dim, 1, rng=rng)

    def weights(self) -> tuple[nn.Parameter, ...]:
        """``lift`` then ``reduce`` weight and bias, in store order."""
        return self.lift.weight, self.lift.bias, self.reduce.weight, self.reduce.bias


class BranchedXNetwork(nn.Module):
    """BP-DQN deterministic policy network x (Eqs. 24-25).

    The forward is one :func:`branched_x` tape node over the network's
    own parameters.
    """

    def __init__(self, hidden_dim: int = 64,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = resolve_rng(rng)
        self.current_branch = BranchEncoder(CURRENT_SHAPE[1], hidden_dim, rng)
        self.future_branch = BranchEncoder(FUTURE_SHAPE[1], hidden_dim, rng)
        merged = CURRENT_SHAPE[0] + FUTURE_SHAPE[0]  # 7 + 6 = 13
        self.merge = nn.Linear(merged, NUM_BEHAVIORS, rng=rng)

    def weights(self) -> tuple[nn.Parameter, ...]:
        """Every parameter, in store order (``parameters()`` without the walk)."""
        return (*self.current_branch.weights(), *self.future_branch.weights(),
                self.merge.weight, self.merge.bias)

    def forward(self, current: nn.Tensor, future: nn.Tensor) -> nn.Tensor:
        return branched_x(current, future, *self.weights())


class BranchedQNetwork(nn.Module):
    """BP-DQN value network Q (Eqs. 26-27).

    The forward is one :func:`branched_q` tape node over the network's
    own parameters.
    """

    def __init__(self, hidden_dim: int = 64,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = resolve_rng(rng)
        self.current_branch = BranchEncoder(CURRENT_SHAPE[1], hidden_dim, rng)
        self.future_branch = BranchEncoder(FUTURE_SHAPE[1], hidden_dim, rng)
        self.accel_lift = nn.Linear(NUM_BEHAVIORS, hidden_dim, rng=rng)
        self.accel_reduce = nn.Linear(hidden_dim, NUM_BEHAVIORS, rng=rng)
        merged = CURRENT_SHAPE[0] + FUTURE_SHAPE[0] + NUM_BEHAVIORS  # 16
        self.merge = nn.Linear(merged, NUM_BEHAVIORS, rng=rng)

    def weights(self) -> tuple[nn.Parameter, ...]:
        """Every parameter, in store order (``parameters()`` without the walk)."""
        return (*self.current_branch.weights(), *self.future_branch.weights(),
                self.accel_lift.weight, self.accel_lift.bias,
                self.accel_reduce.weight, self.accel_reduce.bias,
                self.merge.weight, self.merge.bias)

    def forward(self, current: nn.Tensor, future: nn.Tensor,
                accels: nn.Tensor) -> nn.Tensor:
        return branched_q(current, future, accels, *self.weights())


# ----------------------------------------------------------------------
# fused ops: one tape node per branched network forward
# ----------------------------------------------------------------------
# The forward makes the numpy calls of the module chain it replaced
# (linear, relu, reshape, concat, tanh, mul/div by a'), in that order,
# and the VJP repeats the registered VJP expression of each of those
# ops, so values and gradients are bitwise the chain's.
# ``tests/oracles/nn.py`` keeps the chain as the reference.

def _affine(inputs: np.ndarray, weight: np.ndarray, bias: np.ndarray) -> np.ndarray:
    out = inputs @ weight.T
    out += bias
    return out


def _relu(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ReLU in place (``values`` is a fresh result) and its mask."""
    mask = values > 0
    np.multiply(values, mask, out=values)
    return values, mask


def _encode(rows: np.ndarray, lift_w, lift_b, reduce_w, reduce_b):
    """One branch, ``(B, N, k) -> (B, N)``, and what its VJP needs."""
    # the lift is one 2-D product over every vehicle row
    lifted = _affine(rows.reshape(-1, rows.shape[-1]), lift_w, lift_b)
    hidden, lift_mask = _relu(lifted.reshape(*rows.shape[:-1], -1))
    code, reduce_mask = _relu(_affine(hidden, reduce_w, reduce_b))
    return code.reshape(rows.shape[0], -1), (hidden, lift_mask, reduce_mask)


def _encode_all(rows: tuple[np.ndarray, ...], weights) -> tuple[np.ndarray, list]:
    """Every branch (four weights each, in order), concatenated."""
    data = [weight.data for weight in weights]
    codes, saved = [], []
    for index, block in enumerate(rows):
        code, kept = _encode(block, *data[4 * index:4 * index + 4])
        codes.append(code)
        saved.append(kept)
    return np.concatenate(codes, axis=1), saved


def _affine_vjp(grad, inputs, weight, need_inputs: bool, need_weight: bool,
                need_bias: bool) -> list:
    """The registered ``linear`` VJPs, each only when needed.

    The input gradient is one 2-D product over every row.
    """
    out_features, in_features = weight.shape
    return [(grad.reshape(-1, out_features) @ weight
             ).reshape(*grad.shape[:-1], in_features) if need_inputs else None,
            grad.reshape(-1, out_features).T @ inputs.reshape(-1, in_features)
            if need_weight else None,
            grad.reshape(-1, out_features).sum(axis=0) if need_bias else None]


def _encode_vjp(grad, rows, weights, kept, needs) -> list:
    """Gradients of one branch: ``[rows, lift_w, lift_b, reduce_w, reduce_b]``."""
    lift_w, _, reduce_w, _ = weights
    hidden, lift_mask, reduce_mask = kept
    need_hidden = any(needs[:3])
    grad_hidden, *reduce_grads = _affine_vjp(
        grad.reshape(reduce_mask.shape) * reduce_mask, hidden, reduce_w,
        need_hidden, *needs[3:])
    if not need_hidden:
        return [None, None, None, *reduce_grads]
    grad_hidden *= lift_mask
    return [*_affine_vjp(grad_hidden, rows, lift_w, *needs[:3]),
            *reduce_grads]


def _merge_vjp(grad, needs, rows, saved, merged, weights) -> list:
    """Gradients of ``merge(concat(branches))``, one per parent."""
    count = len(rows)
    branch_needs = [(needs[index], *needs[count + 4 * index:count + 4 * index + 4])
                    for index in range(count)]
    grad_merged, *merge_grads = _affine_vjp(
        grad, merged, weights[-2], any(map(any, branch_needs)), *needs[-2:])
    input_grads, weight_grads = [], []
    start = 0
    for index, (block, kept, flags) in enumerate(zip(rows, saved, branch_needs)):
        stop = start + kept[2].shape[1]
        grads = [None] * 5
        if any(flags):
            grads = _encode_vjp(grad_merged[:, start:stop], block,
                                weights[4 * index:4 * index + 4], kept, flags)
        input_grads.append(grads[0])
        weight_grads += grads[1:]
        start = stop
    return [*input_grads, *weight_grads, *merge_grads]


def branched_x(current: nn.Tensor, future: nn.Tensor,
               *weights: nn.Parameter) -> nn.Tensor:
    """The BP-DQN x-network (Eqs. 24-25) as one tape node.

    ``a' * tanh(merge([enc_c(current); enc_f(future)]))``; ``weights``
    are :meth:`BranchedXNetwork.weights` (store order).  No gradient is
    computed for a parent that did not require one at forward time.
    """
    rows = (current.data, future.data)
    merged, saved = _encode_all(rows, weights)
    squashed = np.tanh(_affine(merged, weights[-2].data, weights[-1].data))
    parents = (current, future, *weights)
    out = current._make_child(squashed * constants.A_MAX, parents)
    if out.requires_grad:
        out._op = "branched_x"
        out._ctx = ([p.requires_grad for p in parents], rows, saved,
                    merged, squashed)
    return out


def _vjp_branched_x(grad, out, ctx, parent_data):
    needs, rows, saved, merged, squashed = ctx
    # the registered mul and tanh VJPs, in tape order
    grad = grad * constants.A_MAX * (1.0 - squashed * squashed)
    return _merge_vjp(grad, needs, rows, saved, merged, parent_data[2:])


def branched_q(current: nn.Tensor, future: nn.Tensor, accels: nn.Tensor,
               *weights: nn.Parameter) -> nn.Tensor:
    """The BP-DQN Q-network (Eqs. 26-27) as one tape node.

    ``merge([enc_c(current); enc_f(future); enc_x(accels / a')])``;
    ``weights`` are :meth:`BranchedQNetwork.weights` (store order).  No
    gradient is computed for a parent that did not require one at
    forward time, so a frozen critic only passes ``d/d accels`` back.
    """
    rows = (current.data, future.data, accels.data / constants.A_MAX)
    merged, saved = _encode_all(rows, weights)
    parents = (current, future, accels, *weights)
    out = current._make_child(_affine(merged, weights[-2].data, weights[-1].data),
                              parents)
    if out.requires_grad:
        out._op = "branched_q"
        out._ctx = ([p.requires_grad for p in parents], rows, saved, merged)
    return out


def _vjp_branched_q(grad, out, ctx, parent_data):
    needs, rows, saved, merged = ctx
    grads = _merge_vjp(grad, needs, rows, saved, merged, parent_data[3:])
    if grads[2] is not None:
        grads[2] = grads[2] / constants.A_MAX  # the registered div VJP
    return grads


nn.defvjp("branched_x", _vjp_branched_x, variadic=True)
nn.defvjp("branched_q", _vjp_branched_q, variadic=True)


class VanillaXNetwork(nn.Module):
    """Single-branch P-DQN policy: flatten everything, shared MLP."""

    def __init__(self, hidden_dim: int = 64,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = resolve_rng(rng)
        self.net = nn.MLP([_FLAT_STATE, hidden_dim, hidden_dim, NUM_BEHAVIORS], rng=rng)

    def forward(self, current: nn.Tensor, future: nn.Tensor) -> nn.Tensor:
        flat = _flatten_state(current, future)
        return self.net(flat).tanh() * constants.A_MAX


class VanillaQNetwork(nn.Module):
    """Single-branch P-DQN value net: state and accels share one MLP."""

    def __init__(self, hidden_dim: int = 64,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = resolve_rng(rng)
        self.net = nn.MLP([_FLAT_STATE + NUM_BEHAVIORS, hidden_dim, hidden_dim,
                           NUM_BEHAVIORS], rng=rng)

    def forward(self, current: nn.Tensor, future: nn.Tensor,
                accels: nn.Tensor) -> nn.Tensor:
        flat = _flatten_state(current, future)
        # Wrong weight sharing by design: raw accelerations concatenated
        # straight onto state features of a different scale.
        return self.net(nn.concat([flat, accels / constants.A_MAX], axis=1))


def _flatten_state(current: nn.Tensor, future: nn.Tensor) -> nn.Tensor:
    batch = current.shape[0]
    return nn.concat([
        current.reshape(batch, CURRENT_SHAPE[0] * CURRENT_SHAPE[1]),
        future.reshape(batch, FUTURE_SHAPE[0] * FUTURE_SHAPE[1]),
    ], axis=1)
