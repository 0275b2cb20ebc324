"""Frozen pre-refactor autograd engine and unfused model references.

The VJP-registry refactor of :mod:`repro.nn.tensor` replaced per-call
backward closures with registered vectorized VJP functions, fused the
LSTM cell, and batched the GAT attention into einsums.  This module
preserves the engine it replaced -- the closure-recording tape plus the
unfused LSTM cell and the per-head attention loop -- as an executable
reference, like the scalar engine oracle in ``tests/oracles/engine.py``:

* ``tests/nn/test_equivalence_fused.py`` asserts the fused/batched
  implementations reproduce these references to tight tolerance;
* ``benchmarks/test_perf_nn.py`` times :func:`legacy_lstgat_step`
  against the live engine to report the refactor's speedup in
  ``BENCH_nn.json``.

It keeps the module-composed forwards of the BP-DQN networks
(:func:`composed_branched_x`, :func:`composed_branched_q`): the chain of
live ``linear``/``relu``/``concat``/``tanh`` tape ops that the fused
``branched_x``/``branched_q`` nodes replaced;
``tests/decision/test_fused_networks.py`` asserts the fused nodes
reproduce their values and gradients bit for bit.

It keeps the module-composed graph attention forward
(:func:`composed_gat_attention`, :func:`composed_attention_weights`):
the chain of live ``einsum``/``leaky_relu``/``softmax``/``concat`` tape
ops that the fused ``gat_attention`` node replaced;
``tests/perception/test_fused_attention.py`` asserts the fused node
reproduces its values and gradients bit for bit.

It also keeps the per-parameter optimizer loops that the flat parameter
store replaced (:class:`PerParameterAdam`,
:func:`per_parameter_soft_update`): ``tests/nn/test_store_equivalence.py``
asserts the one-vector updates reproduce them bit for bit.

Nothing here is used on any production path; ``src/`` never imports
``tests``.  The :class:`LegacyTensor` body is the verbatim
pre-refactor ``Tensor`` (trimmed of ops the references do not need).
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from repro import nn
from repro.sim import constants

__all__ = [
    "LegacyTensor", "legacy_concat",
    "unfused_lstm_cell", "unfused_lstm_sequence",
    "per_head_graph_attention", "legacy_graph_attention",
    "legacy_masked_mse", "legacy_lstgat_step",
    "PerParameterAdam", "per_parameter_soft_update",
    "composed_branch", "composed_branched_x", "composed_branched_q",
    "composed_attention_weights", "composed_gat_attention",
]


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class LegacyTensor:
    """The pre-refactor tape tensor: one backward *closure* per op call.

    Every differentiable op captures its operands in a Python closure
    stored on ``_backward``; :meth:`backward` topologically sorts the
    tape and replays the closures in reverse.  This per-call closure
    construction is exactly the overhead the VJP registry removed.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple["LegacyTensor", ...] = ()

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def numpy(self) -> np.ndarray:
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def _make_child(self, data: np.ndarray,
                    parents: Iterable["LegacyTensor"]) -> "LegacyTensor":
        parents = tuple(parents)
        requires = any(p.requires_grad for p in parents)
        out = LegacyTensor(data, requires_grad=False)
        out.requires_grad = requires
        if requires:
            out._parents = parents
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(grad, dtype=np.float64, copy=True)
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without an explicit gradient needs a scalar output")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)

        topo: list[LegacyTensor] = []
        visited: set[int] = set()
        stack: list[tuple[LegacyTensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # ops (verbatim pre-refactor closures)
    # ------------------------------------------------------------------
    def __add__(self, other) -> "LegacyTensor":
        other = other if isinstance(other, LegacyTensor) else LegacyTensor(other)
        out = self._make_child(self.data + other.data, (self, other))
        if out.requires_grad:
            def backward(grad: np.ndarray) -> None:
                if self.requires_grad:
                    self._accumulate(_unbroadcast(grad, self.data.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(grad, other.data.shape))
            out._backward = backward
        return out

    __radd__ = __add__

    def __neg__(self) -> "LegacyTensor":
        out = self._make_child(-self.data, (self,))
        if out.requires_grad:
            out._backward = lambda grad: self._accumulate(-grad)
        return out

    def __sub__(self, other) -> "LegacyTensor":
        other = other if isinstance(other, LegacyTensor) else LegacyTensor(other)
        return self + (-other)

    def __mul__(self, other) -> "LegacyTensor":
        other = other if isinstance(other, LegacyTensor) else LegacyTensor(other)
        out = self._make_child(self.data * other.data, (self, other))
        if out.requires_grad:
            def backward(grad: np.ndarray) -> None:
                if self.requires_grad:
                    self._accumulate(_unbroadcast(grad * other.data, self.data.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(grad * self.data, other.data.shape))
            out._backward = backward
        return out

    __rmul__ = __mul__

    def __truediv__(self, other) -> "LegacyTensor":
        other = other if isinstance(other, LegacyTensor) else LegacyTensor(other)
        out = self._make_child(self.data / other.data, (self, other))
        if out.requires_grad:
            def backward(grad: np.ndarray) -> None:
                if self.requires_grad:
                    self._accumulate(_unbroadcast(grad / other.data, self.data.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(-grad * self.data / (other.data ** 2), other.data.shape))
            out._backward = backward
        return out

    def __matmul__(self, other) -> "LegacyTensor":
        other = other if isinstance(other, LegacyTensor) else LegacyTensor(other)
        out = self._make_child(self.data @ other.data, (self, other))
        if out.requires_grad:
            def backward(grad: np.ndarray) -> None:
                a, b = self.data, other.data
                if self.requires_grad:
                    if b.ndim == 1:
                        grad_a = np.multiply.outer(grad, b) if a.ndim > 1 else grad * b
                    elif a.ndim == 1:
                        grad_a = grad @ b.T if grad.ndim else b @ grad
                        grad_a = _unbroadcast(grad_a, a.shape)
                    else:
                        grad_a = _unbroadcast(grad @ np.swapaxes(b, -1, -2), a.shape)
                    self._accumulate(grad_a)
                if other.requires_grad:
                    if a.ndim == 1 and b.ndim > 1:
                        grad_b = _unbroadcast(np.multiply.outer(a, grad), b.shape)
                    elif b.ndim == 1:
                        grad_b = _unbroadcast((a * grad[..., None]).reshape(-1, a.shape[-1]).sum(axis=0)
                                              if a.ndim > 1 else a * grad, b.shape)
                    else:
                        grad_b = _unbroadcast(np.swapaxes(a, -1, -2) @ grad, b.shape)
                    other._accumulate(grad_b)
            out._backward = backward
        return out

    def exp(self) -> "LegacyTensor":
        value = np.exp(self.data)
        out = self._make_child(value, (self,))
        if out.requires_grad:
            out._backward = lambda grad: self._accumulate(grad * value)
        return out

    def tanh(self) -> "LegacyTensor":
        value = np.tanh(self.data)
        out = self._make_child(value, (self,))
        if out.requires_grad:
            out._backward = lambda grad: self._accumulate(grad * (1.0 - value ** 2))
        return out

    def sigmoid(self) -> "LegacyTensor":
        value = 1.0 / (1.0 + np.exp(-self.data))
        out = self._make_child(value, (self,))
        if out.requires_grad:
            out._backward = lambda grad: self._accumulate(grad * value * (1.0 - value))
        return out

    def leaky_relu(self, negative_slope: float = 0.01) -> "LegacyTensor":
        slope = np.where(self.data > 0, 1.0, negative_slope)
        out = self._make_child(self.data * slope, (self,))
        if out.requires_grad:
            out._backward = lambda grad: self._accumulate(grad * slope)
        return out

    def sum(self, axis: int | tuple[int, ...] | None = None,
            keepdims: bool = False) -> "LegacyTensor":
        out = self._make_child(self.data.sum(axis=axis, keepdims=keepdims), (self,))
        if out.requires_grad:
            def backward(grad: np.ndarray) -> None:
                expanded = grad
                if axis is not None and not keepdims:
                    axes = (axis,) if isinstance(axis, int) else axis
                    for ax in sorted(a % self.data.ndim for a in axes):
                        expanded = np.expand_dims(expanded, ax)
                self._accumulate(np.broadcast_to(expanded, self.data.shape).copy())
            out._backward = backward
        return out

    def mean(self, axis: int | tuple[int, ...] | None = None,
             keepdims: bool = False) -> "LegacyTensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else axis
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * LegacyTensor(1.0 / count)

    def reshape(self, *shape: int) -> "LegacyTensor":
        out = self._make_child(self.data.reshape(*shape), (self,))
        if out.requires_grad:
            out._backward = lambda grad: self._accumulate(grad.reshape(self.data.shape))
        return out

    def transpose(self, *axes: int) -> "LegacyTensor":
        order = axes or tuple(reversed(range(self.data.ndim)))
        inverse = np.argsort(order)
        out = self._make_child(self.data.transpose(order), (self,))
        if out.requires_grad:
            out._backward = lambda grad: self._accumulate(grad.transpose(inverse))
        return out

    @property
    def T(self) -> "LegacyTensor":
        return self.transpose()

    def __getitem__(self, index) -> "LegacyTensor":
        out = self._make_child(self.data[index], (self,))
        if out.requires_grad:
            def backward(grad: np.ndarray) -> None:
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                self._accumulate(full)
            out._backward = backward
        return out

    def softmax(self, axis: int = -1) -> "LegacyTensor":
        shifted = self + LegacyTensor(-self.data.max(axis=axis, keepdims=True))
        exps = shifted.exp()
        return exps / exps.sum(axis=axis, keepdims=True)


def legacy_concat(tensors: Sequence[LegacyTensor], axis: int = 0) -> LegacyTensor:
    """Concatenate legacy tensors along ``axis`` with gradient routing."""
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    out = tensors[0]._make_child(data, tensors)
    if out.requires_grad:
        sizes = [t.data.shape[axis] for t in tensors]
        offsets = np.cumsum([0] + sizes)

        def backward(grad: np.ndarray) -> None:
            for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                if tensor.requires_grad:
                    index = [slice(None)] * grad.ndim
                    index[axis] = slice(start, stop)
                    tensor._accumulate(grad[tuple(index)])
        out._backward = backward
    return out


# ----------------------------------------------------------------------
# unfused model references
# ----------------------------------------------------------------------
def unfused_lstm_cell(inputs: LegacyTensor, hidden: LegacyTensor,
                      cell: LegacyTensor, weight_ih: LegacyTensor,
                      weight_hh: LegacyTensor,
                      bias: LegacyTensor) -> tuple[LegacyTensor, LegacyTensor]:
    """Pre-refactor LSTM step: two matmuls, four slices, seven small ops."""
    gates = inputs @ weight_ih.T + hidden @ weight_hh.T + bias
    h = weight_hh.data.shape[1]
    i_gate = gates[:, 0 * h:1 * h].sigmoid()
    f_gate = gates[:, 1 * h:2 * h].sigmoid()
    g_gate = gates[:, 2 * h:3 * h].tanh()
    o_gate = gates[:, 3 * h:4 * h].sigmoid()
    new_cell = f_gate * cell + i_gate * g_gate
    new_hidden = o_gate * new_cell.tanh()
    return new_hidden, new_cell


def unfused_lstm_sequence(sequence: LegacyTensor, weight_ih: LegacyTensor,
                          weight_hh: LegacyTensor, bias: LegacyTensor
                          ) -> tuple[LegacyTensor, LegacyTensor, LegacyTensor]:
    """Run the unfused cell over ``(batch, time, features)``.

    Returns ``(outputs, hidden, cell)`` with outputs ``(batch, time, H)``.
    """
    batch, steps, _ = sequence.data.shape
    size = weight_hh.data.shape[1]
    hidden = LegacyTensor(np.zeros((batch, size)))
    cell = LegacyTensor(np.zeros((batch, size)))
    outputs: list[LegacyTensor] = []
    for step in range(steps):
        hidden, cell = unfused_lstm_cell(sequence[:, step, :], hidden, cell,
                                         weight_ih, weight_hh, bias)
        outputs.append(hidden.reshape(batch, 1, size))
    return legacy_concat(outputs, axis=1), hidden, cell


def _attention_scores_one_head(targets: LegacyTensor, contributors: LegacyTensor,
                               phi1_k: LegacyTensor, src_k: LegacyTensor,
                               dst_k: LegacyTensor, negative_slope: float,
                               padding: np.ndarray) -> LegacyTensor:
    """Eq. 10 logits for one head: ``(z, n, 7)``."""
    z, n = targets.data.shape[0], targets.data.shape[1]
    contributors_flat = contributors.reshape(z, n * contributors.data.shape[2],
                                             contributors.data.shape[3])
    th = (targets @ phi1_k.T)                                    # (z, n, Dh)
    tc = (contributors_flat @ phi1_k.T).reshape(
        z, n, contributors.data.shape[2], -1)                    # (z, n, 7, Dh)
    score_t = (th * src_k).sum(axis=-1)                          # (z, n)
    score_c = (tc * dst_k).sum(axis=-1)                          # (z, n, 7)
    scores = score_t.reshape(z, n, 1) + score_c
    scores = scores.leaky_relu(negative_slope)
    if padding.any():
        scores = scores + LegacyTensor(np.where(padding, -1e9, 0.0))
    return scores


def per_head_graph_attention(params: dict[str, np.ndarray],
                             targets_data: np.ndarray,
                             contributors_data: np.ndarray,
                             num_heads: int,
                             negative_slope: float = 0.2
                             ) -> tuple[LegacyTensor, dict[str, LegacyTensor]]:
    """Explicit per-head GAT loop: the conceptual reference for the einsum.

    Processes each attention head through its own slice of ``phi1`` /
    ``phi3`` and its own score vectors, then concatenates the per-head
    aggregations -- mathematically the definition the batched einsum
    implementation must reproduce.

    Returns ``(output, leaves)`` where ``leaves`` maps parameter names
    to the :class:`LegacyTensor` leaves so callers can read gradients.
    """
    leaves = {name: LegacyTensor(value, requires_grad=True)
              for name, value in params.items()}
    phi1, phi3 = leaves["phi1"], leaves["phi3"]
    attn_src, attn_dst = leaves["attn_src"], leaves["attn_dst"]
    targets = LegacyTensor(targets_data)
    contributors = LegacyTensor(contributors_data)
    z, n, slots, feat = contributors_data.shape
    head_dim = phi1.data.shape[0] // num_heads
    padding = (np.abs(contributors_data).sum(axis=-1) == 0.0)

    target_rows = targets.reshape(z, n, 1, feat)
    edges = contributors - target_rows
    pair = legacy_concat([contributors, edges], axis=3)          # (z, n, 7, 2F)
    pair_flat = pair.reshape(z, n * slots, 2 * feat)

    per_head: list[LegacyTensor] = []
    for head in range(num_heads):
        rows = slice(head * head_dim, (head + 1) * head_dim)
        scores = _attention_scores_one_head(
            targets, contributors, phi1[rows], attn_src[head], attn_dst[head],
            negative_slope, padding)
        alpha = scores.softmax(axis=2)                           # (z, n, 7)
        values = (pair_flat @ phi3[rows].T).reshape(z, n, slots, head_dim)
        weighted = values * alpha.reshape(z, n, slots, 1)
        per_head.append(weighted.sum(axis=2))                    # (z, n, Dh)
    return legacy_concat(per_head, axis=2), leaves


def legacy_graph_attention(leaves: dict[str, LegacyTensor],
                           targets: LegacyTensor, contributors: LegacyTensor,
                           num_heads: int,
                           negative_slope: float = 0.2) -> LegacyTensor:
    """Verbatim pre-refactor head-batched attention forward (Eqs. 10-11)."""
    phi1, phi3 = leaves["phi1"], leaves["phi3"]
    attn_src, attn_dst = leaves["attn_src"], leaves["attn_dst"]
    z, n = targets.data.shape[0], targets.data.shape[1]
    slots = contributors.data.shape[2]
    hidden_dim = phi1.data.shape[0]
    head_dim = hidden_dim // num_heads
    transformed_targets = (targets @ phi1.T).reshape(z, n, num_heads, head_dim)
    transformed_contrib = (contributors @ phi1.T).reshape(
        z, n, slots, num_heads, head_dim)
    score_target = (transformed_targets * attn_src).sum(axis=-1)
    score_contrib = (transformed_contrib * attn_dst).sum(axis=-1)
    scores = score_target.reshape(z, n, 1, num_heads) + score_contrib
    scores = scores.leaky_relu(negative_slope)
    padding = (np.abs(contributors.data).sum(axis=-1) == 0.0)
    if padding.any():
        scores = scores + LegacyTensor(np.where(padding, -1e9, 0.0)[:, :, :, None])
    alpha = scores.softmax(axis=2)
    target_rows = targets.reshape(z, n, 1, targets.data.shape[-1])
    edges = contributors - target_rows
    values = (legacy_concat([contributors, edges], axis=3) @ phi3.T).reshape(
        z, n, slots, num_heads, head_dim)
    weighted = values * alpha.reshape(z, n, slots, num_heads, 1)
    return weighted.sum(axis=2).reshape(z, n, hidden_dim)


def legacy_masked_mse(prediction: LegacyTensor, truth: np.ndarray,
                      mask: np.ndarray) -> LegacyTensor:
    """Pre-refactor Eq. 14 masked MSE on legacy tensors."""
    mask = np.asarray(mask, dtype=np.float64)
    kept = float(mask.sum())
    diff = prediction - LegacyTensor(truth)
    weighted = diff * diff * LegacyTensor(mask[:, None])
    return weighted.sum() * LegacyTensor(1.0 / (kept * prediction.data.shape[1]))


def legacy_lstgat_step(state: dict[str, np.ndarray], targets: np.ndarray,
                       contributors: np.ndarray, ego: np.ndarray,
                       baseline: np.ndarray, truth: np.ndarray,
                       mask: np.ndarray, num_heads: int = 4
                       ) -> tuple[np.ndarray, float, dict[str, np.ndarray]]:
    """One full pre-refactor LST-GAT training step (forward + backward).

    ``state`` is a live :class:`~repro.perception.lstgat.LSTGAT`
    ``state_dict()``; the computation mirrors the pre-refactor
    ``forward_graph`` + masked-MSE loss exactly, so timing this function
    against the live model measures only the engine refactor.

    Returns ``(prediction, loss, grads)`` with grads keyed like the
    state dict.
    """
    leaves = {name: LegacyTensor(value, requires_grad=True)
              for name, value in state.items()}
    attention_leaves = {
        "phi1": leaves["attention.phi1"], "phi3": leaves["attention.phi3"],
        "attn_src": leaves["attention.attn_src"],
        "attn_dst": leaves["attention.attn_dst"],
    }
    targets_t = LegacyTensor(targets)
    updated = legacy_graph_attention(attention_leaves, targets_t,
                                     LegacyTensor(contributors), num_heads)
    combined = legacy_concat([updated, targets_t, LegacyTensor(ego)], axis=2)
    sequence = combined.transpose(1, 0, 2)
    _, hidden, _ = unfused_lstm_sequence(
        sequence, leaves["lstm.cell.weight_ih"], leaves["lstm.cell.weight_hh"],
        leaves["lstm.cell.bias"])
    residual = hidden @ leaves["head.weight"].T + leaves["head.bias"]
    prediction = residual + LegacyTensor(baseline)
    loss = legacy_masked_mse(prediction, truth, mask)
    loss.backward()
    grads = {name: leaf.grad for name, leaf in leaves.items()}
    return prediction.data, loss.item(), grads


# ----------------------------------------------------------------------
# per-parameter optimizer loops (pre-store)
# ----------------------------------------------------------------------
# Parameters here are any objects with ``data``/``grad`` arrays (e.g.
# LegacyTensor); ``grad is None`` means "received no gradient".
class PerParameterAdam:
    """The pre-store ``Adam``: one update per parameter array."""

    def __init__(self, parameters, lr: float = 1e-3,
                 betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8) -> None:
        self.parameters = list(parameters)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        """Apply one Adam update; parameters without gradients are skipped."""
        self._step_count += 1
        bias1 = 1.0 - self.beta1 ** self._step_count
        bias2 = 1.0 - self.beta2 ** self._step_count
        for parameter, m, v in zip(self.parameters, self._m, self._v):
            if parameter.grad is None:
                continue
            grad = parameter.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            parameter.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def per_parameter_soft_update(own, source, tau: float) -> None:
    """The pre-store ``Module.soft_update_from`` over matched parameter lists."""
    for target, src in zip(own, source):
        target.data = tau * src.data + (1.0 - tau) * target.data


# ----------------------------------------------------------------------
# module-composed BP-DQN networks (pre-fusion)
# ----------------------------------------------------------------------
def composed_branch(encoder, rows: nn.Tensor) -> nn.Tensor:
    """A ``BranchEncoder``'s forward as a tape chain: ``(B, N, k) -> (B, N)``."""
    batch, vehicles = rows.shape[0], rows.shape[1]
    hidden = encoder.lift(rows).relu()
    return encoder.reduce(hidden).relu().reshape(batch, vehicles)


def composed_branched_x(net, current: nn.Tensor, future: nn.Tensor) -> nn.Tensor:
    """``BranchedXNetwork.forward`` (Eqs. 24-25) as a tape chain."""
    h = composed_branch(net.current_branch, current)
    f = composed_branch(net.future_branch, future)
    return net.merge(nn.concat([h, f], axis=1)).tanh() * constants.A_MAX


def composed_branched_q(net, current: nn.Tensor, future: nn.Tensor,
                        accels: nn.Tensor) -> nn.Tensor:
    """``BranchedQNetwork.forward`` (Eqs. 26-27) as a tape chain."""
    h = composed_branch(net.current_branch, current)
    f = composed_branch(net.future_branch, future)
    x = net.accel_reduce(net.accel_lift(accels / constants.A_MAX).relu()).relu()
    return net.merge(nn.concat([h, f, x], axis=1))


# ----------------------------------------------------------------------
# module-composed graph attention (pre-fusion)
# ----------------------------------------------------------------------
def composed_attention_weights(layer, targets: nn.Tensor,
                               contributors: nn.Tensor) -> nn.Tensor:
    """``GraphAttention``'s Eq. 10 weights ``(z, n, 7, K)`` as a tape chain."""
    z, n = targets.shape[0], targets.shape[1]
    phi1_heads = layer.phi1.reshape(layer.num_heads, layer.head_dim, -1)
    fold_src = nn.einsum("kd,kdf->kf", layer.attn_src, phi1_heads)
    fold_dst = nn.einsum("kd,kdf->kf", layer.attn_dst, phi1_heads)
    score_target = nn.einsum("znf,kf->znk", targets, fold_src)
    score_contrib = nn.einsum("zncf,kf->znck", contributors, fold_dst)
    scores = score_target.reshape(z, n, 1, layer.num_heads) + score_contrib
    scores = scores.leaky_relu(layer.negative_slope)
    padding = (np.abs(contributors.data).sum(axis=-1) == 0.0)
    if padding.any():
        scores = scores + nn.Tensor(
            np.where(padding, -1e9, 0.0)[:, :, :, None])
    return scores.softmax(axis=2)


def composed_gat_attention(layer, targets: nn.Tensor,
                           contributors: nn.Tensor) -> nn.Tensor:
    """``GraphAttention.forward`` (Eqs. 10-11) as a tape chain."""
    z, n = targets.shape[0], targets.shape[1]
    alpha = composed_attention_weights(layer, targets, contributors)
    target_rows = targets.reshape(z, n, 1, targets.shape[-1])
    edges = contributors - target_rows
    phi3_heads = layer.phi3.reshape(layer.num_heads, layer.head_dim, -1)
    mixed = nn.einsum("znck,zncf->znkf",
                      alpha, nn.concat([contributors, edges], axis=3))
    weighted = nn.einsum("znkf,kdf->znkd", mixed, phi3_heads)
    return weighted.reshape(z, n, layer.hidden_dim)
