"""LSTM layers (Hochreiter & Schmidhuber 1997) used across the paper.

LST-GAT (Eq. 12) and the prediction baselines (LSTM-MLP, ED-LSTM,
GAS-LED) all use batched single-layer LSTMs.  The implementation here
processes ``(batch, time, features)`` sequences; "batch" carries the
parallel target vehicles, which is exactly the parallel-prediction trick
the paper exploits (Sec. III-B, "batched sequences").

The cell is *fused*: the input projection for the whole sequence is one
``linear`` over all four gates at once, and the gate nonlinearities plus
state update collapse into the single ``lstm_step`` tape node registered
below -- about 6 nodes per time step where the textbook formulation
records ~18.  ``tests/nn/test_equivalence_fused.py`` pins this fused
path against the unfused cell in ``tests/oracles/nn.py``, and
``tests/nn/test_gradcheck_registry.py`` finite-difference-checks the
``lstm_step`` VJPs directly.
"""

from __future__ import annotations

import numpy as np

from . import init
from .module import Module, Parameter
from .tensor import Tensor, defvjp, linear
from ..seeding import resolve_rng

__all__ = ["LSTMCell", "LSTM", "lstm_step", "lstm_sequence"]


def lstm_step(gates: Tensor, cell: Tensor) -> Tensor:
    """Fused LSTM gate activation + state update as one tape node.

    Parameters
    ----------
    gates:
        ``(batch, 4 * hidden)`` pre-activation gates packed ``[i, f, g, o]``
        (the PyTorch layout) -- i.e. ``x @ W_ih.T + h @ W_hh.T + b``.
    cell:
        ``(batch, hidden)`` previous cell state.

    Returns
    -------
    ``(2, batch, hidden)`` stacked ``[new_hidden, new_cell]``; index with
    ``out[0]`` / ``out[1]``.
    """
    hidden_size = cell.data.shape[-1]
    raw = gates.data.reshape(*gates.data.shape[:-1], 4, hidden_size)
    i_gate = 1.0 / (1.0 + np.exp(-raw[..., 0, :]))
    f_gate = 1.0 / (1.0 + np.exp(-raw[..., 1, :]))
    g_gate = np.tanh(raw[..., 2, :])
    o_gate = 1.0 / (1.0 + np.exp(-raw[..., 3, :]))
    new_cell = f_gate * cell.data + i_gate * g_gate
    tanh_cell = np.tanh(new_cell)
    out = gates._make_child(np.stack([o_gate * tanh_cell, new_cell]),
                            (gates, cell))
    if out.requires_grad:
        out._op = "lstm_step"
        out._ctx = (i_gate, f_gate, g_gate, o_gate, tanh_cell)
    return out


def _vjp_lstm_step_gates(grad, out, ctx, gates, cell):
    i_gate, f_gate, g_gate, o_gate, tanh_cell = ctx
    grad_hidden, grad_cell = grad[0], grad[1]
    # Total gradient reaching the new cell state: the direct path plus
    # the one through new_hidden = o * tanh(new_cell).
    grad_c = grad_cell + grad_hidden * o_gate * (1.0 - tanh_cell * tanh_cell)
    parts = np.empty((*i_gate.shape[:-1], 4, i_gate.shape[-1]))
    parts[..., 0, :] = grad_c * g_gate * i_gate * (1.0 - i_gate)
    parts[..., 1, :] = grad_c * cell * f_gate * (1.0 - f_gate)
    parts[..., 2, :] = grad_c * i_gate * (1.0 - g_gate * g_gate)
    parts[..., 3, :] = grad_hidden * tanh_cell * o_gate * (1.0 - o_gate)
    return parts.reshape(gates.shape)


def _vjp_lstm_step_cell(grad, out, ctx, gates, cell):
    i_gate, f_gate, g_gate, o_gate, tanh_cell = ctx
    return (grad[1] + grad[0] * o_gate * (1.0 - tanh_cell * tanh_cell)) * f_gate


defvjp("lstm_step", _vjp_lstm_step_gates, _vjp_lstm_step_cell)


#: Per-gate factor ``[i, f, g, o]`` applied before the sigmoid's exp.
_NEGATE_DOUBLE_G = np.array([-1.0, -1.0, -2.0, -1.0])[:, None]


def lstm_sequence(input_proj: Tensor, weight_hh: Tensor,
                  hidden: Tensor, cell: Tensor) -> Tensor:
    """Whole LSTM recurrence over a sequence as a *single* tape node.

    The input projection ``x @ W_ih.T + b`` is position-independent and
    arrives precomputed for all steps (one big ``linear``); only the
    ``h @ W_hh.T`` recurrence is inherently sequential, and that loop
    runs here in raw numpy with no tape traffic.  Backward is one fused
    reverse sweep (registered as a variadic VJP so the gradients of all
    four inputs come out of a single pass).

    Parameters
    ----------
    input_proj:
        ``(batch, steps, 4 * hidden)`` precomputed input projections,
        gates packed ``[i, f, g, o]``.
    weight_hh:
        ``(4 * hidden, hidden)`` recurrent weight.
    hidden / cell:
        ``(batch, hidden)`` initial state.

    Returns
    -------
    ``(batch, steps + 1, hidden)``: positions ``[:, t]`` for
    ``t < steps`` are the per-step hidden states; position
    ``[:, steps]`` is the final cell state.  Slicing views (outputs,
    final hidden, final cell) all route their gradients back into this
    one node.
    """
    proj = input_proj.data
    batch, steps, packed_dim = proj.shape
    hidden_size = packed_dim // 4
    h = hidden.data
    recurrent_t = weight_hh.data.T
    out_data = np.empty((batch, steps + 1, hidden_size))
    # Activated gates double as the matmul output buffer: the raw
    # pre-activations land in gates[t] and are squashed in place.
    gates = np.empty((steps, batch, 4, hidden_size))
    flat_gates = gates.reshape(steps, batch, packed_dim)
    tanh_cells = np.empty((steps, batch, hidden_size))
    # cells[t] is the cell state *entering* step t; cells[steps] the final.
    cells = np.empty((steps + 1, batch, hidden_size))
    cells[0] = cell.data
    # the step-major input projections, laid out once (a + b == b + a
    # bitwise, so adding the recurrence to them keeps the bits)
    np.copyto(flat_gates, proj.transpose(1, 0, 2))
    recurrence = np.empty((batch, packed_dim))
    scratch = np.empty((batch, hidden_size))
    for t in range(steps):
        raw_flat = flat_gates[t]
        raw_flat += np.matmul(h, recurrent_t, out=recurrence)
        raw = gates[t]
        # All four gates in one ufunc chain: sigmoid for i/f/o directly,
        # and tanh(x) = 2*sigmoid(2x) - 1 for the g candidate; the
        # negation and the doubling are one exact multiply.
        raw *= _NEGATE_DOUBLE_G
        np.exp(raw, out=raw)
        raw += 1.0
        np.reciprocal(raw, out=raw)
        g_gate = raw[:, 2]
        g_gate *= 2.0
        g_gate -= 1.0
        c_new = np.multiply(raw[:, 1], cells[t], out=cells[t + 1])
        np.multiply(raw[:, 0], g_gate, out=scratch)
        c_new += scratch
        tanh_c = np.tanh(c_new, out=tanh_cells[t])
        h = np.multiply(raw[:, 3], tanh_c, out=out_data[:, t])
    out_data[:, steps] = cells[steps]
    out = input_proj._make_child(out_data, (input_proj, weight_hh, hidden, cell))
    if out.requires_grad:
        out._op = "lstm_sequence"
        out._ctx = (gates, tanh_cells, cells)
    return out


def _vjp_lstm_sequence(grad, out, ctx, parent_data):
    proj, weight_hh, hidden0, cell0 = parent_data
    gates, tanh_cells, cells = ctx
    steps, batch, _, hidden_size = gates.shape
    grad_proj = np.empty_like(proj)
    grad_cell = grad[:, steps].copy()
    grad_hidden = np.zeros((batch, hidden_size))
    scratch = np.empty((batch, hidden_size))
    # Everything that does not depend on the sequential carry is
    # precomputed in bulk over all steps; the loop itself is ~8 numpy
    # calls per step.
    i_gate = gates[:, :, 0]
    f_gate = gates[:, :, 1]
    g_gate = gates[:, :, 2]
    o_gate = gates[:, :, 3]
    # d new_cell / d pre-activation, per gate, stacked (steps, B, 3, H).
    cell_paths = np.empty((steps, batch, 3, hidden_size))
    np.multiply(g_gate, i_gate * (1.0 - i_gate), out=cell_paths[:, :, 0])
    np.multiply(cells[:steps], f_gate * (1.0 - f_gate), out=cell_paths[:, :, 1])
    np.multiply(i_gate, 1.0 - g_gate * g_gate, out=cell_paths[:, :, 2])
    o_path = tanh_cells * (o_gate * (1.0 - o_gate))   # d h / d o-pre-activation
    tanh_slope = (1.0 - tanh_cells * tanh_cells) * o_gate  # d h / d new_cell
    for t in range(steps - 1, -1, -1):
        grad_hidden += grad[:, t]
        # grad_c = grad_cell + grad_hidden * d h / d new_cell
        np.multiply(grad_hidden, tanh_slope[t], out=scratch)
        grad_c = grad_cell
        grad_c += scratch
        # Gate deltas go straight into the grad_proj slot for this step.
        delta = grad_proj[:, t].reshape(batch, 4, hidden_size)
        np.multiply(grad_c[:, None, :], cell_paths[t], out=delta[:, :3])
        np.multiply(grad_hidden, o_path[t], out=delta[:, 3])
        np.matmul(grad_proj[:, t], weight_hh, out=grad_hidden)
        np.multiply(grad_c, f_gate[t], out=grad_cell)
    # One big matmul accumulates the recurrent-weight gradient:
    # sum_t delta_t^T h_{t-1}, with h_{t-1} taken from the forward's own
    # output slab (plus the initial hidden state).
    prev_hidden = np.empty((steps, batch, hidden_size))
    prev_hidden[0] = hidden0
    if steps > 1:
        prev_hidden[1:] = out[:, :steps - 1].transpose(1, 0, 2)
    grad_weight = grad_proj.transpose(1, 0, 2).reshape(-1, 4 * hidden_size).T @ \
        prev_hidden.reshape(-1, hidden_size)
    return [grad_proj, grad_weight, grad_hidden, grad_cell]


defvjp("lstm_sequence", _vjp_lstm_sequence, variadic=True)


class LSTMCell(Module):
    """A single LSTM step with the standard four-gate formulation.

    Gate layout inside the packed weight matrices is ``[i, f, g, o]``
    (input, forget, cell candidate, output) to match PyTorch.
    """

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = resolve_rng(rng)
        self.input_size = input_size
        self.hidden_size = hidden_size
        limit = 1.0 / np.sqrt(hidden_size)
        self.weight_ih = Parameter(init.uniform((4 * hidden_size, input_size), rng, limit))
        self.weight_hh = Parameter(init.uniform((4 * hidden_size, hidden_size), rng, limit))
        self.bias = Parameter(np.zeros(4 * hidden_size))

    def forward(self, inputs: Tensor, hidden: Tensor, cell: Tensor) -> tuple[Tensor, Tensor]:
        """Advance one time step.

        Parameters
        ----------
        inputs:
            ``(batch, input_size)`` features for this step.
        hidden / cell:
            ``(batch, hidden_size)`` previous state.

        Returns
        -------
        ``(new_hidden, new_cell)``.
        """
        gates = linear(inputs, self.weight_ih, self.bias) + linear(hidden, self.weight_hh)
        state = lstm_step(gates, cell)
        return state[0], state[1]

    def initial_state(self, batch_size: int) -> tuple[Tensor, Tensor]:
        """Return zero hidden/cell state for a batch (Eq. 12 default)."""
        zeros = np.zeros((batch_size, self.hidden_size))
        return Tensor(zeros), Tensor(zeros.copy())


class LSTM(Module):
    """Run an :class:`LSTMCell` over a full sequence.

    Returns either the final hidden state or all per-step hidden states,
    which is what the encoder-decoder baselines need.  The input
    projection ``x @ W_ih.T + b`` for *all* time steps is hoisted out of
    the recurrence into one big ``linear``; only the ``h @ W_hh.T``
    half must stay sequential.
    """

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        self.cell = LSTMCell(input_size, hidden_size, rng=rng)
        self.hidden_size = hidden_size

    def forward(self, sequence: Tensor,
                state: tuple[Tensor, Tensor] | None = None) -> tuple[Tensor, tuple[Tensor, Tensor]]:
        """Process a ``(batch, time, features)`` sequence.

        Returns
        -------
        outputs:
            ``(batch, time, hidden)`` hidden states for every step.
        (hidden, cell):
            Final state, each ``(batch, hidden)``.
        """
        batch, steps, _ = sequence.shape
        hidden, cell = state if state is not None else self.cell.initial_state(batch)
        input_proj = linear(sequence, self.cell.weight_ih, self.cell.bias)
        packed = lstm_sequence(input_proj, self.cell.weight_hh, hidden, cell)
        return (packed[:, :steps], (packed[:, steps - 1], packed[:, steps]))
