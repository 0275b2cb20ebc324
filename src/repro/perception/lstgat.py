"""LST-GAT: Local Spatial-Temporal Graph ATtention predictor (Sec. III-B).

Network structure (Fig. 5):

1. a shared graph attention layer aggregates, for every target vehicle
   C_i and every history step tau, its 7 contributors (itself plus its
   six surroundings) with learned importance scores (Eqs. 10-11);
2. an LSTM consumes the z aggregated vectors per target and a linear
   head maps the final hidden state to the predicted one-step relative
   future state ``[d_lat, d_lon, v_rel]`` (Eqs. 12-13).

All six targets are predicted in one batched pass -- the parallel
prediction the paper credits for LST-GAT's inference speed.

The attention score of Eq. 10 is computed with the standard GAT
decomposition ``phi_2 [u || v] = a_src . u + a_dst . v`` which avoids an
explicit concatenation while remaining mathematically identical.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn.tensor import _contract, _einsum_operand_vjp as _einsum_vjp
from ..nn.tensor import _unbroadcast, _vjp_softmax
from ..sim import constants
from .graph import CONTRIBUTORS, FEATURE_DIM, SpatialTemporalGraph
from .predictor import StatePredictor
from ..seeding import resolve_rng

__all__ = ["LSTGAT", "GraphAttention", "gat_attention"]


class GraphAttention(nn.Module):
    """Shared multi-head graph attention over each target's star graph.

    Implements Eqs. 10-11 for all (step, target) pairs at once on
    ``(z, n, 7, 4)`` contributor features.  The forward is one
    :func:`gat_attention` tape node over the layer's parameters.
    """

    def __init__(self, feature_dim: int, hidden_dim: int,
                 negative_slope: float = 0.2, num_heads: int = 4,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = resolve_rng(rng)
        if hidden_dim % num_heads:
            raise ValueError("hidden_dim must be divisible by num_heads")
        if not 0.0 <= negative_slope <= 1.0:
            # The fused leaky ReLU, max(x, slope * x), is the
            # where(x > 0, 1, slope) product only for slopes in [0, 1].
            raise ValueError("negative_slope must lie in [0, 1]")
        self.hidden_dim = hidden_dim
        self.num_heads = num_heads
        self.head_dim = hidden_dim // num_heads
        self.negative_slope = negative_slope
        # phi_1: feature transform used inside the attention score
        # (all heads packed row-wise: rows [k*Dh, (k+1)*Dh) are head k).
        self.phi1 = nn.Parameter(_xavier(rng, (hidden_dim, feature_dim)))
        # phi_2 split into source/destination halves (see module
        # docstring), one pair per head.
        self.attn_src = nn.Parameter(_xavier(rng, (num_heads, self.head_dim)))
        self.attn_dst = nn.Parameter(_xavier(rng, (num_heads, self.head_dim)))
        # phi_3: value transform for the aggregation of Eq. 11.  Values
        # see the contributor feature and its difference to the target
        # feature: car-following behaviour is driven by *pairwise* gaps
        # and speed differences, so exposing (h_ix - h_i) as an edge
        # feature lets one linear map deliver exactly that quantity.
        self.phi3 = nn.Parameter(_xavier(rng, (hidden_dim, 2 * feature_dim)))

    def attention_weights(self, targets: nn.Tensor,
                          contributors: nn.Tensor) -> nn.Tensor:
        """Eq. 10 per-head attention weights alpha, ``(z, n, 7, K)``.

        Computed by the same numpy kernel as :meth:`forward`, so the
        interpretability view can never drift from the training math.
        The result is a constant (no gradient flows through it).
        """
        alpha, _ = _attention_weights(
            targets.data, contributors.data, self.phi1.data,
            self.attn_src.data, self.attn_dst.data, self.negative_slope)
        return nn.Tensor(alpha)

    def forward(self, targets: nn.Tensor, contributors: nn.Tensor) -> nn.Tensor:
        """Aggregate contributors into updated target vectors.

        Parameters
        ----------
        targets:
            ``(z, n, 4)`` Eq. 7 target features.
        contributors:
            ``(z, n, 7, 4)`` contributor features (slot 0 = self-loop).

        Returns
        -------
        ``(z, n, hidden_dim)`` updated historical states h' (Eq. 11),
        the concatenation of all attention heads.
        """
        return gat_attention(targets, contributors, self.phi1, self.attn_src,
                             self.attn_dst, self.phi3,
                             negative_slope=self.negative_slope)


# ----------------------------------------------------------------------
# fused op: the whole attention layer as one tape node
# ----------------------------------------------------------------------
# The forward makes the einsum contractions of the module chain it
# replaced (kept as ``composed_gat_attention`` in ``tests/oracles/nn.py``)
# and works in place on one (z, n, 7, K) score block; the VJP repeats the
# registered einsum, softmax, leaky_relu, add, concat and sub VJP
# expressions in the order the tape replays the chain, so values and
# gradients are bitwise the chain's.

def _padding(contributors: np.ndarray) -> np.ndarray:
    """Zero-padded slots, ``(z, n, 7)``: every feature ``== 0``.

    The same bits as ``np.abs(c).sum(axis=-1) == 0``: a sum of absolute
    values is zero exactly when each term is (NaN compares unequal in
    both forms).
    """
    padding = contributors[..., 0] == 0.0
    for feature in range(1, contributors.shape[-1]):
        padding &= contributors[..., feature] == 0.0
    return padding


def _softmax_slots(block: np.ndarray) -> None:
    """In-place softmax over the contributor axis (axis 2).

    Max and sum run as a left fold over the 7 slices, the order numpy's
    axis-2 reductions use, so the bits equal ``Tensor.softmax(axis=2)``.
    """
    peak = block[:, :, 0].copy()
    for slot in range(1, block.shape[2]):
        np.maximum(peak, block[:, :, slot], out=peak)
    block -= peak[:, :, None]
    np.exp(block, out=block)
    total = block[:, :, 0].copy()
    for slot in range(1, block.shape[2]):
        total += block[:, :, slot]
    block /= total[:, :, None]


def _attention_weights(targets: np.ndarray, contributors: np.ndarray,
                       phi1: np.ndarray, attn_src: np.ndarray,
                       attn_dst: np.ndarray, slope: float,
                       keep: bool = False) -> tuple[np.ndarray, tuple]:
    """Eq. 10 weights alpha ``(z, n, 7, K)``, one block worked in place.

    Each phi_2 half folds with its head's phi_1 block into a ``(K, F)``
    score matrix before touching the data (``a . (phi1_k x) =
    (a @ phi1_k) . x``), so no ``(z, n, 7, K, Dh)`` intermediate is
    built.  With ``keep`` the second item holds what the VJP needs:
    the two folds and the leaky ReLU's ``x > 0`` mask.
    """
    z, n = targets.shape[0], targets.shape[1]
    num_heads = attn_src.shape[0]
    phi1_heads = phi1.reshape(num_heads, attn_src.shape[1], -1)
    fold_src = _contract("kd", "kdf", "kf", attn_src, phi1_heads)
    fold_dst = _contract("kd", "kdf", "kf", attn_dst, phi1_heads)
    score_target = _contract("znf", "kf", "znk", targets, fold_src)
    block = _contract("zncf", "kf", "znck", contributors, fold_dst)
    np.add(score_target.reshape(z, n, 1, num_heads), block, out=block)
    positive = block > 0 if keep else None
    # leaky ReLU: for slope in [0, 1], max(x, slope * x) has the bits of
    # x * where(x > 0, 1, slope), signed zeros included
    np.maximum(block, block * slope, out=block)
    # zero-padded slots (the surroundings of phantom targets) must not
    # receive attention
    padding = _padding(contributors)
    if padding.any():
        block += np.where(padding, -1e9, 0.0)[:, :, :, None]
    _softmax_slots(block)                                              # Eq. 10
    return block, ((fold_src, fold_dst, positive) if keep else ())


def gat_attention(targets: nn.Tensor, contributors: nn.Tensor,
                  phi1: nn.Parameter, attn_src: nn.Parameter,
                  attn_dst: nn.Parameter, phi3: nn.Parameter,
                  negative_slope: float = 0.2) -> nn.Tensor:
    """The graph attention layer (Eqs. 10-11) as one tape node.

    Returns ``(z, n, K * Dh)``.  The 7 contributors are contracted
    *before* phi_3 is applied (``sum_c alpha phi3 [x||e] = phi3 sum_c
    alpha [x||e]``), so the mixture runs on raw ``(z, n, 7, 2F)``
    features.  Under ``no_grad`` nothing is saved; no gradient is
    computed for a parent that did not require one at forward time.
    """
    parents = (targets, contributors, phi1, attn_src, attn_dst, phi3)
    needs = [nn.is_grad_enabled() and p.requires_grad for p in parents]
    z, n, _, features = contributors.shape
    num_heads, head_dim = attn_src.shape
    alpha, kept = _attention_weights(
        targets.data, contributors.data, phi1.data, attn_src.data,
        attn_dst.data, negative_slope, keep=any(needs[:5]))
    edges = contributors.data - targets.data.reshape(z, n, 1, features)
    pairs = np.concatenate([contributors.data, edges], axis=3)
    mixed = _contract("znck", "zncf", "znkf", alpha, pairs)
    weighted = _contract("znkf", "kdf", "znkd", mixed,
                         phi3.data.reshape(num_heads, head_dim, -1))
    out = targets._make_child(weighted.reshape(z, n, num_heads * head_dim),
                              parents)                                 # Eq. 11
    if out.requires_grad:
        out._op = "gat_attention"
        out._ctx = (needs, negative_slope, alpha, pairs, mixed, kept)
    return out


def _vjp_gat_attention(grad, out, ctx, parent_data):
    needs, slope, alpha, pairs, mixed, kept = ctx
    targets, contributors, phi1, attn_src, attn_dst, phi3 = parent_data
    need_t, need_c, need_phi1, need_src, need_dst, need_phi3 = needs
    z, n, _, features = contributors.shape
    num_heads, head_dim = attn_src.shape
    phi1_heads = phi1.reshape(num_heads, head_dim, -1)
    phi3_heads = phi3.reshape(num_heads, head_dim, -1)
    grads: list = [None] * 6
    grad = grad.reshape(z, n, num_heads, head_dim)
    if need_phi3:
        grads[5] = _einsum_vjp(grad, "kdf", "znkf", "znkd",
                               phi3_heads, mixed).reshape(phi3.shape)
    if not any(needs[:5]):
        return grads
    fold_src, fold_dst, positive = kept
    grad_mixed = _einsum_vjp(grad, "znkf", "kdf", "znkd", mixed, phi3_heads)
    # scores: softmax, the padding add (identity), leaky ReLU, then the
    # add of the target and contributor scores
    grad_scores = _vjp_softmax(
        _einsum_vjp(grad_mixed, "znck", "zncf", "znkf", alpha, pairs),
        alpha, (2,), None)
    grad_scores = grad_scores * np.where(positive, 1.0, slope)
    if need_t or need_src or need_phi1:
        grad_target = _unbroadcast(grad_scores, (z, n, 1, num_heads)
                                   ).reshape(z, n, num_heads)
        if need_t:
            grads[0] = _einsum_vjp(grad_target, "znf", "kf", "znk",
                                   targets, fold_src)
        if need_src or need_phi1:
            grad_fold = _einsum_vjp(grad_target, "kf", "znf", "znk",
                                    fold_src, targets)
            if need_src:
                grads[3] = _einsum_vjp(grad_fold, "kd", "kdf", "kf",
                                       attn_src, phi1_heads)
            if need_phi1:
                grad_phi1 = _einsum_vjp(grad_fold, "kdf", "kd", "kf",
                                        phi1_heads, attn_src)
    if need_c:
        grads[1] = _einsum_vjp(grad_scores, "zncf", "kf", "znck",
                               contributors, fold_dst)
    if need_dst or need_phi1:
        grad_fold = _einsum_vjp(grad_scores, "kf", "zncf", "znck",
                                fold_dst, contributors)
        if need_dst:
            grads[4] = _einsum_vjp(grad_fold, "kd", "kdf", "kf",
                                   attn_dst, phi1_heads)
        if need_phi1:
            # the tape sums phi1's two contributions in this order
            grad_phi1 = grad_phi1 + _einsum_vjp(grad_fold, "kdf", "kd", "kf",
                                                phi1_heads, attn_dst)
            grads[2] = grad_phi1.reshape(phi1.shape)
    if need_t or need_c:
        # concat([contributors, edges]) and edges = contributors - targets
        grad_pairs = _einsum_vjp(grad_mixed, "zncf", "znck", "znkf", pairs, alpha)
        grad_edges = grad_pairs[..., features:]
        if need_c:
            grads[1] = grads[1] + grad_pairs[..., :features] + grad_edges
        if need_t:
            grads[0] = grads[0] + _unbroadcast(
                -grad_edges, (z, n, 1, features)).reshape(z, n, features)
    return grads


nn.defvjp("gat_attention", _vjp_gat_attention, variadic=True)


def _xavier(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    fan_in = shape[-1] if len(shape) > 1 else shape[0]
    fan_out = shape[0]
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


class LSTGAT(StatePredictor):
    """The full LST-GAT predictor (graph attention + LSTM + linear head).

    Parameters
    ----------
    attention_dim:
        D_phi1 = D_phi3 (paper: 64).
    lstm_dim:
        D_l, the LSTM hidden size (paper: 64).
    history_steps:
        Window length z (paper: 5).
    """

    def __init__(self, attention_dim: int = 64, lstm_dim: int = 64,
                 history_steps: int = constants.HISTORY_STEPS,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = resolve_rng(rng)
        self.history_steps = history_steps
        self.attention = GraphAttention(FEATURE_DIM, attention_dim, rng=rng)
        # The LSTM sees the Eq. 11 aggregation concatenated with the raw
        # target state (a standard GAT skip connection that keeps the
        # target's own trajectory undiluted by the attention mixture)
        # and the ego reference state the labels are relative to.
        self.lstm = nn.LSTM(attention_dim + 2 * FEATURE_DIM, lstm_dim, rng=rng)
        self.head = nn.Linear(lstm_dim, 3, rng=rng)

    def forward_graph(self, graph: SpatialTemporalGraph) -> nn.Tensor:
        """Predict the one-step future relative state of all 6 targets.

        Returns a ``(6, 3)`` tensor: per target, the predicted
        ``[d_lat, d_lon, v_rel]`` at t+1 relative to the ego at t
        (Eq. 13).
        """
        targets = nn.Tensor(graph.target_features)
        contributors = nn.Tensor(graph.contributor_features)
        ego = nn.Tensor(graph.ego_features)
        updated = self.attention(targets, contributors)        # (z, 6, D)
        combined = nn.concat([updated, targets, ego], axis=2)  # (z, 6, D+8)
        sequence = combined.transpose(1, 0, 2)                 # (6, z, D+8)
        _, (hidden, _) = self.lstm(sequence)                   # (6, D_l)
        return self.head(hidden)                               # (6, 3)

    def attention_map(self, graph: SpatialTemporalGraph) -> np.ndarray:
        """Importance scores alpha for interpretability (Eq. 10).

        Returns ``(z, n_targets, 7)`` head-averaged attention weights:
        slot 0 is the target's self-loop, slots 1..6 its surroundings
        C_{i.1}..C_{i.6}.  Rows sum to 1 (padding slots get ~0).
        """
        with nn.no_grad():
            alpha = self.attention.attention_weights(
                nn.Tensor(graph.target_features),
                nn.Tensor(graph.contributor_features))
        return alpha.numpy().mean(axis=-1)

    # forward() kept as an alias so the model reads like the paper's Fig. 5.
    forward = forward_graph
