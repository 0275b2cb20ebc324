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
from ..sim import constants
from .graph import CONTRIBUTORS, FEATURE_DIM, SpatialTemporalGraph
from .predictor import StatePredictor
from ..seeding import resolve_rng

__all__ = ["LSTGAT"]


class GraphAttention(nn.Module):
    """Shared single-head graph attention over each target's star graph.

    Implements Eqs. 10-11 for all (step, target) pairs at once on
    ``(z, 6, 7, 4)`` contributor features.
    """

    def __init__(self, feature_dim: int, hidden_dim: int,
                 negative_slope: float = 0.2, num_heads: int = 4,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = resolve_rng(rng)
        if hidden_dim % num_heads:
            raise ValueError("hidden_dim must be divisible by num_heads")
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

        Every (step, target, contributor, head) score falls out of two
        einsum contractions against the head-major views of ``phi1`` and
        the phi_2 halves -- no per-head loop, no mul+sum intermediate.
        Shared by :meth:`forward` and :meth:`LSTGAT.attention_map` so the
        interpretability view can never drift from the training math.
        """
        z, n = targets.shape[0], targets.shape[1]
        phi1_heads = self.phi1.reshape(self.num_heads, self.head_dim, -1)
        # Per-head scalar scores.  ``a . (phi1_k x) = (a @ phi1_k) . x``,
        # so each phi_2 half folds with its head's phi_1 block into one
        # tiny ``(K, F)`` score matrix before ever touching the data --
        # the ``(z, n, 7, K, Dh)`` transformed-feature intermediate of
        # the naive order never gets materialized.
        fold_src = nn.einsum("kd,kdf->kf", self.attn_src, phi1_heads)
        fold_dst = nn.einsum("kd,kdf->kf", self.attn_dst, phi1_heads)
        score_target = nn.einsum("znf,kf->znk", targets, fold_src)
        score_contrib = nn.einsum("zncf,kf->znck", contributors, fold_dst)
        scores = score_target.reshape(z, n, 1, self.num_heads) + score_contrib
        scores = scores.leaky_relu(self.negative_slope)
        # Padding mask: zero-padded slots (all-zero feature vectors, the
        # surroundings of phantom targets) must not receive attention.
        padding = (np.abs(contributors.data).sum(axis=-1) == 0.0)
        if padding.any():
            scores = scores + nn.Tensor(
                np.where(padding, -1e9, 0.0)[:, :, :, None])
        return scores.softmax(axis=2)                                       # Eq. 10

    def forward(self, targets: nn.Tensor, contributors: nn.Tensor) -> nn.Tensor:
        """Aggregate contributors into updated target vectors.

        Parameters
        ----------
        targets:
            ``(z, 6, 4)`` Eq. 7 target features.
        contributors:
            ``(z, 6, 7, 4)`` contributor features (slot 0 = self-loop).

        Returns
        -------
        ``(z, 6, hidden_dim)`` updated historical states h' (Eq. 11),
        the concatenation of all attention heads.

        The whole layer -- every head, target and history step -- is a
        handful of einsums; ``tests/nn/test_equivalence_fused.py`` pins
        it against the per-head loop in ``tests/oracles/nn.py``.
        """
        z, n = targets.shape[0], targets.shape[1]
        alpha = self.attention_weights(targets, contributors)  # (z, n, 7, K)
        target_rows = targets.reshape(z, n, 1, targets.shape[-1])
        edges = contributors - target_rows                     # pairwise differences
        phi3_heads = self.phi3.reshape(self.num_heads, self.head_dim, -1)
        # Contract the 7 contributors *before* expanding head features:
        # sum_c alpha (phi3 [x||e]) = phi3 (sum_c alpha [x||e]), so the
        # mixture runs on raw (z, n, 7, 2F) features and phi_3 is applied
        # once to the (z, n, K, 2F) result -- no (z, n, 7, K, Dh) value
        # tensor is ever built.
        mixed = nn.einsum("znck,zncf->znkf",
                          alpha, nn.concat([contributors, edges], axis=3))
        weighted = nn.einsum("znkf,kdf->znkd", mixed, phi3_heads)
        return weighted.reshape(z, n, self.hidden_dim)         # Eq. 11


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
