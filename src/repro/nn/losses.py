"""Loss functions used by the paper's training objectives."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor

__all__ = ["mse_loss", "masked_mse_loss"]


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error over all elements (Eq. 14 without masking)."""
    diff = prediction - target
    return (diff * diff).mean()


def masked_mse_loss(prediction: Tensor, target: Tensor, mask: np.ndarray) -> Tensor:
    """MSE with per-row masking (Eq. 14 phantom-vehicle masking).

    Rows whose ``mask`` entry is 0 contribute no loss and no gradient --
    the paper masks phantom vehicles by setting their ground truth equal
    to the prediction, which is mathematically identical.

    Parameters
    ----------
    prediction / target:
        ``(n, d)`` tensors.
    mask:
        ``(n,)`` array of 0/1 flags; 1 keeps the row.
    """
    mask = np.asarray(mask, dtype=np.float64)
    if mask.ndim != 1 or mask.shape[0] != prediction.shape[0]:
        raise ValueError("mask must be 1-D with one flag per prediction row")
    kept = float(mask.sum())
    if kept == 0.0:
        return (prediction * 0.0).sum()
    diff = prediction - target
    weighted = diff * diff * Tensor(mask[:, None])
    return weighted.sum() * (1.0 / (kept * prediction.shape[1]))
