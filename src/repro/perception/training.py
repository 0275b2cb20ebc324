"""Training and evaluation loops for state predictors.

The paper trains LST-GAT with Adam, lr 1e-3, batch 64, 15 epochs; the
same loop drives the compared predictors so Table III/IV comparisons
are apples-to-apples.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .. import nn
from .predictor import StatePredictor
from .dataset import PredictionSample, collate
from ..seeding import resolve_rng

__all__ = ["TrainingResult", "train_predictor", "evaluate_predictor", "AccuracyReport"]


@dataclass
class TrainingResult:
    """Outcome of one training run."""

    epoch_losses: list[float] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def final_loss(self) -> float:
        return self.epoch_losses[-1] if self.epoch_losses else float("nan")


def train_predictor(model: StatePredictor, samples: list[PredictionSample],
                    epochs: int = 15, batch_size: int = 64, lr: float = 1e-3,
                    rng: np.random.Generator | None = None,
                    convergence_tol: float | None = None,
                    patience: int = 3) -> TrainingResult:
    """Mini-batch Adam training (paper Section V-A defaults).

    Parameters
    ----------
    convergence_tol:
        When set, training stops early once the epoch loss has improved
        by less than this fraction for ``patience`` consecutive epochs
        -- used by the Table IV/VI "training convergence time"
        measurements.
    patience:
        Consecutive below-tolerance epochs required before stopping.
    """
    if not samples:
        raise ValueError("cannot train on an empty sample list")
    rng = resolve_rng(rng)
    optimizer = nn.Adam(model.parameters(), lr=lr)
    result = TrainingResult()
    start = time.perf_counter()
    previous = None
    stall = 0
    for _ in range(epochs):
        order = rng.permutation(len(samples))
        epoch_loss = 0.0
        batches = 0
        for begin in range(0, len(order), batch_size):
            batch = [samples[index] for index in order[begin:begin + batch_size]]
            graph, truth = collate(batch)
            optimizer.zero_grad()
            loss = model.loss(graph, truth)
            loss.backward()
            nn.clip_grad_norm(optimizer.parameters, 5.0)
            optimizer.step()
            epoch_loss += loss.item()
            batches += 1
        epoch_loss /= max(batches, 1)
        result.epoch_losses.append(epoch_loss)
        if (convergence_tol is not None and previous is not None and previous > 0
                and abs(previous - epoch_loss) / previous < convergence_tol):
            stall += 1
            if stall >= patience:
                break
        else:
            stall = 0
        previous = epoch_loss
    result.wall_time = time.perf_counter() - start
    return result


@dataclass
class AccuracyReport:
    """Table III metrics: MAE / MSE / RMSE over unmasked target states."""

    mae: float
    mse: float
    rmse: float


def evaluate_predictor(model: StatePredictor,
                       samples: list[PredictionSample]) -> AccuracyReport:
    """MAE/MSE/RMSE of one-step predictions, in physical units (Table III)."""
    from .graph import OUTPUT_SCALE

    errors: list[np.ndarray] = []
    with nn.no_grad():
        for sample in samples:
            prediction = model.predict_normalized(sample.graph)
            mask = sample.graph.target_mask.astype(bool)
            if mask.any():
                errors.append(((prediction - sample.truth) * OUTPUT_SCALE)[mask])
    if not errors:
        raise ValueError("no unmasked targets to evaluate")
    stacked = np.concatenate(errors, axis=0)
    mae = float(np.abs(stacked).mean())
    mse = float((stacked ** 2).mean())
    return AccuracyReport(mae=mae, mse=mse, rmse=float(np.sqrt(mse)))
