"""Numpy-based neural network substrate (PyTorch substitute).

Provides the tape autograd engine, layers, recurrent cells, optimizers,
losses and checkpointing that the perception and decision models are
built from.  See ``DESIGN.md`` for the substitution rationale.
"""

from .tensor import (Tensor, concat, no_grad, is_grad_enabled,
                     einsum, linear, defvjp, registered_ops)
from .module import Module, Parameter
from .layers import Linear, Sequential, ReLU, MLP
from .recurrent import LSTMCell, LSTM, lstm_step, lstm_sequence
from .optim import Adam, clip_grad_norm
from .losses import mse_loss, masked_mse_loss
from .serialization import save_module, load_module

__all__ = [
    "Tensor", "concat", "no_grad", "is_grad_enabled",
    "einsum", "linear", "defvjp", "registered_ops",
    "Module", "Parameter",
    "Linear", "Sequential", "ReLU", "MLP",
    "LSTMCell", "LSTM", "lstm_step", "lstm_sequence",
    "Adam", "clip_grad_norm",
    "mse_loss", "masked_mse_loss",
    "save_module", "load_module",
]
