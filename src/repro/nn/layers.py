"""Dense layers and containers built on the autograd engine.

The paper's networks are compositions of linear transformations with
ReLU nonlinearities (Eqs. 24-27); this module provides those building
blocks with PyTorch-compatible semantics.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import init
from .module import Module, Parameter
from .tensor import Tensor, linear
from ..seeding import resolve_rng

__all__ = ["Linear", "Sequential", "ReLU", "MLP"]


class Linear(Module):
    """Affine map ``y = x @ W.T + b``.

    Parameters
    ----------
    in_features / out_features:
        Input and output dimensionality.
    bias:
        Whether to learn an additive bias (the paper's layers all do).
    rng:
        Random generator for reproducible initialization.
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        rng = resolve_rng(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.kaiming_uniform((out_features, in_features), rng))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, inputs: Tensor) -> Tensor:
        return linear(inputs, self.weight, self.bias)


class ReLU(Module):
    """Rectified linear activation."""

    def forward(self, inputs: Tensor) -> Tensor:
        return inputs.relu()


class Sequential(Module):
    """Run sub-modules in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.children_list = list(modules)

    def forward(self, inputs: Tensor) -> Tensor:
        output = inputs
        for module in self.children_list:
            output = module(output)
        return output


class MLP(Module):
    """Multilayer perceptron with ReLU activations.

    Builds ``Linear -> ReLU -> ... -> Linear`` with no activation after
    the final layer, which is the pattern used by every branch of the
    paper's x/Q networks.
    """

    def __init__(self, sizes: Sequence[int],
                 rng: np.random.Generator | None = None) -> None:
        super().__init__()
        if len(sizes) < 2:
            raise ValueError("MLP needs at least an input and an output size")
        rng = resolve_rng(rng)
        layers: list[Module] = []
        for index, (n_in, n_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            layers.append(Linear(n_in, n_out, rng=rng))
            if index < len(sizes) - 2:
                layers.append(ReLU())
        self.net = Sequential(*layers)

    def forward(self, inputs: Tensor) -> Tensor:
        return self.net(inputs)
