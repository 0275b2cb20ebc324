"""Module system: parameter containers with state-dict serialization.

Mirrors the small subset of ``torch.nn.Module`` the paper's models rely
on: recursive parameter discovery, state dicts, and parameter copying
(used for target networks and soft updates).  Only this module knows
the flat parameter store layout (see :func:`flatten`).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Iterator

import numpy as np

from .tensor import Tensor

__all__ = ["Module", "Parameter", "flatten"]


class Parameter(Tensor):
    """A :class:`Tensor` that is registered as trainable by modules.

    Once stored, ``data`` and ``grad`` are views into the store (copies:
    into the copied store), ``grad`` is never ``None``, and rebinding
    either raises ``TypeError``.
    """

    __slots__ = ("_store", "_offset")

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)
        self._store, self._offset = None, 0  # (data, grad) vectors, start index

    def __setattr__(self, name: str, value) -> None:
        if name in ("data", "grad") and getattr(self, "_store", None) is not None:
            raise TypeError(f"rebinding Parameter.{name} would detach it from its store; "
                            f"write in place instead (parameter.{name}[...] = value)")
        super().__setattr__(name, value)

    def zero_grad(self) -> None:
        if self._store is None:
            return super().zero_grad()
        self.grad.fill(0.0)

    def __reduce_ex__(self, protocol):
        if self._store is None:
            return super().__reduce_ex__(protocol)
        return _restore, (self._store, self._offset, self.shape, self.requires_grad)


def _bind(parameter: Parameter, store, offset: int) -> None:
    shape, end = parameter.shape, offset + parameter.size
    parameter.data = store[0][offset:end].reshape(shape)
    parameter.grad = store[1][offset:end].reshape(shape)
    parameter._store, parameter._offset = store, offset


def _restore(store, offset: int, shape: tuple[int, ...], requires_grad: bool) -> Parameter:
    parameter = Parameter(np.empty(shape))
    parameter.requires_grad = requires_grad
    _bind(parameter, store, offset)
    return parameter


def flatten(parameters: Iterable[Parameter]) -> tuple[np.ndarray, np.ndarray]:
    """Return the ``(data, grad)`` store vectors behind ``parameters``.

    Parameters in no store yet move, in order, into a new ``data`` vector
    and a zeroed ``grad`` vector; parameters forming one in-order run of
    a single store get that run's slices; anything else is a ``ValueError``.
    """
    parameters = list(parameters)
    if len(set(map(id, parameters))) == len(parameters) \
            and all(parameter._store is None for parameter in parameters):
        data = np.concatenate([parameter.data.reshape(-1) for parameter in parameters]
                              or [np.empty(0)])
        store, offset = (data, np.zeros_like(data)), 0
        for parameter in parameters:
            _bind(parameter, store, offset)
            offset += parameter.size
        return store
    store = parameters[0]._store
    start = offset = parameters[0]._offset
    for parameter in parameters:
        if store is None or parameter._store is not store or parameter._offset != offset:
            raise ValueError("parameters are not one in-order run of a single store")
        offset += parameter.size
    return store[0][start:offset], store[1][start:offset]


class Module:
    """Base class for neural network components.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; those are discovered recursively for optimization and
    serialization.
    """

    # ------------------------------------------------------------------
    # discovery
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs, depth-first."""
        for name, value in vars(self).items():
            full = f"{prefix}{name}"
            if isinstance(value, Parameter):
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{full}.")
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, Parameter):
                        yield f"{full}.{index}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{full}.{index}.")

    def parameters(self) -> list[Parameter]:
        """Return all trainable parameters, in :meth:`named_parameters` order."""
        return [parameter for _, parameter in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        """Yield this module and every descendant module."""
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    # ------------------------------------------------------------------
    # gradients
    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        """Clear gradients of every parameter."""
        for parameter in self.parameters():
            parameter.zero_grad()

    @contextmanager
    def frozen(self) -> Iterator[None]:
        """Clear ``requires_grad`` on every parameter for the block's duration.

        Gradients still flow *through* the module to its inputs, but none
        is computed for its own parameters (an actor loss backpropagating
        through a critic).  The flags come back in ``finally``; keep the
        ``backward()`` inside the block, because the tape checks each
        parent's flag again when it replays.
        """
        parameters = self.parameters()
        flags = [parameter.requires_grad for parameter in parameters]
        for parameter in parameters:
            parameter.requires_grad = False
        try:
            yield
        finally:
            for parameter, flag in zip(parameters, flags):
                parameter.requires_grad = flag

    def num_parameters(self) -> int:
        """Return the total scalar parameter count."""
        return sum(parameter.size for parameter in self.parameters())

    # ------------------------------------------------------------------
    # serialization and target-network support
    # ------------------------------------------------------------------
    def store(self) -> tuple[np.ndarray, np.ndarray]:
        """This tree's ``(data, grad)`` store vectors, kept after the first call."""
        if "_flat" not in self.__dict__:
            self._flat = flatten(self.parameters())
        return self._flat

    def __getstate__(self) -> dict:
        # the kept vectors are views: a copy finds its own on first use
        return {key: value for key, value in self.__dict__.items() if key != "_flat"}

    def state_dict(self) -> dict[str, np.ndarray]:
        """Return a name -> array snapshot of all parameters (copies)."""
        return {name: parameter.data.copy() for name, parameter in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter values (in place) from a :meth:`state_dict` snapshot."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}")
        for name, parameter in own.items():
            if np.shape(state[name]) != parameter.shape:
                raise ValueError(f"shape mismatch for {name}: {np.shape(state[name])} vs {parameter.shape}")
            parameter.data[...] = state[name]

    def copy_from(self, other: "Module") -> None:
        """Hard-copy all parameters from ``other`` (target network init)."""
        np.copyto(self.store()[0], other.store()[0])

    def soft_update_from(self, other: "Module", tau: float) -> None:
        """Polyak-average parameters from ``other``: p <- tau*p_other + (1-tau)*p.

        Used by BP-DQN/P-DQN/P-DDPG target networks with the ratio 0.01
        from the paper's implementation details.
        """
        own = self.store()[0]
        own[...] = tau * other.store()[0] + (1.0 - tau) * own

    # ------------------------------------------------------------------
    # call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
