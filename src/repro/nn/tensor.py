"""Tape-based reverse-mode automatic differentiation on numpy arrays.

This module is the foundation of :mod:`repro.nn`.  The paper's models
(LST-GAT, BP-DQN and all comparators) are defined in PyTorch; this
engine reproduces the subset of functionality they need -- dense ops,
broadcasting, matmul, einsum, element-wise nonlinearities, reductions,
indexing and concatenation -- with exact reverse-mode gradients, so the
training mathematics of the paper is preserved without a GPU
dependency.

The design is a "define-by-run" tape over a **VJP registry** (the
closure-free idiom of HIPS autograd):

* every primitive op registers, once at import time, one vectorized
  vector-Jacobian-product function per input via :func:`defvjp`;
* each op call records only ``(op name, parents, ctx)`` on its output
  node -- no per-call Python closure is constructed;
* :meth:`Tensor.backward` topologically sorts the tape and dispatches
  the registered VJPs in reverse, adopting each fresh VJP result as the
  gradient buffer it accumulates into.

Compared with the closure tape it replaced (preserved verbatim as the
test oracle ``tests/oracles/nn.py``), recording a node costs an attribute write
instead of a closure allocation, and backward dispatch is a dict lookup
instead of a call into captured cell variables.  ``BENCH_nn.json``
(``benchmarks/test_perf_nn.py``) tracks the resulting throughput.

Gradients of **every** registered op are verified against central
finite differences by ``tests/nn/test_gradcheck_registry.py``; an op
cannot be registered without a gradcheck case.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "concat",
           "einsum", "linear", "defvjp", "registered_ops"]

_GRAD_ENABLED = True


class no_grad:
    """Context manager that disables tape recording.

    Used for target-network evaluation and inference, mirroring
    ``torch.no_grad()``.
    """

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._previous = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, *exc_info: object) -> None:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._previous


def is_grad_enabled() -> bool:
    """Return whether ops currently record tape nodes."""
    return _GRAD_ENABLED


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting.

    Summation runs over the leading dimensions numpy added and over any
    axis that was broadcast from size one.
    """
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# ----------------------------------------------------------------------
# VJP registry
# ----------------------------------------------------------------------
#: A per-input VJP: ``vjp(grad, out_data, ctx, *parent_data)`` returns
#: the gradient for that input, already reduced to the input's shape.
VjpFn = Callable[..., np.ndarray]


class OpSpec:
    """Registered backward rule for one primitive op.

    ``vjps`` holds one function per positional input (``None`` marks a
    non-differentiable slot).  A variadic op (``concat``) registers a
    single function returning one gradient per parent.
    """

    __slots__ = ("name", "vjps", "variadic")

    def __init__(self, name: str, vjps: tuple[VjpFn | None, ...],
                 variadic: bool) -> None:
        self.name = name
        self.vjps = vjps
        self.variadic = variadic


_VJP_REGISTRY: dict[str, OpSpec] = {}


def defvjp(name: str, *vjps: VjpFn | None, variadic: bool = False) -> None:
    """Register the VJP functions of primitive op ``name``.

    Called once per op at import time; re-registration is an error so
    two modules cannot silently fight over an op name.  Every
    registered op must have a finite-difference case in
    ``tests/nn/test_gradcheck_registry.py`` -- the suite fails on any
    op registered without one.
    """
    if name in _VJP_REGISTRY:
        raise ValueError(f"op {name!r} is already registered")
    if variadic and len(vjps) != 1:
        raise ValueError("variadic ops register exactly one VJP function")
    _VJP_REGISTRY[name] = OpSpec(name, vjps, variadic)


def registered_ops() -> list[str]:
    """Sorted names of every op in the VJP registry."""
    return sorted(_VJP_REGISTRY)


_FLOAT64 = np.dtype(np.float64)


class Tensor:
    """A numpy array with reverse-mode gradient support.

    Parameters
    ----------
    data:
        Array-like payload; always stored as ``float64`` for numerical
        robustness in gradient checks.
    requires_grad:
        Whether gradients should flow into this tensor.  Leaf tensors
        with ``requires_grad=True`` act as trainable parameters.

    Tape nodes are closure-free: a recorded op carries its registry
    name in ``_op`` and op-specific saved values in ``_ctx``; the
    matching VJPs are looked up at replay time.  After ``backward()``
    the consumed graph is marked ``_done`` -- replaying it again raises
    instead of silently double-counting shared subexpressions (the
    PR 3 ``tape-leak`` sanitizer check, now enforced unconditionally).
    """

    __slots__ = ("data", "grad", "requires_grad", "_op", "_ctx", "_parents",
                 "_done")

    def __init__(self, data, requires_grad: bool = False) -> None:
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.grad: np.ndarray | None = None
        self._op: str | None = None
        self._ctx: tuple = ()
        self._parents: tuple[Tensor, ...] = ()
        self._done = False

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        """Return the single scalar value held by this tensor."""
        if self.data.size != 1:
            raise ValueError("item() is only defined for single-element tensors")
        return float(self.data.reshape(-1)[0])

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def zero_grad(self) -> None:
        """Clear the gradient."""
        self.grad = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # ------------------------------------------------------------------
    # autograd core
    # ------------------------------------------------------------------
    def _make_child(self, data: np.ndarray, parents: Iterable["Tensor"]) -> "Tensor":
        parents = tuple(parents)
        requires = False
        if _GRAD_ENABLED:
            for parent in parents:
                if parent.requires_grad:
                    requires = True
                    break
        out = Tensor.__new__(Tensor)
        out.data = data if isinstance(data, np.ndarray) else np.asarray(data, dtype=np.float64)
        out.requires_grad = requires
        out.grad = None
        out._op = None
        out._ctx = ()
        out._parents = parents if requires else ()
        out._done = False
        return out

    def _accumulate(self, grad: np.ndarray, source: np.ndarray | None = None) -> None:
        """Add ``grad`` into this tensor's gradient buffer.

        The first write adopts ``grad`` outright when it is a whole
        float64 array other than ``source`` (the gradient a VJP derived
        it from, which a VJP may hand back unchanged to several
        parents); anything else is copied, in ``grad``'s memory order so
        later BLAS calls round the same way.
        """
        buffer = self.grad
        if buffer is None:
            if type(grad) is np.ndarray and grad.base is None \
                    and grad is not source and grad.dtype == _FLOAT64:
                self.grad = grad
            else:
                self.grad = np.array(grad, dtype=np.float64, copy=True)
        else:
            np.add(buffer, grad, out=buffer)

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded tape.

        Replays each reached node's registered VJPs exactly once; the
        consumed nodes are marked and a second ``backward()`` through
        any of them raises ``RuntimeError`` (rebuild the graph instead
        of re-running it -- re-replay double-counts every shared
        subexpression).  Intermediate gradient buffers are dropped as
        soon as their parents have consumed them; only leaf tensors keep
        ``grad`` populated.

        Parameters
        ----------
        grad:
            Gradient of the final objective w.r.t. this tensor.  Defaults
            to ``1`` which requires this tensor to be a scalar.
        """
        if not self.requires_grad:
            raise RuntimeError("backward() called on a tensor that does not require grad")
        if self._done:
            raise RuntimeError(
                "backward() already ran through this tape; rebuild the graph "
                "instead of replaying it")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("backward() without an explicit gradient needs a scalar output")
            grad = np.ones_like(self.data)
        else:
            grad = np.array(grad, dtype=np.float64)
        if grad.shape != self.data.shape:
            raise ValueError(f"gradient shape {grad.shape} does not match tensor shape {self.data.shape}")

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
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
                if id(parent) not in visited and parent._op is not None:
                    stack.append((parent, False))

        self._accumulate(grad)
        registry = _VJP_REGISTRY
        for node in reversed(topo):
            op = node._op
            if op is None:
                continue
            out_grad = node.grad
            if out_grad is None:
                continue
            if node._done:
                raise RuntimeError(
                    "backward() reached a tape node that was already "
                    "replayed; rebuild the graph instead of re-running it")
            spec = registry[op]
            parents = node._parents
            if spec.variadic:
                grads = spec.vjps[0](out_grad, node.data, node._ctx,
                                     tuple(p.data for p in parents))
                for parent, parent_grad in zip(parents, grads):
                    if parent.requires_grad and parent_grad is not None:
                        parent._accumulate(parent_grad, out_grad)
            else:
                vjps = spec.vjps
                # Unrolled one/two-parent dispatch: nearly every op on
                # the hot path lands here, and skipping the generic
                # tuple build + enumerate measurably speeds up backward.
                if len(parents) == 1:
                    parent = parents[0]
                    if parent.requires_grad and vjps[0] is not None:
                        parent._accumulate(
                            vjps[0](out_grad, node.data, node._ctx, parent.data),
                            out_grad)
                elif len(parents) == 2:
                    first, second = parents
                    if first.requires_grad and vjps[0] is not None:
                        first._accumulate(
                            vjps[0](out_grad, node.data, node._ctx,
                                    first.data, second.data),
                            out_grad)
                    if second.requires_grad and vjps[1] is not None:
                        second._accumulate(
                            vjps[1](out_grad, node.data, node._ctx,
                                    first.data, second.data),
                            out_grad)
                else:
                    parent_data = tuple(p.data for p in parents)
                    for index, parent in enumerate(parents):
                        if parent.requires_grad:
                            vjp = vjps[index]
                            if vjp is not None:
                                parent._accumulate(
                                    vjp(out_grad, node.data, node._ctx,
                                        *parent_data),
                                    out_grad)
            node._done = True
            node.grad = None

    # ------------------------------------------------------------------
    # arithmetic ops
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out = self._make_child(self.data + other.data, (self, other))
        if out.requires_grad:
            out._op = "add"
        return out

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        out = self._make_child(-self.data, (self,))
        if out.requires_grad:
            out._op = "neg"
        return out

    def __sub__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out = self._make_child(self.data - other.data, (self, other))
        if out.requires_grad:
            out._op = "sub"
        return out

    def __rsub__(self, other) -> "Tensor":
        return Tensor(other) - self

    def __mul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out = self._make_child(self.data * other.data, (self, other))
        if out.requires_grad:
            out._op = "mul"
        return out

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out = self._make_child(self.data / other.data, (self, other))
        if out.requires_grad:
            out._op = "div"
        return out

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out = self._make_child(self.data ** exponent, (self,))
        if out.requires_grad:
            out._op = "pow"
            out._ctx = (float(exponent),)
        return out

    def __matmul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out = self._make_child(self.data @ other.data, (self, other))
        if out.requires_grad:
            out._op = "matmul"
        return out

    # ------------------------------------------------------------------
    # element-wise nonlinearities
    # ------------------------------------------------------------------
    def tanh(self) -> "Tensor":
        out = self._make_child(np.tanh(self.data), (self,))
        if out.requires_grad:
            out._op = "tanh"
        return out

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out = self._make_child(self.data * mask, (self,))
        if out.requires_grad:
            out._op = "relu"
            out._ctx = (mask,)
        return out

    def leaky_relu(self, negative_slope: float = 0.01) -> "Tensor":
        slope = np.where(self.data > 0, 1.0, negative_slope)
        out = self._make_child(self.data * slope, (self,))
        if out.requires_grad:
            out._op = "leaky_relu"
            out._ctx = (slope,)
        return out

    # ------------------------------------------------------------------
    # reductions and shaping
    # ------------------------------------------------------------------
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        out = self._make_child(self.data.sum(axis=axis, keepdims=keepdims), (self,))
        if out.requires_grad:
            out._op = "sum"
            out._ctx = (axis, keepdims)
        return out

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else axis
            count = int(np.prod([self.data.shape[a] for a in axes]))
        out = self._make_child(self.data.mean(axis=axis, keepdims=keepdims), (self,))
        if out.requires_grad:
            out._op = "mean"
            out._ctx = (axis, keepdims, count)
        return out

    def reshape(self, *shape: int) -> "Tensor":
        out = self._make_child(self.data.reshape(*shape), (self,))
        if out.requires_grad:
            out._op = "reshape"
        return out

    def transpose(self, *axes: int) -> "Tensor":
        order = axes or tuple(reversed(range(self.data.ndim)))
        out = self._make_child(self.data.transpose(order), (self,))
        if out.requires_grad:
            out._op = "transpose"
            out._ctx = (np.argsort(order),)
        return out

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        out = self._make_child(self.data[index], (self,))
        if out.requires_grad:
            out._op = "getitem"
            out._ctx = (index, _is_basic_index(index))
        return out

    # ------------------------------------------------------------------
    # composite helpers
    # ------------------------------------------------------------------
    def softmax(self, axis: int = -1) -> "Tensor":
        """Numerically stable softmax along ``axis`` (one fused node)."""
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        exps = np.exp(shifted)
        out = self._make_child(exps / exps.sum(axis=axis, keepdims=True), (self,))
        if out.requires_grad:
            out._op = "softmax"
            out._ctx = (axis,)
        return out


def _is_basic_index(index) -> bool:
    """True when ``index`` is basic (never selects one element twice).

    Basic indexing gradients scatter with a plain in-place add; fancy
    (array/bool) indexing may visit elements repeatedly and needs the
    much slower ``np.add.at``.
    """
    parts = index if isinstance(index, tuple) else (index,)
    return all(isinstance(part, (int, np.integer, slice))
               or part is Ellipsis or part is None
               for part in parts)


# ----------------------------------------------------------------------
# registered VJPs (element-wise / arithmetic)
# ----------------------------------------------------------------------
def _vjp_add_a(g, out, ctx, a, b):
    return _unbroadcast(g, a.shape)


def _vjp_add_b(g, out, ctx, a, b):
    return _unbroadcast(g, b.shape)


def _vjp_sub_b(g, out, ctx, a, b):
    return _unbroadcast(-g, b.shape)


def _vjp_mul_a(g, out, ctx, a, b):
    return _unbroadcast(g * b, a.shape)


def _vjp_mul_b(g, out, ctx, a, b):
    return _unbroadcast(g * a, b.shape)


def _vjp_div_a(g, out, ctx, a, b):
    return _unbroadcast(g / b, a.shape)


def _vjp_div_b(g, out, ctx, a, b):
    return _unbroadcast(-g * a / (b * b), b.shape)


defvjp("add", _vjp_add_a, _vjp_add_b)
defvjp("sub", _vjp_add_a, _vjp_sub_b)
defvjp("neg", lambda g, out, ctx, a: -g)
defvjp("mul", _vjp_mul_a, _vjp_mul_b)
defvjp("div", _vjp_div_a, _vjp_div_b)
defvjp("pow", lambda g, out, ctx, a: g * ctx[0] * a ** (ctx[0] - 1.0))
defvjp("tanh", lambda g, out, ctx, a: g * (1.0 - out * out))
defvjp("relu", lambda g, out, ctx, a: g * ctx[0])
defvjp("leaky_relu", lambda g, out, ctx, a: g * ctx[0])


# ----------------------------------------------------------------------
# registered VJPs (matmul)
# ----------------------------------------------------------------------
def _vjp_matmul_a(g, out, ctx, a, b):
    if b.ndim == 1:
        return np.multiply.outer(g, b) if a.ndim > 1 else g * b
    return _unbroadcast(g @ np.swapaxes(b, -1, -2), a.shape)


def _vjp_matmul_b(g, out, ctx, a, b):
    if a.ndim == 1 and b.ndim > 1:
        return _unbroadcast(np.multiply.outer(a, g), b.shape)
    if b.ndim == 1:
        if a.ndim > 1:
            return _unbroadcast(
                (a * g[..., None]).reshape(-1, a.shape[-1]).sum(axis=0), b.shape)
        return a * g
    return _unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape)


defvjp("matmul", _vjp_matmul_a, _vjp_matmul_b)


# ----------------------------------------------------------------------
# registered VJPs (reductions and shaping)
# ----------------------------------------------------------------------
def _expand_reduced(grad: np.ndarray, axis, keepdims: bool,
                    ndim: int) -> np.ndarray:
    """Re-insert the axes a reduction removed so ``grad`` broadcasts back."""
    if axis is None or keepdims:
        return grad
    axes = (axis,) if isinstance(axis, int) else axis
    for ax in sorted(a % ndim for a in axes):
        grad = np.expand_dims(grad, ax)
    return grad


def _vjp_sum(g, out, ctx, a):
    axis, keepdims = ctx
    return np.broadcast_to(_expand_reduced(g, axis, keepdims, a.ndim), a.shape)


def _vjp_mean(g, out, ctx, a):
    axis, keepdims, count = ctx
    return np.broadcast_to(_expand_reduced(g, axis, keepdims, a.ndim) / count,
                           a.shape)


def _vjp_getitem(g, out, ctx, a):
    index, basic = ctx
    full = np.zeros_like(a)
    if basic:
        full[index] += g
    else:
        np.add.at(full, index, g)
    return full


def _vjp_softmax(g, out, ctx, a):
    return out * (g - (g * out).sum(axis=ctx[0], keepdims=True))


defvjp("sum", _vjp_sum)
defvjp("mean", _vjp_mean)
defvjp("reshape", lambda g, out, ctx, a: g.reshape(a.shape))
defvjp("transpose", lambda g, out, ctx, a: g.transpose(ctx[0]))
defvjp("getitem", _vjp_getitem)
defvjp("softmax", _vjp_softmax)


# ----------------------------------------------------------------------
# fused affine map
# ----------------------------------------------------------------------
def linear(inputs: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Fused affine map ``inputs @ weight.T (+ bias)`` as one tape node.

    ``inputs`` may carry arbitrary leading batch dimensions (or none);
    ``weight`` is ``(out_features, in_features)`` and ``bias``
    ``(out_features,)``.  Fusing the matmul and the bias add halves the
    tape traffic of every dense layer, which is why :class:`Linear` and
    the LSTM projections route through here.
    """
    inputs = inputs if isinstance(inputs, Tensor) else Tensor(inputs)
    data = inputs.data @ weight.data.T
    if bias is not None:
        data += bias.data
        parents: tuple[Tensor, ...] = (inputs, weight, bias)
    else:
        parents = (inputs, weight)
    out = inputs._make_child(data, parents)
    if out.requires_grad:
        out._op = "linear"
    return out


def _vjp_linear_inputs(g, out, ctx, x, w, b=None):
    return g @ w


def _vjp_linear_weight(g, out, ctx, x, w, b=None):
    out_features, in_features = w.shape
    return g.reshape(-1, out_features).T @ x.reshape(-1, in_features)


def _vjp_linear_bias(g, out, ctx, x, w, b):
    return g.reshape(-1, b.shape[0]).sum(axis=0)


defvjp("linear", _vjp_linear_inputs, _vjp_linear_weight, _vjp_linear_bias)


# ----------------------------------------------------------------------
# einsum
# ----------------------------------------------------------------------
def _parse_einsum_spec(spec: str) -> tuple[str, str, str]:
    if "->" not in spec or "..." in spec:
        raise ValueError("einsum spec must be explicit ('ab,bc->ac'; no ellipsis)")
    lhs, sub_out = spec.split("->")
    terms = lhs.split(",")
    if len(terms) != 2:
        raise ValueError("the einsum primitive takes exactly two operands")
    for term in (*terms, sub_out):
        if len(set(term)) != len(term):
            raise ValueError(f"repeated subscript in {term!r} is not supported")
    if not set(sub_out) <= set(terms[0]) | set(terms[1]):
        raise ValueError("every output subscript must appear in an operand")
    return terms[0], terms[1], sub_out


class _EinsumPlan:
    """BLAS lowering of one two-operand einsum spec, cached per spec.

    ``np.einsum`` routes small contractions through ``c_einsum``, which
    is 2-10x slower than BLAS on the GAT attention shapes.  Any
    two-operand spec without repeated labels factors as a batched
    matmul: labels shared by both operands and the output are batch
    dims, labels shared by the operands only are contracted, the rest
    are the matmul's free dims (labels private to one operand are
    summed away up front).  The label bookkeeping is done once here;
    execution is transpose + reshape + ``@``.
    """

    __slots__ = ("a_sum_axes", "b_sum_axes", "a_perm", "b_perm", "out_perm",
                 "n_batch", "n_afree", "n_bfree")

    def __init__(self, sub_a: str, sub_b: str, sub_out: str) -> None:
        set_a, set_b, set_out = set(sub_a), set(sub_b), set(sub_out)
        batch = [c for c in sub_a if c in set_b and c in set_out]
        contract = [c for c in sub_a if c in set_b and c not in set_out]
        afree = [c for c in sub_a if c not in set_b and c in set_out]
        bfree = [c for c in sub_b if c not in set_a and c in set_out]
        self.a_sum_axes = tuple(i for i, c in enumerate(sub_a)
                                if c not in set_b and c not in set_out)
        self.b_sum_axes = tuple(i for i, c in enumerate(sub_b)
                                if c not in set_a and c not in set_out)
        a_kept = [c for c in sub_a if c in set_b or c in set_out]
        b_kept = [c for c in sub_b if c in set_a or c in set_out]
        a_perm = tuple(a_kept.index(c) for c in batch + afree + contract)
        b_perm = tuple(b_kept.index(c) for c in batch + contract + bfree)
        produced = batch + afree + bfree
        out_perm = tuple(produced.index(c) for c in sub_out)
        # Identity permutations become None so execute() skips them.
        self.a_perm = a_perm if a_perm != tuple(range(len(a_perm))) else None
        self.b_perm = b_perm if b_perm != tuple(range(len(b_perm))) else None
        self.out_perm = out_perm if out_perm != tuple(range(len(out_perm))) else None
        self.n_batch = len(batch)
        self.n_afree = len(afree)
        self.n_bfree = len(bfree)

    def execute(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.a_sum_axes:
            a = a.sum(axis=self.a_sum_axes)
        if self.b_sum_axes:
            b = b.sum(axis=self.b_sum_axes)
        if self.a_perm is not None:
            a = a.transpose(self.a_perm)
        if self.b_perm is not None:
            b = b.transpose(self.b_perm)
        nb, na, nbf = self.n_batch, self.n_afree, self.n_bfree
        a_shape, b_shape = a.shape, b.shape
        batch_shape = a_shape[:nb]
        afree_shape = a_shape[nb:nb + na]
        bfree_shape = b_shape[len(b_shape) - nbf:]
        m = k = n = 1
        for extent in afree_shape:
            m *= extent
        for extent in a_shape[nb + na:]:
            k *= extent
        for extent in bfree_shape:
            n *= extent
        result = a.reshape(batch_shape + (m, k)) @ b.reshape(batch_shape + (k, n))
        result = result.reshape(batch_shape + afree_shape + bfree_shape)
        if self.out_perm is not None:
            result = result.transpose(self.out_perm)
        return result


_EINSUM_PLANS: dict[tuple[str, str, str], _EinsumPlan] = {}
_SPEC_CACHE: dict[str, tuple[str, str, str]] = {}


def _contract(sub_a: str, sub_b: str, sub_out: str,
              a: np.ndarray, b: np.ndarray) -> np.ndarray:
    key = (sub_a, sub_b, sub_out)
    plan = _EINSUM_PLANS.get(key)
    if plan is None:
        plan = _EINSUM_PLANS[key] = _EinsumPlan(sub_a, sub_b, sub_out)
    return plan.execute(a, b)


def einsum(spec: str, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable two-operand einsum (no ellipsis/diagonals).

    The workhorse of the batched GAT attention: one einsum contracts
    all heads, vehicles and history steps at once where the reference
    implementation loops per head.  Execution lowers to a cached
    batched-matmul plan (:class:`_EinsumPlan`) rather than
    ``np.einsum``; equivalence against ``np.einsum`` is pinned by the
    gradcheck registry suite and ``tests/nn/test_equivalence_fused.py``.
    Operand dimensions sharing a label must match exactly (no implicit
    size-1 broadcasting).
    """
    subs = _SPEC_CACHE.get(spec)
    if subs is None:
        subs = _SPEC_CACHE[spec] = _parse_einsum_spec(spec)
    sub_a, sub_b, sub_out = subs
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    out = a._make_child(_contract(sub_a, sub_b, sub_out, a.data, b.data), (a, b))
    if out.requires_grad:
        out._op = "einsum"
        out._ctx = (sub_a, sub_b, sub_out)
    return out


def _einsum_operand_vjp(grad: np.ndarray, own_sub: str, other_sub: str,
                        sub_out: str, own_data: np.ndarray,
                        other_data: np.ndarray) -> np.ndarray:
    """Gradient of one einsum operand by transposing the spec.

    Indices of the operand that appear in neither the output nor the
    other operand were summed over in the forward pass; their gradient
    broadcasts back along the dropped axes.
    """
    available = set(sub_out) | set(other_sub)
    kept = "".join(c for c in own_sub if c in available)
    result = _contract(sub_out, other_sub, kept, grad, other_data)
    if kept != own_sub:
        kept_set = set(kept)
        for position, label in enumerate(own_sub):
            if label not in kept_set:
                result = np.expand_dims(result, position)
        result = np.broadcast_to(result, own_data.shape)
    return result


defvjp(
    "einsum",
    lambda g, out, ctx, a, b: _einsum_operand_vjp(g, ctx[0], ctx[1], ctx[2], a, b),
    lambda g, out, ctx, a, b: _einsum_operand_vjp(g, ctx[1], ctx[0], ctx[2], b, a),
)


# ----------------------------------------------------------------------
# variadic op
# ----------------------------------------------------------------------
def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient routing."""
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    out = tensors[0]._make_child(data, tensors)
    if out.requires_grad:
        out._op = "concat"
        sizes = [t.data.shape[axis] for t in tensors]
        out._ctx = (axis, np.cumsum([0] + sizes))
    return out


def _vjp_concat(g, out, ctx, parent_data):
    axis, offsets = ctx
    base: list = [slice(None)] * g.ndim
    grads = []
    for start, stop in zip(offsets[:-1], offsets[1:]):
        index = list(base)
        index[axis] = slice(start, stop)
        grads.append(g[tuple(index)])
    return grads


defvjp("concat", _vjp_concat, variadic=True)
