"""The reprolint rule catalogue.

Every rule encodes an invariant this repository actually depends on --
see ``docs/static_analysis.md`` for the rationale behind each one and
for how to add a new rule.  Rule ids are stable public API: they are the
handles used by ``# reprolint: disable=...`` comments.
"""

from __future__ import annotations

import ast
from decimal import Decimal, InvalidOperation
from typing import Iterable, Iterator

from .linting import Finding, LintContext, Rule, rule

__all__ = ["NumpyAliases"]

#: Capitalized attributes of ``numpy.random`` that are legitimate to
#: call: explicit bit-generator / SeedSequence construction is always
#: deliberate about its seed.
_CONSTRUCTOR_PREFIXES = ("Generator", "SeedSequence", "PCG64", "Philox",
                         "SFC64", "MT19937", "BitGenerator", "RandomState")


class NumpyAliases:
    """Resolved import aliases for numpy and numpy.random in one file."""

    def __init__(self, tree: ast.Module) -> None:
        self.numpy: set[str] = set()           # import numpy as np -> {"np"}
        self.numpy_random: set[str] = set()    # from numpy import random -> {"random"}
        self.from_random: dict[str, str] = {}  # from numpy.random import default_rng as d
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "numpy":
                        self.numpy.add(alias.asname or "numpy")
                    elif alias.name == "numpy.random":
                        # "import numpy.random as npr" binds npr; plain
                        # "import numpy.random" binds "numpy".
                        if alias.asname:
                            self.numpy_random.add(alias.asname)
                        else:
                            self.numpy.add("numpy")
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if node.module == "numpy":
                    for alias in node.names:
                        if alias.name == "random":
                            self.numpy_random.add(alias.asname or "random")
                elif node.module == "numpy.random":
                    for alias in node.names:
                        self.from_random[alias.asname or alias.name] = alias.name

    def random_call_name(self, call: ast.Call) -> str | None:
        """Return the ``numpy.random`` function name behind ``call``, if any."""
        func = call.func
        if isinstance(func, ast.Name):
            return self.from_random.get(func.id)
        if isinstance(func, ast.Attribute):
            value = func.value
            if isinstance(value, ast.Name) and value.id in self.numpy_random:
                return func.attr
            if (isinstance(value, ast.Attribute) and value.attr == "random"
                    and isinstance(value.value, ast.Name)
                    and value.value.id in self.numpy):
                return func.attr
        return None


def _iter_calls(ctx: LintContext) -> Iterator[tuple[ast.Call, str]]:
    aliases = NumpyAliases(ctx.tree)
    if not (aliases.numpy or aliases.numpy_random or aliases.from_random):
        return
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            name = aliases.random_call_name(node)
            if name is not None:
                yield node, name


@rule
class UnseededRng(Rule):
    """Stochastic code must draw from an explicit seeded Generator.

    Flags ``np.random.default_rng()`` with no arguments (OS-entropy
    seeded -- unreproducible, and invisible to the checkpoint machinery
    that restores generator state on resume) and any call into the
    legacy ``np.random.*`` global-state API, whose hidden singleton
    stream cannot be injected, checkpointed, or split per component.
    """

    id = "unseeded-rng"
    summary = "np.random call without an explicit seed or injected Generator"

    def run(self, ctx: LintContext) -> Iterable[Finding]:
        for call, name in _iter_calls(ctx):
            if name == "default_rng":
                if not call.args and not call.keywords:
                    yield ctx.finding(
                        self.id, call,
                        "default_rng() without a seed draws from OS entropy; "
                        "pass an explicit seed or use repro.seeding.resolve_rng")
            elif not name.startswith(_CONSTRUCTOR_PREFIXES):
                yield ctx.finding(
                    self.id, call,
                    f"legacy global-state np.random.{name}() cannot be seeded "
                    "per component; draw from an injected np.random.Generator")


@rule
class RngFallback(Rule):
    """Ban the ``rng or np.random.default_rng(...)`` fallback idiom.

    Even a *seeded* inline fallback scatters ad-hoc default streams
    through the codebase; :func:`repro.seeding.resolve_rng` is the one
    sanctioned fallback so the default seed lives in exactly one place.
    """

    id = "rng-fallback"
    summary = "inline `x or default_rng(...)` fallback instead of resolve_rng"

    def run(self, ctx: LintContext) -> Iterable[Finding]:
        aliases = NumpyAliases(ctx.tree)
        for node in ast.walk(ctx.tree):
            operands: list[ast.expr]
            if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or):
                operands = node.values
            elif isinstance(node, ast.IfExp):
                operands = [node.body, node.orelse]
            else:
                continue
            for operand in operands:
                if (isinstance(operand, ast.Call)
                        and aliases.random_call_name(operand) == "default_rng"):
                    yield ctx.finding(
                        self.id, node,
                        "inline default_rng fallback; use "
                        "repro.seeding.resolve_rng(rng) so the default "
                        "stream is seeded and defined in one place")
                    break


def _is_exact_decimal(text: str) -> bool:
    """True when the decimal literal round-trips exactly through float64."""
    try:
        return Decimal(text) == Decimal(float(text))
    except (InvalidOperation, ValueError, OverflowError):
        return True  # unparseable/inf: leave to other tooling


@rule
class NakedFloatEq(Rule):
    """Equality against a float literal that binary64 cannot represent.

    ``x == 0.1`` compares against ``0.1000000000000000055511...`` -- the
    comparison silently tests something other than what is written.
    Exactly-representable literals (``0.0``, ``0.5``, ``-3.0``) are
    allowed: this codebase leans on bit-exact arithmetic and compares
    against exact sentinels deliberately.
    """

    id = "naked-float-eq"
    summary = "==/!= against a float literal not exactly representable"

    def run(self, ctx: LintContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            comparators = [node.left, *node.comparators]
            flagged: set[int] = set()
            for op, left, right in zip(node.ops, comparators[:-1], comparators[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                for candidate in (left, right):
                    if (id(candidate) not in flagged
                            and isinstance(candidate, ast.Constant)
                            and isinstance(candidate.value, float)):
                        text = ast.get_source_segment(ctx.source, candidate)
                        if text is not None and not _is_exact_decimal(text):
                            flagged.add(id(candidate))
                            yield ctx.finding(
                                self.id, candidate,
                                f"{text} is not exactly representable in "
                                "float64; equality will not test the written "
                                "value -- compare with a tolerance")


@rule
class MutableDefault(Rule):
    """Mutable default argument values are shared across calls."""

    id = "mutable-default"
    summary = "list/dict/set default argument shared across calls"

    _LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                 ast.SetComp)
    _CALLS = frozenset({"list", "dict", "set", "deque", "defaultdict"})

    def _is_mutable(self, node: ast.expr | None) -> bool:
        if node is None:
            return False
        if isinstance(node, self._LITERALS):
            return True
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in self._CALLS)

    def run(self, ctx: LintContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                defaults = [*node.args.defaults, *node.args.kw_defaults]
                for default in defaults:
                    if self._is_mutable(default):
                        yield ctx.finding(
                            self.id, default,
                            "mutable default is evaluated once and shared "
                            "across calls; default to None and construct "
                            "inside the function")


@rule
class BareExcept(Rule):
    """``except:`` swallows KeyboardInterrupt/SystemExit and hides bugs."""

    id = "bare-except"
    summary = "bare `except:` clause"

    def run(self, ctx: LintContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield ctx.finding(
                    self.id, node,
                    "bare except catches KeyboardInterrupt and SystemExit; "
                    "name the exception type (or use `except Exception`)")


def _imports_asyncio(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(alias.name.split(".")[0] == "asyncio" for alias in node.names):
                return True
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module and node.module.split(".")[0] == "asyncio":
                return True
    return False


@rule
class UnsupervisedTask(Rule):
    """Async work must be supervised: no orphan tasks, no unbounded waits.

    Two failure modes this repository's serving layer cannot afford:

    * **Fire-and-forget tasks** -- ``asyncio.create_task(...)`` /
      ``ensure_future(...)`` used as a bare statement.  The returned
      task is never awaited, so its exceptions vanish into the event
      loop's default handler and the task itself may be garbage
      collected mid-flight.  Keep a reference and await (or gather) it.
    * **Unbounded awaits on external work** -- ``await x.get()`` /
      ``reader.readline()`` / ``lock.acquire()`` and friends with no
      timeout.  A peer that never answers then wedges the coroutine
      forever; wrap the await in ``asyncio.wait_for(...)`` or an
      ``async with asyncio.timeout(...)`` block.

    Only files importing asyncio are inspected.
    """

    id = "unsupervised-task"
    summary = "fire-and-forget asyncio task or unbounded await on external work"

    _SPAWNERS = frozenset({"create_task", "ensure_future"})
    #: Methods that wait on a peer (queue, stream, socket, lock) and can
    #: therefore block forever if the peer misbehaves.
    _WAIT_METHODS = frozenset({
        "get", "put", "join", "wait", "acquire", "drain", "readline",
        "readexactly", "readuntil", "recv", "recv_into", "accept",
    })

    @staticmethod
    def _call_name(call: ast.Call) -> str | None:
        func = call.func
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
        return None

    @staticmethod
    def _inside_timeout_block(ctx: LintContext, node: ast.AST) -> bool:
        for parent in ctx.ancestors(node):
            if not isinstance(parent, ast.AsyncWith):
                continue
            for item in parent.items:
                expr = item.context_expr
                func = expr.func if isinstance(expr, ast.Call) else expr
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute)
                        else None)
                if name in ("timeout", "timeout_at"):
                    return True
        return False

    def run(self, ctx: LintContext) -> Iterable[Finding]:
        if not _imports_asyncio(ctx.tree):
            return
        for node in ast.walk(ctx.tree):
            if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
                    and self._call_name(node.value) in self._SPAWNERS):
                yield ctx.finding(
                    self.id, node,
                    f"{self._call_name(node.value)}(...) result is discarded; "
                    "the task is unsupervised -- exceptions vanish and the "
                    "task may be garbage collected. Keep a reference and "
                    "await/gather it")
            elif isinstance(node, ast.Await) and isinstance(node.value, ast.Call):
                name = self._call_name(node.value)
                if name in self._WAIT_METHODS and not self._inside_timeout_block(ctx, node):
                    yield ctx.finding(
                        self.id, node,
                        f"await {name}(...) has no timeout and can block "
                        "forever; wrap it in asyncio.wait_for(...) or an "
                        "`async with asyncio.timeout(...)` block")


def _is_no_grad_with(node: ast.With) -> bool:
    for item in node.items:
        expr = item.context_expr
        func = expr.func if isinstance(expr, ast.Call) else expr
        if isinstance(func, ast.Name) and func.id == "no_grad":
            return True
        if isinstance(func, ast.Attribute) and func.attr == "no_grad":
            return True
    return False


@rule
class MissingNoGrad(Rule):
    """Target-network forwards must run under ``no_grad``.

    Calling ``self.q_target(...)`` outside ``no_grad`` records the
    target forward on the tape: gradients silently flow into frozen
    weights and the tape grows with every TD-target evaluation.
    """

    id = "missing-no-grad"
    summary = "target-network forward outside a no_grad block"

    @staticmethod
    def _is_target_forward(call: ast.Call) -> bool:
        # The repo's frozen copies all follow the `<net>_target` naming
        # (q_target, x_target, actor_target, ...).  A `target_*` prefix
        # is NOT matched: names like target_mask/target_encoder are
        # regular data/modules, not frozen networks.
        func = call.func
        return isinstance(func, ast.Attribute) and func.attr.endswith("_target")

    def run(self, ctx: LintContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call) and self._is_target_forward(node)):
                continue
            if any(isinstance(parent, ast.With) and _is_no_grad_with(parent)
                   for parent in ctx.ancestors(node)):
                continue
            assert isinstance(node.func, ast.Attribute)
            yield ctx.finding(
                self.id, node,
                f"target-network forward {node.func.attr}(...) outside "
                "no_grad records frozen weights on the tape; wrap it in "
                "`with nn.no_grad():`")


def _guarded_by_requires_grad(ctx: LintContext, node: ast.AST) -> bool:
    for parent in ctx.ancestors(node):
        if isinstance(parent, ast.If):
            for part in ast.walk(parent.test):
                if isinstance(part, ast.Attribute) and part.attr == "requires_grad":
                    return True
        if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
            break
    return False


@rule
class TapeOpContract(Rule):
    """Structural contract for ops that record work on the tape.

    Two recording styles exist.  Closure-style ops (the frozen legacy
    engine in ``tests/oracles/nn.py``) assign ``out._backward``; they
    must (a) declare their inputs by building ``out`` through
    ``_make_child(data, parents)`` in the same function -- that is what
    registers parent shapes on the tape and routes gradients -- (b)
    guard the recording under a ``requires_grad`` check so inference
    never pays for closure construction, and (c) record a one-argument
    ``grad`` callable.

    Registry-style ops (the live VJP engine in ``repro.nn.tensor``)
    assign ``out._op`` instead; the same (a)/(b) apply, and the op name
    must be a string literal registered through ``defvjp("name", ...)``
    in the same module -- an unregistered name only fails at
    ``backward()`` time, far from the definition site.
    """

    id = "tape-op-contract"
    summary = "tape op breaks the _backward/_op recording contract"

    @staticmethod
    def _enclosing_function(ctx: LintContext,
                            node: ast.AST) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
        for parent in ctx.ancestors(node):
            if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return parent
        return None

    @staticmethod
    def _closure_arg_count(scope: ast.AST, value: ast.expr) -> int | None:
        """Positional-arg count of the assigned backward callable, if known."""
        if isinstance(value, ast.Lambda):
            return len(value.args.args) + len(value.args.posonlyargs)
        if isinstance(value, ast.Name):
            for node in ast.walk(scope):
                if isinstance(node, ast.FunctionDef) and node.name == value.id:
                    return len(node.args.args) + len(node.args.posonlyargs)
        return None

    @staticmethod
    def _registered_vjp_names(ctx: LintContext) -> set[str]:
        """Op names registered via ``defvjp("name", ...)`` in this module."""
        names: set[str] = set()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            callee = func.id if isinstance(func, ast.Name) else (
                func.attr if isinstance(func, ast.Attribute) else None)
            if callee != "defvjp":
                continue
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                names.add(first.value)
        return names

    def run(self, ctx: LintContext) -> Iterable[Finding]:
        registered: set[str] | None = None
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target = node.targets[0]
            if not (isinstance(target, ast.Attribute)
                    and target.attr in ("_backward", "_op")):
                continue
            slot = target.attr
            if isinstance(node.value, ast.Constant) and node.value.value is None:
                continue  # clearing the slot is always fine
            scope = self._enclosing_function(ctx, node)
            if scope is None:
                yield ctx.finding(self.id, node,
                                  f"{slot} recorded at module scope")
                continue
            calls_make_child = any(
                isinstance(part, ast.Call)
                and ((isinstance(part.func, ast.Attribute)
                      and part.func.attr == "_make_child")
                     or (isinstance(part.func, ast.Name)
                         and part.func.id == "_make_child"))
                for part in ast.walk(scope))
            if not calls_make_child:
                yield ctx.finding(
                    self.id, node,
                    f"op records {slot} without declaring its inputs via "
                    "_make_child(data, parents)")
            if not _guarded_by_requires_grad(ctx, node):
                yield ctx.finding(
                    self.id, node,
                    f"{slot} assignment must be guarded by a requires_grad "
                    "check so inference skips tape bookkeeping")
            if slot == "_backward":
                arg_count = self._closure_arg_count(scope, node.value)
                if arg_count is not None and arg_count != 1:
                    yield ctx.finding(
                        self.id, node,
                        f"backward closure takes {arg_count} arguments; the "
                        "tape replays closures with exactly one (the output "
                        "gradient)")
            else:
                if not (isinstance(node.value, ast.Constant)
                        and isinstance(node.value.value, str)):
                    yield ctx.finding(
                        self.id, node,
                        "_op must be assigned a string literal so the VJP "
                        "lookup is statically checkable")
                else:
                    if registered is None:
                        registered = self._registered_vjp_names(ctx)
                    if node.value.value not in registered:
                        yield ctx.finding(
                            self.id, node,
                            f"_op name {node.value.value!r} has no matching "
                            "defvjp(...) registration in this module; "
                            "backward() would fail at replay time")
