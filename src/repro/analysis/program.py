"""reprolint's whole-program pass: project-level rule packs.

Where :mod:`repro.analysis.rules` checks one file at a time, the rules
here see the *program*: every file is parsed, an import graph and an
approximate call graph are built (:mod:`repro.analysis.callgraph`), and
rules reason over call edges -- a ``time.sleep`` buried two synchronous
calls below an ``async def``, or an RNG constructed in one module and
laundered through a helper into simulator numerics in another.

Three packs ship on top of the graph:

**Async-concurrency pack** (aimed at ``repro.serve`` and the upcoming
multi-process trainer):

* ``blocking-call-in-async`` -- blocking primitives (``time.sleep``,
  sync file/socket IO, subprocess spawns, numpy file IO) executed in
  coroutine context, directly or through synchronous call chains.
* ``lock-held-across-await`` -- a ``threading`` lock held over an
  ``await`` (the whole event loop wedges until the lock frees), or
  acquired at all in coroutine context.
* ``coroutine-shared-mutable-global`` -- module-level mutable state
  mutated from coroutine context: invisible coupling between
  concurrent tasks today, and silently duplicated per-process state
  the day the ROADMAP's worker processes fork.
* ``nondeterministic-iteration`` -- iterating a ``set`` where element
  order can reach numerics or ordered output.  Set iteration order
  depends on hash seeding and insertion history; ``dict`` is
  insertion-ordered in every supported python and is deliberately NOT
  flagged.

**Determinism-taint pack**:

* ``rng-taint`` -- interprocedural upgrade of ``unseeded-rng``: every
  ``np.random`` generator that reaches program code (sim/nn/serve
  numerics, an ``rng=`` argument, object state) must provably
  originate in :mod:`repro.seeding`.  Seeded-at-the-call-site is no
  longer enough; the seed policy lives in exactly one module.

**Process-boundary pack** (guarding the actor-learner trainer):

* ``cross-process-rng`` -- a live ``Generator`` shipped through
  ``multiprocessing.Process(args=...)`` (pickling duplicates the
  stream state), or a module-level RNG read by code reachable from a
  ``Process`` target (``spawn`` re-executes the module per child, so
  every worker gets an identically seeded private copy).

**Performance pack** (guarding the fleet-scale neighbor kernels):

* ``quadratic-neighbor-scan`` -- an all-pairs pass over one
  population: a loop over a collection nested inside a loop over the
  same collection, or a loop that hands the collection to a helper
  which scans it again.  O(N^2) where a
  :class:`repro.sim.spatial.SpatialHash` answers the same per-entity
  queries after one sort.

The pass runs over the *shipped program* -- ``src``, ``examples``,
``scripts`` -- not over ``tests``/``benchmarks``/fixture corpora, whose
ad-hoc seeded generators and intentionally-broken files are their own
point.  See ``docs/static_analysis.md`` for the approximation
boundaries (known false-negative edges) of each rule.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .callgraph import (CallGraph, FunctionInfo, ModuleInfo, build_call_graph,
                        dotted_name, infer_local_types, module_name_for)
from .linting import (EXTRA_RULE_IDS, Finding, LintContext, parse_file,
                      walk_python_files)

__all__ = ["ProgramFile", "Program", "ProgramRule", "PROGRAM_RULES",
           "program_rule", "iter_program_files", "program_from",
           "build_program", "lint_program", "PROGRAM_EXCLUDED_PARTS"]

#: Path parts that exclude a file from the whole-program pass even when
#: it is linted per-file: test suites and benchmarks construct ad-hoc
#: seeded generators deliberately, and fixture corpora are broken on
#: purpose.
PROGRAM_EXCLUDED_PARTS = frozenset({"tests", "benchmarks", "fixtures",
                                    "__pycache__"})


@dataclass
class ProgramFile:
    """One parsed file participating in the program pass."""

    path: str
    tree: ast.Module
    module: str
    ctx: LintContext


class Program:
    """Parsed files + call graph + per-function ownership maps."""

    def __init__(self, files: list[ProgramFile], graph: CallGraph) -> None:
        self.files = files
        self.graph = graph
        self.by_module: dict[str, ProgramFile] = {
            file.module: file for file in files}
        #: id(function node) -> FunctionInfo, for enclosing-scope lookups.
        self.info_by_node: dict[int, FunctionInfo] = {
            id(info.node): info for info in graph.functions.values()}
        self._async_context: set[str] | None = None

    def async_context(self) -> set[str]:
        """Qualnames executing in coroutine context (cached)."""
        if self._async_context is None:
            self._async_context = self.graph.async_reachable()
        return self._async_context

    def file_for(self, info: FunctionInfo) -> ProgramFile:
        return self.by_module[info.module]

    def iter_functions(self) -> Iterator[tuple[FunctionInfo, ProgramFile]]:
        for info in self.graph.iter_functions():
            yield info, self.by_module[info.module]


def own_nodes(root: ast.AST) -> Iterator[ast.AST]:
    """Walk ``root`` without descending into nested def/class/lambda.

    Nested functions are program functions in their own right; walking
    into them from the enclosing scope would double-report their
    findings under the wrong owner.
    """
    stack = list(ast.iter_child_nodes(root))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


class ProgramRule:
    """Base class for whole-program rules.

    Like :class:`repro.analysis.linting.Rule` but :meth:`run` receives
    the :class:`Program` instead of a single-file context.
    """

    id: str = ""
    summary: str = ""

    def run(self, program: Program) -> Iterable[Finding]:
        raise NotImplementedError


#: Registry of program-rule id -> instance, in registration order.
PROGRAM_RULES: dict[str, ProgramRule] = {}


def program_rule(cls: type[ProgramRule]) -> type[ProgramRule]:
    """Class decorator registering a :class:`ProgramRule` subclass."""
    from .linting import _RULE_ID_RE
    if not cls.id or not _RULE_ID_RE.match(cls.id):
        raise ValueError(f"program rule {cls.__name__} needs a kebab-case id")
    if cls.id in PROGRAM_RULES:
        raise ValueError(f"duplicate program rule id {cls.id!r}")
    PROGRAM_RULES[cls.id] = cls()
    EXTRA_RULE_IDS.add(cls.id)
    return cls


def iter_program_files(paths: Iterable[str | Path]
                       ) -> Iterator[tuple[Path, bool]]:
    """Walk ``paths`` once: every python file with its program eligibility.

    This is the one place eligibility is decided.  Directory walks skip
    :data:`PROGRAM_EXCLUDED_PARTS` among the directories they walk
    through, not above the walked path; a file named explicitly is
    always eligible (same convention as
    :func:`~repro.analysis.linting.walk_python_files` -- that is how the
    program-rule fixture corpus gets linted by its tests).
    """
    for path, dirs in walk_python_files(paths):
        yield path, not PROGRAM_EXCLUDED_PARTS.intersection(dirs)


def program_from(contexts: Iterable[LintContext]) -> Program:
    """Build the call graph over already-parsed files."""
    by_path = {ctx.path: ctx for ctx in contexts}
    graph = build_call_graph((path, ctx.tree) for path, ctx in by_path.items())
    # Module names come back from the graph (which de-duplicates stem
    # collisions between package-less scripts), keyed by path.
    files = [
        ProgramFile(path=module.path, tree=module.tree, module=module.name,
                    ctx=by_path[module.path])
        for module in graph.modules.values()]
    files.sort(key=lambda file: file.path)
    return Program(files, graph)


def build_program(paths: Iterable[str | Path]) -> Program:
    """Parse every program-eligible python file under ``paths``.

    Files that fail to parse are skipped here; the per-file pass
    reports them as ``syntax-error`` findings.
    """
    contexts = (parse_file(path) for path, eligible
                in iter_program_files(paths) if eligible)
    return program_from(ctx for ctx in contexts
                        if isinstance(ctx, LintContext))


def lint_program(program: Program,
                 rules: Iterable[ProgramRule] | None = None) -> list[Finding]:
    """Run the program rule packs; returns suppression-filtered findings."""
    active = list(PROGRAM_RULES.values()) if rules is None else list(rules)
    suppressions = {file.path: file.ctx.suppressions
                    for file in program.files}
    findings: list[Finding] = []
    for program_lint_rule in active:
        for finding in program_lint_rule.run(program):
            cover = suppressions.get(finding.path)
            if cover is not None and cover.covers(finding):
                continue
            findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


# ----------------------------------------------------------------------
# async-concurrency pack
# ----------------------------------------------------------------------

#: Resolved dotted names that block the calling thread.  numpy file IO
#: is included (disk-bound); numpy *compute* is deliberately not -- the
#: serving layer runs small, bounded numpy math inline by design and
#: routes heavy forwards through the executor.
_BLOCKING_DOTTED = frozenset({
    "time.sleep",
    "os.system", "os.popen", "os.wait", "os.waitpid",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output", "subprocess.Popen",
    "socket.create_connection", "socket.getaddrinfo",
    "socket.gethostbyname", "socket.gethostbyaddr",
    "urllib.request.urlopen",
    "requests.get", "requests.post", "requests.put", "requests.request",
    "numpy.load", "numpy.save", "numpy.savez", "numpy.savez_compressed",
    "numpy.loadtxt", "numpy.savetxt", "numpy.genfromtxt",
})
#: Blocking builtins (flagged only when the name is not rebound).
_BLOCKING_BUILTINS = frozenset({"open", "input"})
#: Method names that are unambiguously synchronous file IO wherever they
#: appear (Path methods; no builtin type shares these names).
_BLOCKING_METHODS = frozenset({"read_text", "write_text", "read_bytes",
                               "write_bytes"})

_THREADING_LOCKS = frozenset({
    "threading.Lock", "threading.RLock", "threading.Condition",
    "threading.Semaphore", "threading.BoundedSemaphore",
    "multiprocessing.Lock", "multiprocessing.RLock",
})


def _resolve_module_call(module: ModuleInfo, call: ast.Call) -> str | None:
    """Resolve a call's dotted target using module bindings only."""
    dotted = dotted_name(call.func)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    base = module.resolve_local(head)
    if base is None:
        return None
    return f"{base}.{rest}" if rest else base


def _sync_lock_names(module: ModuleInfo) -> set[str]:
    """Names/attributes bound to ``threading`` locks anywhere in the file."""
    names: set[str] = set()
    for node in ast.walk(module.tree):
        if not (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call)):
            continue
        resolved = _resolve_module_call(module, node.value)
        if resolved not in _THREADING_LOCKS:
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
            elif isinstance(target, ast.Attribute):
                names.add(target.attr)
    return names


def _is_lock_expr(expr: ast.expr, lock_names: set[str]) -> bool:
    if isinstance(expr, ast.Name):
        return expr.id in lock_names
    if isinstance(expr, ast.Attribute):
        return expr.attr in lock_names
    return False


@program_rule
class BlockingCallInAsync(ProgramRule):
    """Blocking primitives must never run on the event loop thread.

    A coroutine that calls ``time.sleep`` (or sync file/socket IO, or a
    subprocess spawn) freezes *every* request the server is juggling
    for the duration -- the micro-batcher stops batching, deadlines
    expire unobserved, health probes stall.  The reach is transitive:
    a synchronous helper is just as blocking when an ``async def``
    calls it three frames up, so this rule walks the call graph, not
    just the ``async def`` bodies.  Route blocking work through
    ``loop.run_in_executor`` (whose callable correctly produces no
    call edge) or an async equivalent (``asyncio.sleep``,
    ``asyncio.to_thread``).
    """

    id = "blocking-call-in-async"
    summary = "blocking primitive (sleep/IO/subprocess) in coroutine context"

    def run(self, program: Program) -> Iterable[Finding]:
        graph = program.graph
        async_context = program.async_context()
        for qualname in sorted(async_context):
            info = graph.functions.get(qualname)
            if info is None:
                continue
            file = program.file_for(info)
            module = graph.modules[info.module]
            local_types = infer_local_types(info.node, graph, module)
            where = ("inside async def" if info.is_async
                     else "in sync function reachable from coroutine context:")
            for node in own_nodes(info.node):
                if not isinstance(node, ast.Call):
                    continue
                resolved = graph.resolve_call(node, info, local_types)
                surface = dotted_name(node.func) or "<call>"
                blocking = False
                if resolved in _BLOCKING_DOTTED:
                    blocking = True
                elif (isinstance(node.func, ast.Name)
                        and node.func.id in _BLOCKING_BUILTINS
                        and module.resolve_local(node.func.id) is None):
                    blocking = True
                elif (isinstance(node.func, ast.Attribute)
                        and node.func.attr in _BLOCKING_METHODS
                        and resolved is None):
                    blocking = True
                if blocking:
                    yield file.ctx.finding(
                        self.id, node,
                        f"{surface}(...) blocks the event loop {where} "
                        f"{info.qualname}; use an async equivalent or "
                        "loop.run_in_executor")


@program_rule
class LockHeldAcrossAwait(ProgramRule):
    """``threading`` locks and coroutines do not mix.

    Holding a sync lock across an ``await`` parks the *event loop
    thread's* only execution context on lock release while every other
    coroutine that wants the lock deadlocks behind it; even a bare
    ``.acquire()`` in coroutine context can block the loop for as long
    as an executor thread holds the lock.  Use ``asyncio.Lock`` for
    coroutine mutual exclusion, or confine the ``threading`` lock to
    executor-side code.
    """

    id = "lock-held-across-await"
    summary = "threading lock held across an await (or acquired in a coroutine)"

    def run(self, program: Program) -> Iterable[Finding]:
        graph = program.graph
        async_context = program.async_context()
        for qualname in sorted(async_context):
            info = graph.functions.get(qualname)
            if info is None:
                continue
            file = program.file_for(info)
            lock_names = _sync_lock_names(graph.modules[info.module])
            if not lock_names:
                continue
            for node in own_nodes(info.node):
                if isinstance(node, ast.With):
                    held = [item for item in node.items
                            if _is_lock_expr(item.context_expr, lock_names)]
                    if held and any(isinstance(part, ast.Await)
                                    for part in ast.walk(node)):
                        yield file.ctx.finding(
                            self.id, node,
                            "threading lock held across an await in "
                            f"{info.qualname}: the event loop cannot switch "
                            "to the task that would release it; use "
                            "asyncio.Lock")
                elif (isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "acquire"
                        and _is_lock_expr(node.func.value, lock_names)):
                    yield file.ctx.finding(
                        self.id, node,
                        f"sync lock .acquire() in coroutine context "
                        f"({info.qualname}) can block the event loop; use "
                        "asyncio.Lock or move the critical section into the "
                        "executor")


_MUTABLE_GLOBAL_CALLS = frozenset({
    "list", "dict", "set", "collections.deque", "collections.defaultdict",
    "collections.Counter", "collections.OrderedDict", "itertools.count",
})
_MUTATOR_METHODS = frozenset({
    "append", "appendleft", "add", "update", "pop", "popleft", "popitem",
    "remove", "discard", "clear", "extend", "extendleft", "insert",
    "setdefault",
})


def _module_mutable_globals(module: ModuleInfo) -> dict[str, int]:
    """Module-scope names bound to mutable containers -> definition line."""
    found: dict[str, int] = {}
    for node in module.tree.body:
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        mutable = isinstance(value, (ast.List, ast.Dict, ast.Set,
                                     ast.ListComp, ast.DictComp, ast.SetComp))
        if not mutable and isinstance(value, ast.Call):
            resolved = _resolve_module_call(module, value)
            name = (value.func.id if isinstance(value.func, ast.Name)
                    else None)
            mutable = (resolved in _MUTABLE_GLOBAL_CALLS
                       or name in ("list", "dict", "set"))
        if not mutable:
            continue
        for target in node.targets:
            if isinstance(target, ast.Name):
                found[target.id] = node.lineno
    return found


@program_rule
class CoroutineSharedMutableGlobal(ProgramRule):
    """Module-global mutable state must not be written from coroutines.

    A module-level dict/list/set/counter mutated from coroutine context
    couples every concurrent task through invisible shared state, and
    -- the sharper edge for the ROADMAP's actor-learner workers -- is
    silently *duplicated per process* on fork: each worker advances its
    own copy while believing the state is shared (colliding request
    ids, double-counted metrics).  Hang the state off the owning
    instance, or pass it explicitly.
    """

    id = "coroutine-shared-mutable-global"
    summary = "module-global mutable state mutated from coroutine context"

    def _mutations(self, func: FunctionInfo,
                   globals_: dict[str, int]) -> Iterator[tuple[ast.AST, str, str]]:
        declared_global = {
            name for node in own_nodes(func.node)
            if isinstance(node, ast.Global) for name in node.names}
        for node in own_nodes(func.node):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _MUTATOR_METHODS
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in globals_):
                yield node, node.func.value.id, f".{node.func.attr}(...)"
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "next" and node.args
                    and isinstance(node.args[0], ast.Name)
                    and node.args[0].id in globals_):
                yield node, node.args[0].id, "next(...)"
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    if (isinstance(target, ast.Subscript)
                            and isinstance(target.value, ast.Name)
                            and target.value.id in globals_):
                        yield node, target.value.id, "subscript store"
                    elif (isinstance(target, ast.Name)
                            and target.id in globals_
                            and target.id in declared_global):
                        yield node, target.id, "rebinding"

    def run(self, program: Program) -> Iterable[Finding]:
        graph = program.graph
        async_context = program.async_context()
        globals_by_module = {
            name: _module_mutable_globals(module)
            for name, module in graph.modules.items()}
        for qualname in sorted(async_context):
            info = graph.functions.get(qualname)
            if info is None:
                continue
            globals_ = globals_by_module.get(info.module, {})
            if not globals_:
                continue
            file = program.file_for(info)
            for node, name, how in self._mutations(info, globals_):
                yield file.ctx.finding(
                    self.id, node,
                    f"module-global {name!r} (defined line "
                    f"{globals_[name]}) mutated via {how} in coroutine "
                    f"context ({info.qualname}); coroutines and forked "
                    "workers would share or silently duplicate it -- move "
                    "the state onto the owning instance")


#: Consumers for which element order provably cannot matter.
_ORDER_INSENSITIVE_CONSUMERS = frozenset({
    "sorted", "len", "any", "all", "min", "max", "set", "frozenset",
})


@program_rule
class NondeterministicIteration(ProgramRule):
    """Iterating a ``set`` leaks hash-order into whatever consumes it.

    Set iteration order depends on element hashes (randomized per
    process for strings) and insertion history.  When that order
    reaches numerics (float accumulation is not associative), a list,
    or ordered output, two identical runs can disagree.  Iterate
    ``sorted(the_set)`` instead, or keep the data in an
    insertion-ordered dict.  ``dict`` iteration is NOT flagged:
    insertion order is guaranteed in every supported python.
    """

    id = "nondeterministic-iteration"
    summary = "iteration over a set where order can reach numerics/output"

    _SET_METHODS = frozenset({"union", "intersection", "difference",
                              "symmetric_difference"})
    _SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)

    def _set_names(self, scope: ast.AST) -> set[str]:
        names: set[str] = set()
        for node in own_nodes(scope):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                if self._is_set_expr(node.value, names):
                    names.add(node.targets[0].id)
                else:
                    names.discard(node.targets[0].id)
        return names

    def _is_set_expr(self, node: ast.expr, set_names: set[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in set_names
        if isinstance(node, ast.Call):
            if (isinstance(node.func, ast.Name)
                    and node.func.id in ("set", "frozenset")):
                return True
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr in self._SET_METHODS
                    and self._is_set_expr(node.func.value, set_names)):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(node.op, self._SET_OPS):
            return (self._is_set_expr(node.left, set_names)
                    or self._is_set_expr(node.right, set_names))
        return False

    def _consumer_is_order_insensitive(self, ctx: LintContext,
                                       node: ast.AST) -> bool:
        parents = ctx.parents()
        parent = parents.get(node)
        if isinstance(parent, ast.Call) and node in parent.args:
            func = parent.func
            name = (func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute) else None)
            return name in _ORDER_INSENSITIVE_CONSUMERS
        return False

    def _scan_scope(self, ctx: LintContext, scope: ast.AST,
                    module_sets: set[str]) -> Iterator[Finding]:
        set_names = module_sets | self._set_names(scope)
        for node in own_nodes(scope):
            if isinstance(node, ast.For):
                if self._is_set_expr(node.iter, set_names):
                    yield ctx.finding(
                        self.id, node,
                        "for-loop iterates a set: element order is "
                        "hash/insertion dependent and reaches the loop "
                        "body; iterate sorted(...) instead")
            elif isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)):
                if not any(self._is_set_expr(gen.iter, set_names)
                           for gen in node.generators):
                    continue
                if self._consumer_is_order_insensitive(ctx, node):
                    continue
                yield ctx.finding(
                    self.id, node,
                    "comprehension iterates a set into an ordered result; "
                    "wrap the set in sorted(...) (order-insensitive "
                    "consumers like len/any/min are fine)")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("list", "tuple", "sum")
                    and node.args
                    and self._is_set_expr(node.args[0], set_names)):
                yield ctx.finding(
                    self.id, node,
                    f"{node.func.id}(...) over a set captures hash order; "
                    "use sorted(...) first")

    def run(self, program: Program) -> Iterable[Finding]:
        for file in program.files:
            module = program.graph.modules[file.module]
            module_sets = set(_module_set_globals(module))
            yield from self._scan_scope(file.ctx, file.tree, module_sets)
            for info in program.graph.iter_functions():
                if info.module != file.module:
                    continue
                yield from self._scan_scope(file.ctx, info.node, module_sets)


def _module_set_globals(module: ModuleInfo) -> dict[str, int]:
    """Module-scope names bound to set expressions -> definition line."""
    rule = PROGRAM_RULES["nondeterministic-iteration"]
    found: dict[str, int] = {}
    for node in module.tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and rule._is_set_expr(node.value, set(found))):
            found[node.targets[0].id] = node.lineno
    return found


# ----------------------------------------------------------------------
# determinism-taint pack
# ----------------------------------------------------------------------

_RNG_CONSTRUCTORS = frozenset({
    "numpy.random.default_rng", "numpy.random.Generator",
    "numpy.random.RandomState",
})
_SANCTIONED_ORIGINS = frozenset({
    "repro.seeding.resolve_rng", "repro.seeding.default_generator",
    "repro.seeding.spawn_stream",
})
#: Modules whose constructions are the sanctioned origins themselves.
_SANCTIONED_MODULES = ("repro.seeding",)


@program_rule
class RngTaint(ProgramRule):
    """Every RNG reaching program numerics originates in ``repro.seeding``.

    The per-file ``unseeded-rng`` rule only demands a seed at the
    construction site.  This rule tracks the constructed generator
    through assignments and call edges: if it is stored on an object,
    passed as an ``rng=`` argument, or handed to any function in the
    program, the construction must be ``repro.seeding.resolve_rng`` /
    ``default_generator`` -- otherwise checkpoint restore and the
    central seed policy cannot see the stream, even if this one call
    site happened to pass a seed.  Helpers that *return* a raw
    generator taint their callers interprocedurally.
    """

    id = "rng-taint"
    summary = "np.random generator reaching program code bypasses repro.seeding"

    # -- summaries ------------------------------------------------------
    def _returns_tainted(self, program: Program) -> set[str]:
        """Fixpoint: functions whose return value is a raw generator."""
        graph = program.graph
        tainted: set[str] = set()
        changed = True
        while changed:
            changed = False
            for info, _file in program.iter_functions():
                if info.qualname in tainted or self._exempt(info.module):
                    continue
                module = graph.modules[info.module]
                local_types = infer_local_types(info.node, graph, module)
                names = self._tainted_names(program, info, local_types, tainted)
                for node in own_nodes(info.node):
                    if not (isinstance(node, ast.Return)
                            and node.value is not None):
                        continue
                    if self._is_tainted_expr(program, info, node.value,
                                             names, local_types, tainted):
                        tainted.add(info.qualname)
                        changed = True
                        break
        return tainted

    @staticmethod
    def _exempt(module_name: str) -> bool:
        return any(module_name == exempt or module_name.startswith(exempt + ".")
                   for exempt in _SANCTIONED_MODULES)

    # -- taint predicates ----------------------------------------------
    def _construction(self, program: Program, info: FunctionInfo,
                      node: ast.expr, local_types: dict[str, str],
                      summaries: set[str]) -> str | None:
        """Dotted origin when ``node`` evaluates to a raw generator."""
        if not isinstance(node, ast.Call):
            return None
        resolved = program.graph.resolve_call(node, info, local_types)
        if resolved in _RNG_CONSTRUCTORS:
            return resolved
        if resolved in summaries and resolved not in _SANCTIONED_ORIGINS:
            return resolved
        return None

    def _is_tainted_expr(self, program: Program, info: FunctionInfo,
                         node: ast.expr, tainted_names: set[str],
                         local_types: dict[str, str],
                         summaries: set[str]) -> bool:
        if isinstance(node, ast.Name):
            return node.id in tainted_names
        return self._construction(program, info, node, local_types,
                                  summaries) is not None

    def _tainted_names(self, program: Program, info: FunctionInfo,
                       local_types: dict[str, str],
                       summaries: set[str]) -> set[str]:
        names: set[str] = set()
        for node in own_nodes(info.node):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                if self._construction(program, info, node.value,
                                      local_types, summaries):
                    names.add(node.targets[0].id)
        return names

    # -- sink scan ------------------------------------------------------
    def _scan_function(self, program: Program, info: FunctionInfo,
                       file: ProgramFile,
                       summaries: set[str]) -> Iterator[Finding]:
        graph = program.graph
        module = graph.modules[info.module]
        local_types = infer_local_types(info.node, graph, module)
        tainted_names = self._tainted_names(program, info, local_types,
                                            summaries)

        def tainted(expr: ast.expr) -> bool:
            return self._is_tainted_expr(program, info, expr, tainted_names,
                                         local_types, summaries)

        for node in own_nodes(info.node):
            if isinstance(node, ast.Call):
                callee = graph.resolve_call(node, info, local_types)
                in_program = (callee in graph.functions
                              or (callee is not None
                                  and graph._class_by_qualname(callee)
                                  is not None))
                if callee in _SANCTIONED_ORIGINS:
                    continue
                for keyword in node.keywords:
                    if not tainted(keyword.value):
                        continue
                    if keyword.arg == "rng":
                        yield self._finding(
                            file, keyword.value, info,
                            f"rng= argument of "
                            f"{dotted_name(node.func) or 'call'}")
                    elif in_program:
                        yield self._finding(file, keyword.value, info,
                                            f"argument of {callee}")
                if in_program:
                    for arg in node.args:
                        if tainted(arg):
                            yield self._finding(file, arg, info,
                                                f"argument of {callee}")
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Attribute) and tainted(node.value):
                        yield self._finding(
                            file, node.value, info,
                            f"object state {dotted_name(target) or target.attr}")

    def _finding(self, file: ProgramFile, node: ast.AST, info: FunctionInfo,
                 sink: str) -> Finding:
        return file.ctx.finding(
            self.id, node,
            f"np.random generator reaches {sink} (in {info.qualname}) "
            "without originating in repro.seeding; construct it via "
            "resolve_rng/default_generator so the central seed policy and "
            "checkpoint restore govern the stream")

    def run(self, program: Program) -> Iterable[Finding]:
        summaries = self._returns_tainted(program)
        for info, file in program.iter_functions():
            if self._exempt(info.module):
                continue
            yield from self._scan_function(program, info, file, summaries)
        # Module-scope statements (entry scripts build their RNGs at top
        # level) are scanned through a pseudo-function over the module
        # body; own_nodes keeps real functions from being re-scanned.
        for file in program.files:
            if self._exempt(file.module):
                continue
            pseudo = FunctionInfo(
                qualname=f"{file.module}.<module>", module=file.module,
                path=file.path, node=file.tree, is_async=False)
            yield from self._scan_function(program, pseudo, file, summaries)


# ----------------------------------------------------------------------
# process-boundary pack
# ----------------------------------------------------------------------

_PROCESS_CONSTRUCTORS = frozenset({
    "multiprocessing.Process", "multiprocessing.context.Process",
})
_CONTEXT_FACTORIES = frozenset({"multiprocessing.get_context"})
#: Every call whose return value is a live Generator object, sanctioned
#: or not -- for the *cross-process* rule the construction site being
#: blessed does not help: pickling any live stream into a child
#: duplicates its state.
_STREAM_ORIGINS = _RNG_CONSTRUCTORS | _SANCTIONED_ORIGINS


def _resolve_callable_ref(graph: CallGraph, info: FunctionInfo,
                          expr: ast.expr) -> str | None:
    """Resolve a non-call function reference (``target=worker_main``)."""
    module = graph.modules[info.module]
    if isinstance(expr, ast.Name):
        nested = f"{info.qualname}.{expr.id}"
        if nested in graph.functions:
            return nested
        owner = info.qualname.rsplit(".", 1)[0]
        while owner and owner != module.name:
            candidate = f"{owner}.{expr.id}"
            if candidate in graph.functions:
                return candidate
            owner = owner.rsplit(".", 1)[0]
        return module.resolve_local(expr.id)
    dotted = dotted_name(expr)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    base = module.resolve_local(head)
    if base is None:
        return None
    resolved = f"{base}.{rest}" if rest else base
    if resolved in graph.functions:
        return resolved
    owner, _, attr = resolved.rpartition(".")
    owning = graph.modules.get(owner)
    if owning is not None and attr in owning.functions:
        return owning.functions[attr].qualname
    return resolved


def _module_rng_globals(module: ModuleInfo) -> dict[str, int]:
    """Module-scope names bound to live Generator objects -> def line."""
    found: dict[str, int] = {}
    for node in module.tree.body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Call)
                and _resolve_module_call(module, node.value) in _STREAM_ORIGINS):
            found[node.targets[0].id] = node.lineno
    return found


def _shadowed_names(func: ast.AST) -> set[str]:
    """Names rebound inside ``func`` (params + simple local assignments),
    minus explicit ``global`` declarations."""
    shadowed: set[str] = set()
    if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
        arguments = func.args
        for arg in (*arguments.posonlyargs, *arguments.args,
                    *arguments.kwonlyargs):
            shadowed.add(arg.arg)
        for vararg in (arguments.vararg, arguments.kwarg):
            if vararg is not None:
                shadowed.add(vararg.arg)
    declared_global: set[str] = set()
    for node in own_nodes(func):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
        elif isinstance(node, ast.Assign):
            shadowed.update(target.id for target in node.targets
                            if isinstance(target, ast.Name))
        elif isinstance(node, (ast.AugAssign, ast.For)):
            target = node.target
            if isinstance(target, ast.Name):
                shadowed.add(target.id)
    return shadowed - declared_global


@program_rule
class CrossProcessRng(ProgramRule):
    """RNG streams must never cross a process boundary.

    Two ways a stream leaks into a child process, both silent
    determinism killers:

    * a live ``Generator`` in ``Process(args=...)`` -- pickling
      duplicates the bit-generator state, so parent and child draw the
      *same* sequence while the checkpoint layer restores only the
      parent's copy;
    * a module-level generator read by any function reachable from a
      ``Process`` ``target=`` -- under the ``spawn`` start method every
      child re-executes the module and constructs its *own* copy, one
      per process, all identically seeded.

    Ship plain seed material instead (ints, ``(root, key)`` tuples) and
    derive the stream inside the child via
    ``repro.seeding.spawn_stream``, whose ``spawn_key`` addressing makes
    each derived stream a pure function of the key -- that is exactly
    what the parallel trainer's workers do.  ``ctx.Process`` from a
    local ``multiprocessing.get_context(...)`` binding is recognized;
    callables crossing the boundary inside containers or functools
    partials are not (documented false negative).
    """

    id = "cross-process-rng"
    summary = "RNG stream crossing a process boundary (args or spawn-read global)"

    def _context_names(self, program: Program, info: FunctionInfo,
                       local_types: dict[str, str]) -> set[str]:
        names: set[str] = set()
        for node in own_nodes(info.node):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.Call)
                    and program.graph.resolve_call(node.value, info, local_types)
                    in _CONTEXT_FACTORIES):
                names.add(node.targets[0].id)
        return names

    def _process_calls(self, program: Program, info: FunctionInfo
                       ) -> Iterator[ast.Call]:
        graph = program.graph
        module = graph.modules[info.module]
        local_types = infer_local_types(info.node, graph, module)
        contexts = self._context_names(program, info, local_types)
        for node in own_nodes(info.node):
            if not isinstance(node, ast.Call):
                continue
            if graph.resolve_call(node, info, local_types) in _PROCESS_CONSTRUCTORS:
                yield node
            elif (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "Process"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in contexts):
                yield node

    def _stream_locals(self, program: Program, info: FunctionInfo) -> set[str]:
        graph = program.graph
        module = graph.modules[info.module]
        local_types = infer_local_types(info.node, graph, module)
        names: set[str] = set()
        for node in own_nodes(info.node):
            if (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, ast.Call)
                    and graph.resolve_call(node.value, info, local_types)
                    in _STREAM_ORIGINS):
                names.add(node.targets[0].id)
        return names

    def _scan_args(self, program: Program, info: FunctionInfo,
                   file: ProgramFile, call: ast.Call) -> Iterator[Finding]:
        graph = program.graph
        module = graph.modules[info.module]
        local_types = infer_local_types(info.node, graph, module)
        stream_locals = self._stream_locals(program, info)
        payload = next((kw.value for kw in call.keywords if kw.arg == "args"),
                       None)
        if not isinstance(payload, (ast.Tuple, ast.List)):
            return
        for element in payload.elts:
            leaking = (isinstance(element, ast.Name)
                       and element.id in stream_locals)
            if not leaking and isinstance(element, ast.Call):
                leaking = (graph.resolve_call(element, info, local_types)
                           in _STREAM_ORIGINS)
            if leaking:
                yield file.ctx.finding(
                    self.id, element,
                    f"live np.random Generator in Process(args=...) (in "
                    f"{info.qualname}): pickling duplicates the stream "
                    "state across the process boundary; ship seed material "
                    "and derive the stream in the child via "
                    "repro.seeding.spawn_stream")

    def _spawn_targets(self, program: Program, info: FunctionInfo,
                       call: ast.Call) -> Iterator[str]:
        target = next((kw.value for kw in call.keywords
                       if kw.arg == "target"), None)
        if target is None:
            return
        resolved = _resolve_callable_ref(program.graph, info, target)
        if resolved in program.graph.functions:
            yield resolved

    def run(self, program: Program) -> Iterable[Finding]:
        graph = program.graph
        scopes: list[tuple[FunctionInfo, ProgramFile]] = list(
            program.iter_functions())
        for file in program.files:
            scopes.append((FunctionInfo(
                qualname=f"{file.module}.<module>", module=file.module,
                path=file.path, node=file.tree, is_async=False), file))

        targets: set[str] = set()
        for info, file in scopes:
            for call in self._process_calls(program, info):
                yield from self._scan_args(program, info, file, call)
                targets.update(self._spawn_targets(program, info, call))
        if not targets:
            return

        rng_globals_by_module: dict[str, dict[str, int]] = {}
        reported: set[tuple[str, int, int, str]] = set()
        for qualname in sorted(graph.reachable_from(sorted(targets))):
            info = graph.functions.get(qualname)
            if info is None or RngTaint._exempt(info.module):
                continue
            if info.module not in rng_globals_by_module:
                rng_globals_by_module[info.module] = _module_rng_globals(
                    graph.modules[info.module])
            rng_globals = rng_globals_by_module[info.module]
            if not rng_globals:
                continue
            file = program.file_for(info)
            shadowed = _shadowed_names(info.node)
            for node in own_nodes(info.node):
                if not (isinstance(node, ast.Name)
                        and isinstance(node.ctx, ast.Load)
                        and node.id in rng_globals
                        and node.id not in shadowed):
                    continue
                key = (file.path, node.lineno, node.col_offset, node.id)
                if key in reported:
                    continue
                reported.add(key)
                yield file.ctx.finding(
                    self.id, node,
                    f"module-level RNG {node.id!r} (defined line "
                    f"{rng_globals[node.id]}) is read by {info.qualname}, "
                    "which runs in a spawned worker process: each child "
                    "re-executes the module and gets an identically seeded "
                    "private copy; pass seed material through the task and "
                    "derive the stream via repro.seeding.spawn_stream")


# ----------------------------------------------------------------------
# performance pack
# ----------------------------------------------------------------------

#: Iterable wrappers that preserve the underlying population: looping
#: over ``sorted(world)`` is still a pass over ``world``.
_ITER_UNWRAP_CALLS = frozenset({"list", "sorted", "tuple", "reversed",
                                "enumerate"})
_ITER_VIEW_METHODS = frozenset({"items", "values", "keys"})


@program_rule
class QuadraticNeighborScan(ProgramRule):
    """All-pairs scans over one population that an index makes linear.

    The classic shape is ``for a in world: for b in world: ...`` -- a
    per-entity neighbor search written as a nested pass over the same
    collection, O(N^2) in the population size.  The interprocedural
    variant hides the inner pass in a helper: a loop over ``world``
    that calls a program function handing it ``world`` again, where
    that function runs its own loop over the parameter.  Both shapes
    are what :class:`repro.sim.spatial.SpatialHash` exists to replace:
    build the index once (one lexsort) and answer every per-entity
    query with a batched ``searchsorted``.

    Scans re-entering via wrappers (``sorted(world)``,
    ``world.items()``) are recognized; loops over *different*
    collections are not flagged, and neither are helpers that merely
    receive the population without iterating it.
    """

    id = "quadratic-neighbor-scan"
    summary = "nested all-pairs iteration over one population"

    def _iter_base(self, node: ast.expr) -> str | None:
        """The population name an iterable expression ultimately walks."""
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Call):
            func = node.func
            if (isinstance(func, ast.Attribute)
                    and func.attr in _ITER_VIEW_METHODS
                    and isinstance(func.value, ast.Name) and not node.args):
                return func.value.id
            if (isinstance(func, ast.Name)
                    and func.id in _ITER_UNWRAP_CALLS and node.args):
                return self._iter_base(node.args[0])
        return None

    def _loops(self, scope: ast.AST) -> Iterator[tuple[ast.For, str]]:
        for node in own_nodes(scope):
            if isinstance(node, ast.For):
                base = self._iter_base(node.iter)
                if base is not None:
                    yield node, base

    def _iterated_params(self, info: FunctionInfo) -> set[str]:
        """Parameter names this function loops over."""
        arguments = info.node.args
        params = {arg.arg for arg in arguments.args + arguments.kwonlyargs
                  + arguments.posonlyargs}
        return {base for _, base in self._loops(info.node) if base in params}

    def _params_bound_to(self, call: ast.Call, callee: FunctionInfo,
                         base: str) -> set[str]:
        """Callee parameter names that receive ``base`` in this call."""
        params = [arg.arg for arg in callee.node.args.posonlyargs
                  + callee.node.args.args]
        if (params and params[0] in ("self", "cls")
                and isinstance(call.func, ast.Attribute)):
            params = params[1:]
        bound: set[str] = set()
        for position, arg in enumerate(call.args):
            if (isinstance(arg, ast.Name) and arg.id == base
                    and position < len(params)):
                bound.add(params[position])
        for keyword in call.keywords:
            if (keyword.arg is not None and isinstance(keyword.value, ast.Name)
                    and keyword.value.id == base):
                bound.add(keyword.arg)
        return bound

    def _scan_nested(self, ctx: LintContext, scope: ast.AST
                     ) -> Iterator[Finding]:
        for outer, base in self._loops(scope):
            for node in own_nodes(outer):
                if (isinstance(node, ast.For)
                        and self._iter_base(node.iter) == base):
                    yield ctx.finding(
                        self.id, node,
                        f"nested loop re-scans {base!r} for every element "
                        f"of {base!r}: O(N^2) in the population; build a "
                        "repro.sim.spatial.SpatialHash once and answer "
                        "per-element queries with a batched searchsorted")

    def _scan_calls(self, program: Program, info: FunctionInfo,
                    file: ProgramFile) -> Iterator[Finding]:
        graph = program.graph
        module = graph.modules[info.module]
        local_types = None
        for outer, base in self._loops(info.node):
            for node in own_nodes(outer):
                if not isinstance(node, ast.Call):
                    continue
                passes_base = (
                    any(isinstance(arg, ast.Name) and arg.id == base
                        for arg in node.args)
                    or any(isinstance(keyword.value, ast.Name)
                           and keyword.value.id == base
                           for keyword in node.keywords))
                if not passes_base:
                    continue
                if local_types is None:
                    local_types = infer_local_types(info.node, graph, module)
                qualname = graph.resolve_call(node, info, local_types)
                callee = graph.functions.get(qualname) \
                    if qualname is not None else None
                if callee is None:
                    continue
                bound = self._params_bound_to(node, callee, base)
                if bound & self._iterated_params(callee):
                    yield file.ctx.finding(
                        self.id, node,
                        f"loop over {base!r} calls {callee.qualname}, "
                        f"which scans the same population again: O(N^2) "
                        "overall; hoist the inner pass or query a "
                        "repro.sim.spatial.SpatialHash built once outside "
                        "the loop")

    def run(self, program: Program) -> Iterable[Finding]:
        for file in program.files:
            yield from self._scan_nested(file.ctx, file.tree)
        for info, file in program.iter_functions():
            yield from self._scan_nested(file.ctx, info.node)
            yield from self._scan_calls(program, info, file)
