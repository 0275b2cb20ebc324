"""Import graph and approximate call graph over a set of python files.

This is the substrate of reprolint's whole-program pass
(:mod:`repro.analysis.program`).  Given a set of files it derives

* a **module name** per file (``src/repro/serve/server.py`` ->
  ``repro.serve.server``; entry scripts without a package become
  top-level modules named after their stem);
* per-module **import bindings** (``import numpy as np`` ->
  ``np -> numpy``; ``from .types import BatchStats`` ->
  ``BatchStats -> repro.serve.types.BatchStats``), including
  relative imports;
* a catalogue of every function/method/nested def with a stable
  qualified name (``repro.serve.server.InferenceServer.submit``); and
* an approximate **call graph**: caller qualname -> callee qualnames.

Resolution strategy (deliberately conservative -- see
``docs/static_analysis.md`` for the known false-negative edges):

* bare names resolve through enclosing nested defs, module top-level
  functions/classes, then import bindings;
* ``self.m()`` / ``cls.m()`` resolve within the enclosing class, then
  through base classes resolvable inside the program;
* dotted chains rooted at an imported module alias resolve into that
  module's functions and classes;
* ``x = SomeClass(...)`` followed by ``x.m()`` resolves through
  one level of local instance typing;
* calling a class adds an edge to its ``__init__`` when defined.

Anything else (callbacks, dynamic dispatch, values crossing data
structures, callables passed as arguments -- e.g. into
``run_in_executor``) produces **no edge**: the graph under-approximates
so that reachability-based rules err toward missing a finding rather
than inventing one.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

__all__ = ["FunctionInfo", "ClassInfo", "ModuleInfo", "CallGraph",
           "module_name_for", "build_call_graph", "dotted_name"]


def module_name_for(path: str | Path) -> str:
    """Derive a dotted module name from a file path.

    Walks up while the parent directory holds an ``__init__.py`` (the
    package root), so ``.../src/repro/serve/server.py`` maps to
    ``repro.serve.server`` regardless of where the tree lives.  Files
    outside any package (entry scripts, examples) become top-level
    modules named after their stem.
    """
    path = Path(path).resolve()
    parts = [path.stem] if path.name != "__init__.py" else []
    current = path.parent
    while (current / "__init__.py").exists():
        parts.insert(0, current.name)
        parent = current.parent
        if parent == current:
            break
        current = parent
    return ".".join(parts) if parts else path.stem


def dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass
class FunctionInfo:
    """One function, method, or nested def in the program."""

    qualname: str                 # repro.serve.server.InferenceServer.submit
    module: str
    path: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    is_async: bool
    class_name: str | None = None  # unqualified, when this is a method


@dataclass
class ClassInfo:
    """One class: its methods plus the base-name strings for MRO walks."""

    qualname: str
    name: str
    module: str
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    base_names: list[str] = field(default_factory=list)


@dataclass
class ModuleInfo:
    """One file's namespace: bindings, functions, classes."""

    name: str
    path: str
    tree: ast.Module
    #: local name -> dotted target ("numpy", "repro.seeding.resolve_rng", ...)
    bindings: dict[str, str] = field(default_factory=dict)
    #: top-level function name -> info
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    #: top-level class name -> info
    classes: dict[str, ClassInfo] = field(default_factory=dict)

    def resolve_local(self, name: str) -> str | None:
        """Resolve a bare name in this module's top-level namespace."""
        if name in self.functions:
            return self.functions[name].qualname
        if name in self.classes:
            return self.classes[name].qualname
        return self.bindings.get(name)


def _collect_bindings(module: ModuleInfo) -> None:
    """Record import bindings anywhere in the module (incl. local imports)."""
    package = module.name.rsplit(".", 1)[0] if "." in module.name else ""
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    module.bindings[alias.asname] = alias.name
                else:
                    # "import a.b.c" binds the root "a".
                    root = alias.name.split(".")[0]
                    module.bindings.setdefault(root, root)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                # Relative import: climb from the containing package.
                anchor = module.name if module.path.endswith("__init__.py") \
                    else package
                steps = anchor.split(".") if anchor else []
                climbed = steps[:len(steps) - (node.level - 1)] \
                    if node.level > 1 else steps
                prefix = ".".join(climbed)
                base = f"{prefix}.{base}" if base and prefix else (prefix or base)
            for alias in node.names:
                if alias.name == "*":
                    continue
                target = f"{base}.{alias.name}" if base else alias.name
                module.bindings[alias.asname or alias.name] = target


def _collect_defs(module: ModuleInfo,
                  registry: dict[str, FunctionInfo]) -> None:
    """Walk the tree recording every def/class with qualified names."""

    def visit(node: ast.AST, prefix: str, class_info: ClassInfo | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}.{child.name}"
                info = FunctionInfo(
                    qualname=qualname, module=module.name, path=module.path,
                    node=child, is_async=isinstance(child, ast.AsyncFunctionDef),
                    class_name=class_info.name if class_info else None)
                registry[qualname] = info
                if class_info is not None and prefix == class_info.qualname:
                    class_info.methods[child.name] = info
                if prefix == module.name:
                    module.functions[child.name] = info
                visit(child, qualname, None)
            elif isinstance(child, ast.ClassDef):
                qualname = f"{prefix}.{child.name}"
                info = ClassInfo(qualname=qualname, name=child.name,
                                 module=module.name,
                                 base_names=[name for base in child.bases
                                             if (name := dotted_name(base))])
                if prefix == module.name:
                    module.classes[child.name] = info
                visit(child, qualname, info)
            else:
                visit(child, prefix, class_info)

    visit(module.tree, module.name, None)


class CallGraph:
    """Modules + functions + caller->callee edges over one program."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.edges: dict[str, set[str]] = {}
        #: caller qualname -> surface syntax of calls we could not resolve.
        self.unresolved: dict[str, set[str]] = {}
        #: class qualname -> {attribute name -> class qualname} inferred
        #: from ``self.x = SomeClass(...)`` assignments in ``__init__``.
        self.attr_types: dict[str, dict[str, str]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_module(self, name: str, path: str, tree: ast.Module) -> ModuleInfo:
        module = ModuleInfo(name=name, path=path, tree=tree)
        _collect_bindings(module)
        _collect_defs(module, self.functions)
        self.modules[name] = module
        return module

    def finalize(self) -> None:
        """Infer instance-attribute types, then resolve call edges."""
        for module in self.modules.values():
            for cls in module.classes.values():
                self._collect_attr_types(module, cls)
        for info in list(self.functions.values()):
            module = self.modules[info.module]
            self.edges[info.qualname] = set()
            self._resolve_calls(info, module)

    def _collect_attr_types(self, module: ModuleInfo, cls: ClassInfo) -> None:
        """``self.x = SomeClass(...)`` in ``__init__`` types attribute x."""
        init = cls.methods.get("__init__")
        if init is None:
            return
        types: dict[str, str] = {}
        for node in ast.walk(init.node):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1):
                continue
            target = node.targets[0]
            if not (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                    and isinstance(node.value, ast.Call)):
                continue
            called = dotted_name(node.value.func)
            if called is None:
                continue
            attr_cls = self._class_by_dotted(module, called)
            if attr_cls is not None:
                types[target.attr] = attr_cls.qualname
        if types:
            self.attr_types[cls.qualname] = types

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def class_of(self, info: FunctionInfo) -> ClassInfo | None:
        if info.class_name is None:
            return None
        return self.modules[info.module].classes.get(info.class_name)

    def _class_by_dotted(self, module: ModuleInfo,
                         name: str) -> ClassInfo | None:
        """Resolve a (possibly dotted) class name visible in ``module``."""
        head, _, rest = name.partition(".")
        if not rest:
            if name in module.classes:
                return module.classes[name]
            target = module.bindings.get(name)
        else:
            base = module.bindings.get(head) or head
            target = f"{base}.{rest}"
        if target is None:
            return None
        owner, _, cls = target.rpartition(".")
        owning = self.modules.get(owner)
        if owning is not None:
            return owning.classes.get(cls)
        return None

    def _method_in_class(self, module: ModuleInfo, cls: ClassInfo | None,
                         attr: str, seen: set[str] | None = None
                         ) -> FunctionInfo | None:
        """Look up ``attr`` in ``cls`` then its resolvable bases."""
        if cls is None:
            return None
        seen = seen or set()
        if cls.qualname in seen:
            return None
        seen.add(cls.qualname)
        if attr in cls.methods:
            return cls.methods[attr]
        for base_name in cls.base_names:
            owning = self.modules.get(cls.module)
            base = self._class_by_dotted(owning, base_name) if owning else None
            found = self._method_in_class(module, base, attr, seen)
            if found is not None:
                return found
        return None

    def resolve_call(self, call: ast.Call, info: FunctionInfo,
                     local_types: dict[str, str]) -> str | None:
        """Resolve one call inside ``info`` to a target qualname or dotted name.

        Returns either a program-function qualname, a program-class
        qualname (the constructor), or a dotted external name such as
        ``time.sleep`` -- or ``None`` when nothing can be said.
        ``local_types`` maps local variable names to program-class
        qualnames inferred from single ``x = Cls(...)`` assignments.
        """
        module = self.modules[info.module]
        func = call.func
        if isinstance(func, ast.Name):
            name = func.id
            # Nested defs of enclosing functions shadow module scope.
            nested = f"{info.qualname}.{name}"
            if nested in self.functions:
                return nested
            owner = info.qualname.rsplit(".", 1)[0]
            while owner and owner != module.name:
                candidate = f"{owner}.{name}"
                if candidate in self.functions:
                    return candidate
                owner = owner.rsplit(".", 1)[0]
            return module.resolve_local(name)
        if isinstance(func, ast.Attribute):
            receiver = func.value
            if (isinstance(receiver, ast.Attribute)
                    and isinstance(receiver.value, ast.Name)
                    and receiver.value.id in ("self", "cls")
                    and info.class_name):
                # self.batcher.offer(...) through __init__-typed attributes.
                cls = self.class_of(info)
                attr_qual = (self.attr_types.get(cls.qualname, {})
                             .get(receiver.attr) if cls else None)
                if attr_qual is not None:
                    found = self._method_in_class(
                        module, self._class_by_qualname(attr_qual), func.attr)
                    if found is not None:
                        return found.qualname
                return None
            if isinstance(receiver, ast.Name):
                if receiver.id in ("self", "cls") and info.class_name:
                    found = self._method_in_class(
                        module, self.class_of(info), func.attr)
                    if found is not None:
                        return found.qualname
                    return None
                if receiver.id in local_types:
                    found = self._method_in_class(
                        module,
                        self._class_by_qualname(local_types[receiver.id]),
                        func.attr)
                    return found.qualname if found is not None else None
            dotted = dotted_name(func)
            if dotted is None:
                return None
            head, _, rest = dotted.partition(".")
            base = module.resolve_local(head)
            if base is None:
                return None
            resolved = f"{base}.{rest}" if rest else base
            # Strip trailing attributes until we land on a known symbol.
            if resolved in self.functions:
                return resolved
            owner, _, attr = resolved.rpartition(".")
            owning = self.modules.get(owner)
            if owning is not None:
                if attr in owning.functions:
                    return owning.functions[attr].qualname
                if attr in owning.classes:
                    return owning.classes[attr].qualname
            return resolved  # external dotted name (time.sleep, np.load, ...)
        return None

    def _class_by_qualname(self, qualname: str) -> ClassInfo | None:
        owner, _, cls = qualname.rpartition(".")
        owning = self.modules.get(owner)
        return owning.classes.get(cls) if owning else None

    # ------------------------------------------------------------------
    # edges
    # ------------------------------------------------------------------
    def _resolve_calls(self, info: FunctionInfo, module: ModuleInfo) -> None:
        local_types = infer_local_types(info.node, self, module)
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            target = self.resolve_call(node, info, local_types)
            if target is None:
                surface = dotted_name(node.func)
                if surface:
                    self.unresolved.setdefault(info.qualname, set()).add(surface)
                continue
            if target in self.functions:
                self.edges[info.qualname].add(target)
            else:
                cls = self._class_by_qualname(target)
                if cls is not None:
                    init = cls.methods.get("__init__")
                    if init is not None:
                        self.edges[info.qualname].add(init.qualname)
                # external targets produce no edge; rules inspect them
                # through resolve_call directly.

    def callees(self, qualname: str) -> set[str]:
        return self.edges.get(qualname, set())

    def reachable_from(self, roots: Iterable[str]) -> set[str]:
        """Transitive closure over call edges from ``roots``."""
        seen: set[str] = set()
        stack = list(roots)
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            stack.extend(self.edges.get(current, ()))
        return seen

    def async_reachable(self) -> set[str]:
        """Functions executing in coroutine context: every ``async def``
        plus everything reachable from one through synchronous call
        edges.  (Callables handed to ``run_in_executor`` produce no
        edge, so executor work is correctly excluded.)"""
        roots = [qualname for qualname, info in self.functions.items()
                 if info.is_async]
        return self.reachable_from(roots)

    def iter_functions(self) -> Iterator[FunctionInfo]:
        yield from self.functions.values()


def infer_local_types(scope: ast.AST, graph: CallGraph,
                      module: ModuleInfo) -> dict[str, str]:
    """``x = Cls(...)`` single-level local instance typing inside ``scope``.

    A name assigned more than once, or from anything but a direct
    program-class construction, is dropped (no type claimed).
    """
    counts: dict[str, int] = {}
    types: dict[str, str] = {}
    for node in ast.walk(scope):
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            continue
        name = node.targets[0].id
        counts[name] = counts.get(name, 0) + 1
        if isinstance(node.value, ast.Call):
            called = dotted_name(node.value.func)
            if called is not None:
                cls = graph._class_by_dotted(module, called)
                if cls is not None:
                    types[name] = cls.qualname
                    continue
        types.pop(name, None)
    return {name: qual for name, qual in types.items()
            if counts.get(name, 0) == 1}


def build_call_graph(files: Iterable[tuple[str, ast.Module]]) -> CallGraph:
    """Build the program graph from ``(path, parsed-tree)`` pairs.

    Two package-less entry scripts can share a stem (``a/run.py`` and
    ``b/run.py``); later arrivals get a suffixed module name so neither
    file's namespace is silently clobbered.
    """
    graph = CallGraph()
    for path, tree in files:
        name = module_name_for(path)
        while name in graph.modules:
            name += "_"
        graph.add_module(name, str(path), tree)
    graph.finalize()
    return graph
