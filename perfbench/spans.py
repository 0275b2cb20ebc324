"""In-memory span recorder wrapped around the program's public functions.

The benchmark attributes time to layers without touching the program:
:class:`Tracer` replaces each target function with a thin wrapper that
opens a span on entry and closes it on exit, and puts every original
back on :meth:`Tracer.uninstall`.  Spans carry ``(id, parent, layer,
start_ns, end_ns, unit)``; they stay in memory while the run lasts and
are written once, when it ends (:meth:`Tracer.write`).

A layer's *self time* is the summed duration of its spans minus the
time their direct child spans cover.  Its *calls* are its outermost
entries -- a span whose parent belongs to another layer (or to none) --
so a layer calling its own timed functions (``learn`` calling
``backward``) counts once.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

#: Called after a timed call returns: ``hook(tracer, args, result, elapsed_ns)``.
Hook = Callable[["Tracer", tuple, object, int], None]


@dataclass(frozen=True)
class Target:
    """One public function of the program, timed as part of ``layer``.

    ``qualname`` is either a module-level function (``build_scene``) or
    a method (``Sensor.observe``) defined in ``module``.
    """

    module: str
    qualname: str
    hook: Hook | None = None


@dataclass
class LayerStats:
    calls: int = 0
    self_ns: int = 0
    outer_ns: int = 0


@dataclass
class _Patch:
    owner: object
    name: str
    original: object


class Tracer:
    """Records spans around every target of every layer while installed."""

    def __init__(self, layers: dict[str, tuple[Target, ...]],
                 run_id: str = "run") -> None:
        self.layers = layers
        self.run_id = run_id
        self.spans: list[tuple[int, int, str, int, int, int]] = []
        self.counters: dict[str, float] = {}
        self.notes: dict[str, object] = {}
        #: Index of the unit being executed; workloads set it per unit.
        self.unit = -1
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[_Patch] = []

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, targets in self.layers.items():
            for target in targets:
                self._patch(layer, target)

    def uninstall(self) -> None:
        while self._patches:
            patch = self._patches.pop()
            setattr(patch.owner, patch.name, patch.original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, layer: str, target: Target) -> None:
        try:
            module = importlib.import_module(target.module)
        except ImportError:
            self.missing.append(f"{target.module}:{target.qualname}")
            return
        owner_name, _, attr = target.qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            original = vars(owner).get(attr) if inspect.isclass(owner) else None
            if not inspect.isfunction(original):
                self.missing.append(f"{target.module}:{target.qualname}")
                return
            self._set(owner, attr, original, self._wrap(layer, target, original))
            return
        original = getattr(module, attr, None)
        if not inspect.isfunction(original):
            self.missing.append(f"{target.module}:{target.qualname}")
            return
        wrapper = self._wrap(layer, target, original)
        # A function imported by name lives on in every importing module;
        # each of those bindings is rebound, or calls through it escape.
        for other in list(sys.modules.values()):
            name = getattr(other, "__name__", "")
            if name.split(".")[0] != module.__name__.split(".")[0]:
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    self._set(other, key, original, wrapper)

    def _set(self, owner, name: str, original, wrapper) -> None:
        self._patches.append(_Patch(owner, name, original))
        setattr(owner, name, wrapper)

    def _wrap(self, layer: str, target: Target, original):
        hook = target.hook
        spans = self.spans
        ids = self._ids
        local = self._local
        clock = time.perf_counter_ns

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, layer, start, end, self.unit))
            if hook is not None:
                hook(self, args, result, end - start)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def layer_stats(self) -> dict[str, LayerStats]:
        """Calls, self time and outermost busy time per layer."""
        layer_of = {span[0]: span[2] for span in self.spans}
        child_ns: dict[int, int] = {}
        for span_id, parent, _, start, end, _ in self.spans:
            if parent:
                child_ns[parent] = child_ns.get(parent, 0) + (end - start)
        stats = {layer: LayerStats() for layer in self.layers}
        for span_id, parent, layer, start, end, _ in self.spans:
            entry = stats[layer]
            duration = end - start
            entry.self_ns += duration - child_ns.get(span_id, 0)
            if layer_of.get(parent) != layer:
                entry.calls += 1
                entry.outer_ns += duration
        return stats

    def root_ns(self) -> int:
        """Time covered by spans that have no parent span."""
        return sum(end - start for _, parent, _, start, end, _ in self.spans
                   if not parent)

    def write(self, path: Path) -> Path:
        """Write every span as one JSON line (``start``/``end`` in ns)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span_id, parent, layer, start, end, unit in self.spans:
                out.write(json.dumps({
                    "run": self.run_id, "id": span_id, "parent": parent,
                    "name": layer, "start": start, "end": end,
                    "unit": unit}) + "\n")
        return path
