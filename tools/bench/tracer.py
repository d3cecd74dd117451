"""Host-time spans around public ``repro`` callables, from the outside.

:class:`LayerTracer` wraps each target callable in place: it replaces
the attribute on the defining class or module, and every other loaded
module attribute bound to the same object (``repro.serve.frontend``
has its own binding of ``cluster_compiled_query``, for example). Each
call records a span with its parent in memory; a layer's self time is
its spans' time minus the time of their child spans. ``uninstall``
puts every original attribute back. No code under ``src/`` changes,
and the wrappers never touch arguments or results, so simulated
numbers are the same traced or not.

Calls through references taken before ``install`` (a bound method
stored on an object, a function captured in a closure) bypass the
wrappers; a traced pass builds its DPUs, clusters and frontends after
installing.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Sequence, Tuple

# Sentinel for an attribute the owner inherited rather than defined.
_INHERITED = object()


def resolve(target: str) -> Tuple[Any, str, Any]:
    """``"pkg.module:Class.method"`` -> (owner, attribute, original)."""
    module_name, _, qualname = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *path, attribute = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attribute, getattr(owner, attribute)


class LayerTracer:
    """Spans and per-layer self time for a set of wrapped callables.

    ``targets`` maps layer name -> ``"module:qualname"`` strings; calls
    to targets named in ``keep`` also keep ``(args, result)`` so their
    public result objects can be read after the pass.
    """

    def __init__(self, targets: Dict[str, Sequence[str]],
                 keep: Sequence[str] = ()) -> None:
        self.targets = {layer: list(names) for layer, names in targets.items()}
        self.keep = set(keep)
        # span: [label, layer, start_ns, end_ns, parent index or -1]
        self.spans: List[list] = []
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        self.label_calls: Dict[str, int] = defaultdict(int)
        self.label_ns: Dict[str, int] = defaultdict(int)
        self.kept: Dict[str, List[Tuple[tuple, Any]]] = defaultdict(list)
        self.traced_ns = 0
        self._stack: List[int] = []
        self._child_ns: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._installed_at = 0

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        # id(original function) -> (original, wrapper)
        functions: Dict[int, Tuple[Any, Callable]] = {}
        for layer, names in self.targets.items():
            for target in names:
                owner, attribute, original = resolve(target)
                wrapper = self._wrap(layer, target.partition(":")[2], original)
                self._patch(owner, attribute, wrapper)
                if not isinstance(owner, type):
                    functions[id(original)] = (original, wrapper)
        # Module-level functions are often re-exported or imported by
        # name elsewhere; those bindings get the same wrapper.
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attribute, value in list(namespace.items()):
                match = functions.get(id(value))
                if match is not None and value is match[0]:
                    self._patch(module, attribute, match[1])
        self._installed_at = time.perf_counter_ns()

    def _patch(self, owner: Any, attribute: str, wrapper: Callable) -> None:
        if isinstance(owner, type):
            previous = owner.__dict__.get(attribute, _INHERITED)
        else:
            previous = getattr(owner, attribute)
        self._patches.append((owner, attribute, previous))
        setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        if self._installed_at:
            self.traced_ns += time.perf_counter_ns() - self._installed_at
            self._installed_at = 0
        while self._patches:
            owner, attribute, previous = self._patches.pop()
            if previous is _INHERITED:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, previous)

    def totals(self) -> Tuple[Dict[str, int], int]:
        """Self nanoseconds per layer and traced nanoseconds so far, so a
        caller can tell one traced region from the next."""
        return dict(self.self_ns), self.traced_ns

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def _wrap(self, layer: str, label: str, original: Callable) -> Callable:
        tracer = self
        keep = label in self.keep

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            span = [label, layer, 0, 0,
                    tracer._stack[-1] if tracer._stack else -1]
            tracer.spans.append(span)
            tracer._stack.append(index)
            tracer._child_ns.append(0)
            span[2] = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                span[3] = end = time.perf_counter_ns()
                tracer._stack.pop()
                duration = end - span[2]
                tracer.self_ns[layer] += duration - tracer._child_ns.pop()
                if tracer._child_ns:
                    tracer._child_ns[-1] += duration
                tracer.calls[layer] += 1
                tracer.label_calls[label] += 1
                tracer.label_ns[label] += duration
            if keep:
                tracer.kept[label].append((args, result))
            return result

        return wrapper

    # -- export -------------------------------------------------------------

    def chrome_trace(self, process_name: str) -> Dict[str, Any]:
        """Spans as Chrome trace-event JSON (microseconds)."""
        origin = self.spans[0][2] if self.spans else 0
        events: List[Dict[str, Any]] = [{
            "name": "process_name", "ph": "M", "ts": 0, "pid": 0, "tid": 0,
            "args": {"name": process_name},
        }]
        for label, layer, start, end, parent in self.spans:
            events.append({
                "name": label, "cat": layer, "ph": "X",
                "ts": (start - origin) / 1000.0,
                "dur": (end - start) / 1000.0,
                "pid": 0, "tid": 0,
                "args": {"parent": self.spans[parent][0] if parent >= 0
                         else None},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome(self, path, process_name: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(process_name), handle)
