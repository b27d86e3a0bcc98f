"""Spans around the package's public functions, recorded from outside it.

``Tracer.install`` rebinds each target function, in every ``cfcolor``
module namespace that holds it, to a wrapper that records a span (name,
start, end, parent) in flat arrays; ``disable`` puts the originals back and
``enable`` the wrappers again.
No package source is touched. Internal calls that go through a module
global (``_color_level`` calling ``build_graph``, ``tree_cf_index`` calling
``decide_tree_two``) are therefore traced too.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from pathlib import Path
from time import perf_counter
from types import ModuleType
from typing import Any, Callable

Hook = Callable[[tuple, Any], float]


def self_times(parent: array | list[int], start: array | list[float],
               end: array | list[float]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so children lie inside their parent and do
    not overlap; subtracting direct children removes all descendants.
    """
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


class Tracer:
    """Counts calls, errors and hook values per target, and keeps spans."""

    def __init__(self, targets: list[str], hooks: dict[str, Hook] | None = None) -> None:
        self.names = list(targets)
        self.ids = {name: i for i, name in enumerate(self.names)}
        self.hooks = hooks or {}
        self._bindings: list[tuple[ModuleType, str, Any, Any]] = []
        self.clear()

    def clear(self) -> None:
        n = len(self.names)
        self.calls = [0] * n
        self.errors = [0] * n
        self.hook_sum = [0.0] * n
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]

    def install(self, package: str = "cfcolor") -> None:
        """Bind a wrapper in place of each target wherever the package's
        modules hold it, then enable them."""
        modules = [m for name, m in sys.modules.items()
                   if name == package or name.startswith(package + ".")]
        self._bindings = []
        for nid, name in enumerate(self.names):
            mod_name, fn_name = name.split(".")
            original = getattr(sys.modules[f"{package}.{mod_name}"], fn_name)
            wrapper = self._wrap(nid, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._bindings.append((mod, attr, original, wrapper))
        self.enable()

    def enable(self) -> None:
        for mod, attr, _original, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def disable(self) -> None:
        for mod, attr, original, _wrapper in self._bindings:
            setattr(mod, attr, original)

    def _open(self, nid: int) -> int:
        sid = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(sid)
        self.span_start.append(perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.span_end[sid] = perf_counter()
        self._stack.pop()

    def _wrap(self, nid: int, fn: Callable) -> Callable:
        hook = self.hooks.get(self.names[nid])
        if inspect.isgeneratorfunction(fn):
            # One span per resumption, so the consumer's work between items
            # is not charged to the generator.
            @functools.wraps(fn)
            def traced_gen(*args: Any, **kwargs: Any) -> Any:
                self.calls[nid] += 1
                it = fn(*args, **kwargs)
                while True:
                    sid = self._open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(sid)
                    yield item
            return traced_gen

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            self.calls[nid] += 1
            sid = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[nid] += 1
                raise
            finally:
                self._close(sid)
            if hook is not None:
                self.hook_sum[nid] += hook(args, result)
            return result
        return traced

    def self_seconds(self) -> list[float]:
        """Summed self time per target."""
        total = [0.0] * len(self.names)
        own = self_times(self.span_parent, self.span_start, self.span_end)
        for nid, t in zip(self.span_name, own):
            total[nid] += t
        return total

    def write_spans(self, path: Path) -> None:
        """One CSV row per span: id, parent id, name, start and end in seconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write("id,parent,name,start,end\n")
            for sid, (nid, parent, s, e) in enumerate(zip(
                    self.span_name, self.span_parent, self.span_start, self.span_end)):
                out.write(f"{sid},{parent},{self.names[nid]},{s:.9f},{e:.9f}\n")
