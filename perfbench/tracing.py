"""In-memory spans around dropqed's public functions.

:meth:`Tracer.install` wraps every public function of the layer modules
and rebinds the wrapper wherever the original is bound by name, so a call
through ``cli`` (``drop_spectrum`` imported by name) is traced the same way
as one through ``drop``.  The scipy boundary ``dropqed.eom.minimize`` is
wrapped too, counting calls and function evaluations; if a later version no
longer binds it, nothing is wrapped there.

Spans are kept in memory (name, start, end, parent, job) and written out
once the run ends.  The benchmark pins ``DROPQED_THREADS=1``, so every span
is opened and closed on the main thread and a single stack gives parents.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("lattice", "chain1d", "drop", "eom", "analysis", "render", "cli")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []       # [name, start, end, parent, job]
        self.job: str | None = None
        self.nfev: dict[str, int] = defaultdict(int)
        self.wrapped: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        span = [name, perf_counter(), None, self._stack[-1] if self._stack else -1, self.job]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)
        return traced

    def _wrap_minimize(self, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open("eom.minimize")
            try:
                result = fn(*args, **kwargs)
                self.nfev[self.job] += int(getattr(result, "nfev", 0))
                return result
            finally:
                self._close(span)
        return traced

    def install(self) -> None:
        """Wrap the layers' public functions wherever dropqed binds them."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"dropqed.{layer}"]
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{name}", obj)
                    self.wrapped.add(f"{layer}.{name}")
        eom = sys.modules["dropqed.eom"]
        if callable(getattr(eom, "minimize", None)):
            wrappers[id(eom.minimize)] = self._wrap_minimize(eom.minimize)
            self.wrapped.add("eom.minimize")
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "dropqed" and not mod_name.startswith("dropqed."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patches):
            setattr(module, attr, obj)
        self._patches.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per wrapped function: calls, total time and self time (minus child
        spans); a function that was wrapped but never called has zeros."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.wrapped}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return out

    def write(self, path: str, origin: float) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent, job in self.spans:
                handle.write(json.dumps({"name": name, "start": start - origin,
                                         "end": end - origin, "parent": parent,
                                         "job": job}) + "\n")
