"""Spans around calls into projspec's public functions.

Tracer.install wraps every public function defined in the traced modules and
puts the wrapper at every module attribute bound to that function, so calls
through names imported elsewhere (commute's char_poly_pair, linegeom's
univariate_slice, riesz's strong_agmon_check, ...) are recorded too. Spans
stay in memory until dump().
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("core", "detpoly", "linegeom", "commute", "riesz", "agmon", "cli")


class Tracer:
    def __init__(self, capture=()):
        # (name, start, end, parent index or -1, operation id)
        self.spans = []
        self.op_id = -1
        self.captured = []  # (name, args, kwargs, result) for names in capture
        self._capture = set(capture)
        self._stack = []
        self._undo = []

    def _wrap(self, name, fn):
        capture = name in self._capture

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.op_id)
            if capture:
                self.captured.append((name, args, kwargs, result))
            return result

        return traced

    def install(self, package="projspec"):
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{package}.{layer}")
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not attr.startswith("_"):
                    wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{attr}", fn))
        for modname, mod in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._undo.append((mod, attr, val))

    def uninstall(self):
        for mod, attr, val in reversed(self._undo):
            setattr(mod, attr, val)
        self._undo.clear()

    def per_function(self):
        """{name: (calls, total seconds, self seconds)}; self time excludes child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls, total, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + (end - start), own + (end - start) - child[i])
        return out

    def durations(self, name):
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
