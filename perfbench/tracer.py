"""Spans recorded from outside the program.

The tracer replaces attributes of the ``dddflow`` modules with wrappers
that record one span per call.  Callers look these names up at call time
(``from .geometry import mass_ratio`` binds a module attribute too), so
every alias of a wrapped function in a loaded ``dddflow`` module is
replaced.  Spans stay in memory until ``dump``.
"""

import fnmatch
import inspect
import json
import sys
import threading
import time


class Tracer:
    """Span recorder.  A span is [id, parent id, name, start, end, size]."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.absent = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def span(self, name):
        """Context manager recording one span; nests per thread."""
        return _Span(self, name)

    def wrap(self, fn, name, size=None):
        """fn inside a span; size(fn, args, kwargs, result) may attach a
        count to the span."""

        def traced(*args, **kwargs):
            with _Span(self, name) as sp:
                result = fn(*args, **kwargs)
            if size is not None:
                sp.record[5] = size(fn, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package, targets):
        """Wrap every target: (module, pattern, span name or None, size
        function or None).  A pattern names a function, globs over the
        public functions a module defines (``eval_*_many``), or names a
        method (``Class.method``).  Targets that match nothing are listed
        in ``absent`` and skipped."""
        for module_name, pattern, span_name, size in targets:
            module = sys.modules.get(f"{package}.{module_name}")
            owner, _, attr_pat = pattern.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            found = []
            if holder is not None:
                for attr, value in vars(holder).items():
                    if not (inspect.isfunction(value) and fnmatch.fnmatchcase(attr, attr_pat)):
                        continue
                    if not owner and (value.__module__ != module.__name__ or attr.startswith("_")):
                        continue
                    found.append((attr, value))
            if not found:
                self.absent.append(f"{module_name}.{pattern}")
            for attr, fn in found:
                label = span_name or f"{module_name}.{owner + '.' if owner else ''}{attr}"
                traced = self.wrap(fn, label, size)
                if owner:
                    setattr(holder, attr, traced)
                    continue
                for mod_name, mod in list(sys.modules.items()):
                    if mod is not None and mod_name.split(".")[0] == package:
                        for alias, value in list(vars(mod).items()):
                            if value is fn:
                                setattr(mod, alias, traced)

    def dump(self, path):
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps([self.run_id] + record) + "\n")

    def summary(self, inline=()):
        """Per span name: calls, total and self seconds, durations, sizes.
        Self time is a span's duration minus the time its children cover.
        A span named in `inline` runs its caller's own code (a parallel map
        over the caller's closure), so it does not reduce its parent's self
        time; such spans must have no traced children."""
        child = [0.0] * len(self.spans)
        for _, parent, name, t0, t1, _ in self.spans:
            if parent is not None and name not in inline:
                child[parent] += t1 - t0
        out = {}
        for sid, _, name, t0, t1, size in self.spans:
            rec = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": [], "sizes": []})
            rec["calls"] += 1
            rec["s"] += t1 - t0
            rec["self_s"] += t1 - t0 - child[sid]
            rec["durations"].append(t1 - t0)
            if size is not None:
                rec["sizes"].append(size)
        return out


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.record = [None, None, name, 0.0, 0.0, None]

    def __enter__(self):
        tr = self.tracer
        stack = getattr(tr._local, "stack", None)
        if stack is None:
            stack = tr._local.stack = []
        self.record[1] = stack[-1] if stack else None
        with tr._lock:
            self.record[0] = len(tr.spans)
            tr.spans.append(self.record)
        stack.append(self.record[0])
        self.record[3] = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.record[4] = time.perf_counter()
        self.tracer._local.stack.pop()
        return False


def bound_argument(fn, args, kwargs, name):
    """Value of parameter `name` in a call, defaults applied."""
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


def per_call_overhead(n=20000):
    """Seconds a span adds to one call, measured on a no-op function."""

    def noop():
        return None

    tr = Tracer("calibration")
    traced = tr.wrap(noop, "noop")
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(n):
            noop()
        t1 = time.perf_counter()
        for _ in range(n):
            traced()
        t2 = time.perf_counter()
        tr.spans.clear()
        best = min(best, ((t2 - t1) - (t1 - t0)) / n)
    return max(best, 0.0)
