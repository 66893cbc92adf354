"""Out-of-library tracing of wavekernel's public functions.

Every public function of the traced modules is replaced by a wrapper
that records a span (name, start, end, parent id).  A function is
rebound under *every* module attribute that refers to it, so calls that
go through a ``from .x import f`` binding (``evaluation.predict_one_ahead``,
``intervals.scaling_coefficients``, ``predictor.forward_array``) are
traced too.  The library source is not modified; ``restore`` puts every
original object back.

Spans live in memory as parallel lists of plain ints and strings, one
entry per span, so a call with 10^5 spans adds no objects for the
cyclic garbage collector to scan.  A few functions also carry a work
counter (rows transformed, CV fits, pseudo-block draws) computed from
their arguments or result.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

PACKAGE = "wavekernel"
LAYERS = ("cli", "evaluation", "predictor", "wavelet", "intervals", "similarity")


def _rows(x) -> int:
    rows = 1
    for d in getattr(x, "shape", ())[:-1]:
        rows *= int(d)
    return rows


# span name -> fn(bound arguments, result) -> work count
COUNTERS = {
    "predictor.scaling_coefficients": lambda a, r: int(r[0].shape[0]),
    "wavelet.forward_array": lambda a, r: _rows(a["x"]),
    "predictor.cv_bandwidth": lambda a, r: len(r[1]) * (len(a["segments"]) - 2),
    "intervals.draw_pseudo_blocks": lambda a, r: int(a["plan"].B),
    "intervals.prediction_interval": lambda a, r: (
        int(a["plan"].B) * len(a["center"].curve) * 8
        if a["method"] == "monte-carlo" else 0),
    "cli.load_series": lambda a, r: int(r.size),
    "evaluation.rolling_eval": lambda a, r: len(r),
}


class SpanLog:
    """Spans of one traced region; span i's parent is ``parent[i]`` (-1: root)."""

    __slots__ = ("name", "parent", "start_ns", "end_ns", "children_ns",
                 "error", "count")

    def __init__(self):
        for field in self.__slots__:
            setattr(self, field, [])

    def __len__(self) -> int:
        return len(self.name)

    def self_ns(self, i: int) -> int:
        return self.end_ns[i] - self.start_ns[i] - self.children_ns[i]


class Tracer:
    """Wraps the package's public functions and records spans in memory."""

    def __init__(self):
        self.log = SpanLog()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def public_functions(self) -> dict[str, object]:
        """Span name ``<layer>.<function>`` -> original, for every layer."""
        found = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for name in mod.__all__:
                obj = getattr(mod, name)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    found[f"{layer}.{name}"] = obj
        return found

    def install(self) -> int:
        """Rebind every module reference to a public function; return the count."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {id(fn): self._wrap(qual, fn)
                    for qual, fn in self.public_functions().items()}
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE
                                   or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, wrapper)
        return len(self._patches)

    def restore(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def take(self) -> SpanLog:
        """Return the spans recorded so far and start a new log."""
        log, self.log = self.log, SpanLog()
        return log

    def _wrap(self, qual: str, fn):
        counter = COUNTERS.get(qual)
        sig = inspect.signature(fn) if counter else None
        clock = time.perf_counter_ns
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            log = self.log
            i = len(log.name)
            parent = stack[-1] if stack else -1
            log.name.append(qual)
            log.parent.append(parent)
            log.start_ns.append(0)
            log.end_ns.append(0)
            log.children_ns.append(0)
            log.error.append(False)
            log.count.append(0)
            stack.append(i)
            log.start_ns[i] = t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                log.error[i] = True
                raise
            finally:
                log.end_ns[i] = t1 = clock()
                stack.pop()
                if parent >= 0:
                    log.children_ns[parent] += t1 - t0
            if counter:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                log.count[i] = counter(bound.arguments, result)
            return result

        return wrapper


def aggregate(log: SpanLog) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds, self seconds, errors, work count."""
    out: dict[str, dict[str, float]] = {}
    for i, name in enumerate(log.name):
        a = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                  "errors": 0, "count": 0})
        a["calls"] += 1
        a["s"] += (log.end_ns[i] - log.start_ns[i]) * 1e-9
        a["self_s"] += log.self_ns(i) * 1e-9
        a["errors"] += int(log.error[i])
        a["count"] += log.count[i]
    return out


def write(path, logs: list[SpanLog]) -> None:
    """Write spans as JSON lines, tagged with the traced call they belong to."""
    with open(path, "w") as fh:
        for call, log in enumerate(logs):
            for i in range(len(log)):
                fh.write(json.dumps({
                    "call": call, "id": i, "parent": log.parent[i],
                    "name": log.name[i], "start_ns": log.start_ns[i],
                    "end_ns": log.end_ns[i], "self_ns": log.self_ns(i),
                    "error": log.error[i],
                }) + "\n")
