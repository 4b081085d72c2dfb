"""Wrap functions of the qnbench package from outside, and time them as spans.

A target names a function by module and qualified name inside the
package, for example ``solvers.run_bfgs`` or
``objectives.EmpiricalGlmLoss.value``.  A module-level function is
replaced in every qnbench module that binds it (``run_bfgs`` is also bound
in ``glmsim``, ``cli`` and the package namespace), so calls through any of
those names reach the wrapper; a method is replaced in its class.
``Patches.restore`` puts every original back.

A span is ``[name, start, end, parent]``: ``perf_counter`` seconds, and the
index of the enclosing span in the same list, or -1 at the top.  Spans
stay in memory until the caller writes them out.
"""

import sys
from functools import wraps
from time import perf_counter

import numpy as np

PACKAGE = "qnbench"


def package_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if name == PACKAGE or name.startswith(PACKAGE + ".")
    ]


class Patches:
    """Function replacements inside the package, undone by ``restore``."""

    def __init__(self):
        self._undo = []

    def replace(self, target, make_wrapper):
        module_name, _, qualname = target.partition(".")
        owner = sys.modules[f"{PACKAGE}.{module_name}"]
        *classes, attr = qualname.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        if classes:
            original = vars(owner)[attr]
            places = [(owner, attr)]
        else:
            original = getattr(owner, attr)
            places = [
                (module, name)
                for module in package_modules()
                for name, value in vars(module).items()
                if value is original
            ]
        wrapper = make_wrapper(original)
        for place, name in places:
            self._undo.append((place, name, original))
            setattr(place, name, wrapper)

    def restore(self):
        while self._undo:
            place, name, original = self._undo.pop()
            setattr(place, name, original)


def result_hook(sink, label, summarize):
    """Wrapper factory appending ``(label, summarize(result))`` to ``sink``.

    It reads no clock; ``summarize`` runs once per call and should keep no
    reference to large results.
    """

    def make(fn):
        @wraps(fn)
        def hooked(*args, **kwargs):
            result = fn(*args, **kwargs)
            sink.append((label, summarize(result)))
            return result

        return hooked

    return make


def entry_hook(sink):
    """Wrapper factory appending ``perf_counter()`` to ``sink`` as each call enters."""

    def make(fn):
        @wraps(fn)
        def marked(*args, **kwargs):
            sink.append(perf_counter())
            return fn(*args, **kwargs)

        return marked

    return make


class SpanRecorder:
    """Records one span per call of every function it wraps."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrapper(self, name):
        spans, stack = self.spans, self._open

        def make(fn):
            @wraps(fn)
            def traced(*args, **kwargs):
                index = len(spans)
                span = [name, 0.0, 0.0, stack[-1] if stack else -1]
                spans.append(span)
                stack.append(index)
                span[1] = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    span[2] = perf_counter()
                    stack.pop()

            return traced

        return make


def layer_stats(spans):
    """Per span name: call count, self time and per-call durations.

    Self time is a span's duration minus the durations of its direct
    children; calls nest, so the children cover disjoint parts of it.
    """
    covered = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    stats = {}
    for index, (name, start, end, _parent) in enumerate(spans):
        entry = stats.setdefault(name, {"calls": 0, "self_s": 0.0, "durations": []})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - covered[index]
        entry["durations"].append(end - start)
    return stats


def percentile_us(durations, q):
    return float(np.percentile(durations, q)) * 1e6 if durations else 0.0


def spans_document(spans):
    """Spans in a compact JSON-ready form, times relative to the first start."""
    names = sorted({span[0] for span in spans})
    index = {name: i for i, name in enumerate(names)}
    origin = spans[0][1] if spans else 0.0
    return {
        "fields": ["name", "start_s", "end_s", "parent"],
        "names": names,
        "spans": [
            [index[name], start - origin, end - origin, parent]
            for name, start, end, parent in spans
        ],
    }
