"""Spans around the package's layers, recorded from outside the package.

``Tracer.install`` replaces each layer function by a recording wrapper at
every module attribute that binds it (``rates.lagrangian_value``,
``trajectory.path_action``, the package namespace, ...), so calls between
layers are seen wherever they are made; ``uninstall`` puts the originals
back. Spans (name, start, end, parent, op) stay in memory until
``write``. A span's self time is its duration minus the time its child
spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("markov", "hamiltonian", "lagrangian", "rates", "trajectory",
          "montecarlo", "cli")

# Private functions that other layers bind and that get spans of their own.
PRIVATE = {("markov", "_expm_generator"): "expm"}


def span_name(layer, func):
    """``cmd_verify_ldp`` -> ``cli.verify-ldp``; ``_expm_generator`` -> ``markov.expm``."""
    if (layer, func) in PRIVATE:
        return f"{layer}.{PRIVATE[layer, func]}"
    if layer == "cli" and func.startswith("cmd_"):
        func = func[4:].replace("_", "-")
    return f"{layer}.{func}"


def _result_counts(name, arguments, result):
    """Counts read off a layer's result: (counter, increment) pairs.

    ``arguments()`` maps the call's parameter names to the values passed.
    """
    if name == "lagrangian.lagrangian_value":
        return (("iterations", result.iterations),
                ("attained", int(result.attained)))
    if name in ("rates.conditional_rate", "rates.joint_rate"):
        return (("iterations", result.iterations),)
    if name == "rates.path_action":
        return (("cells", len(result.cell_values)),)
    if name == "montecarlo.estimate_event_decay":
        return (("batches", len(result.n_values) * result.reps),
                ("hits", sum(result.hits)))
    if name == "montecarlo.empirical_trajectory":
        return (("copies", arguments()["n"]),)
    return ()


class Tracer:
    def __init__(self, package):
        self.package = package
        self.names = []
        self.spans = []           # [name_index, start, end, parent, op]
        self.counts = defaultdict(lambda: defaultdict(int))
        self.stack = []
        self.op = -1
        self.ops = []             # (workload, op index) per op id
        self._patches = []        # (module, attribute, original)
        self._wrappers = {id(fn): (fn, self._wrap(name, fn))
                          for name, fn in self._find_targets()}

    def _find_targets(self):
        """(name, original function) for every traced layer function."""
        targets = []
        for layer in LAYERS:
            module = sys.modules[f"{self.package.__name__}.{layer}"]
            for attr, obj in vars(module).items():
                public = not attr.startswith("_") or (layer, attr) in PRIVATE
                if public and inspect.isfunction(obj) \
                        and obj.__module__ == module.__name__:
                    targets.append((span_name(layer, attr), obj))
        return targets

    def _wrap(self, name, fn):
        index = len(self.names)
        self.names.append(name)
        spans, stack, counts = self.spans, self.stack, self.counts
        clock = time.perf_counter
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [index, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            for key, inc in _result_counts(
                    name, lambda: signature.bind(*args, **kwargs).arguments,
                    result):
                counts[name][key] += inc
            return result

        return wrapper

    def install(self):
        modules = [self.package] + [sys.modules[f"{self.package.__name__}.{m}"]
                                    for m in LAYERS]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                fn, wrapper = self._wrappers.get(id(obj), (None, None))
                if fn is obj:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, obj))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def begin_op(self, workload, i):
        self.ops.append((workload, i))
        self.op = len(self.ops) - 1

    # -- analysis ----------------------------------------------------------

    def self_times(self):
        """Self time per span: duration minus the union of its children."""
        children = defaultdict(list)
        for k, span in enumerate(self.spans):
            if span[3] >= 0:
                children[span[3]].append((span[1], span[2]))
        out = []
        for k, span in enumerate(self.spans):
            covered, reach = 0.0, -float("inf")
            for start, end in sorted(children.get(k, ())):
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            out.append(span[2] - span[1] - covered)
        return out

    def totals(self):
        """Per span name: calls, inclusive seconds, self seconds."""
        calls = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        for span, self_s in zip(self.spans, self.self_times()):
            name = self.names[span[0]]
            calls[name] += 1
            total[name] += span[2] - span[1]
            own[name] += self_s
        return calls, total, own

    def write(self, path):
        """One JSON line per span; start and end are seconds from the first."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"ops": self.ops}) + "\n")
            for span in self.spans:
                workload, i = self.ops[span[4]] if span[4] >= 0 else (None, None)
                fh.write(json.dumps({
                    "name": self.names[span[0]],
                    "start": round(span[1] - t0, 9),
                    "end": round(span[2] - t0, 9),
                    "parent": span[3], "workload": workload, "op": i,
                }) + "\n")
