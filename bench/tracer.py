"""Spans around the public calls into each `hurwitz` module, from outside it.

`Tracer.install()` rebinds every target in SPANS to a wrapper that records
a span (name, start, end, parent span, job id) and the target's exact work
counts; `uninstall()` puts every original object back.  Functions are
rebound on their own module and on every `hurwitz` module that imported
them by name; methods are rebound on their class.  Nothing is wrapped
unless `install()` runs, so an untraced pass calls the program unchanged.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter
from time import perf_counter


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _chain_counts(args, kwargs, result):
    return {"perms.chain.points": _arg(args, kwargs, 2, "degree")}


def _table_counts(args, kwargs, result):
    return {"perms.table.elements": args[0].size}


def _canon_counts(args, kwargs, result):
    return {"nielsen.canon.row_maps": len(_arg(args, kwargs, 0, "codes")) * len(_arg(args, kwargs, 1, "maps"))}


def _enumerate_counts(args, kwargs, result):
    tuples = result[0] if isinstance(result, tuple) else result
    return {"nielsen.enumerate.visits": tuples.visits, "nielsen.enumerate.tuples": len(tuples)}


def _fiber_counts(args, kwargs, result):
    return {"nielsen.fiber.points": len(result)}


def _monodromy_counts(args, kwargs, result):
    return {"monodromy.points": result.fiber_size}


# (span name, module, attribute path, work counts taken from the call)
SPANS = [
    ("perms.table", "hurwitz.perms", "GroupTable.__init__", _table_counts),
    ("perms.closure", "hurwitz.perms", "GroupTable.closure_codes", None),
    ("perms.chain", "hurwitz.perms", "StabilizerChain.__init__", _chain_counts),
    ("perms.classes", "hurwitz.perms", "PermGroup.conjugacy_classes", None),
    ("perms.normal_closure", "hurwitz.perms", "PermGroup.normal_closure", None),
    ("structure.aut", "hurwitz.structure", "automorphism_group", None),
    ("structure.pseudosimple", "hurwitz.structure", "is_pseudosimple", None),
    ("nielsen.enumerate", "hurwitz.nielsen", "enumerate_tuples", _enumerate_counts),
    ("nielsen.canon", "hurwitz.nielsen", "canonicalize_codes", _canon_counts),
    ("nielsen.fiber", "hurwitz.nielsen", "build_fiber", _fiber_counts),
    ("nielsen.perm_array", "hurwitz.nielsen", "induced_permutation_array", None),
    ("covers.extension", "hurwitz.covers", "CentralExtension.from_generators", None),
    ("covers.reduce", "hurwitz.covers", "reduce_cover", None),
    ("covers.lift", "hurwitz.covers", "LiftData.__init__", None),
    ("covers.lift", "hurwitz.covers", "LiftData.label_codes_for_rows", None),
    ("covers.condition_e", "hurwitz.covers", "condition_e", None),
    ("covers.classify", "hurwitz.covers", "classify_class", None),
    ("monodromy.gen_arrays", "hurwitz.monodromy", "fiber_generator_arrays", None),
    ("monodromy.orbits", "hurwitz.monodromy", "braid_orbits", None),
    ("monodromy.group", "hurwitz.monodromy", "monodromy_group", _monodromy_counts),
    ("monodromy.quasi", "hurwitz.monodromy", "quasi_fullness", None),
    ("fiberpower.row_span", "hurwitz.fiberpower", "row_span_check", None),
    ("io.parse_inputs", "hurwitz.io", "parse_inputs", None),
    ("cli.emit", "hurwitz.cli", "emit", None),
]

LAYERS = ["perms", "structure", "nielsen", "covers", "monodromy", "fiberpower", "io", "cli"]

# The per-layer metrics, in print order: (name, unit, better).  The names
# must equal the `per_layer` names of BENCHMARK.json.
CALL_METRICS = [
    "perms.chain", "nielsen.canon", "perms.closure", "perms.table", "covers.extension",
    "structure.aut", "structure.pseudosimple", "perms.normal_closure", "fiberpower.row_span",
]
COUNT_METRICS = [
    ("perms.chain.points", "count", "lower"),
    ("monodromy.points", "count", "lower"),
    ("nielsen.canon.row_maps", "count", "lower"),
    ("nielsen.enumerate.visits", "count", "lower"),
    ("nielsen.enumerate.tuples", "count", "higher"),
    ("nielsen.enumerate.yield", "ratio", "higher"),
    ("nielsen.fiber.points", "count", "lower"),
    ("perms.table.elements", "count", "lower"),
]


def per_layer_metric_specs():
    specs = []
    for name in dict.fromkeys(name for name, *_ in SPANS):
        specs.append((f"{name}.s", "s", "lower"))
    specs += [(f"{name}.calls", "count", "lower") for name in CALL_METRICS]
    specs += COUNT_METRICS
    specs += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    specs += [(f"{layer}.errors", "count", "lower") for layer in LAYERS]
    specs.append(("trace.overhead_s", "s", "lower"))
    return specs


def _resolve(module_name, path):
    """(owner object, attribute name) of a dotted attribute path."""
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def wrapped_attributes():
    """Every (owner, attribute, original, span name, counts) install() rebinds.

    Read while nothing is installed, the originals are the program's own
    objects.
    """
    out = []
    modules = [m for n, m in sorted(sys.modules.items()) if n == "hurwitz" or n.startswith("hurwitz.")]
    for name, module_name, path, count in SPANS:
        owner, attr = _resolve(module_name, path)
        original = owner.__dict__[attr]
        if isinstance(owner, type):
            out.append((owner, attr, original, name, count))
            continue
        for mod in modules:
            for binding, value in list(vars(mod).items()):
                if value is original:
                    out.append((mod, binding, original, name, count))
    return out


class Tracer:
    """In-memory spans and work counts of one traced pass."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, job, raised]
        self.counts = Counter()
        self.job = None
        self._stack = []
        self._saved = []

    def install(self):
        for owner, attr, original, name, count in wrapped_attributes():
            setattr(owner, attr, self._wrap(original, name, count))
            self._saved.append((owner, attr, original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, original, name, count):
        if isinstance(original, classmethod):
            return classmethod(self._wrap(original.__func__, name, count))
        spans = self.spans
        stack = self._stack
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else None, self.job, False]
            spans.append(record)
            stack.append(index)
            record[1] = perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                record[5] = True
                raise
            finally:
                record[2] = perf_counter()
                stack.pop()
            if count is not None:
                counts.update(count(args, kwargs, result))
            return result

        return wrapper

    def write_jsonl(self, path):
        keys = ("name", "start", "end", "parent", "job", "raised")
        with open(path, "w") as fh:
            for index, record in enumerate(self.spans):
                fh.write(json.dumps({"id": index, **dict(zip(keys, record))}) + "\n")

    def layer_metrics(self, pass_wall_s, untraced_wall_s):
        """Every per-layer metric of the recorded pass, keyed by name."""
        spans = self.spans
        total = Counter()
        calls = Counter()
        self_s = Counter()
        errors = Counter()
        ancestors = []
        for name, start, end, parent, _job, raised in spans:
            duration = end - start
            above = frozenset() if parent is None else ancestors[parent] | {spans[parent][0]}
            ancestors.append(above)
            calls[name] += 1
            if name not in above:
                total[name] += duration
            layer = name.split(".")[0]
            # the pass outside every span is the CLI's own time
            parent_layer = "cli" if parent is None else spans[parent][0].split(".")[0]
            self_s[layer] += duration
            self_s[parent_layer] -= duration
            if raised and (parent is None or parent_layer != layer):
                errors[layer] += 1
        self_s["cli"] += pass_wall_s

        values = {}
        for metric, unit, _ in per_layer_metric_specs():
            stem, _, kind = metric.rpartition(".")
            if kind == "s":
                value = total[stem]
            elif kind == "calls":
                value = calls[stem]
            elif kind == "self_s":
                value = self_s[stem]
            elif kind == "errors":
                value = errors[stem]
            elif metric == "nielsen.enumerate.yield":
                visits = self.counts["nielsen.enumerate.visits"]
                value = self.counts["nielsen.enumerate.tuples"] / visits if visits else 0.0
            elif metric == "trace.overhead_s":
                value = pass_wall_s - untraced_wall_s
            else:
                value = self.counts[metric]
            values[metric] = {"value": value, "unit": unit}
        return values
