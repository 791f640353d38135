"""Spans and counters recorded around the program's public entry points.

The benchmark never edits the program: it swaps module attributes for
wrappers while a traced pass runs and puts the originals back after.
Each span is ``[name, start, end, parent, instance]`` with ``parent``
the index of the enclosing span (-1 at top level); spans stay in memory
until the run writes them out.  The hottest kernel calls get plain
counters (calls, and calls that found a partition) with no timer.
"""

from __future__ import annotations

import sys
import time

#: Span name -> (module, attribute) of the wrapped callable.  Names
#: starting with ``kernels.`` refer to the module ``kernels.prepare``
#: returns for the system at hand.
SPANS = {
    "cli.main": ("pstseq.cli", "main"),
    "cli.build_parser": ("pstseq.cli", "build_parser"),
    "formats.load_system": ("pstseq.formats", "load_system"),
    "core.validate_system": ("pstseq.core", "validate_system"),
    "core.is_admissible": ("pstseq.core", "is_admissible"),
    "core.TripleSystem.subsystem": ("pstseq.core", "TripleSystem.subsystem"),
    "generators.random_system": ("pstseq.generators", "random_system"),
    "packing.max_disjoint_blocks": ("pstseq.packing", "max_disjoint_blocks"),
    "sequencer.decide": ("pstseq.sequencer", "decide"),
    "sequencer.construct": ("pstseq.sequencer", "construct"),
    "sequencer.pi_template_instantiate": ("pstseq.sequencer", "pi_template_instantiate"),
    "kernels.decide_search": (None, "decide_search"),
    "kernels.inadmissible_scan": (None, "inadmissible_scan"),
    "kernels.max_packing": (None, "max_packing"),
}

#: Kernel calls too frequent for a span: counted only, and only on the
#: pure backend, whose module-level calls can be intercepted.
COUNTERS = ("can_partition", "find_partition")


def _observe_decision(tracer, result):
    tracer.add("sequencer.decide.nodes", result.nodes_explored)
    tracer.add("sequencer.decide.unknown", result.outcome.value == "unknown")


def _observe_packing(tracer, result):
    tracer.add("packing.max_disjoint_blocks.nodes", result.nodes_explored)


def _observe_search(tracer, result):
    tracer.add("kernels.decide_search.nodes", result[1])


OBSERVERS = {
    "sequencer.decide": _observe_decision,
    "packing.max_disjoint_blocks": _observe_packing,
    "kernels.decide_search": _observe_search,
}


class Tracer:
    """Span log plus integer counters for one traced pass at a time."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.instance = 0
        self._stack = []
        self._undo = []
        self.counters_installed = False

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def reset(self):
        self.spans = []
        self.counts = {}
        self.instance = 0

    def _span(self, name, fn):
        stack = self._stack
        clock = time.perf_counter
        observe = OBSERVERS.get(name)

        def wrapped(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1, self.instance]
            stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[2] = clock()
            if observe is not None:
                observe(self, result)
            return result

        return wrapped

    def _counter(self, name, fn):
        calls, found = name + ".calls", name + ".found"

        def wrapped(*args):
            counts = self.counts
            counts[calls] = counts.get(calls, 0) + 1
            result = fn(*args)
            if result is not None and result is not False:
                counts[found] = counts.get(found, 0) + 1
            return result

        return wrapped

    def _replace(self, owner, attr, new):
        """Point ``owner.attr`` and every pstseq alias of it at ``new``."""
        old = getattr(owner, attr)
        targets = [owner] + [
            m for k, m in sys.modules.items() if k.startswith("pstseq") and m is not owner
        ]
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is old:
                    setattr(target, key, new)
                    self._undo.append((target, key, old))

    def install(self, kernel_module):
        """Wrap every entry point in SPANS and, on the pure backend, COUNTERS."""
        for name, (modname, attr) in SPANS.items():
            module = kernel_module if modname is None else sys.modules[modname]
            owner = module
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(module, cls)
            self._replace(owner, attr, self._span(name, getattr(owner, attr)))
        self.counters_installed = kernel_module.__name__ == "pstseq._pykernels"
        if self.counters_installed:
            for attr in COUNTERS:
                fn = getattr(kernel_module, attr)
                self._replace(kernel_module, attr, self._counter("kernels." + attr, fn))

    def uninstall(self):
        while self._undo:
            target, key, old = self._undo.pop()
            setattr(target, key, old)


def summarize(spans):
    """Per span name: calls, total seconds and self seconds.

    Self time is a span's duration minus the time its direct children
    cover; children of one span never overlap in a single thread.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        calls, total, self_s = out.get(name, (0, 0.0, 0.0))
        out[name] = (calls + 1, total + (end - start), self_s + (end - start) - child_time[i])
    return out
