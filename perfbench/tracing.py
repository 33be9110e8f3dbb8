"""In-memory spans around the calls into each layer of ``sfpa``.

``Tracer.install()`` replaces public names where the calling module looks
them up (``sfpa.cli.parse_ft``, ``Poly.__mul__`` and so on) with wrappers
that time each call; ``uninstall()`` puts the originals back.  No file of
the program changes.

Every call pushes a frame on one stack.  On return its duration is added
to the parent frame's child time, so a span's self time is its duration
minus the time its child spans cover.  Coarse calls (parse, construction,
solve, dominators, the CLI entry) are kept as span records with name,
start, end and parent.  ``Poly`` operations run up to hundreds of
thousands of times a pass, so they are only summed per name, together
with their operand and result sizes.
"""

from __future__ import annotations

import collections
import json
import time
import tracemalloc

_clock = time.perf_counter
_MB = 1 << 20

#: span name -> (module, attribute) wrapped, as looked up by the caller
_TARGETS = {
    "galileo.parse": ("sfpa.cli", "parse_ft"),
    "tree.build": ("sfpa.galileo", "FaultTree"),
    "solver.solve": ("sfpa.cli", "solve_sfpa2"),
    "solver.plain": ("sfpa.cli", "solve_sfpa"),
    "solver.mcs": ("sfpa.cli", "minimal_cut_set_via_reduction"),
    "dominators.idom": ("sfpa.solver", "immediate_dominators"),
    "dominators.topo": ("sfpa.dominators", "topo_sort"),
}
#: spans whose allocation peak is recorded when ``alloc`` is set: tracemalloc
#: runs only inside them (they never nest), so it sees what they allocate
_ALLOC_SPANS = ("tree.build", "solver.solve", "solver.plain")
_REPORT_SPANS = ("solver.solve", "solver.plain")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self._stack = []  # [child seconds, span index or -1]
        self._undo = []
        self.alloc = False
        self.reset()

    def reset(self):
        """Start a new accounting period (spans are kept)."""
        self.total = collections.defaultdict(float)
        self.self_time = collections.defaultdict(float)
        self.counts = collections.Counter()
        self.alloc_peak_mb = collections.defaultdict(float)
        self.reports = []

    # -- wrapping --------------------------------------------------------

    def wrap(self, fn, name, keep=True, on_return=None):
        """``fn`` timed as span ``name``; ``keep`` stores a span record,
        ``on_return(args, result)`` records counts."""
        stack, spans = self._stack, self.spans
        tracer = self
        alloc_span = name in _ALLOC_SPANS

        def traced(*args, **kwargs):
            index = -1
            if keep:
                parent = stack[-1][1] if stack else -1
                index = len(spans)
                spans.append([name, 0.0, 0.0, parent])
            measure_alloc = alloc_span and tracer.alloc
            if measure_alloc:
                tracemalloc.start()
            frame = [0.0, index]
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                tracer.total[name] += duration
                tracer.self_time[name] += duration - frame[0]
                if keep:
                    spans[index][1] = start
                    spans[index][2] = end
                if measure_alloc:
                    peak = tracemalloc.get_traced_memory()[1] / _MB
                    tracemalloc.stop()
                    peak_mb = tracer.alloc_peak_mb
                    peak_mb[name] = max(peak_mb[name], peak)
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        import importlib

        from sfpa.algebra import Poly

        for name, (module, attr) in _TARGETS.items():
            owner = importlib.import_module(module)
            on_return = self._record_report if name in _REPORT_SPANS else None
            self._patch(owner, attr,
                        self.wrap(getattr(owner, attr), name, on_return=on_return))
        mul = self.wrap(Poly.__dict__["__mul__"], "algebra.mul", keep=False,
                        on_return=self._count_mul)
        self._patch(Poly, "__mul__", mul)
        self._patch(Poly, "__rmul__", mul)
        self._patch(Poly, "substitute",
                    self.wrap(Poly.__dict__["substitute"], "algebra.substitute",
                              keep=False, on_return=self._count_substitute))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- counters --------------------------------------------------------

    def _count_mul(self, args, result):
        left, right = args
        counts = self.counts
        counts["mul_calls"] += 1
        right_terms = len(right.terms) if hasattr(right, "terms") else 1
        counts["term_pairs"] += len(left.terms) * right_terms
        counts["terms_out"] += len(result.terms)

    def _count_substitute(self, args, result):
        self.counts["substitute_calls"] += 1

    def _record_report(self, args, report):
        self.reports.append(report)

    # -- output ----------------------------------------------------------

    def write(self, path, extra):
        """Write every kept span (times relative to the first) plus
        ``extra`` as JSON."""
        origin = self.spans[0][1] if self.spans else 0.0
        records = [
            {"name": name, "start": start - origin, "end": end - origin,
             "parent": parent}
            for name, start, end, parent in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(extra, spans=records), fh)
