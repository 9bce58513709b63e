"""Span tracing for the traced benchmark run, from outside the program.

`instrument` replaces the public functions of each measured layer with
wrappers that record one span per call (name, start, end, parent span)
plus per-call counts, and puts every original back on exit.  A function
is patched under every name it is bound to across the `hardsplit`
modules, because `search` binds `canonical_code`, `enumerate_moves`,
`apply_move` and `is_split_diagram` by name at import; patching only the
defining module would leave the search path untraced and report a
zero-cost layer.  `Diagram.__init__` and `Diagram.rerooted` are patched
on the class.

Spans live in flat arrays (a few million fit in tens of MB) and are
reduced to per-name totals when the run ends.  A span's self time is its
duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

ROOT_PARENT = -1
SURGERIES = ("ri_add", "ri_remove", "rii_add", "rii_remove", "riii")


class Tracer:
    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._open = [ROOT_PARENT]
        self.counts = Counter()

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, count=None):
        """`fn` recording a span per call; `count(counts, args, result)`
        adds per-call counts after the span closes."""
        nid = self._id(name)
        clock, stack, counts = self.clock, self._open, self.counts
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            i = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, out)
            return out

        return traced

    def table(self):
        """Per span name: {"calls", "total_s", "self_s", "parents"}.

        `parents` counts calls by the name of the enclosing span ("-" at
        top level), which shows where a layer is entered from.
        """
        n = len(self.name_id)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p != ROOT_PARENT:
                child[p] += dur[i]
        out = {
            name: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "parents": Counter()}
            for name in self.names
        }
        for i in range(n):
            row = out[self.names[self.name_id[i]]]
            row["calls"] += 1
            row["total_s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
            p = self.parent[i]
            row["parents"][
                "-" if p == ROOT_PARENT else self.names[self.name_id[p]]
            ] += 1
        for row in out.values():
            row["parents"] = dict(row["parents"])
        return out


def _count_best_walk(counts, args, out):
    counts["canon.best_walk.darts"] += len(args[2])
    counts["canon.best_walk.ties"] += len(out[1])


def _count_sites(counts, args, out):
    counts["moves.sites"] += len(out)


def _count_bfs(counts, args, out):
    counts["search.bfs_runs"] += 1
    counts["search.states"] += out.states_explored


def span_targets(api):
    """(span name, owner, attribute, counter) for every traced function.

    Owners are the defining modules (the kernel module for `best_walk`)
    and the `Diagram` class; `instrument` adds every other binding.
    """
    search, canon, moves, surgery = api.search, api.canon, api.moves, api.surgery
    maps, invariants = api.maps, api.invariants
    out = [
        ("search.verify_hard", search, "verify_hard", None),
        ("search.bfs_reachable", search, "bfs_reachable", _count_bfs),
        ("canon.canonical_code", canon, "canonical_code", None),
        ("canon.best_walk", api.canon_py, "best_walk", _count_best_walk),
        ("moves.enumerate_moves", moves, "enumerate_moves", _count_sites),
        ("moves.apply_move", moves, "apply_move", None),
        ("invariants.is_split_diagram", invariants, "is_split_diagram", None),
        ("maps.Diagram", maps.Diagram, "__init__", None),
        ("maps.rerooted", maps.Diagram, "rerooted", None),
    ]
    out += [("surgery." + fn, surgery, fn, None) for fn in SURGERIES]
    if canon._kernel is not api.canon_py:
        out.append(("canon.best_walk", canon._kernel, "best_walk", _count_best_walk))
    return out


def _package_modules(package):
    prefix = package + "."
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == package or name.startswith(prefix))
    ]


@contextmanager
def instrument(tracer, api):
    "Patch every binding of each span target; restore all on exit."
    package = api.maps.__package__
    patches = []  # (owner, attribute, original)
    for name, owner, attr, count in span_targets(api):
        orig = vars(owner)[attr]
        wrapped = tracer.wrap(name, orig, count)
        bindings = [(owner, attr)]
        if not isinstance(owner, type):
            for mod in _package_modules(package):
                for key, val in vars(mod).items():
                    if val is orig and (mod, key) != (owner, attr):
                        bindings.append((mod, key))
        for obj, key in bindings:
            patches.append((obj, key, orig))
            setattr(obj, key, wrapped)
    try:
        yield tracer
    finally:
        for obj, key, orig in reversed(patches):
            setattr(obj, key, orig)
