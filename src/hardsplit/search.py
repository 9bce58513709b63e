"""Exhaustive breadth-first search over the move graph, under a crossing
budget.

A state is a diagram up to the ambient equality (plane isotopy, or
sphere isotopy in sphere mode), identified by its canonical digest.
`bfs_reachable` enumerates every state reachable from the start without
ever exceeding start crossings + budget; because the crossing count is
capped and diagrams at a capped size are finite, the closure is finite
and exhaustion is a proof of unreachability.  On that proof sit
`min_added` (the least budget that reaches a goal) and `verify_hard`
(the certificate that no budget up to k_max does).

Expansion is serial and in frontier order: each parent's children are
merged, in enumeration order, before the next parent is expanded, so the
discovery order - and with it every reported number - is the same on
every run.  A wall-clock cap is checked between parents; the states
merged before it fired are kept and reported, and the result is flagged
inconclusive rather than trusted.
"""

from __future__ import annotations

from time import monotonic
from typing import NamedTuple, Optional

from .canon import canonical_code, state_digest
from .invariants import is_split_diagram
from .maps import PLANE, ROOT, Diagram, DiagramError
from .moves import (
    CROSSING_DELTA,
    MoveSequence,
    MoveSite,
    apply_move,
    enumerate_moves,
)

__all__ = [
    "Goal",
    "Limits",
    "SearchResult",
    "MinAdded",
    "HardnessCertificate",
    "bfs_reachable",
    "closure_digests",
    "min_added",
    "verify_hard",
]


def _digest(d):
    return state_digest(canonical_code(d))


class Goal(NamedTuple):
    """A decidable target condition on diagrams.

    kinds: "unknot" (no crossings left), "split" (shadow falls apart),
    "split-partition" (falls apart the requested way), "target" (a
    specific diagram up to the ambient equality).
    """

    kind: str
    payload: object = None

    @classmethod
    def zero_crossing(cls):
        return cls("unknot")

    @classmethod
    def split_any(cls):
        return cls("split")

    @classmethod
    def split_partition(cls, partition):
        return cls("split-partition", partition)

    @classmethod
    def target(cls, d):
        """Reach a given diagram; mode of `d` decides the equality used."""
        return cls("target", _digest(d) if isinstance(d, Diagram) else bytes(d))

    def met(self, d) -> bool:
        if self.kind == "unknot":
            return d.ncross == 0
        if self.kind == "split":
            return is_split_diagram(d)
        if self.kind == "split-partition":
            return is_split_diagram(d, self.payload)
        if self.kind == "target":
            return _digest(d) == self.payload
        raise ValueError("unknown goal kind %r" % (self.kind,))

    def describe(self) -> str:
        if self.kind == "split-partition":
            p = self.payload
            if len(p) == 2 and all(isinstance(s, (set, frozenset, tuple, list)) for s in p):
                return "split-partition=%s|%s" % tuple(
                    ",".join(sorted(side)) for side in p
                )
            return "split-partition=%s" % ",".join(sorted(p))
        if self.kind == "target":
            return "target=%s" % self.payload.hex()
        return self.kind


class Limits(NamedTuple):
    """Caps making every search call terminate; defaults suit batch runs."""

    max_states: int = 10_000_000
    max_seconds: float = 600.0


class SearchResult(NamedTuple):
    reached: bool
    witness: Optional[MoveSequence]
    states_explored: int
    max_crossings_seen: int
    min_crossings_seen: int
    frontier_exhausted: bool
    budget: int


class MinAdded(NamedTuple):
    """Outcome of iterative deepening over budgets 0..k_max.

    `added` is the first reaching budget (None if none did); it is the
    exact minimum only when `conclusive`, i.e. when every smaller budget
    exhausted its closure instead of hitting a cap.
    """

    added: Optional[int]
    conclusive: bool
    witness: Optional[MoveSequence]
    runs: tuple


class HardnessCertificate(NamedTuple):
    verdict: str  # "hard" | "not-hard" | "inconclusive"
    added: Optional[int]
    kmax: int
    outcome: MinAdded
    report: str


def _expand_one(d, cap):
    """Children of one state: (root region or None, site, child, digest).

    On the sphere a state is expanded from every re-rooting, since some
    sites only exist when the right region is outermost.
    """
    if d.mode == PLANE:
        reps = [(None, d)]
    else:
        reps = [(r, d.rerooted(r)) for r in d.region_keys]
    out = []
    for rkey, rep in reps:
        for site in enumerate_moves(rep):
            if rep.ncross + CROSSING_DELTA[site.kind] > cap:
                continue
            child = apply_move(rep, site)
            out.append((rkey, site, child, _digest(child)))
    return out


def _witness(d0, steplog, idx):
    chain = []
    while idx != 0:
        parent, rkey, site = steplog[idx]
        chain.append((rkey, site))
        idx = parent
    chain.reverse()
    steps = []
    d = d0
    for rkey, site in chain:
        if rkey is not None and rkey != ROOT:
            hop = MoveSite("ROOT", (rkey,))
            steps.append(hop)
            d = apply_move(d, hop)
        steps.append(site)
        d = apply_move(d, site)
    return MoveSequence(d0, tuple(steps))


def bfs_reachable(d0, goal, budget, limits=None, floor=None) -> SearchResult:
    """Explore the budgeted move closure of d0; decide whether goal is in it.

    Explores exactly the states reachable while keeping crossings at most
    cr(d0) + budget.  `frontier_exhausted` reports that the whole closure
    was enumerated - the certificate side of a "not reached" verdict; a
    capped run leaves it false and proves nothing.  With `floor` set, a
    DiagramError flags any explored state below that crossing count
    (used for floors that are theorems, where a hit means an engine bug).
    """
    if not isinstance(goal, Goal):
        raise TypeError("goal must be a Goal")
    return _run(d0, goal, budget, limits, floor, None)


def closure_digests(d0, budget, limits=None):
    """The budgeted closure itself: (frozenset of state digests, exhausted).

    Diagnostic twin of `bfs_reachable` sharing the same walk; oracle
    tests compare the set against independent enumeration.
    """
    sink = []
    res = _run(d0, None, budget, limits, None, sink)
    return frozenset(sink), res.frontier_exhausted


def _run(d0, goal, budget, limits, floor, sink) -> SearchResult:
    if budget < 0:
        raise ValueError("budget must be >= 0")
    lim = limits if limits is not None else Limits()
    cap = d0.ncross + budget
    deadline = monotonic() + lim.max_seconds

    def check_floor(d):
        if floor is not None and d.ncross < floor:
            raise DiagramError(
                "state with %d crossings violates the %d-crossing floor"
                % (d.ncross, floor)
            )

    check_floor(d0)
    seen = {_digest(d0): 0}
    steplog = [None]
    if sink is not None:
        sink.extend(seen)
    maxcr = mincr = d0.ncross
    if goal is not None and goal.met(d0):
        return SearchResult(True, MoveSequence(d0, ()), 1, maxcr, mincr, False, budget)

    frontier = [(0, d0)]
    goal_idx = None
    truncated = False
    while frontier and goal_idx is None and not truncated:
        nxt = []
        for idx, d in frontier:
            if monotonic() > deadline:
                truncated = True
                break
            for rkey, site, child, digest in _expand_one(d, cap):
                if digest in seen:
                    continue
                if len(seen) >= lim.max_states:
                    truncated = True
                    break
                check_floor(child)
                seen[digest] = len(steplog)
                steplog.append((idx, rkey, site))
                if sink is not None:
                    sink.append(digest)
                maxcr = max(maxcr, child.ncross)
                mincr = min(mincr, child.ncross)
                if goal is not None and goal.met(child):
                    goal_idx = seen[digest]
                    break
                nxt.append((seen[digest], child))
            if goal_idx is not None or truncated:
                break
        frontier = nxt

    if goal_idx is not None:
        w = _witness(d0, steplog, goal_idx)
        return SearchResult(
            True, w, len(seen), maxcr, mincr, False, budget
        )
    return SearchResult(
        False, None, len(seen), maxcr, mincr, not truncated, budget
    )


def min_added(d0, goal, k_max, limits=None, floor=None) -> MinAdded:
    """Iterative deepening: least budget in 0..k_max reaching the goal.

    Monotone by construction (a budget-k closure sits inside budget-k+1),
    so the first reaching budget is the minimum when all earlier runs
    exhausted.  An unreached verdict with every run exhausted certifies
    the goal needs more than k_max added crossings.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    runs = []
    clean = True
    for k in range(k_max + 1):
        res = bfs_reachable(d0, goal, k, limits, floor)
        runs.append(res)
        if res.reached:
            return MinAdded(k, clean, res.witness, tuple(runs))
        clean = clean and res.frontier_exhausted
    return MinAdded(None, clean, None, tuple(runs))


def verify_hard(d0, goal, k_max, limits=None, floor=None) -> HardnessCertificate:
    """Certificate that reaching the goal needs more than k_max added
    crossings - or the refutation, or an honest "inconclusive"."""
    out = min_added(d0, goal, k_max, limits, floor)
    if out.added == 0:
        verdict = "not-hard"
    elif out.conclusive:
        verdict = "hard"
    else:
        verdict = "inconclusive"

    lines = [
        "hardness certificate",
        "start: mode=%s crossings=%d components=%d"
        % (d0.mode, d0.ncross, len(d0.labels) + len(d0.loops)),
        "goal: %s" % goal.describe(),
        "kmax: %d" % k_max,
    ]
    for res in out.runs:
        bits = (
            "budget=%d reached=%s states=%d max-crossings=%d min-crossings=%d"
            " exhausted=%s"
            % (
                res.budget,
                "yes" if res.reached else "no",
                res.states_explored,
                res.max_crossings_seen,
                res.min_crossings_seen,
                "yes" if res.frontier_exhausted else "no",
            )
        )
        if res.reached:
            bits += " witness-moves=%d" % len(res.witness.steps)
        lines.append(bits)
    if verdict == "hard":
        if out.added is None:
            lines.append("verdict: hard (added > %d)" % k_max)
        else:
            lines.append("verdict: hard (added = %d)" % out.added)
    elif verdict == "not-hard":
        lines.append("verdict: not-hard (added = 0)")
    elif out.added is not None:
        lines.append(
            "verdict: inconclusive (reached at budget %d, smaller budgets capped)"
            % out.added
        )
    else:
        lines.append("verdict: inconclusive (limits hit)")
    return HardnessCertificate(verdict, out.added, k_max, out, "\n".join(lines) + "\n")
