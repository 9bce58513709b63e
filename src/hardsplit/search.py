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

The crossing cap is applied where sites are enumerated
(`enumerate_moves(d, cap)`): a move that would exceed it is never
listed.  Each state waiting to be expanded also carries a tuple of
sites that its expansion never builds, because their children are
already in the dedup table and could only be thrown away.  The tuple
starts with the site that undoes the move that first reached the state
(`moves.inverse_site`), whose child is the BFS parent.  When a state
with one island and no loops is met again, as a duplicate, before it is
expanded, the site that undoes that move as well is carried into the
waiting state's numbering and added to its tuple (`_carried` composes
the map; the argument is in `_expand_one`).  So each edge of the move
graph between such states whose move has a tracked inverse is built
from one end only.
These are the "used operator" bits of frontier search (Korf, Zhang,
Thayer and Hohwald, J. ACM 52(5), 2005).

On the sphere a state with one island and no loops is enumerated in its
own rooting only: there every RII+ poke of a later rooting builds the
same state as a site of the own rooting (the argument is in
`_expand_one`).  Any other sphere state is enumerated in every
re-rooting, because loop curls and RII+ pokes depend on which region is
outer.  Every other site is `moves.rooting_free`: all rootings list it,
in the same order, and it builds the same sphere diagram in each, so it
is built in the state's own rooting only (`region_keys[0]` is `ROOT`,
which re-roots to the state itself).  In a
later rooting its child is already in the dedup table, so skipping it
changes no discovery.  A skipped site names a face key of theta as well,
and is skipped in every rooting.

A state with one island and no loops also builds one child per orbit
of its symmetries.  `canon.canonical_code` records on it the walk
orders that achieve its code, and its expansion composes the first with
each other one into its automorphisms; a site that one of them maps
onto a site already built from the state is skipped, since its child is
that site's child renumbered.  Expansion copies the state's skip tuple
into a set and adds those images to it, so one set holds both kinds of
site whose child is known.  The waiting tuple stays small: on CPython
3.11 one of one site takes 48 bytes, and even an empty set 216.
`_carried` is the one composition of walk orders, for both the
automorphisms and the carry map of a duplicate, and only a state that
is expanded or met again pays for it.
This is the orderly-generation rule of McKay ("Isomorph-free exhaustive
generation", J. Algorithms 26, 1998), with the automorphisms read off
the plantri-style walk kernel.  Only a later twin of a child already
built from the same parent is skipped.  Every other site enumerated is
built.

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
from .invariants import is_split_diagram, partition_sides
from .maps import PLANE, ROOT, DiagramError
from .moves import (
    MoveSequence,
    MoveSite,
    apply_move,
    enumerate_moves,
    inverse_site,
    rooting_free,
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
    specific diagram up to the ambient equality; the payload is its mode
    and digest, and only a search in that mode may look for it).
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
        return cls("target", (d.mode, _digest(d)))

    def met(self, d, digest=None) -> bool:
        "Whether `d` meets the goal; a target compares `digest`, d's if given."
        if self.kind == "unknot":
            return d.ncross == 0
        if self.kind == "split":
            return is_split_diagram(d)
        if self.kind == "split-partition":
            return is_split_diagram(d, self.payload)
        if self.kind == "target":
            return (_digest(d) if digest is None else digest) == self.payload[1]
        raise ValueError("unknown goal kind %r" % (self.kind,))

    def describe(self) -> str:
        if self.kind == "split-partition":
            sides = partition_sides(self.payload)
            return "split-partition=" + "|".join(",".join(sorted(map(str, s))) for s in sides)
        if self.kind == "target":
            return "target=%s" % self.payload[1].hex()
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
    outcome: MinAdded
    report: str


def _expand_one(d, cap, skips):
    """Children of one state, one at a time: (root region or None, the
    rooted representative the site was enumerated on, site, child,
    digest).

    The crossing cap is applied at enumeration, so no site over the cap
    is built.  `skips`, a tuple, holds sites whose children are already
    in the dedup table; they are never built, in any rooting.  On the
    sphere a state with more than one island or a loop is enumerated in
    every re-rooting, since some sites only exist when the right region
    is outermost; a rooting-free site is built in the first rooting, the
    state itself, and skipped in the later ones, whose copy of it would
    rebuild the same child.  A state with one island and no loops adds
    the twins of each site it builds to a set copied from `skips`
    (below), and skips what that set holds.  Every other site enumerated
    is built.  A generator, so a parent's children are built only as
    they are merged and a cap that fires mid-parent stops the building.

    A sphere state with one island and no loops - the condition under
    which `canon.canonical_code` codes it without its hosts - is
    enumerated in its own rooting only (`ROOT`, which re-roots to the
    state itself, so each parent-table entry still names `ROOT`).  Its
    later rootings add no child:

    - The pokes below add crossings to the one island, so their
      children again have one island and no loops, and two such
      children with equal theta, `over` and labels get equal digests:
      their code ignores hosts (up marker 0).
    - Every RII+ element is a dart and the capture pool is empty.
      `rii_add`'s theta for two darts depends only on (a, b, over),
      never on the region key, and the own rooting lists the same poke.
    - There are no loop curls, the sphere lists no wrap curl, and the
      other sites are rooting-free.

    So each later-rooting child is already in the dedup table when it is
    reached, or it is a skipped one, and no discovery changes.

    Why a skipped site's child is in the table:

    - The first skip is `moves.inverse_site` of the move that reached the
      state; it rebuilds the BFS parent.
    - The others are carried from duplicates.  A site s of a state u (on
      its representative `rep`) builds a child v' whose digest is that of
      a state v still waiting.  When v has one island and no loops, so
      does v', and `canon.canonical_code` has recorded on each the walk
      orders that achieve their common code.  Composed (`_carried`), the
      two first orders give an isomorphism v' -> v.  It keeps theta, since
      equal walk codes describe the same rooted map.  It keeps the
      decorations and labels, which the walk code spells out.  In the
      plane it keeps the up face, since both numberings give the
      smallest up marker, so the dart with that number lies on the up
      face of each.
    - `inverse_site(rep, s, v')` names a site of v' that rebuilds u.  Its
      image under the isomorphism (`_image`) is a site of v with the
      same legality, and it builds a diagram isomorphic to that child,
      one with u's digest.  On the sphere the site is rooting-free, so
      the rooting v is expanded in does not matter.  u is in the table,
      so no discovery changes and the ordered parent table is the one a
      search that builds every site would make.
    - A state with more than one island or with a loop records no
      numberings, and keeps the parent's site alone.

    Why a twin's child needs no building: a state d with one island and
    no loops records the walk orders that achieve its code
    (`Diagram.numberings`), and `_carried` composes the first with each
    other one into a map sigma.  It keeps theta and the rotation, since
    equal walk codes describe the same rooted map, and keeps decorations
    and labels, which the code spells out.  In the plane both orders give
    the smallest up marker, so sigma also keeps the up face.  So sigma is a symmetry of
    the diagram, and `_image` carries each site s to a site sigma(s) of
    the same legality: a dart curl to the curl on sigma's dart with the
    same `over`, a face key to the key of the image face, an RII+ poke
    to the poke on both image darts, in the region of their face.
    apply_move(d, sigma(s)) is apply_move(d, s) renumbered (on the
    sphere, perhaps rooted in another region), and gets its digest.
    The search builds the first site of each orbit that it builds at
    all; a later site of the orbit rebuilds a child already merged from
    this parent, so no discovery changes.
    """
    if d.mode == PLANE:
        reps = [(None, d)]
    else:
        roots = (ROOT,) if len(d.islands) == 1 and not d.loops else d.region_keys
        reps = ((r, d.rerooted(r)) for r in roots)
    nums = d.numberings or ()
    autos = [_carried(nums[0], other) for other in nums[1:]]
    # the state's skips, then the images of each site built under every
    # automorphism
    skip = set(skips)
    for rkey, rep in reps:
        later = rep is not d
        for site in enumerate_moves(rep, cap):
            if site in skip or (later and rooting_free(site)):
                continue
            child = apply_move(rep, site)
            for sigma in autos:
                skip.add(_image(site, sigma, d))
            yield rkey, rep, site, child, _digest(child)


def _image(site, sigma, d):
    """The site of `d` that an isomorphism onto `d` carries `site` to;
    `sigma[x]` is the image of dart x.

    Only the sites of a diagram with one island and no loops are mapped:
    dart curls keep `over`, RII+ pokes keep the order of their two darts
    and `over` and get the region of the image face, and a face key goes
    to the key of the image face.
    """
    kind, spot = site
    if kind == "RI+":
        how, x, ov = spot
        return MoveSite(kind, (how, sigma[x], ov))
    if kind == "RII+":
        _region, (_ka, a), (_kb, b), ov, cap = spot
        a, b = sigma[a], sigma[b]
        return MoveSite(kind, (d.region_of_face(a), ("d", a), ("d", b), ov, cap))
    (f,) = spot
    return MoveSite(kind, (d.face_of[sigma[f]],))


def _carried(src, dst):
    """The isomorphism two walk orders that achieve one code compose to
    (`Diagram.numberings`): the dart `src` lists at each walk number goes
    to the dart `dst` lists at that number."""
    sigma = [0] * len(src)
    for x, y in zip(src, dst):
        sigma[x] = y
    return sigma


def _witness(d0, parent, digest):
    """The moves from d0 to the state `digest` along the parent table, a
    site enumerated on a later rooting preceded by its ROOT hop.

    Nothing is replayed here (`moves.replay` does that): each site was
    enumerated on the very diagram this chain rebuilds, and surgeries are
    deterministic.
    """
    steps = []
    step = parent[digest]
    while step is not None:
        digest, rkey, site = step
        steps.append(site)
        if rkey is not None and rkey != ROOT:
            steps.append(MoveSite("ROOT", (rkey,)))
        step = parent[digest]
    steps.reverse()
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
    return _run(d0, goal, budget, limits, floor)[0]


def closure_digests(d0, budget, limits=None):
    """The budgeted closure itself: (frozenset of state digests, exhausted).

    Diagnostic twin of `bfs_reachable` sharing the same walk; oracle
    tests compare the set against independent enumeration.
    """
    res, parent = _run(d0, None, budget, limits, None)
    return frozenset(parent), res.frontier_exhausted


def _run(d0, goal, budget, limits, floor):
    # returns (SearchResult, parent); parent, the dedup table and witness
    # trail at once, maps each state's digest to how it was first reached,
    # (parent digest, root region or None, site), or to None at the start
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if goal is not None and goal.kind == "target" and goal.payload[0] != d0.mode:
        raise ValueError(
            "a %s target is never met by a %s search" % (goal.payload[0], d0.mode)
        )
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
    start = _digest(d0)
    parent = {start: None}
    maxcr = mincr = d0.ncross
    found = start if goal is not None and goal.met(d0, start) else None
    # the states not yet expanded, by digest: (diagram, tuple of sites to
    # skip), in discovery order; once a level is expanded it holds the
    # next level
    waiting = {start: (d0, ())}
    truncated = False
    while waiting and found is None and not truncated:
        for pdigest in list(waiting):
            if monotonic() > deadline:
                truncated = True
                break
            d, skips = waiting.pop(pdigest)
            for rkey, rep, site, child, digest in _expand_one(d, cap, skips):
                if digest in parent:
                    entry = waiting.get(digest)
                    if entry is not None and child.numberings is not None:
                        inv = inverse_site(rep, site, child)
                        if inv is not None:
                            w, wskips = entry
                            sigma = _carried(child.numberings[0], w.numberings[0])
                            img = _image(inv, sigma, w)
                            # two moves into w can carry one site; a
                            # reassigned key keeps its place in `waiting`
                            if img not in wskips:
                                waiting[digest] = (w, wskips + (img,))
                    continue
                if len(parent) >= lim.max_states:
                    truncated = True
                    break
                check_floor(child)
                parent[digest] = (pdigest, rkey, site)
                maxcr = max(maxcr, child.ncross)
                mincr = min(mincr, child.ncross)
                if goal is not None and goal.met(child, digest):
                    found = digest
                    break
                inv = inverse_site(rep, site, child)
                waiting[digest] = (child, () if inv is None else (inv,))
            if found is not None or truncated:
                break

    if found is not None:
        w = _witness(d0, parent, found)
        res = SearchResult(True, w, len(parent), maxcr, mincr, False, budget)
    else:
        res = SearchResult(False, None, len(parent), maxcr, mincr, not truncated, budget)
    return res, parent


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
    return HardnessCertificate(verdict, out, "\n".join(lines) + "\n")
