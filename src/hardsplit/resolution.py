"""Trace replay and resolution graphs for a curve swept over a tangle.

A trace is a marked overlay -- one diagram containing a closed shadow
curve labelled ``U`` together with a decorated background tangle --
followed by a move script.  Each event is tagged by whose strands its
site touches, read off the site's face: ``C`` events move the curve
across itself, ``M`` events move the background only, and ``X`` events
slide the curve over background strands.  Replaying the events yields
the layer states; smoothing every curve self-crossing in each of its two
planar ways and keeping the connected outcomes gives the resolution
vertices, each one the tuple of its ``(crossing, mask)`` smoothings.
Consecutive layers are joined by the local moves M1, M2a, M3a, M3b at
the event site, and M2b pairs rival smoothings inside a layer next to
an R2 event.  A walk through that graph trades the
self-touching sweep for a motion of simple curves whose crossing
count against the background never exceeds the trace's own peak.

Every event's site is read once, at parse, by `_apply_event`: the face
the event acts on and the face it leaves, the latter named by
`moves.inverse_face` from the surgeries' dart numbering, which only
`moves` knows; both are kept on the `TraceEvent`.  A slide's legs are
carried across it by `moves.slide_legs`, the one other reader of that
numbering.  The tag is read off the strands of those faces, the
crossing names drop the crossings they lose, and the graph reads the
crossings they hold.

Each crossing has one name for the whole trace (`Trace.names`): the
start's crossings are 0..n-1, each appended crossing takes a fresh name,
a removal drops the names of its crossings and a slide keeps them.
The edges of a petal or bigon are the strands that cross at its
corners, so only a curve event removes curve self-crossings, and a
smoothing off a curve event's site has one name on both sides of it.
Each layer gap is read once, by `_transition_edges`: its curve event is
`Trace.c_events[j]`, since every gap holds exactly one, and `_bucket`
keys the vertices on both sides by the names of their off-site
smoothings.  Both sides of the event disk are matched by
`_site_matchings`, one dict per side for a slide, whose new legs are
renamed by `moves.slide_legs`, and one dict for both sides of an
insertion or removal, whose crossing-free side reads the
through-passage.

Edge existence is decided by tracing the smoothed strands through the
event site and comparing the induced boundary matchings; no case tables
are consulted.  The classical corner-parity rule is still evaluated, but
only to name each edge and to cross-check the traced matchings.
`_leg_matching` is the one tracer of smoothed strands: it also counts
the circles a smoothing leaves, which decides the resolutions of each
layer.
"""

import re
from collections import deque
from itertools import combinations, count, islice, product
from typing import NamedTuple

from . import moves, pdio, surgery
from .maps import Diagram, DiagramError, MoveError, _in_range

__all__ = [
    "TraceError",
    "ResolutionError",
    "ShadowOverlay",
    "TraceEvent",
    "Trace",
    "parse_trace",
    "GraphEdge",
    "ResolutionGraph",
    "enumerate_resolutions",
    "build_resolution_graph",
    "IsotopyPath",
    "find_isotopy_path",
    "VerifyResult",
    "verify_isotopy",
]


class TraceError(Exception):
    "Malformed trace text, or an event its own diagram cannot absorb."


class ResolutionError(Exception):
    "A structural invariant of the resolution calculus failed to hold."


# -- overlays --------------------------------------------------------

U_LABEL = "U"


class ShadowOverlay:
    """One diagram holding the sweep curve (labelled ``U``) and the tangle.

    The curve is a closed shadow: it has no over/under against itself or
    against tangle strands.  Tangle self-crossings keep their real
    decorations.  The discrete length of the curve is `mixed`, its
    number of crossings with the tangle.
    """

    __slots__ = ("diagram", "u_self_ids", "mixed", "m_self", "u_darts")

    def __init__(self, diagram):
        stranded = [i for i, lab in enumerate(diagram.labels) if lab == U_LABEL]
        looped = [i for i, lp in enumerate(diagram.loops) if lp.label == U_LABEL]
        if len(stranded) + len(looped) != 1:
            raise TraceError(
                "the overlay needs exactly one component labelled %r, found %d"
                % (U_LABEL, len(stranded) + len(looped))
            )
        uu = []
        um = mm = 0
        over = list(diagram.over)
        for c in range(diagram.ncross):
            la, lb = diagram.strandpair_labels(c)
            k = (la == U_LABEL) + (lb == U_LABEL)
            if k:
                # the sweep curve has no over/under, so every crossing it
                # passes keeps height bit 0; this makes replayed states
                # canonical no matter what the event scripts spelled
                over[c] = 0
            if k == 2:
                uu.append(c)
            elif k == 1:
                um += 1
            else:
                mm += 1
        if tuple(over) != diagram.over:
            loops = [(lp.label, lp.host) for lp in diagram.loops]
            diagram = Diagram(
                diagram.mode, diagram.theta, over, diagram.labels, loops, diagram.hosts
            )
        self.diagram = diagram
        self.u_self_ids = tuple(uu)
        self.mixed = um
        self.m_self = mm
        if stranded:
            comp = stranded[0]
            self.u_darts = tuple(
                x for x in diagram.darts() if diagram.comp_of[x] == comp
            )
        else:
            self.u_darts = ()


# -- trace text ------------------------------------------------------
#
#   OVERLAY X c0 E0 E1 E2 E3; C U E0 E1 E2 E3; F E0:E3
#   RI+ dart=0 side=R over=1       # a C event: its face has only U strands
#   RII- face=5                    # an M event: its face has no U strand
#   RIII face=2                    # an X event: the curve meets the tangle
#
# A trace is an OVERLAY line and then a move script.  The OVERLAY payload
# is the PD text of `pdio` with ";" standing in for line breaks; exactly
# one component must be labelled U.  The script lines are those of
# `moves` (as `moves.format_move` prints them), each seeing the
# numbering of the diagram produced by the lines before it, and "#"
# starts a comment.  A trace lives in the plane, so a ROOT line is
# refused.  No line states whose strands it moves: `parse_trace` reads
# each event's tag off the face its site acts on or leaves.  The curve
# has no heights, so an over= at a curve crossing is read and dropped.


class TraceEvent(NamedTuple):
    tag: str  # C, M or X, read off the strands of the face in `before` or `after`
    site: moves.MoveSite
    text: str  # the move line, kept verbatim for replay reports
    before: tuple  # darts of the face it acts on, on the state before it
    after: tuple  # darts of the face it leaves, on the state after it


class Trace:
    """A parsed and fully replayed event trace.

    ``states[i]`` is the overlay after the first ``i`` events.  Layer
    times are derived: the first layer is the start, each further layer
    sits immediately after one curve-only event, and the last layer is
    the end of the trace.  ``names[i][c]`` is the name crossing ``c`` of
    ``states[i]`` keeps for the whole trace.  Everything here is
    immutable after parse, so distinct traces can be processed
    concurrently.
    """

    __slots__ = ("events", "states", "names", "c_events", "layer_pos")

    def __init__(self, events, states, names):
        self.events = tuple(events)
        self.states = tuple(states)
        self.names = tuple(names)
        cs = tuple(i for i, ev in enumerate(self.events) if ev.tag == "C")
        self.c_events = cs
        if cs:
            self.layer_pos = (
                (0,)
                + tuple(cs[j - 1] + 1 for j in range(1, len(cs)))
                + (len(self.events),)
            )
        else:
            self.layer_pos = (len(self.events),)

    @property
    def nlayers(self):
        return len(self.layer_pos)

    def layer_state(self, j) -> ShadowOverlay:
        return self.states[self.layer_pos[j]]


_SWEPT_SIZE = {"RI-": 1, "RII-": 2, "RIII": 3}


def _crossings(face):
    return tuple(sorted({x >> 2 for x in face}))


def _tag(labels):
    "C when every strand at an event's face is the curve, M when none is, X otherwise."
    if U_LABEL not in labels:
        return "M"
    return "C" if all(lab == U_LABEL for lab in labels) else "X"


def _apply_event(d, site):
    """The state after `site` on `d`, the event's tag, and the darts of the
    face the event acts on and of the face it leaves; () on the
    crossing-free side of an insertion or removal.

    A removal or slide names its face on `d`; the face an insertion or
    slide leaves on the new state is named by `moves.inverse_face`, which
    owns the surgeries' dart numbering.  A curl is read by one petal on
    either side: the one an RI- names, or the one an RI+ makes.  The
    site crossings are those of the two faces, so the crossings an event
    removes are the first face's less the second's, and the tag is read
    off the strands of the first face, or of the second when there is no
    first.
    """
    kind, spot = site
    before = after = ()
    if kind in _SWEPT_SIZE:
        before = surgery.site_face(d, spot[0], _SWEPT_SIZE[kind])
    if kind in ("RII-", "RIII") and U_LABEL in map(d.label_of_dart, before):
        # the curve's crossings carry no heights, so neither the clasp veto
        # of RII- nor the height-order veto of RIII applies at its faces
        new = (surgery.rii_remove if kind == "RII-" else surgery.riii)(d, spot[0])
    else:
        new = moves.apply_move(d, site)
    f = moves.inverse_face(d, site, new)
    if f is not None:
        after = new.face_darts(new.face_of[f])
    holder, face = (d, before) if before else (new, after)
    return new, _tag(tuple(map(holder.label_of_dart, face))), before, after


def parse_trace(text) -> Trace:
    """Parse trace text and eagerly replay every event.

    Raises TraceError for grammar problems and for events the diagram at
    that point cannot absorb; the message carries the line number.
    Event tags, and so the layer times, are read off the replayed sites,
    never from the text, so they cannot be inconsistent.
    """
    overlay = None
    events, states, names = [], [], []
    fresh = count()
    for ln, line in pdio.text_lines(text):
        head, _, rest = line.partition(" ")
        if overlay is None:
            if head != "OVERLAY":
                raise TraceError("line %d: trace must open with an OVERLAY line" % ln)
            try:
                overlay = ShadowOverlay(pdio.parse_pd(rest.replace(";", "\n")))
            except (DiagramError, TraceError) as e:
                # parse_pd numbers the overlay's ";"-records as lines
                why = re.sub(r"^line (\d+):", r"overlay record \1:", str(e))
                raise TraceError("line %d: %s" % (ln, why)) from e
            states.append(overlay)
            names.append(tuple(islice(fresh, overlay.diagram.ncross)))
            continue
        if head == "OVERLAY":
            raise TraceError("line %d: a trace has one OVERLAY line" % ln)
        d = states[-1].diagram
        try:
            site = moves.parse_move(d, line)
            new, tag, before, after = _apply_event(d, site)
            state = ShadowOverlay(new)
        except (MoveError, DiagramError, TraceError) as e:
            raise TraceError("line %d: %s" % (ln, e)) from e
        removed = set(_crossings(before)) - set(_crossings(after))
        kept = tuple(name for c, name in enumerate(names[-1]) if c not in removed)
        names.append(kept + tuple(islice(fresh, new.ncross - len(kept))))
        events.append(TraceEvent(tag, site, line, before, after))
        states.append(state)
    if overlay is None:
        raise TraceError("empty trace: an OVERLAY line is required")
    return Trace(events, states, names)


# -- resolutions -----------------------------------------------------
#
# A self-crossing of the curve is smoothed by pairing its four ports
# either as {0,1}{2,3} (port ^ 1) or as {1,2}{3,0} (port ^ 3); ^ 2 is
# the untouched through-passage.  A smoothing assignment resolves the
# curve into disjoint circles; the resolutions are the assignments that
# leave a single circle.  A resolution is its assignment, the tuple
# ((crossing, mask), ...) sorted by crossing; the graph refers to it by
# (layer, index).


def _resolved_components(overlay, masks):
    """Circles left by smoothing; `masks` maps curve self-crossings to 1
    or 3.

    They are the closed strands `_leg_matching` traces over every
    crossing the curve touches: the curve's darts are interior, and at a
    crossing with the tangle the curve passes straight (mask 2), so the
    tangle's ends there are legs and no circle reaches them.
    """
    darts = overlay.u_darts
    if not darts:
        return 1  # a bare loop
    site = {x >> 2 for x in darts}
    full = dict.fromkeys(site, 2)
    full.update(masks)
    return _leg_matching(overlay.diagram, site, full, set(darts))[1]


def enumerate_resolutions(overlay: ShadowOverlay):
    """All connected smoothings of the curve, sorted by assignment.

    Each result is a ((crossing, mask), ...) tuple over the curve's
    self-crossings; the smoothed curve is a single simple circle whose
    length still equals the overlay's curve-tangle crossing count.
    """
    ids = overlay.u_self_ids
    out = []
    for picks in product((1, 3), repeat=len(ids)):
        if _resolved_components(overlay, dict(zip(ids, picks))) == 1:
            out.append(tuple(zip(ids, picks)))
    return tuple(out)


# -- site matchings --------------------------------------------------


def _leg_matching(d, site, masks, internal):
    """Boundary trace of a smoothed site: an event disk, or every
    crossing the curve touches (`_resolved_components`).

    `site` is the set of crossings inside the disk, `internal` the darts
    of edges interior to it, and `masks` the port pairing at each
    site crossing (1 or 3 a smoothing, 2 passes through).  The remaining
    ports are legs.  Returns (pairing, cycles): which legs the smoothed
    strands connect to each other, and how many closed strands never
    reach a leg.  Two site assignments produce the same curve exactly
    when these agree — legs compared across a move must first be carried
    to a common naming.
    """
    theta = d.theta
    ports = [x for c in sorted(site) for x in range(4 * c, 4 * c + 4)]
    legs = set(p for p in ports if p not in internal)
    seen = set()
    pairs = []
    for p in ports:
        if p in seen or p not in legs:
            continue
        seen.add(p)
        x = p
        while True:
            z = x ^ masks[x >> 2]
            seen.add(z)
            if z in legs:
                break
            x = theta[z]
            seen.add(x)
        pairs.append(frozenset((p, z)))
    cycles = 0
    for p in ports:
        if p in seen:
            continue
        cycles += 1
        x = p
        while x not in seen:
            seen.add(x)
            z = x ^ masks[x >> 2]
            seen.add(z)
            x = theta[z]
    return frozenset(pairs), cycles


def _face_internal_darts(d, orb):
    "Darts of the edges carrying a face orbit (the site's interior edges)."
    darts = set()
    for x in orb:
        darts.add(x)
        darts.add(d.theta[x])
    return darts


def _site_matchings(d, face, back=None):
    """Leg matching of the event disk inside `face` on `d`, keyed by the
    masks of the disk's crossings in crossing order: every smoothing,
    and () for the plain through-passage.

    `back`, for the slid side of a triangle, renames each leg to the one
    of the old triangle on the same strand germ (`moves.slide_legs`), so
    both sides of the slide speak one naming.  Without it the legs keep
    their darts, which inserting or removing the disk's crossings does
    not move, so one dict serves both sides of an insertion or removal:
    the crossing-free side reads its () entry.
    """
    cs = _crossings(face)
    internal = _face_internal_darts(d, face)
    if back is not None:
        ports = {x for c in cs for x in range(4 * c, 4 * c + 4)}
        if internal != ports - set(back):
            raise ResolutionError("slid triangle legs do not line up")
    out = {}
    for picks in [()] + list(product((1, 3), repeat=len(cs))):
        masks = dict(zip(cs, picks)) if picks else dict.fromkeys(cs, 2)
        pairs, cycles = _leg_matching(d, cs, masks, internal)
        if back is not None:
            pairs = frozenset(frozenset(back[q] for q in pr) for pr in pairs)
        out[picks] = (pairs, cycles)
    return out


def _corner_masks(orb):
    # a face-orbit dart at slot s spans the corner ports {s-1, s}; the
    # smoothing that rounds that corner is ^1 when s is odd, ^3 when s
    # is even.  Used only to name edges and audit the traced matchings.
    return {x >> 2: (1 if x & 1 else 3) for x in orb}


# -- the graph -------------------------------------------------------


class GraphEdge(NamedTuple):
    move: str  # M1, M2a, M2b, M3a, or M3b
    a: tuple  # (layer, index), a < b
    b: tuple


class ResolutionGraph:
    """Resolutions per layer, joined by the local moves."""

    __slots__ = ("trace", "layers", "edges", "_adj")

    def __init__(self, trace, layers, edges):
        self.trace = trace
        self.layers = layers
        self.edges = edges
        adj = {}
        for i, e in enumerate(edges):
            adj.setdefault(e.a, []).append((e.b, i))
            adj.setdefault(e.b, []).append((e.a, i))
        self._adj = {v: tuple(nb) for v, nb in adj.items()}

    @property
    def nlayers(self):
        return len(self.layers)

    def vertex(self, ref):
        "The assignment at (layer, index) `ref`."
        return self.layers[ref[0]][ref[1]]

    def neighbors(self, ref):
        "((other, edge index), ...) in deterministic edge order."
        return self._adj.get(ref, ())

    def degree(self, ref):
        return len(self._adj.get(ref, ()))

    def degree_sequences(self):
        "Per layer, the sorted vertex degrees."
        return tuple(
            tuple(sorted(self.degree((j, i)) for i in range(len(layer))))
            for j, layer in enumerate(self.layers)
        )


def build_resolution_graph(trace: Trace) -> ResolutionGraph:
    """Vertices are the connected resolutions of each layer state; edges
    join smoothings that trace to the same curve across one curve event
    (M1/M2a/M3a/M3b) or at a rival bigon smoothing in place (M2b).

    Raises ResolutionError if the built graph breaks the parity rule:
    every vertex outside the first and last layers must have degree 2,
    4, or 6.
    """
    layers = tuple(
        enumerate_resolutions(trace.layer_state(j)) for j in range(trace.nlayers)
    )

    edges = []
    for j in range(trace.nlayers - 1):
        edges.extend(_transition_edges(trace, j, layers))
    edges.sort()
    graph = ResolutionGraph(trace, layers, tuple(edges))

    for lj in range(1, graph.nlayers - 1):
        for i in range(len(layers[lj])):
            k = graph.degree((lj, i))
            if k not in (2, 4, 6):
                raise ResolutionError(
                    "vertex %r in internal layer has degree %d" % ((lj, i), k)
                )
    return graph


def _transition_edges(trace, j, layers):
    g = trace.c_events[j]
    ev = trace.events[g]
    pre = trace.states[g].diagram  # at event time
    post = trace.states[g + 1].diagram
    before, after = ev.before, ev.after
    site_pre, site_post = _crossings(before), _crossings(after)

    if before and after:
        # the slide swaps each corner's triangle-side and outward ports;
        # the post legs are carried back through that
        back = moves.slide_legs(pre, _face_internal_darts(pre, before))
        pre_match = _site_matchings(pre, before)
        post_match = _site_matchings(post, after, back)
        move = None  # a slide's edges are named per corner pattern
    else:
        d, face = (pre, before) if before else (post, after)
        pre_match = post_match = _site_matchings(d, face)
        move = "M1" if len(site_pre or site_post) == 1 else "M2a"

    # vertices bucketed by the names of their off-site smoothings
    pre_buckets = _bucket(trace, layers, j, {trace.names[g][c] for c in site_pre})
    post_buckets = _bucket(trace, layers, j + 1, {trace.names[g + 1][c] for c in site_post})

    # site masks are spoken in layer ids but the matchings in event-time
    # ids; names rise with crossing ids, so sorted order lines up
    corners = _corner_masks(before or after)
    othru = tuple(corners[c] ^ 2 for c in sorted(corners))

    out = []
    for key, pres in pre_buckets.items():
        for (pi, pm), (qi, qm) in product(pres, post_buckets.get(key, ())):
            if pre_match[pm] != post_match[qm]:
                continue
            if move is None:
                name = _triangle_edge_name(pm, qm, othru)
            else:
                name = move
                _audit_r12(ev.site.kind, pm, qm, othru)
            out.append(GraphEdge(name, (j, pi), (j + 1, qi)))

    if move == "M2a":
        # rival smoothings of the bigon's layer; one dict holds both sides
        side, buckets = (j + 1, post_buckets) if after else (j, pre_buckets)
        turn = {
            (othru[0], othru[1] ^ 2),
            (othru[0] ^ 2, othru[1]),
        }
        for members in buckets.values():
            for (ai, am), (bi, bm) in combinations(members, 2):
                if pre_match[am] == pre_match[bm]:
                    if {am, bm} != turn:
                        raise ResolutionError(
                            "level bigon pair %r is not the turnback pair" % ({am, bm},)
                        )
                    x, y = sorted((ai, bi))
                    out.append(GraphEdge("M2b", (side, x), (side, y)))
    return out


def _audit_r12(kind, pm, qm, othru):
    # the crossing-free side matched, so the other side must sit at the
    # plain through-smoothing of every site corner
    got = qm if qm else pm
    if got != othru:
        raise ResolutionError(
            "%s matched the bare side at %r, expected the through pair %r"
            % (kind, got, othru)
        )


def _triangle_edge_name(pm, qm, othru):
    po = [i for i in range(3) if pm[i] == othru[i]]
    qo = [i for i in range(3) if qm[i] == othru[i]]
    if len(po) == 2 and len(qo) == 2 and po == qo:
        return "M3a"
    if (len(po), len(qo)) in ((1, 3), (3, 1)):
        return "M3b"
    raise ResolutionError(
        "triangle sides matched outside the move tables: %r -> %r" % (pm, qm)
    )


def _bucket(trace, layers, j, sites):
    """Layer j's vertices keyed by their off-site smoothings, each crossing
    by its name in `trace.names`, the site crossings being those named in
    `sites`; each entry is (index, site masks in crossing order)."""
    names = trace.names[trace.layer_pos[j]]
    out = {}
    for idx, asg in enumerate(layers[j]):
        off, on = [], []
        for c, m in asg:
            if names[c] in sites:
                on.append(m)
            else:
                off.append((names[c], m))
        out.setdefault(tuple(off), []).append((idx, tuple(on)))
    return out


# -- paths and certification -----------------------------------------


class IsotopyPath(NamedTuple):
    vertices: tuple  # (layer, index) refs, first in layer 0
    edges: tuple  # indices into graph.edges, one per hop


def _start(graph):
    "The start resolution (0, 0), checked to be the one a simple start gives."
    start_state = graph.trace.layer_state(0)
    if start_state.u_self_ids:
        raise TraceError(
            "the trace must start with a simple curve; the start has %d"
            " self-crossings" % len(start_state.u_self_ids)
        )
    if len(graph.layers[0]) != 1:
        raise ResolutionError(
            "simple start should give one resolution, got %d" % len(graph.layers[0])
        )
    start = (0, 0)
    if graph.nlayers > 1 and graph.degree(start) != 1:
        raise ResolutionError(
            "start resolution should have degree 1, has %d" % graph.degree(start)
        )
    return start


def find_isotopy_path(graph: ResolutionGraph) -> IsotopyPath:
    """Shortest walk from the start resolution to the last layer.

    The trace must open with a simple curve, so layer 0 holds exactly
    one vertex, of degree one toward the rest of the graph.  Existence
    of a path is the handshake argument over the parity rule; failing to
    find one means the engine itself is broken.
    """
    start = _start(graph)
    last = graph.nlayers - 1
    prev = {start: None}
    goal = start if start[0] == last else None
    queue = deque([start])
    while queue and goal is None:
        v = queue.popleft()
        for w, ei in graph.neighbors(v):
            if w in prev:
                continue
            prev[w] = (v, ei)
            if w[0] == last:
                goal = w
                break
            queue.append(w)
    if goal is None:
        raise ResolutionError("no route to the last layer; parity is broken")
    verts, hops = [goal], []
    while prev[verts[-1]] is not None:
        v, ei = prev[verts[-1]]
        verts.append(v)
        hops.append(ei)
    return IsotopyPath(tuple(reversed(verts)), tuple(reversed(hops)))


class VerifyResult(NamedTuple):
    m: int  # peak overlay crossing count along the trace
    steps: int  # hops in the certified path
    report: str


def verify_isotopy(trace: Trace, path=None) -> VerifyResult:
    """Replay a path through the resolution graph as a motion of simple
    curves and certify the crossing bound.

    The bound m is the largest overlay crossing count (curve-tangle plus
    tangle-self) over all trace states, so every path step, which sits on
    a layer state, stays at or under it; tangle and mixed events are replayed at the layer
    transitions where they happen, in reverse when the path walks down a
    layer.  Any failed check raises ResolutionError: the construction
    guarantees these hold, so a failure is an engine bug, not a property
    of the input.

    The graph is built here; `path` may come from an earlier build of it,
    since `build_resolution_graph` sorts its edges and so numbers them
    the same way every time.  A given path, whose vertices may be tuples
    or lists, is checked too: it must start at the start resolution and
    each hop must be the edge it names.
    """
    graph = build_resolution_graph(trace)
    if path is None:
        path = find_isotopy_path(graph)
    path = IsotopyPath(tuple(map(tuple, path[0])), tuple(path[1]))
    verts, hops = path
    if verts[:1] != (_start(graph),) or len(hops) != len(verts) - 1:
        raise ResolutionError("path does not leave the start resolution")
    for k, i in enumerate(hops):
        ends = {graph.edges[i].a, graph.edges[i].b} if _in_range(i, len(graph.edges)) else None
        if ends != set(verts[k : k + 2]):
            raise ResolutionError("hop %d does not follow edge %r" % (k, i))

    m = max(st.mixed + st.m_self for st in trace.states)
    lines = [
        "trace: %d events over %d layers" % (len(trace.events), trace.nlayers),
        "m = %d  (peak overlay crossing count along the trace)" % m,
    ]
    for k, ref in enumerate(path.vertices):
        if k:
            lines.extend(_hop_lines(trace, graph, path, k))
        asg = graph.vertex(ref)
        st = trace.layer_state(ref[0])
        lines.append(
            "step %d: layer %d  smoothing %s  overlay %d+%d <= %d"
            % (k, ref[0], list(asg), st.mixed, st.m_self, m)
        )

    final_ref = path.vertices[-1]
    if final_ref[0] != graph.nlayers - 1:
        raise ResolutionError("path does not end in the last layer")
    final_state = trace.layer_state(final_ref[0])
    if not final_state.u_self_ids:
        lines.append("final: the ending curve is simple and the path ends on it exactly")
    else:
        lines.append(
            "final: resolution of the ending curve (%d self-crossings smoothed)"
            % len(final_state.u_self_ids)
        )
    lines.append("verified: %d steps, overlay bound m = %d holds throughout" % (len(path.edges), m))
    return VerifyResult(m, len(path.edges), "\n".join(lines) + "\n")


def _hop_lines(trace, graph, path, k):
    edge = graph.edges[path.edges[k - 1]]
    va, vb = path.vertices[k - 1], path.vertices[k]
    if edge.move == "M2b":
        return ["  move: M2b (level)"]
    ja = edge.a[0]  # lower layer of the hop
    p0, p1 = trace.layer_pos[ja], trace.layer_pos[ja + 1]
    g = trace.c_events[ja]
    out = []
    if vb[0] > va[0]:
        for ev in trace.events[p0:g]:
            out.append("  replay: %s %s" % (ev.tag, ev.text))
        out.append("  move: %s (up)" % edge.move)
        for ev in trace.events[g + 1 : p1]:
            out.append("  replay: %s %s" % (ev.tag, ev.text))
    else:
        for ev in reversed(trace.events[g + 1 : p1]):
            out.append("  undo: %s %s" % (ev.tag, ev.text))
        out.append("  move: %s (down)" % edge.move)
        for ev in reversed(trace.events[p0:g]):
            out.append("  undo: %s %s" % (ev.tag, ev.text))
    return out
