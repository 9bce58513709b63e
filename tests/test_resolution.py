"""Resolution-calculus tests: trace parsing, replay and the crossing bound.

The overlay is the Hopf link with one circle as the sweep curve U and
the other as the tangle; a trace is that overlay and a move script.  The
peak is recounted here from the replayed diagrams' crossing labels,
without `ShadowOverlay`'s `mixed` and `m_self`.  Pinned traces cover
each curve event kind; seeded random traces check the whole engine end
to end.  `parse_trace` reads each event's tag off its site, and
`site_tag` reads it again, by its own walk to the site's face.
"""

import random
from collections import Counter

import pytest

from hardsplit import moves
from hardsplit.moves import apply_script
from hardsplit.resolution import (
    IsotopyPath,
    ResolutionError,
    TraceError,
    build_resolution_graph,
    find_isotopy_path,
    parse_trace,
    verify_isotopy,
)
from hardsplit.search import Goal, bfs_reachable

HOPF_OVERLAY = "OVERLAY X c0 E1 E2 E3 E4; X c1 E2 E1 E4 E3; C U E1 E3; C T E2 E4; F E1:R"

# the Hopf link as the tangle, with the sweep curve a bare circle beside it
BARE_LOOP_OVERLAY = (
    "OVERLAY X c0 E1 E2 E3 E4; X c1 E2 E1 E4 E3; C T E1 E3; C V E2 E4; O U outer"
)

# the curve curls and uncurls
CURL = "RI+ dart=0 side=R over=0\nRI- crossing=2\n"

# the curve first pokes over the tangle (two more mixed crossings), then
# curls and uncurls, then pulls back
POKED_CURL = (
    "RII+ dartA=0 dartB=6 over=A\n"
    "RI+ dart=0 side=R over=0\n"
    "RI- crossing=4\n"
    "RII- face=6\n"
)


def peak_overlay_crossings(trace):
    "Most crossings in any replayed state that are not curve self-crossings."
    peak = 0
    for st in trace.states:
        d = st.diagram
        n = sum(d.strandpair_labels(c) != ("U", "U") for c in range(d.ncross))
        peak = max(peak, n)
    return peak


@pytest.mark.parametrize(
    "events, tags, m", [(CURL, "CC", 2), (POKED_CURL, "XCCX", 4)], ids=["curl", "poked-curl"]
)
def test_curl_then_uncurl_verifies_at_the_peak(events, tags, m):
    trace = parse_trace(HOPF_OVERLAY + "\n" + events)
    assert "".join(ev.tag for ev in trace.events) == tags
    assert trace.nlayers == 3  # start, after the curl, after the uncurl
    assert not trace.states[0].u_self_ids and not trace.states[-1].u_self_ids
    assert trace.layer_state(1).u_self_ids
    graph = build_resolution_graph(trace)
    path = find_isotopy_path(graph)
    res = verify_isotopy(trace, path)
    assert res.m == peak_overlay_crossings(trace) == m
    assert res.steps == len(path.edges) == 2
    assert "m = %d " % m in res.report
    assert res.report.endswith("overlay bound m = %d holds throughout\n" % m)


def test_trace_without_overlay_line_raises():
    with pytest.raises(TraceError, match="OVERLAY"):
        parse_trace(CURL)
    with pytest.raises(TraceError, match="OVERLAY"):
        parse_trace("# only a comment\n")


def test_unknown_event_tag_raises():
    # a tag is read off the site, never written: a tagged line is no move
    with pytest.raises(TraceError, match="line 2: bad token 'RI\\+'"):
        parse_trace(HOPF_OVERLAY + "\nZ RI+ dart=0 side=R over=0\n")


def test_event_tags_must_match_the_strands_touched():
    # a curl of the curve, a curl of the tangle, and the curve poked over
    # the tangle
    for line, tag in (
        ("RI+ dart=0 side=R over=0", "C"),
        ("RI+ dart=1 side=R over=0", "M"),
        ("RII+ dartA=0 dartB=6 over=A", "X"),
    ):
        assert [ev.tag for ev in parse_trace(HOPF_OVERLAY + "\n" + line).events] == [tag]


@pytest.mark.parametrize(
    "line",
    [
        "RI- crossing=--1",
        "RII- face=²",
        "RII- face=+1",
        "RII+ dartA=0 loopB=x over=A",
    ],
)
def test_bad_numbers_are_trace_errors(line):
    with pytest.raises(TraceError, match="line 2: missing or bad"):
        parse_trace(HOPF_OVERLAY + "\n" + line + "\n")


# the Hopf overlay after `RI+ dart=0 side=R over=0`: the curve has a curl
CURLED_OVERLAY = (
    "OVERLAY X c0 E1 E2 E3 E4; X c1 E4 E3 E5 E1; X c2 E6 E6 E5 E2;"
    " C T E1 E3; C U E2 E6 E5 E4; F E2:R"
)


@pytest.mark.parametrize(
    "text, match",
    [
        (
            "OVERLAY X c0 E1 E2",
            "^line 1: overlay record 1: X needs a name and four edges$",
        ),
        (
            "# the overlay's second record is short\nOVERLAY X c0 E1 E2 E3 E4; X c1 E2",
            "^line 2: overlay record 2: X needs a name and four edges$",
        ),
        (HOPF_OVERLAY.replace("C U", "C W"), "exactly one component .* found 0"),
        (HOPF_OVERLAY.replace("C T", "C U"), "exactly one component .* found 2"),
        # a curve event is spelled as any move line: no shadow kind, and over=
        # is written, though the curve drops it
        (HOPF_OVERLAY + "\nR1+ dart=0 side=R over=0", "line 2: unknown move kind 'R1\\+'"),
        (HOPF_OVERLAY + "\nRI+ dart=0 side=R", "line 2: missing or bad over="),
        (HOPF_OVERLAY + "\nROOT region=root", "line 2: re-rooting is a move only on the sphere"),
        (CURLED_OVERLAY, "must start with a simple curve"),
        ("", "^empty trace: an OVERLAY line is required$"),
        ("# a comment\nRI+ dart=0 side=R over=0", "^line 2: trace must open with an OVERLAY line$"),
        # an event that does not apply names its own line, not the first
        (
            HOPF_OVERLAY + "\nRI+ dart=0 side=R over=0\nRIII face=0",
            "^line 3: face 0 is not a three-crossing triangle$",
        ),
        (HOPF_OVERLAY + "\nRI- crossing=5", "^line 2: no crossing 5$"),
        # the overlay is given once, and a second one is not a move line
        (HOPF_OVERLAY + "\n" + HOPF_OVERLAY, "^line 2: a trace has one OVERLAY line$"),
    ],
    ids=[
        "overlay-pd", "overlay-pd-record-2", "no-curve", "two-curves", "c-kind", "c-over",
        "root-hop", "curled-start", "empty", "no-overlay-line", "event-line-3",
        "missing-crossing", "second-overlay",
    ],
)
def test_bad_input_is_a_trace_error(text, match):
    # the last case parses, and the path search refuses its start
    with pytest.raises(TraceError, match=match):
        find_isotopy_path(build_resolution_graph(parse_trace(text)))


# curve-only traces with RII+, RII- and RIII events: a self-poke pulled
# back, and a curl poked and then slid
SELF_POKE = "RII+ dartA=0 dartB=0 over=A\nRII- face=9\n"
CURL_POKE_SLIDE = "RI+ dart=0 side=R over=0\nRII+ dartA=0 dartB=11 over=A\nRIII face=8\n"

# tangle events inside the layer gaps, so crossing ids are packed down
# between a curve event and its layer: a tangle curl made before a curve
# curl and undone between the curl and the uncurl (curve crossing 3 packs
# down to 2), and one made after a curve curl and undone between the
# poke and the slide (4 -> 3, 5 -> 4)
TANGLE_CURL_AROUND_CURL = (
    "RI+ dart=1 side=R over=0\n"  # tangle
    "RI+ dart=0 side=R over=0\n"  # curve
    "RI- crossing=2\n"  # tangle
    "RI- crossing=2\n"  # curve
)
TANGLE_CURL_IN_SLIDE = (
    "RI+ dart=0 side=R over=0\n"  # curve
    "RI+ dart=1 side=R over=0\n"  # tangle
    "RII+ dartA=0 dartB=11 over=A\n"  # curve
    "RI- crossing=3\n"  # tangle
    "RIII face=8\n"  # curve
)
# a curl of the bare curve: its lone crossing has two petals
LOOP_CURL = "RI+ loop=0 side=out over=0\nRI- crossing=2\n"
# two self-pokes, then a slide of the triangle they make: the layer-2
# resolutions pair up by M2b and two of them reach layer 3 by M3a
DOUBLE_POKE_SLIDE = "RII+ dartA=7 dartB=7 over=A\nRII+ dartA=13 dartB=2 over=A\nRIII face=8\n"

SELF_POKE_REPORT = """\
trace: 2 events over 3 layers
m = 2  (peak overlay crossing count along the trace)
step 0: layer 0  smoothing []  overlay 2+0 <= 2
  move: M2a (up)
step 1: layer 1  smoothing [(2, 3), (3, 1)]  overlay 2+0 <= 2
  move: M2a (up)
step 2: layer 2  smoothing []  overlay 2+0 <= 2
final: the ending curve is simple and the path ends on it exactly
verified: 2 steps, overlay bound m = 2 holds throughout
"""

CURL_POKE_SLIDE_REPORT = """\
trace: 3 events over 4 layers
m = 2  (peak overlay crossing count along the trace)
step 0: layer 0  smoothing []  overlay 2+0 <= 2
  move: M1 (up)
step 1: layer 1  smoothing [(2, 1)]  overlay 2+0 <= 2
  move: M2a (up)
step 2: layer 2  smoothing [(2, 1), (3, 3), (4, 1)]  overlay 2+0 <= 2
  move: M3b (up)
step 3: layer 3  smoothing [(2, 1), (3, 1), (4, 3)]  overlay 2+0 <= 2
final: resolution of the ending curve (3 self-crossings smoothed)
verified: 3 steps, overlay bound m = 2 holds throughout
"""

TANGLE_CURL_AROUND_CURL_REPORT = """\
trace: 4 events over 3 layers
m = 3  (peak overlay crossing count along the trace)
step 0: layer 0  smoothing []  overlay 2+0 <= 3
  replay: M RI+ dart=1 side=R over=0
  move: M1 (up)
step 1: layer 1  smoothing [(3, 1)]  overlay 2+1 <= 3
  replay: M RI- crossing=2
  move: M1 (up)
step 2: layer 2  smoothing []  overlay 2+0 <= 3
final: the ending curve is simple and the path ends on it exactly
verified: 2 steps, overlay bound m = 3 holds throughout
"""

TANGLE_CURL_IN_SLIDE_REPORT = """\
trace: 5 events over 4 layers
m = 3  (peak overlay crossing count along the trace)
step 0: layer 0  smoothing []  overlay 2+0 <= 3
  move: M1 (up)
step 1: layer 1  smoothing [(2, 1)]  overlay 2+0 <= 3
  replay: M RI+ dart=1 side=R over=0
  move: M2a (up)
step 2: layer 2  smoothing [(2, 1), (4, 3), (5, 1)]  overlay 2+1 <= 3
  replay: M RI- crossing=3
  move: M3b (up)
step 3: layer 3  smoothing [(2, 1), (3, 1), (4, 3)]  overlay 2+0 <= 3
final: resolution of the ending curve (3 self-crossings smoothed)
verified: 3 steps, overlay bound m = 3 holds throughout
"""

DOUBLE_POKE_SLIDE_REPORT = """\
trace: 3 events over 4 layers
m = 2  (peak overlay crossing count along the trace)
step 0: layer 0  smoothing []  overlay 2+0 <= 2
  move: M2a (up)
step 1: layer 1  smoothing [(2, 3), (3, 1)]  overlay 2+0 <= 2
  move: M2a (up)
step 2: layer 2  smoothing [(2, 3), (3, 1), (4, 3), (5, 1)]  overlay 2+0 <= 2
  move: M3b (up)
step 3: layer 3  smoothing [(2, 1), (3, 3), (4, 3), (5, 1)]  overlay 2+0 <= 2
final: resolution of the ending curve (4 self-crossings smoothed)
verified: 3 steps, overlay bound m = 2 holds throughout
"""

LOOP_CURL_REPORT = """\
trace: 2 events over 3 layers
m = 2  (peak overlay crossing count along the trace)
step 0: layer 0  smoothing []  overlay 0+2 <= 2
  move: M1 (up)
step 1: layer 1  smoothing [(2, 1)]  overlay 0+2 <= 2
  move: M1 (up)
step 2: layer 2  smoothing []  overlay 0+2 <= 2
final: the ending curve is simple and the path ends on it exactly
verified: 2 steps, overlay bound m = 2 holds throughout
"""


CURL_EDGES = [("M1", (0, 0), (1, 0)), ("M1", (1, 0), (2, 0))]
SLIDE_EDGES = [
    ("M1", (0, 0), (1, 0)),
    ("M2a", (1, 0), (2, 0)),
    ("M2b", (2, 1), (2, 2)),
    ("M3b", (2, 0), (3, 0)),
    ("M3b", (2, 1), (3, 0)),
    ("M3b", (2, 2), (3, 0)),
]
SLIDE_DEGREES = ((1,), (2,), (2, 2, 2), (3,))
DOUBLE_POKE_SLIDE_EDGES = [
    ("M2a", (0, 0), (1, 0)),
    ("M2a", (1, 0), (2, 2)),
    ("M2b", (2, 0), (2, 1)),
    ("M2b", (2, 3), (2, 4)),
    ("M3a", (2, 1), (3, 0)),
    ("M3a", (2, 4), (3, 2)),
    ("M3b", (2, 0), (3, 1)),
    ("M3b", (2, 2), (3, 1)),
    ("M3b", (2, 3), (3, 1)),
]


@pytest.mark.parametrize(
    "overlay, events, names, edges, degrees, m, steps, report",
    [
        (
            HOPF_OVERLAY,
            SELF_POKE,
            ((0, 1), (0, 1, 2, 3), (0, 1)),
            [("M2a", (0, 0), (1, 0)), ("M2a", (1, 0), (2, 0))],
            ((1,), (2,), (1,)),
            2,
            2,
            SELF_POKE_REPORT,
        ),
        (
            HOPF_OVERLAY,
            CURL_POKE_SLIDE,
            ((0, 1), (0, 1, 2), (0, 1, 2, 3, 4), (0, 1, 2, 3, 4)),
            SLIDE_EDGES,
            SLIDE_DEGREES,
            2,
            3,
            CURL_POKE_SLIDE_REPORT,
        ),
        (
            HOPF_OVERLAY,
            TANGLE_CURL_AROUND_CURL,
            ((0, 1), (0, 1, 2), (0, 1, 2, 3), (0, 1, 3), (0, 1)),
            CURL_EDGES,
            ((1,), (2,), (1,)),
            3,
            2,
            TANGLE_CURL_AROUND_CURL_REPORT,
        ),
        (
            HOPF_OVERLAY,
            TANGLE_CURL_IN_SLIDE,
            (
                (0, 1),
                (0, 1, 2),
                (0, 1, 2, 3),
                (0, 1, 2, 3, 4, 5),
                (0, 1, 2, 4, 5),
                (0, 1, 2, 4, 5),
            ),
            SLIDE_EDGES,
            SLIDE_DEGREES,
            3,
            3,
            TANGLE_CURL_IN_SLIDE_REPORT,
        ),
        (
            HOPF_OVERLAY,
            DOUBLE_POKE_SLIDE,
            ((0, 1), (0, 1, 2, 3), (0, 1, 2, 3, 4, 5), (0, 1, 2, 3, 4, 5)),
            DOUBLE_POKE_SLIDE_EDGES,
            ((1,), (2,), (2, 2, 2, 2, 2), (1, 1, 3)),
            2,
            3,
            DOUBLE_POKE_SLIDE_REPORT,
        ),
        (
            BARE_LOOP_OVERLAY,
            LOOP_CURL,
            ((0, 1), (0, 1, 2), (0, 1)),
            CURL_EDGES,
            ((1,), (2,), (1,)),
            2,
            2,
            LOOP_CURL_REPORT,
        ),
    ],
    ids=[
        "self-poke",
        "curl-poke-slide",
        "tangle-curl-around-curl",
        "tangle-curl-in-slide",
        "double-poke-slide",
        "loop-curl",
    ],
)
def test_pinned_curve_traces(overlay, events, names, edges, degrees, m, steps, report):
    trace = parse_trace(overlay + "\n" + events)
    assert trace.names == names
    graph = build_resolution_graph(trace)
    assert [tuple(e) for e in graph.edges] == edges
    assert graph.degree_sequences() == degrees
    res = verify_isotopy(trace)
    assert res.m == peak_overlay_crossings(trace) == m
    assert res.steps == steps
    assert res.report == report


@pytest.mark.parametrize(
    "events",
    [CURL, POKED_CURL, SELF_POKE, CURL_POKE_SLIDE],
    ids=["curl", "poked-curl", "self-poke", "curl-poke-slide"],
)
def test_verify_builds_its_own_graph_and_path(events):
    # without a path verify_isotopy finds one itself; the report must
    # match the one for a path found on a graph built beforehand, given
    # as tuples or as lists
    trace = parse_trace(HOPF_OVERLAY + "\n" + events)
    graph = build_resolution_graph(trace)
    path = find_isotopy_path(graph)
    listed = IsotopyPath([list(v) for v in path.vertices], list(path.edges))
    assert verify_isotopy(trace) == verify_isotopy(trace, path) == verify_isotopy(trace, listed)
    for st in trace.states:
        assert len(st.u_self_ids) + st.mixed + st.m_self == st.diagram.ncross


# the slide graph walked the long way: up to the last layer, back down an
# M3b edge, along the M2b edge of layer 2 and up again
DETOUR = ((0, 0), (1, 0), (2, 0), (3, 0), (2, 1), (2, 2), (3, 0))
DETOUR_REPORT = """\
trace: 5 events over 4 layers
m = 3  (peak overlay crossing count along the trace)
step 0: layer 0  smoothing []  overlay 2+0 <= 3
  move: M1 (up)
step 1: layer 1  smoothing [(2, 1)]  overlay 2+0 <= 3
  replay: M RI+ dart=1 side=R over=0
  move: M2a (up)
step 2: layer 2  smoothing [(2, 1), (4, 3), (5, 1)]  overlay 2+1 <= 3
  replay: M RI- crossing=3
  move: M3b (up)
step 3: layer 3  smoothing [(2, 1), (3, 1), (4, 3)]  overlay 2+0 <= 3
  move: M3b (down)
  undo: M RI- crossing=3
step 4: layer 2  smoothing [(2, 3), (4, 1), (5, 1)]  overlay 2+1 <= 3
  move: M2b (level)
step 5: layer 2  smoothing [(2, 3), (4, 3), (5, 3)]  overlay 2+1 <= 3
  replay: M RI- crossing=3
  move: M3b (up)
step 6: layer 3  smoothing [(2, 1), (3, 1), (4, 3)]  overlay 2+0 <= 3
final: resolution of the ending curve (3 self-crossings smoothed)
verified: 6 steps, overlay bound m = 3 holds throughout
"""


# the poked curl walked up, down and up again: the down hop from layer 2
# undoes the tangle event after the uncurl before the uncurl itself
POKED_CURL_BACK = ((0, 0), (1, 0), (2, 0), (1, 0), (2, 0))
POKED_CURL_BACK_REPORT = """\
trace: 4 events over 3 layers
m = 4  (peak overlay crossing count along the trace)
step 0: layer 0  smoothing []  overlay 2+0 <= 4
  replay: X RII+ dartA=0 dartB=6 over=A
  move: M1 (up)
step 1: layer 1  smoothing [(4, 1)]  overlay 4+0 <= 4
  move: M1 (up)
  replay: X RII- face=6
step 2: layer 2  smoothing []  overlay 2+0 <= 4
  undo: X RII- face=6
  move: M1 (down)
step 3: layer 1  smoothing [(4, 1)]  overlay 4+0 <= 4
  move: M1 (up)
  replay: X RII- face=6
step 4: layer 2  smoothing []  overlay 2+0 <= 4
final: the ending curve is simple and the path ends on it exactly
verified: 4 steps, overlay bound m = 4 holds throughout
"""


def _walk(trace, graph, vertices):
    "The path through `vertices`, by the first edge joining each hop."
    hops = tuple(
        next(i for i, e in enumerate(graph.edges) if {e.a, e.b} == {u, v})
        for u, v in zip(vertices, vertices[1:])
    )
    return IsotopyPath(vertices, hops)


def test_explicit_path_walks_down_and_along_a_layer():
    trace = parse_trace(HOPF_OVERLAY + "\n" + TANGLE_CURL_IN_SLIDE)
    graph = build_resolution_graph(trace)
    res = verify_isotopy(trace, _walk(trace, graph, DETOUR))
    assert (res.m, res.steps) == (3, 6)
    assert res.report == DETOUR_REPORT


def test_down_hop_undoes_the_events_after_its_curve_event():
    trace = parse_trace(HOPF_OVERLAY + "\n" + POKED_CURL)
    graph = build_resolution_graph(trace)
    res = verify_isotopy(trace, _walk(trace, graph, POKED_CURL_BACK))
    assert (res.m, res.steps) == (4, 4)
    assert res.report == POKED_CURL_BACK_REPORT


@pytest.mark.parametrize(
    "vertices, edges",
    [
        (((0, 0), (2, 0)), (0,)),
        (((0, 0), (1, 0), (2, 0)), (0, 0)),
        (((1, 0), (2, 0)), (1,)),
        (((0, 0), (1, 0), (2, 0)), (0, 2)),
        (((0, 0), (1, 0), (2, 0)), (0, -1)),
        (((0, 0), (1, 0), (2, 0)), (0, "1")),
        (((0, 0), (1, 0), (2, 0)), (0,)),
        ((), ()),
        (((0, 0), (1, 0)), (0,)),
    ],
    ids=[
        "skips-layer-1", "reuses-edge-0", "self-touching-start", "no-edge-2",
        "edge-minus-1", "edge-not-an-int", "one-hop-short", "empty", "stops-in-layer-1",
    ],
)
def test_forged_paths_are_refused(vertices, edges):
    # the only edges: 0 joins (0, 0)-(1, 0) and 1 joins (1, 0)-(2, 0); a
    # path must leave the start resolution and follow each edge it names
    trace = parse_trace(HOPF_OVERLAY + "\n" + POKED_CURL)
    graph = build_resolution_graph(trace)
    assert [(e.a, e.b) for e in graph.edges] == [((0, 0), (1, 0)), ((1, 0), (2, 0))]
    with pytest.raises(ResolutionError):
        verify_isotopy(trace, IsotopyPath(vertices, edges))


def test_a_given_path_needs_a_simple_start():
    # the curled start's one-vertex path would certify a motion that
    # never starts from a simple curve
    trace = parse_trace(CURLED_OVERLAY)
    with pytest.raises(TraceError, match="must start with a simple curve"):
        verify_isotopy(trace, IsotopyPath(((0, 0),), ()))


def test_trace_with_no_curve_event_stays_on_its_one_layer():
    # tangle events only: the curve never moves, so there is one layer,
    # one vertex and an empty path, but m still counts the tangle curl
    trace = parse_trace(HOPF_OVERLAY + "\nRI+ dart=1 side=R over=0\nRI- crossing=2\n")
    assert trace.nlayers == 1
    graph = build_resolution_graph(trace)
    assert list(graph.edges) == [] and graph.degree_sequences() == ((0,),)
    res = verify_isotopy(trace)
    assert (res.m, res.steps) == (3, 0)
    assert res.report == (
        "trace: 2 events over 1 layers\n"
        "m = 3  (peak overlay crossing count along the trace)\n"
        "step 0: layer 0  smoothing []  overlay 2+0 <= 3\n"
        "final: the ending curve is simple and the path ends on it exactly\n"
        "verified: 0 steps, overlay bound m = 3 holds throughout\n"
    )


# -- seeded traces -----------------------------------------------------
#
# Random walks through `moves.enumerate_moves` under a cap of four added
# crossings, each site written as `moves.format_move` prints it;
# `scripts/trace_tables.py` hashes what seeds 0-199 give.  The oracle
# `site_tag` tags each site by the labels of its own face - the face a
# removal or slide names on the state, or the one `moves.inverse_face`
# names on the child.


def site_tag(d, site):
    "C, M or X, by the strands of the face the site acts on or leaves."
    if site.kind in ("RI-", "RII-", "RIII"):
        holder, f = d, site.spot[0]
    else:
        holder = moves.apply_move(d, site)
        f = moves.inverse_face(d, site, holder)
    labels = {holder.label_of_dart(x) for x in holder.face_darts(holder.face_of[f])}
    if labels == {"U"}:
        return "C"
    return "X" if "U" in labels else "M"


def random_trace(seed):
    """A trace of 1 to 8 events, fixed by `seed`: from the bare-loop
    overlay when seed % 4 == 0, and from the Hopf overlay otherwise."""
    rng = random.Random(seed)
    text = (BARE_LOOP_OVERLAY if seed % 4 == 0 else HOPF_OVERLAY) + "\n"
    trace = parse_trace(text)
    cap = trace.states[0].diagram.ncross + 4
    for _ in range(rng.randint(1, 8)):
        d = trace.states[-1].diagram
        # a move kind first, uniformly, then a site of that kind: RIII
        # slides are a small share of the sites but not of the kinds
        pools = {}
        for site in moves.enumerate_moves(d, cap):
            pools.setdefault(site.kind, []).append(site)
        if pools:
            pool = pools[rng.choice(sorted(pools))]
            text += moves.format_move(pool[rng.randrange(len(pool))]) + "\n"
            trace = parse_trace(text)
    return trace


def test_mutated_trace_lines_raise_only_trace_errors():
    # one token of a seeded walk's line changed, the lines perhaps shuffled:
    # every text either verifies or raises TraceError, never an engine or
    # Python error
    values = ["0", "1", "7", "-1", "99", "A", "B", "root", "f2", "L0", "x", "2.0"]
    kinds = ["RI+", "RI-", "RII+", "RII-", "RIII", "ROOT", "X"]
    outcomes = Counter()
    for seed in range(1, 41):
        trace = random_trace(seed)
        head = BARE_LOOP_OVERLAY if seed % 4 == 0 else HOPF_OVERLAY
        lines = [head] + [ev.text for ev in trace.events]
        rng = random.Random(seed)
        for _ in range(4):
            out = list(lines)
            i = rng.randrange(1, len(out))
            toks = out[i].split()
            j = rng.randrange(len(toks))
            if "=" in toks[j]:
                toks[j] = toks[j].split("=")[0] + "=" + rng.choice(values)
            else:
                toks[j] = rng.choice(kinds)
            out[i] = " ".join(toks)
            if rng.random() < 0.3:
                out[1:] = rng.sample(out[1:], len(out) - 1)
            try:
                verify_isotopy(parse_trace("\n".join(out)))
                outcomes["verified"] += 1
            except TraceError:
                outcomes["refused"] += 1
    # both outcomes occur, so the mutations neither always break a line
    # nor never do
    assert outcomes["verified"] and outcomes["refused"]


def test_seeded_traces_verify_at_their_peak():
    # the least range of seeds whose walks reach every local move: M3b
    # first appears at seed 207 and M3a at seed 421, both from the Hopf
    # overlay (drawing a site uniformly from the whole list, M3a first
    # appeared at seed 386); the double-poke-slide case of
    # test_pinned_curve_traces also pins M3a
    kinds = Counter()
    for seed in range(422):
        trace = random_trace(seed)
        for st, ev in zip(trace.states, trace.events):
            assert ev.tag == site_tag(st.diagram, ev.site)
        graph = build_resolution_graph(trace)
        path = find_isotopy_path(graph)
        assert verify_isotopy(trace, path).m == peak_overlay_crossings(trace)
        kinds.update(e.move for e in graph.edges)
    # the walks reach every local move of the calculus
    assert set(kinds) == {"M1", "M2a", "M2b", "M3a", "M3b"}


# seed 256's walk, from the bare-loop overlay: it captures the tangle's
# island in a self-poke of the curve, and its path goes along two M2b
# edges, down an M1 edge, and replays M events at its last step
SEED_256_EVENTS = [
    "RII+ loopA=0 loopB=0 over=B captured=I0",
    "RII+ dartA=15 dartB=10 over=A",
    "RI- crossing=3 petal=2",
    "RII- face=8",
    "RII+ dartA=1 dartB=5 over=B",
    "RI- crossing=2 petal=3",
    "RII- face=9",
    "RII+ dartA=0 dartB=6 over=A",
]
SEED_256_REPORT = """\
trace: 8 events over 6 layers
m = 4  (peak overlay crossing count along the trace)
step 0: layer 0  smoothing []  overlay 0+2 <= 4
  move: M2a (up)
step 1: layer 1  smoothing [(2, 3), (3, 1)]  overlay 0+2 <= 4
  move: M2a (up)
step 2: layer 2  smoothing [(2, 3), (3, 1), (4, 3), (5, 1)]  overlay 0+2 <= 4
  move: M1 (up)
step 3: layer 3  smoothing [(2, 3), (3, 3), (4, 1)]  overlay 0+2 <= 4
  move: M2b (level)
step 4: layer 3  smoothing [(2, 1), (3, 1), (4, 1)]  overlay 0+2 <= 4
  move: M1 (down)
step 5: layer 2  smoothing [(2, 1), (3, 1), (4, 1), (5, 1)]  overlay 0+2 <= 4
  move: M2b (level)
step 6: layer 2  smoothing [(2, 1), (3, 1), (4, 3), (5, 3)]  overlay 0+2 <= 4
  move: M1 (up)
step 7: layer 3  smoothing [(2, 1), (3, 3), (4, 3)]  overlay 0+2 <= 4
  move: M2a (up)
step 8: layer 4  smoothing [(2, 3)]  overlay 0+2 <= 4
  replay: M RII+ dartA=1 dartB=5 over=B
  move: M1 (up)
  replay: M RII- face=9
  replay: M RII+ dartA=0 dartB=6 over=A
step 9: layer 5  smoothing []  overlay 0+4 <= 4
final: the ending curve is simple and the path ends on it exactly
verified: 9 steps, overlay bound m = 4 holds throughout
"""


def test_seeded_trace_report_is_pinned():
    trace = random_trace(256)
    assert [ev.text for ev in trace.events] == SEED_256_EVENTS
    assert "".join(ev.tag for ev in trace.events) == "CCCCMCMM"
    assert verify_isotopy(trace).report == SEED_256_REPORT


def test_a_search_witness_is_a_trace():
    # a plane search from the overlay's diagram to a curled and poked
    # curve: its witness, as the search prints it, is the trace's script
    d0 = parse_trace(HOPF_OVERLAY).states[0].diagram
    script = ["RI+ dart=0 side=R over=1", "RII+ dartA=9 dartB=6 over=A"]
    r = bfs_reachable(d0, Goal.target(apply_script(d0, "\n".join(script))), 3)
    assert [moves.format_move(s) for s in r.witness.steps] == script
    trace = parse_trace("\n".join([HOPF_OVERLAY] + script))
    assert [ev.tag for ev in trace.events] == ["C", "X"]
    res = verify_isotopy(trace)
    assert res.m == peak_overlay_crossings(trace) == 4
    assert res.report.endswith("overlay bound m = 4 holds throughout\n")
