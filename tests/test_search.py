"""Search tests: goal predicates, budgeted closures, certificates.

The closure engine gets an independent oracle: a fixed-point sweep that
keeps applying every legal move to every known state until nothing new
appears, with no frontier bookkeeping shared with the engine.
"""

import gc

import pytest

from hardsplit import search
from hardsplit.canon import canonical_code, state_digest
from hardsplit.generators import (
    d_pq,
    goeritz_diagram,
    split_d_pq,
    torus_knot_diagram,
    unknot_diagram,
)
from hardsplit.invariants import d_pq_crossing_floor
from hardsplit.maps import PLANE, ROOT, SPHERE, Diagram, DiagramError, rot
from hardsplit.moves import (
    CROSSING_DELTA,
    MoveSite,
    apply_move,
    apply_script,
    enumerate_moves,
    format_move,
    inverse_site,
    parse_move,
    replay,
    rooting_free,
    top_of_sequence,
)
from hardsplit.pdio import parse_pd
from hardsplit.search import (
    Goal,
    Limits,
    bfs_reachable,
    closure_digests,
    min_added,
    verify_hard,
)

GOERITZ_REPORT = """\
hardness certificate
start: mode=sphere crossings=11 components=1
goal: unknot
kmax: 0
budget=0 reached=no states=1 max-crossings=11 min-crossings=11 exhausted=yes
verdict: hard (added > 0)
"""


def hopf():
    return Diagram(PLANE, (5, 4, 7, 6, 1, 0, 3, 2), (1, 1))


def poked_unknot():
    u = unknot_diagram()
    site = next(m for m in enumerate_moves(u) if m.kind == "RII+")
    return apply_move(u, site)


def unlink():
    "Two bare circles side by side on the sphere."
    return Diagram(PLANE, (), (), (), ((None, ROOT),) * 2, {}).with_mode(SPHERE)


def digest(d):
    return state_digest(canonical_code(d))


def brute_closure(d0, budget):
    cap = d0.ncross + budget
    seen = {digest(d0): d0}
    grew = True
    while grew:
        grew = False
        for dg in list(seen):
            d = seen[dg]
            reps = [d] if d.mode == PLANE else [d.rerooted(r) for r in d.region_keys]
            for rep in reps:
                for site in enumerate_moves(rep):
                    if rep.ncross + CROSSING_DELTA[site.kind] > cap:
                        continue
                    child = apply_move(rep, site)
                    cdg = digest(child)
                    if cdg not in seen:
                        seen[cdg] = child
                        grew = True
    return frozenset(seen)


def test_goal_kinds():
    assert Goal.zero_crossing().met(unknot_diagram())
    assert not Goal.zero_crossing().met(unknot_diagram(1))
    assert Goal.split_any().met(split_d_pq(2, 3))
    assert not Goal.split_any().met(d_pq(2, 3))
    assert Goal.split_partition((("U",), ("M1", "M2"))).met(split_d_pq(2, 3))
    assert not Goal.split_partition(("M1",)).met(split_d_pq(2, 3))
    assert Goal.split_partition(("U", ("M1", "M2"))).met(split_d_pq(2, 3))
    t = Goal.target(hopf())
    assert t.met(hopf())
    assert not t.met(torus_knot_diagram(2, 3))
    with pytest.raises(ValueError):
        Goal("nonsense").met(hopf())


def test_goal_describe():
    assert Goal.zero_crossing().describe() == "unknot"
    assert Goal.split_any().describe() == "split"
    assert Goal.split_partition(("U",)).describe() == "split-partition=U"
    assert Goal.split_partition("M1").describe() == "split-partition=M1"
    assert Goal.split_partition(("M1", "M2")).describe() == "split-partition=M1,M2"
    assert Goal.split_partition(("U", ("M2", "M1"))).describe() == "split-partition=U|M1,M2"
    assert (
        Goal.split_partition((("U",), ("M2", "M1"))).describe()
        == "split-partition=U|M1,M2"
    )
    assert Goal.target(hopf()).describe().startswith("target=")
    # a component may be named by its index, as `is_split_diagram` allows
    assert Goal.split_partition(((0,), (1, 2))).describe() == "split-partition=0|1,2"
    # describe reads the partition forms as `met` does: a set of two
    # tuples is one side, whose two names are unknown
    odd = Goal.split_partition({("U",), ("M1", "M2")})
    assert "|" not in odd.describe()
    with pytest.raises(DiagramError, match="unknown component"):
        odd.met(split_d_pq(2, 3))


def test_goal_met_at_depth_zero():
    r = bfs_reachable(split_d_pq(2, 3), Goal.split_any(), 0)
    assert r.reached and r.states_explored == 1 and r.witness.steps == ()


def test_bigon_unknot_one_move():
    r = bfs_reachable(poked_unknot(), Goal.zero_crossing(), 0)
    assert r.reached
    assert len(r.witness.steps) == 1
    assert top_of_sequence(r.witness) == 0
    assert replay(r.witness)[-1].ncross == 0


def test_kinked_unknots_untangle_at_budget_zero():
    for k in (1, 2, 3):
        out = min_added(unknot_diagram(k), Goal.zero_crossing(), 0)
        assert out.added == 0 and out.conclusive
        assert len(out.witness.steps) == k
        assert replay(out.witness)[-1].ncross == 0


def test_over_over_clasp_splits_for_free():
    # same shadow as the Hopf clasp, but one circle runs over both
    # crossings, so one RII- splits it
    tw = Diagram(PLANE, (5, 4, 7, 6, 1, 0, 3, 2), (1, 0))
    out = min_added(tw, Goal.split_any(), 0)
    assert out.added == 0 and out.conclusive
    assert len(out.witness.steps) == 1
    assert verify_hard(tw, Goal.split_any(), 0).verdict == "not-hard"


def test_hopf_never_splits_within_budget():
    out = min_added(hopf(), Goal.split_any(), 1)
    assert out.added is None and out.conclusive
    cert = verify_hard(hopf(), Goal.split_any(), 1)
    assert cert.verdict == "hard"
    assert cert.report.endswith("verdict: hard (added > 1)\n")


def test_a_target_keeps_its_mode():
    # a target one curl away, built in the plane: a sphere search refuses
    # it, since it could never meet it; built on the sphere, it is met
    t = torus_knot_diagram(2, 3)
    target = apply_move(t, MoveSite("RI+", ("d", 0, 0)))
    with pytest.raises(ValueError, match="a plane target is never met by a sphere search"):
        verify_hard(t.with_mode(SPHERE), Goal.target(target), 1)
    cert = verify_hard(t.with_mode(SPHERE), Goal.target(target.with_mode(SPHERE)), 1)
    assert cert.report.endswith("verdict: hard (added = 1)\n")


def test_reached_budgets_give_hard_or_inconclusive_by_the_runs_below():
    # budget 0 exhausted, budget 1 reaches a target one curl away: hard
    t = torus_knot_diagram(2, 3)
    cert = verify_hard(t, Goal.target(apply_move(t, MoveSite("RI+", ("d", 0, 0)))), 1)
    assert (cert.verdict, cert.outcome.added) == ("hard", 1)
    assert cert.report.splitlines()[-3:] == [
        "budget=0 reached=no states=1 max-crossings=3 min-crossings=3 exhausted=yes",
        "budget=1 reached=yes states=2 max-crossings=4 min-crossings=3 exhausted=no"
        " witness-moves=1",
        "verdict: hard (added = 1)",
    ]
    # the same reach after a budget-0 run its state cap stopped: inconclusive
    u = unknot_diagram(2)
    target = apply_move(u, enumerate_moves(u)[0])
    cert = verify_hard(u, Goal.target(target), 1, Limits(max_states=2))
    assert (cert.verdict, cert.outcome.added) == ("inconclusive", 1)
    assert cert.report.splitlines()[-3:] == [
        "budget=0 reached=no states=2 max-crossings=2 min-crossings=1 exhausted=no",
        "budget=1 reached=yes states=2 max-crossings=3 min-crossings=2 exhausted=no"
        " witness-moves=1",
        "verdict: inconclusive (reached at budget 1, smaller budgets capped)",
    ]


def test_goeritz_certificate_is_exact():
    g = goeritz_diagram().with_mode(SPHERE)
    cert = verify_hard(g, Goal.zero_crossing(), 0)
    assert cert.verdict == "hard"
    assert cert.report == GOERITZ_REPORT


def test_sphere_search_is_rooting_independent():
    # every rooted representative of one sphere state must explore the
    # same closure and succeed the same way
    p = poked_unknot().with_mode(SPHERE)
    runs = []
    closures = set()
    for r in p.region_keys:
        s = p.rerooted(r)
        res = bfs_reachable(s, Goal.zero_crossing(), 0)
        assert res.reached and replay(res.witness)[-1].ncross == 0
        runs.append(res.states_explored)
        closures.add(closure_digests(s, 0)[0])
    assert len(set(runs)) == 1
    assert len(closures) == 1


def test_root_steps_replay_in_witness_form():
    from hardsplit.moves import MoveSequence, MoveSite, parse_move, format_move

    p = poked_unknot().with_mode(SPHERE)
    bigon = next(
        orb for orb in p.faces if len(orb) == 2 and len({x >> 2 for x in orb}) == 2
    )
    hop = MoveSite("ROOT", (("f", p.face_of[bigon[0]]),))
    assert parse_move(p, format_move(hop)) == hop
    rem = MoveSite("RII-", (bigon[0],))
    seq = MoveSequence(p, (hop, rem))
    assert top_of_sequence(seq) == 0
    assert replay(seq)[-1].ncross == 0


def test_closure_matches_brute_force():
    cases = [
        (unknot_diagram(1), 1),
        (hopf(), 1),
        (torus_knot_diagram(2, 3), 1),
        (poked_unknot().with_mode(SPHERE), 1),
        (torus_knot_diagram(2, 3).with_mode(SPHERE), 2),
        (hopf().with_mode(SPHERE), 2),
        (unlink(), 2),
        # 123 states; those with one island and a loop need every rooting
        (circles(3).with_mode(SPHERE), 2),
    ]
    for d0, budget in cases:
        want = brute_closure(d0, budget)
        got, exhausted = closure_digests(d0, budget)
        assert exhausted
        assert got == want


def test_search_is_deterministic():
    for d0 in (torus_knot_diagram(2, 3), poked_unknot()):
        runs = [bfs_reachable(d0, Goal.zero_crossing(), 1) for _ in range(2)]
        assert runs[0][2:] == runs[1][2:]  # counts, crossings range, flags
        assert runs[0].reached == runs[1].reached
        if runs[0].reached:
            assert runs[0].witness.steps == runs[1].witness.steps
    g = goeritz_diagram().with_mode(SPHERE)
    reports = {verify_hard(g, Goal.zero_crossing(), 0).report for _ in range(2)}
    assert reports == {GOERITZ_REPORT}


def test_time_cap_keeps_the_partial_level(monkeypatch):
    d0 = torus_knot_diagram(2, 3)
    cap = d0.ncross + 2
    after_level0 = {state_digest(canonical_code(d0))} | {
        state_digest(canonical_code(apply_move(d0, site)))
        for site in enumerate_moves(d0)
        if d0.ncross + CROSSING_DELTA[site.kind] <= cap
    }
    # a clock that ticks once per reading: the deadline is read at tick 0
    # and passes after the start and one level-1 state are expanded
    ticks = iter(range(1000))
    monkeypatch.setattr(search, "monotonic", lambda: next(ticks))
    r = bfs_reachable(d0, Goal.zero_crossing(), 2, Limits(max_seconds=2))
    assert not r.reached and not r.frontier_exhausted
    assert r.states_explored > len(after_level0)


@pytest.mark.parametrize(
    "start, goal, states",
    [
        (lambda: torus_knot_diagram(2, 3), Goal.zero_crossing, (1, 28, 609)),
        (hopf, Goal.split_any, (1, 22, 372)),
    ],
    ids=["trefoil", "hopf"],
)
def test_pinned_plane_corpus(start, goal, states):
    # closure sizes are the certified answers: no refactor may move them
    cert = verify_hard(start(), goal(), 2)
    assert cert.verdict == "hard"
    assert tuple(r.states_explored for r in cert.outcome.runs) == states


@pytest.mark.parametrize(
    "start, goal, states, root",
    [
        (lambda: torus_knot_diagram(2, 3), Goal.zero_crossing, (1, 6, 95), -1),
        (hopf, Goal.split_any, (1, 5, 69), 1),
    ],
    ids=["trefoil", "hopf"],
)
def test_pinned_sphere_corpus(start, goal, states, root):
    d = start().with_mode(SPHERE)
    d = d.rerooted(d.region_keys[root])
    cert = verify_hard(d, goal(), 2)
    assert cert.verdict == "hard"
    assert tuple(r.states_explored for r in cert.outcome.runs) == states


def test_pinned_dpq34_split_certificate():
    # zero headroom: every state is an RIII rearrangement of d_pq(3,4)
    cert = verify_hard(
        d_pq(3, 4),
        Goal.split_partition((("U",), ("M1", "M2"))),
        0,
        floor=d_pq_crossing_floor(3),
    )
    assert cert.verdict == "hard"
    assert tuple(r.states_explored for r in cert.outcome.runs) == (729,)


def script_lines(seq):
    return [format_move(s) for s in seq.steps]


def test_pinned_kinked_unknot_witness():
    out = min_added(unknot_diagram(3), Goal.zero_crossing(), 0)
    assert script_lines(out.witness) == [
        "RI- crossing=0 petal=2",
        "RI- crossing=0",
        "RI- crossing=0",
    ]


@pytest.mark.parametrize(
    "mode, budget, script, states",
    [
        (
            PLANE,
            1,
            [
                "RI+ dart=1 side=R over=0",
                "RIII face=2",
                "RIII face=3",
            ],
            17,
        ),
        (
            SPHERE,
            2,
            [
                "RI+ dart=0 side=R over=0",
                "RI+ dart=1 side=R over=0",
                "RIII face=2",
            ],
            89,
        ),
    ],
    ids=["plane", "sphere"],
)
def test_pinned_target_witness(mode, budget, script, states):
    # a target three moves out: the witness is the first path found in
    # discovery order, so it pins that order as well as the path
    d0 = torus_knot_diagram(2, 3).with_mode(mode)
    target = apply_script(d0, "\n".join(script))
    r = bfs_reachable(d0, Goal.target(target), budget)
    assert r.reached and r.states_explored == states
    assert script_lines(r.witness) == script
    assert Goal.target(target).met(replay(r.witness)[-1])


def test_closures_leave_no_cyclic_garbage():
    # a reference cycle in a surgery keeps every removal's frame, and the
    # diagrams it holds, alive until the collector runs
    gc.collect()
    gc.disable()
    try:
        verify_hard(torus_knot_diagram(2, 3), Goal.zero_crossing(), 2)
        d = hopf().with_mode(SPHERE)
        verify_hard(d.rerooted(d.region_keys[1]), Goal.split_any(), 2)
        left = gc.collect()
    finally:
        gc.enable()
    assert left == 0


def test_pinned_kinked_unknot_closure():
    got, exhausted = closure_digests(unknot_diagram(1), 2)
    assert exhausted and len(got) == 169


def test_floor_violations_raise():
    with pytest.raises(DiagramError):
        bfs_reachable(d_pq(2, 3), Goal.split_any(), 0, floor=11)
    with pytest.raises(DiagramError):
        bfs_reachable(unknot_diagram(1), Goal.split_any(), 0, floor=1)


def test_limits_yield_inconclusive():
    lim = Limits(max_states=5)
    r = bfs_reachable(hopf(), Goal.split_any(), 1, lim)
    assert not r.reached and not r.frontier_exhausted
    assert r.states_explored <= 5
    cert = verify_hard(hopf(), Goal.split_any(), 1, lim)
    assert cert.verdict == "inconclusive"
    assert "limits hit" in cert.report
    stale = bfs_reachable(hopf(), Goal.split_any(), 1, Limits(max_seconds=0.0))
    assert not stale.reached and not stale.frontier_exhausted


def test_capped_search_stops_building_children(monkeypatch):
    built = []

    def counting_apply_move(d, site):
        built.append(site)
        return apply_move(d, site)

    monkeypatch.setattr(search, "apply_move", counting_apply_move)
    r = bfs_reachable(hopf(), Goal.split_any(), 1, Limits(max_states=3))
    assert r.states_explored == 3 and not r.frontier_exhausted
    # the cap fires on the third new child; the start's other children
    # are never built
    assert len(built) <= 4


def test_a_target_search_codes_each_state_once(monkeypatch):
    # a target goal compares the digest the search holds for a new state,
    # so the only codes are the start's and one per built child
    goal = Goal.target(hopf())  # never met from the trefoil
    built, coded = [], []

    def counting_apply_move(d, site):
        built.append(site)
        return apply_move(d, site)

    def counting_code(d):
        coded.append(d)
        return canonical_code(d)

    monkeypatch.setattr(search, "apply_move", counting_apply_move)
    monkeypatch.setattr(search, "canonical_code", counting_code)
    r = bfs_reachable(torus_knot_diagram(2, 3), goal, 1)
    assert not r.reached and r.frontier_exhausted and r.states_explored > 1
    assert len(coded) == len(built) + 1


def test_every_enumerated_site_but_the_parent_is_built(monkeypatch):
    # the cap is applied at enumeration, and a state never builds a site
    # whose child is known to be in the table already: the site that
    # rebuilds its BFS parent, and, for a state with one island and no
    # loops, every site carried over from a tracked inverse found when
    # the state was met again as a duplicate before its expansion, and
    # every image of a site it has built under one of its automorphisms.
    # Every other site it is given is built.
    # Before the carried skips only the parent's site was skipped
    # (trefoil plane 633 = 0 + 26 + 607 over budgets 0..2, Hopf plane
    # 390, d_pq(3,4) 728 of 3780); now each RIII edge of d_pq(3,4) is
    # built from one end only (1890 = 3780 / 2).  Before the twin skips
    # the plane built 1398 and 878; every state of the d_pq(3,4) closure
    # is asymmetric (its three components carry distinct labels), so its
    # count stays
    counts = {"sites": 0, "built": 0}

    def counting_enumerate(d, max_cross=None):
        sites = enumerate_moves(d, max_cross)
        counts["sites"] += len(sites)
        return sites

    def counting_apply_move(d, site):
        counts["built"] += 1
        return apply_move(d, site)

    monkeypatch.setattr(search, "enumerate_moves", counting_enumerate)
    monkeypatch.setattr(search, "apply_move", counting_apply_move)
    for start, goal, states, built in (
        (torus_knot_diagram(2, 3), Goal.zero_crossing, (1, 28, 609), (2593, 1241)),
        (hopf(), Goal.split_any, (1, 22, 372), (1556, 805)),
    ):
        counts.update(sites=0, built=0)
        cert = verify_hard(start, goal(), 2)
        assert cert.verdict == "hard"
        assert tuple(r.states_explored for r in cert.outcome.runs) == states
        assert (counts["sites"], counts["built"]) == built

    counts.update(sites=0, built=0)
    cert = verify_hard(
        d_pq(3, 4),
        Goal.split_partition((("U",), ("M1", "M2"))),
        0,
        floor=d_pq_crossing_floor(3),
    )
    assert tuple(r.states_explored for r in cert.outcome.runs) == (729,)
    assert (counts["sites"], counts["built"]) == (3780, 1890)

    # on the sphere every state of these closures has one island and no
    # loops, so it is enumerated in its own rooting only, and skips as in
    # the plane (before the carried skips: 5 + 94 and 4 + 68 sites, one
    # per non-start state; built 450 and 292; before the twin skips 350
    # and 226, of which 169 and 88 rebuilt an earlier sibling's child).
    # The sphere lists no wrap curl, which the search never built there:
    # listing them, it enumerated 525 and 348 sites
    for start, goal, states, built in (
        (torus_knot_diagram(2, 3), Goal.zero_crossing, (1, 6, 95), (487, 192)),
        (hopf(), Goal.split_any, (1, 5, 69), (316, 144)),
    ):
        counts.update(sites=0, built=0)
        cert = verify_hard(start.with_mode(SPHERE), goal(), 2)
        assert cert.verdict == "hard"
        assert tuple(r.states_explored for r in cert.outcome.runs) == states
        assert (counts["sites"], counts["built"]) == built


def inverse_corpus():
    out = []
    for make in (lambda: torus_knot_diagram(2, 3), hopf, lambda: unknot_diagram(1)):
        for mode in (PLANE, SPHERE):
            out += [(make().with_mode(mode), b) for b in (0, 1, 2)]
    return out + [(split_d_pq(2, 3), 0), (d_pq(3, 4), 0)]


def closure_states(d0, budget):
    "The first diagram met for each state of the budgeted closure."
    cap = d0.ncross + budget
    seen = {digest(d0): d0}
    todo = [d0]
    while todo:
        d = todo.pop()
        reps = [d] if d.mode == PLANE else [d.rerooted(r) for r in d.region_keys]
        for rep in reps:
            for site in enumerate_moves(rep, cap):
                child = apply_move(rep, site)
                cdg = digest(child)
                if cdg not in seen:
                    seen[cdg] = child
                    todo.append(child)
    return list(seen.values())


def symmetry(d, y0):
    """The map of d's darts that keeps theta and rotation and sends dart 0
    to `y0`, when it is a permutation keeping over-ness, labels and, in
    the plane, the up face; else None.  `d` has one island."""
    sigma = {0: y0}
    order = [0]
    for x in order:  # grows while it is read
        for a, b in ((rot(x), rot(sigma[x])), (d.theta[x], d.theta[sigma[x]])):
            if a not in sigma:
                sigma[a] = b
                order.append(a)
    perm = tuple(sigma[x] for x in d.darts())
    up = d.hosts[min(d.islands)][1]
    ok = (
        sorted(perm) == list(d.darts())
        and all(perm[rot(x)] == rot(perm[x]) for x in d.darts())
        and all(perm[d.theta[x]] == d.theta[perm[x]] for x in d.darts())
        and all(d.is_over_dart(perm[x]) == d.is_over_dart(x) for x in d.darts())
        and all(d.label_of_dart(perm[x]) == d.label_of_dart(x) for x in d.darts())
        and (d.mode == SPHERE or d.face_of[perm[up]] == up)
    )
    return perm if ok else None


def site_image(d, site, perm):
    "The site `site` of d names after renumbering its darts by `perm`."
    kind, spot = site
    if kind == "RI+":
        return MoveSite(kind, (spot[0], perm[spot[1]], spot[2]))
    if kind == "RII+":
        _region, (_, a), (_, b), ov, cap = spot
        a, b = perm[a], perm[b]
        return MoveSite(kind, (d.region_of_face(a), ("d", a), ("d", b), ov, cap))
    return MoveSite(kind, (d.face_of[perm[spot[0]]],))


def test_recorded_automorphisms_are_the_symmetries():
    # every state with one island and no loops records walk orders whose
    # first composes with each other one to, besides the identity,
    # exactly the maps that an independent extension from dart 0 finds
    # to keep theta, rotation, over-ness, labels and, in the plane, the
    # up face; and each of them carries every site to a site whose child
    # has the same digest
    corpus = inverse_corpus() + [
        (torus_knot_diagram(2, 5).with_mode(mode), b)
        for mode in (PLANE, SPHERE)
        for b in (0, 1)
    ] + [(torus_knot_diagram(3, 4).with_mode(SPHERE), 0)]
    orders = {}
    for d0, budget in corpus:
        for d in closure_states(d0, budget):
            if len(d.islands) != 1 or d.loops:
                assert d.numberings is None
                continue
            identity = tuple(d.darts())
            # the dart each order lists at one walk number maps to the
            # dart the other lists there
            autos = []
            for other in d.numberings[1:]:
                image = dict(zip(d.numberings[0], other))
                autos.append(tuple(image[x] for x in d.darts()))
            # an image of dart 0 lies on a face of the same length
            size = len(d.face_darts(d.face_of[0]))
            cands = [y for y in d.darts() if len(d.face_darts(d.face_of[y])) == size]
            found = {symmetry(d, y) for y in cands} - {None}
            assert identity not in autos
            assert set(autos) | {identity} == found
            assert len(autos) + 1 == len(found)
            if d is d0:
                orders[d0.mode, d0.ncross, budget] = len(found)
            if not autos:
                continue
            kids = {site: digest(apply_move(d, site)) for site in enumerate_moves(d)}
            for site, cdg in kids.items():
                for perm in autos:
                    twin = site_image(d, site, perm)
                    assert kids.get(twin) == cdg, (site, twin)
    # the starts: trefoil 2 in the plane (its up face is a bigon) and 6
    # on the sphere, Hopf 2 and 4, T(2,5) 2 and 10, T(3,4) 8, d_pq(3,4) 1
    assert orders[PLANE, 3, 0] == 2 and orders[SPHERE, 3, 0] == 6
    assert orders[PLANE, 2, 0] == 2 and orders[SPHERE, 2, 0] == 4
    assert orders[PLANE, 5, 0] == 2 and orders[SPHERE, 5, 0] == 10
    assert orders[SPHERE, 8, 0] == 8 and orders[PLANE, 20, 0] == 1


def test_inverse_site_rebuilds_the_bfs_parent(monkeypatch):
    # every call the search makes - one per discovery, and one per
    # duplicate it carries a skip from - is checked by building the
    # inverse site on the child, in its own rooting and (on the sphere) in
    # every rooting that enumerates it, and comparing with the digest of
    # the state the site was built on
    found = []

    def recording_inverse_site(rep, site, child):
        inv = inverse_site(rep, site, child)
        found.append((rep, site, child, inv))
        return inv

    monkeypatch.setattr(search, "inverse_site", recording_inverse_site)
    kinds = set()
    for d0, budget in inverse_corpus():
        found.clear()
        states, exhausted = closure_digests(d0, budget)
        # one call per discovery, and one per duplicate of a state still
        # waiting to be expanded when both have one island and no loops
        assert exhausted and len(found) >= len(states) - 1
        for rep, site, child, inv in found:
            kinds.add(site.kind)
            if site.kind in ("RI-", "RII-"):
                # removals are not tracked
                assert inv is None
                continue
            assert inv is not None, site
            back = digest(rep)
            reps = [child]
            if child.mode == SPHERE:
                reps += [child.rerooted(r) for r in child.region_keys]
            assert inv in enumerate_moves(child, child.ncross)
            for r in reps:
                if inv in enumerate_moves(r, r.ncross):
                    assert digest(apply_move(r, inv)) == back
    assert kinds == {"RI+", "RI-", "RII+", "RII-", "RIII"}


def reference_parents(d0, budget):
    """The ordered parent table of a plain BFS that builds every site it
    enumerates, in every rooting on the sphere, and skips nothing."""
    cap = d0.ncross + budget
    start = digest(d0)
    parent = {start: None}
    frontier = [(start, d0)]
    while frontier:
        nxt = []
        for pdg, d in frontier:
            roots = [None] if d.mode == PLANE else d.region_keys
            for r in roots:
                rep = d if r is None else d.rerooted(r)
                for site in enumerate_moves(rep, cap):
                    child = apply_move(rep, site)
                    cdg = digest(child)
                    if cdg not in parent:
                        parent[cdg] = (pdg, r, site)
                        nxt.append((cdg, child))
        frontier = nxt
    return parent


def test_skipped_sites_rebuild_known_states(monkeypatch):
    # every site the search enumerates but does not build is built here
    # and must give a state of the closure, and the ordered parent table
    # must equal that of a BFS that skips nothing: the skips change no
    # discovery.  Skipped sites are read off the enumerate and apply
    # calls, so nothing here shares the search's skip logic.
    calls = []

    def recording_enumerate(d, max_cross=None):
        sites = enumerate_moves(d, max_cross)
        calls.append((d, sites, set()))
        return sites

    def recording_apply_move(d, site):
        assert calls[-1][0] is d
        calls[-1][2].add(site)
        return apply_move(d, site)

    monkeypatch.setattr(search, "enumerate_moves", recording_enumerate)
    monkeypatch.setattr(search, "apply_move", recording_apply_move)
    # T(2,5) has a symmetry group of order 10 on the sphere and 2 in the
    # plane, so its closures skip many twin sites (230 states on the
    # sphere at b2)
    corpus = (
        inverse_corpus()
        + [
            (unknot_diagram(2).with_mode(mode), b)
            for mode in (PLANE, SPHERE)
            for b in (0, 1, 2)
        ]
        + [(torus_knot_diagram(2, 5).with_mode(SPHERE), b) for b in (0, 1, 2)]
        + [(torus_knot_diagram(2, 5), b) for b in (0, 1)]
    )
    skips = {}
    for d0, budget in corpus:
        calls.clear()
        res, parent = search._run(d0, None, budget, None, None)
        assert res.frontier_exhausted
        assert list(parent.items()) == list(reference_parents(d0, budget).items())
        n = 0
        for rep, sites, built in calls:
            for site in sites:
                if site not in built:
                    n += 1
                    assert digest(apply_move(rep, site)) in parent, format_move(site)
        skips[d0.mode, d0.ncross, len(d0.labels), budget] = (n, len(parent))
    # more skips than states: beyond the one BFS-parent site per state
    n, states = skips[PLANE, 3, 1, 2]
    assert states == 609 and n > states
    assert skips[SPHERE, 5, 1, 2][1] == 230


def test_bad_arguments():
    with pytest.raises(TypeError):
        bfs_reachable(hopf(), "unknot", 0)
    with pytest.raises(ValueError):
        bfs_reachable(hopf(), Goal.zero_crossing(), -1)
    with pytest.raises(ValueError):
        min_added(hopf(), Goal.zero_crossing(), -1)


def test_rooting_free_sites_agree_in_every_rooting():
    # the sphere search builds a rooting-free site in a state's own
    # rooting only; that is sound when every rooting lists the same such
    # sites, in the same order, and each builds the same sphere state.
    # It expands a state with one island and no loops in its own rooting
    # alone; that is sound when every child of a later rooting is also a
    # child of the own rooting.  Every state of each closure is reached by
    # building every site in every rooting, so nothing here shares the
    # search's skip.
    cases = [
        (make().with_mode(SPHERE), b)
        for make in (
            lambda: torus_knot_diagram(2, 3),
            hopf,
            lambda: unknot_diagram(1),
            poked_unknot,
        )
        for b in (0, 1, 2)
    ] + [(unlink(), 2)]
    free_kinds = set()
    single = 0
    for d0, budget in cases:
        cap = d0.ncross + budget
        seen = {digest(d0)}
        todo = [d0]
        while todo:
            d = todo.pop()
            free = []
            kids = []
            for r in d.region_keys:
                rep = d.rerooted(r)
                free.append([])
                kids.append(set())
                for site in enumerate_moves(rep, cap):
                    child = apply_move(rep, site)
                    cdg = digest(child)
                    kids[-1].add(cdg)
                    if rooting_free(site):
                        free[-1].append((site, cdg))
                    if cdg not in seen:
                        seen.add(cdg)
                        todo.append(child)
            for other in free[1:]:
                assert [s for s, _ in other] == [s for s, _ in free[0]]
                assert other == free[0]
            free_kinds.update(s.kind for s, _ in free[0])
            if len(d.islands) == 1 and not d.loops:
                single += 1
                for other in kids[1:]:
                    assert other <= kids[0]
    assert free_kinds == {"RI+", "RI-", "RII-", "RIII"}
    assert single


def symmetry_starts():
    """(start, budgets): the knots, and the several-piece starts whose
    sphere graph had one-way edges while insertions could sweep content
    (28 on circles(2) at budget 2: 8 engulfing pokes and 20 wrap curls)."""
    knots = [torus_knot_diagram(2, 3), hopf(), unknot_diagram(1)]
    return [(d, (0, 1, 2)) for d in knots] + [
        (circles(2), (0, 1, 2)),
        (circles(3), (0, 1)),
        (split_d_pq(2, 3), (0,)),
    ]


def test_sphere_move_graph_is_symmetric():
    # every child lists its parent among its own children, when expanded
    # by the search (rooting-free sites in its own rooting only)
    for start, budgets in symmetry_starts():
        d0 = start.with_mode(SPHERE)
        for budget in budgets:
            cap = d0.ncross + budget
            seen = {digest(d0)}
            todo = [d0]
            while todo:
                d = todo.pop()
                back = digest(d)
                kids = {}
                for _r, _rep, _site, child, cdg in search._expand_one(d, cap, ()):
                    kids.setdefault(cdg, child)
                for cdg, child in kids.items():
                    grand = {g for *_, g in search._expand_one(child, cap, ())}
                    assert back in grand
                    if cdg not in seen:
                        seen.add(cdg)
                        todo.append(child)
            assert seen == closure_digests(d0, budget)[0]


def test_no_insertion_or_slide_the_search_builds_lacks_an_inverse(monkeypatch):
    # no insertion sweeps content and a slide needs an empty triangle, so
    # each RI+, RII+ and RIII leaves an empty face whose removal or slide
    # undoes it; with content-sweeping insertions, 620 calls over larger
    # closures of these pieces returned None
    calls = []

    def recording_inverse_site(rep, site, child):
        inv = inverse_site(rep, site, child)
        calls.append((site, inv))
        return inv

    monkeypatch.setattr(search, "inverse_site", recording_inverse_site)
    kinds = set()
    for start, budgets in symmetry_starts():
        for mode in (PLANE, SPHERE):
            calls.clear()
            search._run(start.with_mode(mode), None, budgets[-1], None, None)
            for site, inv in calls:
                if site.kind in ("RI+", "RII+", "RIII"):
                    kinds.add(site.kind)
                    assert inv is not None, format_move(site)
    assert kinds == {"RI+", "RII+", "RIII"}


def plane_one_way_pair():
    "The smallest known one-way plane edge: (3-crossing diagram, kink)."
    big = parse_pd(
        "X c0 E1 E2 E3 E4\nX c1 E5 E4 E1 E5\nX c2 E6 E6 E3 E2\nF E6:L\n"
    ).check()
    kink = parse_pd("X c0 E1 E2 E2 E1\nF E2:R\n").check()
    return big, kink


def test_plane_rii_minus_reaches_the_kink():
    big, kink = plane_one_way_pair()
    assert digest(apply_script(big, "RII- face=2")) == digest(kink)


@pytest.mark.xfail(
    strict=True, reason="plane RII+ misses some insertions (ROADMAP item 1)"
)
def test_plane_rii_minus_has_an_rii_plus_inverse():
    # no site of the kink rebuilds the diagram its RII- came from
    big, kink = plane_one_way_pair()
    assert digest(big) in {digest(apply_move(kink, s)) for s in enumerate_moves(kink)}


def circles(n):
    "n bare circles side by side in the plane."
    return Diagram(PLANE, (), (), (), ((None, ROOT),) * n, {})


# from three circles on the sphere: one curls, the sphere is re-rooted
# at the far side of another, and that one curls with its petal on its
# host's side, which in the first rooting is its far side
ROOT_HOP_SCRIPT = [
    "RI+ loop=0 side=out over=0",
    "ROOT region=l1",
    "RI+ loop=1 side=out over=0",
]


def test_pinned_witness_with_a_root_hop():
    # no search of the corpus reaches a state first in a later rooting,
    # so the parent table is made by hand: the last curl was listed on
    # the rooting at l1, and the witness hops there before it
    d0 = circles(3).with_mode(SPHERE)
    first = parse_move(d0, ROOT_HOP_SCRIPT[0])
    d1 = apply_move(d0, first)
    rkey = ("l", 1)
    rep = d1.rerooted(rkey)
    last = parse_move(rep, ROOT_HOP_SCRIPT[2])
    d2 = apply_move(rep, last)
    g0, g1, g2 = digest(d0), digest(d1), digest(d2)
    parent = {g0: None, g1: (g0, ROOT, first), g2: (g1, rkey, last)}
    witness = search._witness(d0, parent, g2)
    assert script_lines(witness) == ROOT_HOP_SCRIPT
    assert digest(replay(witness)[-1]) == g2
    # the hop changes what the last line means: without it the petal
    # lies on the other side of the circle
    flipped = "RI+ loop=1 side=in over=0"
    assert digest(apply_script(d0, "\n".join(ROOT_HOP_SCRIPT[::2]))) != g2
    assert digest(apply_script(d0, "\n".join([ROOT_HOP_SCRIPT[0], flipped]))) == g2


def test_no_region_lists_both_flanks_of_an_edge():
    # a 4-valent shadow is Eulerian, hence bridgeless: the two sides of
    # an edge are never one region, so RII+ enumeration never meets a
    # dart and its theta-partner on one boundary.  The budget-2 closure
    # holds those of budgets 0 and 1, so it alone covers all three.
    starts = [
        lambda: torus_knot_diagram(2, 3),
        hopf,
        lambda: unknot_diagram(1),
        poked_unknot,
        lambda: circles(2),
        lambda: circles(3),
    ]
    for make in starts:
        for mode in (PLANE, SPHERE):
            d0 = make().with_mode(mode)
            cap = d0.ncross + 2
            seen = {digest(d0)}
            todo = [d0]
            while todo:
                d = todo.pop()
                reps = [d] if mode == PLANE else [d.rerooted(r) for r in d.region_keys]
                for rep in reps:
                    for r in rep.region_keys:
                        darts = {x for k, x in rep.region_boundary(r) if k == "d"}
                        assert not any(rep.theta[x] in darts for x in darts)
                for *_, child, cdg in search._expand_one(d, cap, ()):
                    if cdg not in seen:
                        seen.add(cdg)
                        todo.append(child)


def test_every_closure_site_replays_from_its_script_line():
    # a script line must rebuild the child of the site it was written
    # from; a plane RI- on a lone curl whose 2-face holds content is the
    # case where the two petals differ, which petal= tells apart
    def nested():
        return Diagram(PLANE, (), (), (), ((None, ROOT), (None, ("l", 0))), {})

    starts = [
        lambda: torus_knot_diagram(2, 3),
        hopf,
        lambda: unknot_diagram(1),
        nested,
        lambda: circles(2),
    ]
    for make in starts:
        for mode in (PLANE, SPHERE):
            d0 = make().with_mode(mode)
            cap = d0.ncross + 2
            seen = {digest(d0)}
            todo = [d0]
            while todo:
                d = todo.pop()
                for _r, rep, site, child, cdg in search._expand_one(d, cap, ()):
                    line = format_move(site)
                    assert digest(apply_move(rep, parse_move(rep, line))) == cdg, line
                    if cdg not in seen:
                        seen.add(cdg)
                        todo.append(child)
