"""Search tests: goal predicates, budgeted closures, certificates.

The closure engine gets an independent oracle: a fixed-point sweep that
keeps applying every legal move to every known state until nothing new
appears, with no frontier bookkeeping shared with the engine.
"""

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
from hardsplit.maps import PLANE, SPHERE, Diagram, DiagramError
from hardsplit.moves import (
    CROSSING_DELTA,
    apply_move,
    enumerate_moves,
    replay,
    top_of_sequence,
)
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


def brute_closure(d0, budget):
    cap = d0.ncross + budget

    def digest(d):
        return state_digest(canonical_code(d))

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
    t = Goal.target(hopf())
    assert t.met(hopf())
    assert not t.met(torus_knot_diagram(2, 3))
    with pytest.raises(ValueError):
        Goal("nonsense").met(hopf())


def test_goal_describe():
    assert Goal.zero_crossing().describe() == "unknot"
    assert Goal.split_any().describe() == "split"
    assert Goal.split_partition(("U",)).describe() == "split-partition=U"
    assert (
        Goal.split_partition((("U",), ("M2", "M1"))).describe()
        == "split-partition=U|M1,M2"
    )
    assert Goal.target(hopf()).describe().startswith("target=")


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


def test_bad_arguments():
    with pytest.raises(TypeError):
        bfs_reachable(hopf(), "unknot", 0)
    with pytest.raises(ValueError):
        bfs_reachable(hopf(), Goal.zero_crossing(), -1)
    with pytest.raises(ValueError):
        min_added(hopf(), Goal.zero_crossing(), -1)
