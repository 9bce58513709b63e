"""Surgery-level tests: exact dart bookkeeping for each move primitive.

Expected thetas, faces and hosts here were derived by hand on paper
pictures and are pinned; the round-trip tests then confirm that each
insertion is the exact inverse of the matching removal.
"""

import pytest

from hardsplit import moves, surgery
from hardsplit.maps import PLANE, ROOT, SPHERE, Diagram, Loop, MoveError
from hardsplit.pdio import parse_pd

KINK = [3, 2, 1, 0]
TREFOIL = [11, 10, 5, 4, 3, 2, 9, 8, 7, 6, 1, 0]


def kink(**kw):
    return Diagram(PLANE, KINK, [0], labels=["K"], **kw)


def assert_same(a, b):
    assert a.mode == b.mode
    assert list(a.theta) == list(b.theta)
    assert a.over == b.over
    assert a.labels == b.labels
    assert a.loops == b.loops
    assert a.hosts == b.hosts


# -- site helpers ----------------------------------------------------


def test_petal_darts():
    assert surgery.site_faces(kink(), 1) == [0, 2]
    assert surgery.site_faces(Diagram(PLANE, TREFOIL, [0, 0, 0]), 1) == []


def test_bigon_faces():
    t = Diagram(PLANE, TREFOIL, [0, 0, 0])
    assert surgery.site_faces(t, 2) == [1, 3, 7]
    assert surgery.site_faces(kink(), 2) == []  # (1,3) closes at one crossing


def test_triangle_coherence():
    t = Diagram(PLANE, TREFOIL, [0, 0, 1])
    assert moves.triangle_coherent(t, 0)
    alt = Diagram(PLANE, TREFOIL, [0, 0, 0])
    assert not moves.triangle_coherent(alt, 0)
    assert not moves.triangle_coherent(alt, 2)


@pytest.mark.parametrize(
    "remove, not_a_site",
    [(surgery.ri_remove, 1), (surgery.rii_remove, 0), (surgery.riii, 1)],
    ids=["ri_remove", "rii_remove", "riii"],
)
def test_removals_reject_bad_faces(remove, not_a_site):
    # the trefoil's faces 0 and 2 are triangles, 1, 3 and 7 bigons, and
    # it has no petal: out-of-range numbers and wrong shapes are typed
    t = Diagram(PLANE, TREFOIL, [0, 0, 1])
    for f in (-1, t.ndart, not_a_site):
        with pytest.raises(MoveError):
            remove(t, f)


# -- RI --------------------------------------------------------------


def test_ri_dart_round_trips():
    base = kink()
    for d in range(4):
        for ov in (0, 1):
            cur = surgery.ri_add(base, ("d", d), over=ov).check()
            petals = [p for p in surgery.site_faces(cur, 1) if p >> 2 == 1]
            assert len(petals) == 1
            assert_same(surgery.ri_remove(cur, petals[0]).check(), base)


def test_ri_loop_curl_variants():
    free = Diagram(PLANE, [], [], labels=[], loops=[Loop("K", ROOT)])
    for side in ("in", "out"):
        for ov in (0, 1):
            cur = surgery.ri_add(free, ("loop", 0, side), over=ov).check()
            assert cur.labels == ("K",) and cur.loops == ()
            petals = surgery.site_faces(cur, 1)
            assert len(petals) == 2  # a lone curl has two petals
            for p in petals:
                back = surgery.ri_remove(cur, p).check()
                assert back.labels == ()
                assert back.loops == (Loop("K", ROOT),)


def test_ri_curl_sides_differ():
    free = Diagram(PLANE, [], [], labels=[], loops=[Loop("K", ROOT)])
    out = surgery.ri_add(free, ("loop", 0, "out"), over=0)
    inn = surgery.ri_add(free, ("loop", 0, "in"), over=0)
    assert list(out.theta) == list(inn.theta) == KINK
    assert out.hosts != inn.hosts  # the petal faces opposite ways
    assert not out.canonically_equal(inn)
    assert out.with_mode(SPHERE).canonically_equal(inn.with_mode(SPHERE))


def test_ri_remove_total_death():
    dead = surgery.ri_remove(kink(), 0).check()
    assert dead.ncross == 0
    assert dead.loops == (Loop("K", ROOT),)


def test_ri_remove_far_side_content_stays_beyond_the_circle():
    # a lone curl opening out through its 2-face, with a circle in one
    # petal: retracting the other petal sweeps the outward face, and the
    # contracted circle's far side is the occupied petal, so the circle
    # ends up inside the contracted one, not beside it in the swept region
    d = parse_pd("X c0 E1 E2 E2 E1\nO - E1:R\nF E2:R\n").diagram.check()
    out = moves.apply_move(d, moves.parse_move(d, "RI- crossing=0")).check()
    assert out.loops == (Loop(None, ("l", 1)), Loop(None, ROOT))
    assert out.hosts == {}


def test_ri_remove_rejects_non_petal():
    with pytest.raises(MoveError):
        surgery.ri_remove(Diagram(PLANE, TREFOIL, [0, 0, 0]), 0)


# -- RII, two darts --------------------------------------------------


def test_rii_split_poke_layout():
    d = surgery.rii_add(kink(), ("f", 1), ("d", 1), ("d", 3), "A").check()
    assert list(d.theta) == [7, 6, 10, 9, 8, 11, 1, 0, 4, 3, 2, 5]
    assert sorted(d.faces) == [(0, 4, 9), (1, 7), (2, 11, 6), (3, 10), (5, 8)]
    assert d.hosts == {0: (ROOT, 0)}
    assert d.over == (0, 0, 0)
    under = surgery.rii_add(kink(), ("f", 1), ("d", 1), ("d", 3), "B")
    assert under.over == (0, 1, 1)


def test_rii_dd_round_trip():
    base = kink()
    d = surgery.rii_add(base, ("f", 1), ("d", 1), ("d", 3), "A")
    assert_same(surgery.rii_remove(d, 5).check(), base)


def test_rii_capture():
    base = kink(loops=[Loop("C", ("f", 1))])
    d = surgery.rii_add(
        base, ("f", 1), ("d", 1), ("d", 3), "A", captured=[("L", 0)]
    ).check()
    assert d.loops == (Loop("C", ("f", 3)),)  # rides into the pocket
    assert_same(surgery.rii_remove(d, 5).check(), base)
    plain = surgery.rii_add(base, ("f", 1), ("d", 1), ("d", 3), "A")
    assert plain.loops == (Loop("C", ("f", 1)),)  # stays on the keep side


def test_rii_engulf_blocks_removal():
    base = kink(loops=[Loop("E", ROOT)])
    d = surgery.rii_add(
        base, ("f", 1), ("d", 1), ("d", 3), "A", engulfed=[("L", 0)]
    ).check()
    assert d.loops == (Loop("E", ("f", 5)),)  # wrapped into the new bigon
    with pytest.raises(MoveError):
        surgery.rii_remove(d, 5)
    plain = surgery.rii_add(base, ("f", 1), ("d", 1), ("d", 3), "A")
    assert plain.loops == (Loop("E", ROOT),)


def test_rii_capture_validation():
    base = kink(loops=[Loop("C", ROOT)])
    with pytest.raises(MoveError):
        # the circle lives outside the poked region
        surgery.rii_add(base, ("f", 1), ("d", 1), ("d", 3), "A", captured=[("L", 0)])


# -- RII, one edge ---------------------------------------------------


def test_rii_one_edge_orders():
    base = kink()
    d1 = surgery.rii_add(base, ("f", 1), ("d", 1), ("d", 1), "B", order=1).check()
    assert list(d1.theta) == [3, 6, 7, 0, 8, 11, 1, 2, 4, 10, 9, 5]
    assert sorted(d1.faces) == [(0,), (1, 7, 3), (2, 4, 9, 11, 6), (5, 8), (10,)]
    assert_same(surgery.rii_remove(d1, 5).check(), base)

    d2 = surgery.rii_add(base, ("f", 1), ("d", 1), ("d", 1), "B", order=2).check()
    assert list(d2.theta) == [3, 9, 10, 0, 8, 11, 7, 6, 4, 1, 2, 5]
    assert sorted(d2.faces) == [(0,), (1, 10, 3), (2, 11, 6, 4, 9), (5, 8), (7,)]
    assert_same(surgery.rii_remove(d2, 5).check(), base)


def test_rii_one_edge_capture_flank_depends_on_order():
    base = kink(loops=[Loop("C", ("f", 1))])
    c1 = surgery.rii_add(
        base, ("f", 1), ("d", 1), ("d", 1), "B", order=1, captured=[("L", 0)]
    ).check()
    assert c1.loops == (Loop("C", ("f", 10)),)
    c2 = surgery.rii_add(
        base, ("f", 1), ("d", 1), ("d", 1), "B", order=2, captured=[("L", 0)]
    ).check()
    assert c2.loops == (Loop("C", ("f", 7)),)


# -- RII, circles ----------------------------------------------------


def test_rii_self_poke_round_trip():
    free = Diagram(PLANE, [], [], labels=[], loops=[Loop("L0", ROOT)])
    d = surgery.rii_add(free, ROOT, ("loop", 0), ("loop", 0), "A").check()
    assert sorted(d.faces) == [(0, 5, 7, 2), (1, 4), (3,), (6,)]
    assert d.hosts == {0: (ROOT, 6)}
    assert d.labels == ("L0",) and d.loops == ()
    back = surgery.rii_remove(d, 1).check()
    assert back.loops == (Loop("L0", ROOT),) and back.labels == ()


def test_rii_far_side_self_poke():
    free = Diagram(PLANE, [], [], labels=[], loops=[Loop("F", ROOT)])
    d = surgery.rii_add(free, ("l", 0), ("loop", 0), ("loop", 0), "A").check()
    assert d.hosts == {0: (ROOT, 0)}  # poked inward: the big face opens out
    back = surgery.rii_remove(d, surgery.site_faces(d, 2)[0]).check()
    assert back.loops == (Loop("F", ROOT),)


def test_rii_two_circles_round_trip():
    free = Diagram(
        PLANE, [], [], labels=[], loops=[Loop("LA", ROOT), Loop("LB", ROOT)]
    )
    d = surgery.rii_add(free, ROOT, ("loop", 0), ("loop", 1), "B").check()
    assert sorted(d.faces) == [(0, 5), (1, 4), (2, 7), (3, 6)]
    assert d.hosts == {0: (ROOT, 3)}
    assert d.labels == ("LA", "LB")  # finger strand sorts first
    back = surgery.rii_remove(d, 1).check()
    assert set(back.loops) == {Loop("LA", ROOT), Loop("LB", ROOT)}


def test_rii_dart_across_circle():
    base = kink(loops=[Loop("C", ("f", 1))])
    d = surgery.rii_add(base, ("f", 1), ("d", 1), ("loop", 0), "A").check()
    assert list(d.theta) == [3, 6, 10, 0, 8, 11, 1, 9, 4, 7, 2, 5]
    assert d.labels == ("K", "C") and d.loops == ()
    assert_same(surgery.rii_remove(d, 5).check(), base)


def test_rii_circle_across_dart():
    base = kink(loops=[Loop("C", ("f", 1))])
    d = surgery.rii_add(base, ("f", 1), ("loop", 0), ("d", 1), "A").check()
    assert list(d.theta) == [3, 9, 7, 0, 8, 11, 10, 2, 4, 1, 6, 5]
    assert d.labels == ("K", "C") and d.loops == ()
    assert_same(surgery.rii_remove(d, 5).check(), base)


def test_rii_remove_hosts_a_fragment_in_the_swept_region():
    # pulling the bigon apart contracts a circle that keeps the island's
    # outward face on its outer side; the swept region is the circle's far
    # side, and the surviving two-crossing fragment sits in it
    d = parse_pd(
        "X c0 E1 E2 E3 E4\nX c1 E2 E5 E4 E3\nX c2 E5 E6 E7 E8\n"
        "X c3 E7 E6 E1 E8\nF E8:R\n"
    ).diagram.check()
    out = moves.apply_move(d, moves.parse_move(d, "RII- face=10")).check()
    assert out.ncross == 2
    assert out.hosts == {0: (("l", 0), 0)}
    assert out.loops == (Loop(None, ROOT),)


# -- RII refusals ----------------------------------------------------


def test_rii_remove_rejects_one_crossing_2gon():
    with pytest.raises(MoveError):
        surgery.rii_remove(kink(), 1)


def test_rii_order_only_on_one_edge_sites():
    with pytest.raises(MoveError):
        surgery.rii_add(kink(), ("f", 1), ("d", 1), ("d", 3), "A", order=2)


def test_rii_rejects_edge_flank_pair():
    # naming an edge by both its flank darts never describes a region site
    with pytest.raises(MoveError):
        surgery.rii_add(kink(), ("f", 1), ("d", 1), ("d", 2), "A")


def test_rii_site_must_bound_region():
    with pytest.raises(MoveError):
        surgery.rii_add(kink(), ROOT, ("d", 1), ("d", 3), "A")


# -- RIII ------------------------------------------------------------


def test_riii_flip_and_back():
    t = Diagram(PLANE, TREFOIL, [0, 0, 1], labels=["T"]).check()
    d = surgery.riii(t, 0).check()
    assert list(d.theta) == [3, 6, 9, 0, 7, 10, 1, 4, 11, 2, 5, 8]
    assert d.hosts == {0: (ROOT, 2)}
    assert_same(surgery.riii(d, 2).check(), t)


def test_riii_ignores_decorations():
    # heights are the caller's concern; the rewiring itself only needs
    # a clean triangle
    alt = Diagram(PLANE, TREFOIL, [0, 0, 0])
    assert_same(surgery.riii(surgery.riii(alt, 0), 2).check(), alt)


def test_riii_refusals():
    t = Diagram(PLANE, TREFOIL, [0, 0, 1])
    with pytest.raises(MoveError):
        surgery.riii(t, 1)  # a bigon, not a triangle


def test_riii_blocked_by_content():
    t = Diagram(
        PLANE, TREFOIL, [0, 0, 1], labels=["T"],
        hosts={0: (ROOT, 2)}, loops=[Loop("C", ("f", 0))],
    ).check()
    with pytest.raises(MoveError):
        surgery.riii(t, 0)
