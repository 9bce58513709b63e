"""Surgery-level tests: exact dart bookkeeping for each move primitive.

Expected thetas, faces and hosts here were derived by hand on paper
pictures and are pinned; the round-trip tests then confirm that each
insertion is the exact inverse of the matching removal.
"""

import pytest

from hardsplit import moves, surgery
from hardsplit.canon import canonical_code
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
    assert canonical_code(out) != canonical_code(inn)
    assert canonical_code(out.with_mode(SPHERE)) == canonical_code(inn.with_mode(SPHERE))


def test_ri_loop_curl_layouts():
    # the kinked circle's far side becomes the 2-face (out) or the free
    # monogon (in), its content follows, and later circles shift down
    nest = Diagram(
        PLANE, [], [], labels=[],
        loops=[Loop("K", ROOT), Loop("I", ("l", 0)), Loop("O", ROOT), Loop("P", ("l", 2))],
    )
    out = surgery.ri_add(nest, ("loop", 0, "out"), over=1).check()
    inn = surgery.ri_add(nest, ("loop", 0, "in"), over=1).check()
    for d in (out, inn):
        assert list(d.theta) == KINK
        assert d.over == (1,) and d.labels == ("K",)
    assert out.hosts == {0: (ROOT, 1)}
    assert out.loops == (Loop("I", ("f", 2)), Loop("O", ROOT), Loop("P", ("l", 1)))
    assert inn.hosts == {0: (ROOT, 2)}
    assert inn.loops == (Loop("I", ("f", 1)), Loop("O", ROOT), Loop("P", ("l", 1)))


def test_ri_wrap_layout():
    # the same arc curled plainly and wrapped: one theta, and the wrapped
    # petal becomes the island's outward face
    t = Diagram(
        PLANE, TREFOIL, [0, 0, 1], labels=["T"],
        loops=[Loop("C", ROOT), Loop("D", ("f", 2))],
    ).check()
    theta = [11, 10, 5, 13, 14, 2, 9, 8, 7, 6, 1, 0, 15, 3, 4, 12]
    wrap = surgery.ri_add(t, ("wrap", 4), over=0).check()
    plain = surgery.ri_add(t, ("d", 4), over=0).check()
    assert list(wrap.theta) == list(plain.theta) == theta
    assert wrap.over == plain.over == (0, 0, 1, 0)
    assert wrap.hosts == {0: (ROOT, 12)}
    assert plain.hosts == {0: (ROOT, 0)}
    assert wrap.loops == plain.loops == t.loops
    with pytest.raises(MoveError):
        surgery.ri_add(t, ("wrap", 1), over=0)  # arc not on the outward face


def test_ri_remove_total_death():
    dead = surgery.ri_remove(kink(), 0).check()
    assert dead.ncross == 0
    assert dead.loops == (Loop("K", ROOT),)


def test_ri_remove_far_side_content_stays_beyond_the_circle():
    # a lone curl opening out through its 2-face, with a circle in one
    # petal: retracting the other petal sweeps the outward face, and the
    # contracted circle's far side is the occupied petal, so the circle
    # ends up inside the contracted one, not beside it in the swept region
    d = parse_pd("X c0 E1 E2 E2 E1\nO - E1:R\nF E2:R\n").check()
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
    # the finger base sits nearer the named dart's crossing than the spot
    # where the finger crosses the edge
    base = kink()
    d1 = surgery.rii_add(base, ("f", 1), ("d", 1), ("d", 1), "B").check()
    assert list(d1.theta) == [3, 6, 7, 0, 8, 11, 1, 2, 4, 10, 9, 5]
    assert sorted(d1.faces) == [(0,), (1, 7, 3), (2, 4, 9, 11, 6), (5, 8), (10,)]
    assert_same(surgery.rii_remove(d1, 5).check(), base)


def test_rii_one_edge_capture_rides_into_the_pocket():
    # captured content rides into the finger pocket, the monogon (10,)
    # beside the finger base
    base = kink(loops=[Loop("C", ("f", 1))])
    c1 = surgery.rii_add(
        base, ("f", 1), ("d", 1), ("d", 1), "B", captured=[("L", 0)]
    ).check()
    assert c1.loops == (Loop("C", ("f", 10)),)


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


def test_rii_circle_self_poke_layouts():
    # circle S holds X and sits beside Y; poked through itself from either
    # side, the side away from the poke becomes a named face, the poked
    # side keeps its content and Y shifts down
    lp = Diagram(
        PLANE, [], [], labels=[],
        loops=[Loop("X", ("l", 1)), Loop("S", ROOT), Loop("Y", ROOT)],
    )
    theta = [4, 7, 3, 2, 0, 6, 5, 1]
    near = surgery.rii_add(lp, ROOT, ("loop", 1), ("loop", 1), "A").check()
    assert list(near.theta) == theta and near.over == (0, 0)
    assert near.hosts == {0: (ROOT, 6)}
    assert near.labels == ("S",)
    assert near.loops == (Loop("X", ("f", 0)), Loop("Y", ROOT))
    far = surgery.rii_add(lp, ("l", 1), ("loop", 1), ("loop", 1), "B").check()
    assert list(far.theta) == theta and far.over == (1, 1)
    assert far.hosts == {0: (ROOT, 0)}
    assert far.labels == ("S",)
    assert far.loops == (Loop("X", ("f", 6)), Loop("Y", ROOT))


def test_rii_two_circles_layout():
    # each circle's far side becomes a face: behind the finger for A,
    # beyond the tip for B
    two = Diagram(
        PLANE, [], [], labels=[],
        loops=[Loop("LA", ROOT), Loop("Z", ("l", 0)), Loop("LB", ROOT), Loop("W", ("l", 2))],
    )
    d = surgery.rii_add(two, ROOT, ("loop", 0), ("loop", 2), "B").check()
    assert list(d.theta) == [4, 7, 6, 5, 0, 3, 2, 1]
    assert d.over == (1, 1)
    assert d.hosts == {0: (ROOT, 3)}
    assert d.labels == ("LA", "LB")
    assert d.loops == (Loop("Z", ("f", 2)), Loop("W", ("f", 0)))


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
    ).check()
    out = moves.apply_move(d, moves.parse_move(d, "RII- face=10")).check()
    assert out.ncross == 2
    assert out.hosts == {0: (("l", 0), 0)}
    assert out.loops == (Loop(None, ROOT),)


# -- RII refusals ----------------------------------------------------


def test_rii_remove_rejects_one_crossing_2gon():
    with pytest.raises(MoveError):
        surgery.rii_remove(kink(), 1)


def test_rii_rejects_edge_flank_pair():
    # naming an edge by both its flank darts never describes a region site
    with pytest.raises(MoveError):
        surgery.rii_add(kink(), ("f", 1), ("d", 1), ("d", 2), "A")


def test_rii_site_must_bound_region():
    with pytest.raises(MoveError):
        surgery.rii_add(kink(), ROOT, ("d", 1), ("d", 3), "A")


@pytest.mark.parametrize(
    "region, a, b",
    [
        (("l", 0), ("d", 1), ("d", 3)),  # no circle 0
        (("f", 0), ("d", 0), ("d", 0)),  # face 0 is the outward face
        (("f", 1), ("d", 1), ("loop", 0)),  # no circle to cross
        (("f", 1), ("d", 1), ("d", 0)),  # dart 0 bounds the root region
        (("f", 1), ("d", 4), ("d", 1)),  # no dart 4
        (("f", 1), ("d", 1), ("x", 1)),  # no such element kind
        (("f", 99), ("d", 1), ("d", 3)),  # a face key naming no dart
        (("f",), ("d", 1), ("d", 3)),  # a face key with no dart at all
    ],
)
def test_rii_add_needs_an_existing_region_and_its_boundary(region, a, b):
    with pytest.raises(MoveError):
        surgery.rii_add(kink(), region, a, b, "A")


def test_rii_add_refuses_a_host_naming_no_region():
    d = kink(loops=[Loop("C", ("f", 0))])  # fails validate(): 0 is the up face
    with pytest.raises(MoveError, match="no region"):
        surgery.rii_add(d, ("f", 0), ("d", 0), ("d", 0), "A")


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
