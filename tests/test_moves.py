"""Move-layer tests: site enumeration, policy checks, scripts.

Counts pinned here were cross-checked by hand (the kink's 20 poke sites
were enumerated on paper region by region).
"""

import random

import pytest

from hardsplit import surgery
from hardsplit.generators import (
    goeritz_diagram,
    split_d_pq,
    torus_knot_diagram,
    unknot_diagram,
)
from hardsplit.maps import PLANE, ROOT, SPHERE, Diagram, Loop, MoveError
from hardsplit.moves import (
    CROSSING_DELTA,
    MoveSequence,
    MoveSite,
    apply_move,
    apply_script,
    enumerate_moves,
    format_move,
    parse_move,
    replay,
    top_of_sequence,
)

KINK = [3, 2, 1, 0]
TREFOIL = [11, 10, 5, 4, 3, 2, 9, 8, 7, 6, 1, 0]
# closure of a three-twist two-strand braid: same knot, different shadow
BRAID = [9, 4, 7, 10, 1, 8, 11, 2, 5, 0, 3, 6]


def free_loop():
    return Diagram(PLANE, [], [], labels=[], loops=[Loop("L0", ROOT)])


def kink():
    return Diagram(PLANE, KINK, [0], labels=["K"])


def trefoil(over):
    return Diagram(PLANE, TREFOIL, over, labels=["T"])


def hairpin():
    return surgery.rii_add(free_loop(), ROOT, ("loop", 0), ("loop", 0), "A")


def clasp():
    two = Diagram(
        PLANE, [], [], labels=[], loops=[Loop("LA", ROOT), Loop("LB", ROOT)]
    )
    return surgery.rii_add(two, ROOT, ("loop", 0), ("loop", 1), "B")


def census(d):
    out = {}
    for s in enumerate_moves(d):
        out.setdefault(s.kind, []).append(s)
    return out


# -- enumeration -----------------------------------------------------


def capped_corpus():
    plane = [
        torus_knot_diagram(2, 3),
        Diagram(PLANE, (5, 4, 7, 6, 1, 0, 3, 2), (1, 1)),  # Hopf
        goeritz_diagram(),
        split_d_pq(2, 3),  # has a loop: loop curls and loop pokes
        unknot_diagram(1),
        trefoil([0, 1, 0]),  # not alternating: bigon and triangle sites
    ]
    out = []
    for d in plane:
        s = d.with_mode(SPHERE)
        out += [d, s.rerooted(s.region_keys[-1])]
    return out


def test_capped_enumeration_is_the_filtered_full_one():
    kinds = set()
    loop_kinds = set()
    for d in capped_corpus():
        full = enumerate_moves(d)
        kinds |= {s.kind for s in full}
        loop_kinds |= {
            s.kind
            for s in full
            if s.spot[0] == "loop" or (s.kind == "RII+" and s.spot[1][0] == "loop")
        }
        for k in range(-3, 3):
            cap = d.ncross + k
            want = [s for s in full if d.ncross + CROSSING_DELTA[s.kind] <= cap]
            assert enumerate_moves(d, cap) == want, (d.ncross, k)
        assert enumerate_moves(d, None) == full
    # every gate is exercised, loop sites included
    assert kinds == {"RI+", "RI-", "RII+", "RII-", "RIII"}
    assert loop_kinds == {"RI+", "RII+"}


def test_free_loop_sites():
    ks = census(free_loop())
    assert sorted(ks) == ["RI+", "RII+"]
    assert len(ks["RI+"]) == 4  # in/out x over
    assert len(ks["RII+"]) == 4  # self-poke from either side x over


def test_kink_census():
    ks = census(kink())
    assert {k: len(v) for k, v in ks.items()} == {"RI+": 10, "RI-": 2, "RII+": 20}
    assert sorted(s.spot for s in ks["RI-"]) == [(0,), (2,)]
    # the up face is the monogon (0), so only dart 0 offers wrap curls
    assert sorted(s.spot for s in ks["RI+"] if s.spot[0] == "wrap") == [
        ("wrap", 0, 0),
        ("wrap", 0, 1),
    ]


def test_alternating_trefoil_admits_no_reductions_or_slides():
    # both alternating decorations: every bigon is a clasp, every
    # triangle has cyclic heights
    for over in ([0, 0, 0], [1, 1, 1]):
        ks = census(trefoil(over))
        assert sorted(ks) == ["RI+", "RII+"]


def test_cyclic_triangle_slide_is_vetoed():
    with pytest.raises(MoveError):
        apply_move(trefoil([0, 0, 0]), MoveSite("RIII", (0,)))


def test_braid_closure_trefoil_admits_no_reductions_or_slides():
    ks = census(Diagram(PLANE, BRAID, [0, 0, 0], labels=["T"]))
    assert sorted(ks) == ["RI+", "RII+"]


def test_nonalternating_trefoil_census():
    ks = census(trefoil([0, 1, 0]))
    assert len(ks["RII-"]) == 2
    assert len(ks["RIII"]) == 2
    assert sorted(s.spot for s in ks["RIII"]) == [(0,), (2,)]


def test_hairpin_has_exactly_one_bigon_retraction():
    ks = census(hairpin())
    assert {k: len(v) for k, v in ks.items()} == {
        "RI+": 18,
        "RI-": 2,
        "RII+": 60,
        "RII-": 1,
    }
    assert ks["RII-"][0].spot == (1,)


def test_clasp_has_four_bigon_retractions():
    d = clasp()
    ks = census(d)
    assert len(ks["RII-"]) == 4
    # pulling a circle out through a crescent leaves it nested inside
    # the other; through the lens or the outer face, side by side
    nests = {}
    for s in ks["RII-"]:
        out = apply_move(d, s)
        nests[s.spot] = sorted(lp.host for lp in out.loops)
    assert nests[(0,)] == [("l", 0), ROOT]
    assert nests[(2,)] == [("l", 1), ROOT]
    assert nests[(1,)] == [ROOT, ROOT]
    assert nests[(3,)] == [ROOT, ROOT]


def test_wrap_curl():
    d = kink()
    small = apply_move(d, MoveSite("RI+", ("d", 0, 0)))
    around = apply_move(d, MoveSite("RI+", ("wrap", 0, 0)))
    assert list(small.theta) == list(around.theta)
    assert small.hosts != around.hosts  # infinity inside the new petal
    assert not small.canonically_equal(around)
    assert small.with_mode("sphere").canonically_equal(around.with_mode("sphere"))
    # wrapping is undone by the same petal retraction
    back = next(s for s in enumerate_moves(around) if s.kind == "RI-")
    assert apply_move(around, back).canonically_equal(d)
    with pytest.raises(MoveError):
        apply_move(d, MoveSite("RI+", ("wrap", 1, 0)))  # not on the outer face


def test_curl_flavours_are_distinct():
    d = free_loop()
    codes = set()
    for s in census(d)["RI+"]:
        codes.add(apply_move(d, s).canonical_code())
    assert len(codes) == 4  # side and handedness both matter in the plane
    sphere = set()
    for s in census(d)["RI+"]:
        sphere.add(apply_move(d, s).with_mode("sphere").canonical_code())
    assert len(sphere) == 2  # in/out collapse on the sphere


# -- application and policy ------------------------------------------


def test_crossing_deltas_and_component_count():
    random.seed(3)
    pool = [free_loop(), kink(), hairpin(), clasp(), trefoil([0, 1, 0])]
    for _ in range(150):
        d = random.choice(pool)
        s = random.choice(enumerate_moves(d))
        out = apply_move(d, s)
        assert out.ncross - d.ncross == CROSSING_DELTA[s.kind]
        assert len(out.components) + len(out.loops) == len(d.components) + len(
            d.loops
        )


def test_every_insertion_has_a_removal_back():
    random.seed(11)
    pool = [free_loop(), kink(), trefoil([0, 1, 0]), hairpin()]
    for _ in range(120):
        d = random.choice(pool)
        want = d.canonical_code()
        adds = [s for s in enumerate_moves(d) if s.kind in ("RI+", "RII+")]
        out = apply_move(d, random.choice(adds))
        backs = [s for s in enumerate_moves(out) if s.kind in ("RI-", "RII-")]
        assert any(
            apply_move(out, s).canonical_code() == want for s in backs
        )


def test_every_removal_has_an_insertion_back():
    for d in (kink(), hairpin(), clasp(), trefoil([0, 1, 0])):
        want = d.canonical_code()
        for s in enumerate_moves(d):
            if s.kind not in ("RI-", "RII-"):
                continue
            out = apply_move(d, s)
            adds = [x for x in enumerate_moves(out) if x.kind in ("RI+", "RII+")]
            assert any(
                apply_move(out, x).canonical_code() == want for x in adds
            ), s


def test_triangle_slide_is_an_involution():
    d = trefoil([0, 1, 0])
    for s in census(d)["RIII"]:
        out = apply_move(d, s)
        assert sorted(len(f) for f in out.faces) == [1, 1, 1, 3, 6]
        back = census(out)["RIII"]
        assert any(apply_move(out, x).canonically_equal(d) for x in back)


def test_triangle_slide_tracks_outer_region():
    # flipping the centre triangle turns the outer triangle into the
    # hexagon; the up face must follow the territory, not the dart ids
    d = trefoil([0, 1, 0])
    out = apply_move(d, MoveSite("RIII", (2,)))
    (key,) = out.hosts
    _host, up = out.hosts[key]
    assert len(out.face_darts(up)) == 6


def test_clasp_2gon_refused():
    # each circle over at one crossing: no arc passes over both, so no
    # 2-gon can retract
    d = clasp()
    flat = Diagram(PLANE, d.theta, [0, 1], labels=d.labels, hosts=dict(d.hosts))
    assert not [s for s in enumerate_moves(flat) if s.kind == "RII-"]
    with pytest.raises(MoveError):
        apply_move(flat, MoveSite("RII-", (1,)))


def test_stale_sites_raise():
    d = kink()
    gone = apply_move(d, MoveSite("RI-", (0,)))
    with pytest.raises(MoveError):
        apply_move(gone, MoveSite("RI-", (0,)))

    t = trefoil([0, 1, 0])
    slid = apply_move(t, MoveSite("RI+", ("d", 0, 0)))
    with pytest.raises(MoveError):
        apply_move(slid, MoveSite("RIII", (0,)))


# -- sequences -------------------------------------------------------


def test_top_of_sequence():
    d = kink()
    s1 = MoveSite("RI+", ("d", 0, 0))
    seq = MoveSequence(d, (s1,))
    assert top_of_sequence(seq) == 1
    assert top_of_sequence(MoveSequence(d, ())) == 0

    d1 = apply_move(d, s1)
    s2 = next(s for s in enumerate_moves(d1) if s.kind == "RI-")
    assert top_of_sequence(MoveSequence(d, (s1, s2))) == 1
    assert len(replay(MoveSequence(d, (s1, s2)))) == 3


def test_sequence_reports_failing_step():
    d = kink()
    seq = MoveSequence(d, (MoveSite("RI-", (0,)), MoveSite("RI-", (0,))))
    with pytest.raises(MoveError, match="step 1"):
        top_of_sequence(seq)


# -- scripts ---------------------------------------------------------


def curled_nest():
    # the outer of two nested circles curled inward: the inner circle sits
    # in the curl's 2-face, so in the plane the two petals retract to
    # different diagrams (nested, or side by side)
    nest = Diagram(PLANE, [], [], labels=[], loops=[(None, ROOT), (None, ("l", 0))])
    return surgery.ri_add(nest, ("loop", 0, "in"), over=0)


def test_script_round_trip_every_site():
    pool = (free_loop(), kink(), trefoil([0, 1, 0]), hairpin(), clasp(), curled_nest())
    for d in pool:
        for s in enumerate_moves(d):
            line = format_move(s)
            assert parse_move(d, line) == s, line


def test_parse_side_left():
    d = kink()
    s = parse_move(d, "RI+ dart=1 side=L over=0")
    assert s.spot == ("d", d.theta[1], 0)


def test_apply_script_chain():
    out = apply_script(
        kink(),
        """
        # grow then shrink
        RI+ dart=0 side=R over=1

        RI- crossing=1
        """,
    )
    assert out.canonically_equal(kink())


def test_script_line_numbers_in_errors():
    with pytest.raises(MoveError, match="line 3"):
        apply_script(kink(), "RI+ dart=0 side=R over=1\n\nRII- face=99\n")


def test_parse_errors():
    d = kink()
    bad = [
        "RI+ dart=0 side=X over=1",
        "RI+ dart=0 side=R over=7",
        "RI+ loop=0 side=out over=0",  # no loops here
        "RI- crossing=9",
        "RI- crossing=0 petal=1",
        "RII+ dartA=0 dartB=1 over=C",
        "RII+ dartA=0 loopB=0 over=A",
        "RII+ dartA=0 dartB=1 over=A from=near",
        "RIII face=0 variant=2",
        "FLIP x=1",
        "RI+ dart=0 side=R over=1 extra=2",
        "RI+ dart=0 dart=1 side=R over=1",
    ]
    for line in bad:
        with pytest.raises(MoveError):
            apply_move(d, parse_move(d, line))


# "--1" and "²" pass str.isdigit once a "-" is stripped, and int() takes
# "+1"; none of them is a number in a move script
BAD_NUMBERS = [
    "RI- crossing=--1",
    "RII- face=²",
    "RII- face=+1",
    "RII+ dartA=0 dartB=2 over=A order=x",
]


@pytest.mark.parametrize("line", BAD_NUMBERS)
def test_bad_numbers_are_move_errors(line):
    d = trefoil([0, 0, 0])
    with pytest.raises(MoveError, match="missing or bad"):
        parse_move(d, line)
    with pytest.raises(MoveError, match="line 2: missing or bad"):
        apply_script(d, "# a comment\n" + line + "\n")


def test_self_poke_script_names_far_side():
    d = free_loop()
    near = MoveSite("RII+", (ROOT, ("loop", 0), ("loop", 0), "A", (), (), 1))
    far = MoveSite("RII+", (("l", 0), ("loop", 0), ("loop", 0), "A", (), (), 1))
    assert "from=far" not in format_move(near)
    assert "from=far" in format_move(far)
    for s in (near, far):
        assert parse_move(d, format_move(s)) == s
    assert not apply_move(d, near).canonically_equal(apply_move(d, far))
