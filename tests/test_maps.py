import copy
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardsplit import maps
from hardsplit.canon import canonical_code
from hardsplit.generators import (
    d_pq,
    goeritz_diagram,
    split_d_pq,
    torus_knot_diagram,
    unknot_diagram,
)
from hardsplit.maps import (
    PLANE,
    ROOT,
    SPHERE,
    Diagram,
    DiagramError,
    Loop,
    opp,
    rot,
)
from hardsplit.moves import MoveSite, apply_move, enumerate_moves
from hardsplit.search import closure_digests
from hardsplit.surgery import ri_add, ri_remove, rii_add, site_face

KINK = [3, 2, 1, 0]
# trefoil shadow: three crossings, each pair joined by two parallel edges
TREFOIL = [11, 10, 5, 4, 3, 2, 9, 8, 7, 6, 1, 0]


def test_dart_algebra():
    assert opp(4) == 6 and opp(6) == 4
    assert rot(4) == 5 and rot(7) == 4
    for d in range(12):
        assert rot(rot(rot(rot(d)))) == d and rot(d) >> 2 == d >> 2
        assert rot(rot(d)) == opp(d)
        assert opp(opp(d)) == d


def test_constructor_validation():
    with pytest.raises(DiagramError):
        Diagram(PLANE, [0, 1, 3, 2], [0])  # fixed points
    with pytest.raises(DiagramError):
        Diagram(PLANE, [3, 2, 1], [0])  # dart count
    with pytest.raises(DiagramError):
        Diagram(PLANE, [3, 2, 1, 1], [0])  # not an involution
    with pytest.raises(DiagramError):
        Diagram(PLANE, KINK, [0, 0])  # over length
    with pytest.raises(DiagramError):
        Diagram("torus", [], [])
    with pytest.raises(DiagramError):
        Diagram(PLANE, KINK, [0], labels=["a", "b"])
    with pytest.raises(DiagramError):
        Diagram(PLANE, KINK, [0], hosts={4: (ROOT, 0)})


def test_immutability():
    d = Diagram(PLANE, KINK, [0])
    with pytest.raises(AttributeError):
        d.mode = SPHERE
    with pytest.raises(AttributeError):
        d.faces = ()
    with pytest.raises(AttributeError):
        d.island_of = {}


def test_kink_faces():
    d = Diagram(PLANE, KINK, [0])
    assert sorted(d.faces) == [(0,), (1, 3), (2,)]
    assert d.face_of[3] == 1
    assert d.face_darts(1) == (1, 3)
    with pytest.raises(DiagramError):
        d.face_darts(3)  # 3 is not a face key


def test_trefoil_faces_and_components():
    d = Diagram(PLANE, TREFOIL, [0, 0, 0], labels=["T"]).check()
    assert sorted(d.faces) == [(0, 8, 4), (1, 11), (2, 6, 10), (3, 5), (7, 9)]
    assert len(d.components) == 1
    comp = d.components[0]
    assert comp[0] == 0 and len(comp) == 6
    assert d.label_of_dart(7) == "T"
    assert list(d.islands) == [0]


def test_component_orientation_is_deterministic():
    d = Diagram(PLANE, KINK, [0])
    # the forward cycle is the one through the smallest dart
    assert d.components == ((0, 1),)
    assert d.comp_of[3] == 0


def test_non_planar_rejected():
    # both edges join opposite slots: one face, Euler characteristic 0
    d = Diagram(PLANE, [2, 3, 0, 1], [0])
    assert any("Euler" in v for v in d.validate())
    with pytest.raises(DiagramError):
        d.check()


def test_host_normalization():
    d = Diagram(PLANE, KINK, [0], hosts={0: (ROOT, 3)})
    assert d.hosts == {0: (ROOT, 1)}  # any dart of the face names it
    lp = Diagram(PLANE, KINK, [0], loops=[("C", ("f", 3))])
    assert lp.loops == (Loop("C", ("f", 1)),)


def test_default_hosting():
    d = Diagram(PLANE, KINK, [0])
    assert d.hosts == {0: (ROOT, 0)}
    assert d.region_children[ROOT] == [("I", 0)]
    assert d.region_of_face(0) == ROOT
    assert d.region_of_face(2) == ("f", 2)
    assert ("f", 0) not in d.region_keys


def test_region_boundary():
    d = Diagram(PLANE, KINK, [0], loops=[("C", ("f", 2))])
    b = d.region_boundary(("f", 2))
    assert ("d", 2) in b and ("loop", 0) in b
    outer = d.region_boundary(ROOT)
    assert set(outer) == {("d", 0)}  # the kink's outward face is the petal
    far = d.region_boundary(("l", 0))
    assert far == [("loop", 0)]


@pytest.mark.parametrize(
    "rkey",
    [("l", 5), ("f", 1), ("f", 3), ("q", 0), 5],
    ids=["no-loop", "up-face", "not-a-face-key", "no-kind", "not-a-tuple"],
)
def test_region_boundary_refuses_a_key_naming_no_region(rkey):
    # on the kinked unknot the regions are the root and faces 0 and 2;
    # face 1 is the island's up face, which ("f", 3) names by another dart
    d = unknot_diagram(1)
    assert d.region_keys == (ROOT, ("f", 0), ("f", 2))
    with pytest.raises(DiagramError, match="no region"):
        d.region_boundary(rkey)


def test_region_boundary_refuses_a_host_naming_no_region():
    # the kink's up face as a loop host: validate() reports it, and the
    # key still names no region
    d = Diagram(PLANE, KINK, [0], loops=[("C", ("f", 0))])
    assert d.validate() == ["loop 0: host region ('f', 0) does not exist"]
    with pytest.raises(DiagramError, match="no region"):
        d.region_boundary(("f", 0))


def test_hosting_cycle_detected():
    theta = KINK + [d + 4 for d in KINK]
    d = Diagram(
        PLANE,
        theta,
        [0, 0],
        hosts={0: (("f", 6), 1), 4: (("f", 2), 5)},
    )
    assert any("cycle" in v for v in d.validate())


def test_missing_host_region():
    # face 0 is the island's own up face, so ('f', 0) is not a region
    d = Diagram(PLANE, KINK, [0], loops=[("C", ("f", 0))])
    assert any("does not exist" in v for v in d.validate())


@pytest.mark.parametrize(
    "hosts, loops, want",
    [
        ({0: (ROOT, 5)}, (), ["island 0: up face 5 is not its own face"]),
        ({4: (("f", 0), 5)}, (), ["island 4: host region ('f', 0) does not exist"]),
        (
            {0: (("f", 2), 1)},
            (),
            ["island 0 hosted inside itself", "node ('I', 0): hosting cycle"],
        ),
        (
            {},
            [("C", ("l", 5))],
            [
                "loop 0: host region ('l', 5) does not exist",
                "node ('L', 0): broken host chain",
            ],
        ),
    ],
    ids=["up-face-elsewhere", "host-is-an-up-face", "hosted-in-itself", "no-such-loop"],
)
def test_validate_names_each_hosting_fault(hosts, loops, want):
    # two kinks side by side; each face is (0,), (1, 3), (2,) on the first
    theta = KINK + [d + 4 for d in KINK]
    assert Diagram(PLANE, theta, [0, 0], loops=loops, hosts=hosts).validate() == want


@pytest.mark.parametrize("over", [[2], ["x"], [None]])
def test_over_entries_other_than_0_or_1_are_refused(over):
    with pytest.raises(DiagramError, match="over entries must be 0 or 1"):
        Diagram(PLANE, KINK, over)


def test_is_over_dart():
    d = Diagram(PLANE, KINK, [0])
    assert d.is_over_dart(0) and d.is_over_dart(2)
    assert not d.is_over_dart(1) and not d.is_over_dart(3)
    e = Diagram(PLANE, KINK, [1])
    assert not e.is_over_dart(0) and e.is_over_dart(1)


def test_relabeled_preserves_structure():
    d = Diagram(PLANE, TREFOIL, [0, 1, 0], labels=["T"])
    r = d.relabeled([2, 0, 1], [1, 2, 3]).check()
    assert sorted(len(f) for f in r.faces) == sorted(len(f) for f in d.faces)
    assert r.labels == ("T",)
    # height decorations ride along with the renumbering
    for c in range(3):
        for s in range(4):
            old = 4 * c + s
            new = 4 * ([2, 0, 1][c]) + ((s + [1, 2, 3][c]) & 3)
            assert d.is_over_dart(old) == r.is_over_dart(new)


def test_relabeled_identity_and_shift():
    d = Diagram(PLANE, KINK, [0], labels=["K"])
    same = d.relabeled()
    assert list(same.theta) == KINK and same.over == (0,)
    shifted = d.relabeled(None, [2])
    # the kink is symmetric under a half turn
    assert list(shifted.theta) == KINK and shifted.over == (0,)


@pytest.mark.parametrize(
    "perm, shifts",
    [([0, 1, 5], None), ([0, 1], None), ([0, 0, 1], None), (None, [0, 1]), (None, [0] * 4)],
    ids=["out of range", "short", "repeated", "two shifts", "four shifts"],
)
def test_relabeled_refuses_a_bad_perm_or_shifts(perm, shifts):
    d = Diagram(PLANE, TREFOIL, [0, 1, 0])
    with pytest.raises(DiagramError):
        d.relabeled(perm, shifts)


def test_rerooted():
    d = Diagram(PLANE, KINK, [0], labels=["K"])
    r = d.rerooted(("f", 1))
    assert r.hosts == {0: (ROOT, 1)}
    assert list(r.theta) == KINK
    back = r.rerooted(("f", 0))
    assert back.hosts == d.hosts
    with pytest.raises(DiagramError):
        d.rerooted(("f", 0))  # already the outer region


def test_rerooted_pulls_chain_inside_out():
    d = Diagram(PLANE, KINK, [0], labels=["K"], loops=[("C", ("f", 2))])
    r = d.rerooted(("l", 0)).check()
    # the circle becomes outermost, the kink hangs inside it
    assert r.loops == (Loop("C", ROOT),)
    assert r.hosts == {0: (("l", 0), 2)}
    back = r.rerooted(("f", 0)).check()
    assert back.hosts == d.hosts and back.loops == d.loops


def test_with_mode():
    d = Diagram(PLANE, KINK, [0], labels=["K"])
    s = d.with_mode(SPHERE)
    assert s.mode == SPHERE and list(s.theta) == KINK
    assert s.with_mode(PLANE).hosts == d.hosts


# -- structure oracle --------------------------------------------------
#
# Faces, islands and strand components recomputed from theta alone, with
# the dart algebra written out here: nothing is shared with `maps`.


def _next_ccw(x):
    return 4 * (x // 4) + (x + 1) % 4


def _across(x):
    return 4 * (x // 4) + (x + 2) % 4


def _classes(n, pairs):
    "Union-find classes of 0..n-1 joined by `pairs`, keyed by smallest member."
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in pairs:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    groups = {}
    for x in range(n):
        groups.setdefault(find(x), []).append(x)
    return {min(g): tuple(sorted(g)) for g in groups.values()}


def assert_structure(d):
    th = d.theta
    n = len(th)

    faces = set()
    for x in range(n):
        orb = [x]
        y = _next_ccw(th[x])
        while y != x:
            orb.append(y)
            y = _next_ccw(th[y])
        i = orb.index(min(orb))
        faces.add(tuple(orb[i:] + orb[:i]))
    assert list(d.faces) == sorted(faces)
    assert d.face_of == tuple(f[0] for x in range(n) for f in faces if x in f)

    islands = _classes(n, [(x, _next_ccw(x)) for x in range(n)] + list(enumerate(th)))
    assert d.islands == islands
    assert list(d.islands) == sorted(islands)
    assert d.island_of == tuple(k for x in range(n) for k, ds in islands.items() if x in ds)

    strands = _classes(n, [(x, _across(x)) for x in range(n)] + list(enumerate(th)))
    assert len(d.components) == len(strands)
    for i, (low, ds) in enumerate(sorted(strands.items())):
        comp = d.components[i]
        assert comp[0] == low
        assert tuple(sorted(set(comp) | {th[x] for x in comp})) == ds
        assert all(d.comp_of[x] == i for x in ds)
    assert type(d.comp_of) is tuple and len(d.comp_of) == n

    ups = {up for _host, up in d.hosts.values()}
    regions = (
        [ROOT]
        + [("f", f[0]) for f in sorted(faces) if f[0] not in ups]
        + [("l", i) for i in range(len(d.loops))]
    )
    assert list(d.region_keys) == regions
    assert set(d.region_children) <= set(regions)
    assert all(d.region_children.values())
    listed = [e for kids in d.region_children.values() for e in kids]
    nodes = [("I", k) for k in islands] + [("L", i) for i in range(len(d.loops))]
    assert sorted(listed) == sorted(nodes)
    for k in islands:
        assert ("I", k) in d.region_children[d.hosts[k][0]]
    for i, lp in enumerate(d.loops):
        assert ("L", i) in d.region_children[lp.host]


def _hopf():
    return Diagram(PLANE, (5, 4, 7, 6, 1, 0, 3, 2), (1, 1))


@pytest.mark.parametrize(
    "make, with_children",
    [
        (lambda: torus_knot_diagram(2, 3), True),
        (_hopf, False),
        (goeritz_diagram, False),
        (lambda: d_pq(2, 3), False),
        (lambda: split_d_pq(2, 3), True),
        (lambda: unknot_diagram(2), False),
    ],
    ids=["trefoil", "hopf", "goeritz", "d_pq(2,3)", "split d_pq(2,3)", "unknot(2)"],
)
def test_structure_matches_oracle(make, with_children):
    d0 = make()
    corpus = [d0]
    if with_children:
        corpus += [apply_move(d0, s) for s in enumerate_moves(d0)]
    for d in corpus:
        s = d.with_mode(SPHERE)
        for e in (d, s.rerooted(s.region_keys[-1])):
            assert_structure(e)


def _dart_key_uses(x):
    """Each way a dart, face or loop key reaches the kink (or, for a loop,
    a bare circle) from outside `maps` and `surgery`, with `x` as the key."""
    kink = Diagram(PLANE, KINK, [0])
    circle = Diagram(PLANE, [], [], loops=[(None, ROOT)])
    return [
        ("up dart", lambda: Diagram(PLANE, KINK, [0], hosts={0: (ROOT, x)})),
        ("loop host face", lambda: Diagram(PLANE, KINK, [0], loops=[(None, ("f", x))])),
        ("island host face", lambda: Diagram(PLANE, KINK, [0], hosts={0: (("f", x), 0)})),
        ("rerooted", lambda: kink.rerooted(("f", x))),
        ("region_boundary", lambda: kink.region_boundary(("f", x))),
        ("region_of_face", lambda: kink.region_of_face(x)),
        ("rii_add region", lambda: rii_add(kink, ("f", x), ("d", 1), ("d", 3), "A")),
        ("ri_add dart", lambda: ri_add(kink, ("d", x), 0)),
        ("ri_add wrap dart", lambda: ri_add(kink, ("wrap", x), 0)),
        ("ri_add loop", lambda: ri_add(circle, ("loop", x, "out"), 0)),
        ("site_face", lambda: site_face(kink, x, 1)),
        ("ri_remove petal", lambda: ri_remove(kink, x)),
    ]


# the kink has darts 0..3, and a tuple indexed by -1 would read dart 3's
# face (1, 3): a real region
BAD_KEY_BUILDS = _dart_key_uses(99)[:3] + [
    ("short region key", lambda: Diagram(PLANE, KINK, [0]).rerooted(("f",))),
] + [
    ("%s %s" % (name, xid), build)
    for x, xid in ((-1, "-1"), (4, "ndart"), ("0", "non-int"), (2.0, "float"), ("a", "letter"))
    for name, build in _dart_key_uses(x)
]


@pytest.mark.parametrize(
    "build", [b for _, b in BAD_KEY_BUILDS], ids=[name for name, _ in BAD_KEY_BUILDS]
)
def test_bad_keys_are_diagram_errors(build):
    with pytest.raises(DiagramError):
        build()


# -- the shared structure pass -------------------------------------------
#
# Surgeries, re-rootings and `relabeled` hand `Diagram` a structure record
# computed once; a diagram rebuilt from its public fields alone must agree
# with it slot for slot.

STARTS = [
    lambda: torus_knot_diagram(2, 3),
    _hopf,
    goeritz_diagram,
    lambda: split_d_pq(2, 3),
    lambda: Diagram(PLANE, TREFOIL, [0, 1, 0]),  # the RII- and RIII sites
    lambda: unknot_diagram(1),  # the RI- sites
]
START_IDS = ["trefoil", "hopf", "goeritz", "split d_pq(2,3)", "nonalt trefoil", "unknot(1)"]


def _rebuilt(c):
    return Diagram(c.mode, tuple(c.theta), c.over, c.labels, c.loops, c.hosts)


@pytest.mark.parametrize(
    "make, capped",
    [(make, False) for make in STARTS]
    + [(lambda: d_pq(3, 4), True), (lambda: d_pq(4, 5), True)],
    ids=START_IDS + ["d_pq(3,4)", "d_pq(4,5)"],
)
def test_shared_structure_matches_rebuild(make, capped):
    rng = random.Random(7)
    d0 = make()
    # capped at their own size the d_pq starts list only RIII sites
    for site in enumerate_moves(d0, d0.ncross if capped else None):
        c = apply_move(d0, site)
        if site.kind == "RIII":
            # the new triangle sits across the old one's corners, and
            # sliding back across it undoes the move
            g = d0.face_darts(d0.face_of[site.spot[0]])
            back = apply_move(c, MoveSite("RIII", (c.face_of[opp(g[0])],)))
            assert canonical_code(back) == canonical_code(d0), site
        s = c.with_mode(SPHERE)
        perm = list(range(c.ncross))
        rng.shuffle(perm)
        shifts = [rng.randrange(4) for _ in perm]
        for e in (c, s, s.rerooted(s.region_keys[-1]), c.relabeled(perm, shifts)):
            r = _rebuilt(e)
            for slot in Diagram.__slots__:
                assert getattr(e, slot) == getattr(r, slot), slot


@pytest.fixture
def structure_calls(monkeypatch):
    "Count calls of `maps.structure` under every name it is bound to."
    calls = []
    orig = maps.structure

    def spy(theta):
        calls.append(theta)
        return orig(theta)

    for name, mod in list(sys.modules.items()):
        if name == "hardsplit" or name.startswith("hardsplit."):
            for key, val in list(vars(mod).items()):
                if val is orig:
                    monkeypatch.setattr(mod, key, spy)
    return calls


def assert_matches_rebuild(c):
    "`c` equals the diagram `structure` derives from its theta, slot for slot."
    r = _rebuilt(c)
    for slot in Diagram.__slots__:
        assert getattr(c, slot) == getattr(r, slot), slot


def assert_faces_walk(c):
    "Every face key of `c` gives the orbit a phi walk from the key traces."
    for f in set(c.face_of):
        orb = [f]
        while rot(c.theta[orb[-1]]) != f:
            orb.append(rot(c.theta[orb[-1]]))
        assert c.face_darts(f) == tuple(orb), f


CURL_WALK_STARTS = {
    "trefoil": lambda: torus_knot_diagram(2, 3),
    "hopf": _hopf,
    "unknot(1)": lambda: unknot_diagram(1),
    "split d_pq(2,3)": lambda: split_d_pq(2, 3),
}


@pytest.mark.parametrize("mode", [PLANE, SPHERE])
@pytest.mark.parametrize("name", sorted(CURL_WALK_STARTS))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_walked_children_match_rebuild(name, mode, data):
    # a walk of up to four moves under a cap of two added crossings; each
    # child, and the plain dart curl of every dart of the state reached,
    # is the diagram a full structure pass derives (curls patch theirs),
    # and reads each face's darts as a phi walk traces them
    d = CURL_WALK_STARTS[name]().with_mode(mode)
    cap = d.ncross + 2
    for _ in range(data.draw(st.integers(0, 4), label="moves")):
        sites = enumerate_moves(d, cap)
        if not sites:
            break
        d = apply_move(d, data.draw(st.sampled_from(sites), label="site"))
        assert_matches_rebuild(d)
        assert_faces_walk(d)
    if d.ncross < cap:
        for x in d.darts():
            c = ri_add(d, ("d", x), x & 1)
            assert_matches_rebuild(c)
            assert_faces_walk(c)


@pytest.mark.parametrize(
    "theta, over, x",
    [
        # not planar (one face, Euler characteristic 0): a plane shadow
        # has no bridge, so only such a map has an edge with one face on
        # both flanks, and the curl's three new face darts go in one orbit
        ([2, 3, 0, 1], [0], 0),
        ([2, 3, 0, 1], [1], 3),
        # a kink's petal edge from either end: dart 0's face is the
        # monogon (0,)
        (KINK, [0], 0),
        (KINK, [1], 3),
    ],
)
def test_curl_patch_on_a_one_faced_edge_and_a_petal(theta, over, x):
    d = Diagram(PLANE, theta, over)
    for ov in (0, 1):
        assert_matches_rebuild(ri_add(d, ("d", x), ov))
        assert_matches_rebuild(ri_add(d.with_mode(SPHERE), ("d", x), ov))


@pytest.mark.parametrize("make", STARTS, ids=START_IDS)
def test_one_structure_pass_per_child(make, structure_calls):
    d0 = make()
    curls = set()
    for site in enumerate_moves(d0):
        del structure_calls[:]
        apply_move(d0, site)
        # a dart curl, plain or wrap, patches its parent's record
        # (`maps.curled`); a loop curl runs one pass, as every other site
        curl = site.kind == "RI+" and site.spot[0] in ("d", "wrap")
        if curl:
            curls.add(site.spot[0])
        assert len(structure_calls) == (0 if curl else 1), site
    # a wrap curl needs its island alone at the root: split d_pq(2,3)
    # has two pieces there
    assert curls == ({"d"} if len(d0.islands) + len(d0.loops) > 1 else {"d", "wrap"})
    s = d0.with_mode(SPHERE)
    del structure_calls[:]
    for rkey in s.region_keys:
        s.rerooted(rkey).with_mode(PLANE)
    assert structure_calls == []


def test_malformed_theta_rejected_through_constructor(structure_calls):
    for theta in ([0, 1, 3, 2], [3, 2, 1], [3, 2, 1, 1], [3, 2, 1, 4]):
        with pytest.raises(DiagramError):
            Diagram(PLANE, theta, [0])
    assert len(structure_calls) == 4
    d = Diagram(PLANE, KINK, [0])
    assert len(structure_calls) == 5 and d.faces == ((0,), (1, 3), (2,))


HOPF = [5, 4, 7, 6, 1, 0, 3, 2]


def test_one_island_records_share_their_constant_maps():
    # the trefoil from one `structure` pass, a twice-curled kink from two
    # `curled` patches: one island and one strand each, on 12 darts
    a = Diagram(PLANE, TREFOIL, [0, 0, 0])
    b = ri_add(ri_add(Diagram(PLANE, KINK, [0]), ("d", 0), 0), ("d", 1), 1)
    assert a.ndart == b.ndart == 12 and a.theta != b.theta
    shared = ("island_of", "islands", "comp_of", "region_children")
    for name in shared:
        assert getattr(a, name) is getattr(b, name), name
    assert a.island_of is a.comp_of == (0,) * 12
    assert a.islands == {0: tuple(range(12))}
    assert a.region_children == {ROOT: [("I", 0)]}
    # a mode change and a re-rooting keep theta, and the island stays the
    # root region's one child
    s = a.with_mode(SPHERE)
    for e in (s, s.rerooted(s.region_keys[-1])):
        for name in shared:
            assert getattr(e, name) is getattr(a, name), name
    # one more curl: the shared maps of the next dart count
    c, d = ri_add(a, ("d", 5), 0), ri_add(b, ("d", 2), 1)
    for name in shared:
        assert getattr(c, name) is getattr(d, name), name
    assert c.island_of is not a.island_of and c.island_of == (0,) * 16


def test_several_strands_islands_or_loops_keep_their_own_maps():
    hopf = Diagram(PLANE, HOPF, [1, 1])
    split = split_d_pq(2, 3)
    for d in (hopf, split, ri_add(hopf, ("d", 0), 0)):
        # one island, two strands
        assert len(d.islands) == 1 and len(d.components) == 2
        assert d.island_of is maps._lone(d.ndart)[0]
        assert d.comp_of is not d.island_of and d.comp_of != d.island_of
    # split_d_pq's U is a loop
    assert split.loops and split.region_children is not maps._ROOT_ISLAND
    two = Diagram(PLANE, KINK + [7, 6, 5, 4], [0, 0])
    assert len(two.islands) == 2 and two.island_of == (0,) * 4 + (4,) * 4
    assert two.comp_of == (0,) * 4 + (1,) * 4
    assert two.region_children == {ROOT: [("I", 0), ("I", 4)]}
    curled_two = ri_add(two, ("d", 5), 0)
    assert curled_two.islands == {0: (0, 1, 2, 3), 4: (4, 5, 6, 7, 8, 9, 10, 11)}
    assert curled_two.island_of == (0,) * 4 + (4,) * 8


def test_shared_maps_are_unchanged_by_closures():
    shared = [maps._lone(nd) for nd in range(0, 28, 4)] + [maps._ROOT_ISLAND]
    before = copy.deepcopy(shared)
    circles = Diagram(PLANE, [], [], labels=[], loops=[Loop(None, ROOT)] * 3)
    for d0 in (Diagram(PLANE, TREFOIL, [0, 0, 0]), Diagram(PLANE, HOPF, [1, 1]), circles):
        for d in (d0, d0.with_mode(SPHERE)):
            assert closure_digests(d, 1)[1]
    assert shared == before
