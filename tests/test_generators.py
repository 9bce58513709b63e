"""Generator tests: crossing censuses, wiring regressions, fixtures."""

from math import gcd

import pytest

from hardsplit.canon import canonical_code
from hardsplit.generators import (
    d_pq,
    goeritz_diagram,
    split_d_pq,
    torus_knot_diagram,
    unknot_diagram,
)
from hardsplit.maps import PLANE, ROOT, SPHERE, Diagram
from hardsplit.moves import apply_move, enumerate_moves

TREFOIL = [11, 10, 5, 4, 3, 2, 9, 8, 7, 6, 1, 0]

COPRIME = [(p, q) for p in range(2, 11) for q in range(2, 11) if gcd(p, q) == 1]


def crossing_classes(d):
    "Crossings of U with itself, of U with M1 or M2, and among M1 and M2."
    assert set(d.labels) | {lp.label for lp in d.loops} <= {"U", "M1", "M2"}
    counts = [0, 0, 0]
    for c in range(d.ncross):
        counts[2 - d.strandpair_labels(c).count("U")] += 1
    return tuple(counts)


def test_torus_crossing_counts():
    assert torus_knot_diagram(2, 3).ncross == 3
    assert torus_knot_diagram(3, 4).ncross == 8
    assert torus_knot_diagram(5, 2).ncross == 8
    for n in range(2, 6):
        assert torus_knot_diagram(n, n + 1).ncross == n * n - 1


def test_torus_23_is_the_standard_trefoil():
    t = torus_knot_diagram(2, 3)
    skel = Diagram(PLANE, TREFOIL, (0, 0, 0))
    hand = Diagram(
        PLANE, TREFOIL, (0, 0, 0), (None,), (), {0: (ROOT, skel.face_of[0])}
    )
    assert canonical_code(t.with_mode(SPHERE)) == canonical_code(hand.with_mode(SPHERE))


def test_torus_outputs_are_knots():
    for p, q in [(2, 5), (3, 4), (4, 3), (5, 6)]:
        t = torus_knot_diagram(p, q)
        assert len(t.components) == 1
        assert t.validate() == []


def test_torus_rejects_bad_params():
    for p, q in [(2, 4), (3, 3), (6, 9), (1, 2), (2, 1), (0, 5)]:
        with pytest.raises(ValueError):
            torus_knot_diagram(p, q)
    with pytest.raises(ValueError):
        d_pq(4, 6)
    with pytest.raises(ValueError):
        split_d_pq(2, 2)


def test_pair_census_23():
    d = d_pq(2, 3)
    assert d.ncross == 10
    assert d.labels == ("M1", "M2", "U")
    assert crossing_classes(d) == (0, 2, 8)
    assert len(d.islands) == 1 and not d.loops
    assert d.validate() == []


def test_pair_census_formula():
    for n in range(2, 6):
        d = d_pq(n, n + 1)
        assert d.ncross == 2 * n * n + 2
        assert crossing_classes(d) == (0, 2, 2 * n * n)


def test_pair_wiring():
    # the guard circle crosses only M1's tongue; the clasp joins M1 to M2
    d = d_pq(2, 3)
    n = 6
    assert set(d.strandpair_labels(n)) == {"M1", "M2"}
    assert set(d.strandpair_labels(n + 1)) == {"M1", "M2"}
    assert set(d.strandpair_labels(n + 2)) == {"M1", "U"}
    assert set(d.strandpair_labels(n + 3)) == {"M1", "U"}
    # U is the over strand at both of its crossings
    for c in (n + 2, n + 3):
        for s in range(4):
            dart = 4 * c + s
            over = d.is_over_dart(dart)
            assert over == (d.label_of_dart(dart) == "U")


def test_split_pair():
    s = split_d_pq(2, 3)
    assert s.ncross == 8
    assert s.labels == ("M1", "M2")
    assert [lp.label for lp in s.loops] == ["U"]
    assert crossing_classes(s) == (0, 0, 8)
    assert split_d_pq(3, 4).ncross == 18


def test_sweep_all_coprime_pairs():
    for p, q in COPRIME:
        d = d_pq(p, q)
        s = split_d_pq(p, q)
        assert d.ncross == 2 * q * (p - 1) + 4
        assert s.ncross == d.ncross - 2
        assert d.validate() == [] and s.validate() == []
        assert canonical_code(d) and canonical_code(s)


def test_goeritz_fixture():
    g = goeritz_diagram()
    assert g.ncross == 11
    assert len(g.components) == 1
    assert g.validate() == []
    assert len(g.faces) == 13
    # the drawing's unbounded region is the hexagon through both big arcs
    assert len(g.face_darts(g.hosts[min(g.islands)][1])) == 6


def test_unknot_kinks():
    bare = unknot_diagram(0)
    assert bare.ncross == 0 and len(bare.loops) == 1
    assert unknot_diagram(1).ncross == 1
    d = unknot_diagram(5)
    steps = 0
    while d.ncross:
        site = next(s for s in enumerate_moves(d) if s.kind == "RI-")
        d = apply_move(d, site)
        steps += 1
    assert steps == 5
    with pytest.raises(ValueError):
        unknot_diagram(-1)
