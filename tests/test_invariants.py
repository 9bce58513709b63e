"""Invariant tests: linking, splitness, floors, tricolorability.

Tricolorability gets an independent oracle: arcs by union-find over
edges and a brute-force scan of all 3^arcs colorings, checked against
the GF(3) rank computation on every small fixture.
"""

from itertools import product
import random

import pytest

from hardsplit.generators import (
    d_pq,
    goeritz_diagram,
    split_d_pq,
    torus_knot_diagram,
    unknot_diagram,
)
from hardsplit.invariants import (
    component_names,
    crossing_sign,
    d_pq_crossing_floor,
    is_split_diagram,
    linking_number,
    linking_table,
    murasugi_bound,
    splitting_peak_floor,
    tricolorable,
)
from hardsplit.maps import PLANE, ROOT, Diagram, DiagramError
from hardsplit.moves import apply_move, enumerate_moves


def hopf(mirror=False):
    # sigma_1^2 closed on two strands
    theta = (5, 4, 7, 6, 1, 0, 3, 2)
    return Diagram(PLANE, theta, (0, 0) if mirror else (1, 1))


def unlink(k):
    return Diagram(PLANE, (), (), (), ((None, ROOT),) * k, {})


def brute_tricolorable(d):
    """Scan all arc colorings; arcs via union-find rather than orbit walks."""
    edges = sorted({min(x, d.theta[x]) for x in d.darts()})
    parent = {e: e for e in edges}

    def find(e):
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    def edge(x):
        return min(x, d.theta[x])

    for c in range(d.ncross):
        s = 1 - d.over[c]  # an over slot
        parent[find(edge(4 * c + s))] = find(edge(4 * c + s + 2))
    arcs = sorted({find(e) for e in edges})
    aidx = {a: i for i, a in enumerate(arcs)}
    nvars = len(arcs) + len(d.loops)

    rels = []
    for c in range(d.ncross):
        s = 1 - d.over[c]
        u = d.over[c]  # an under slot
        rels.append(
            (
                aidx[find(edge(4 * c + s))],
                aidx[find(edge(4 * c + u))],
                aidx[find(edge(4 * c + u + 2))],
            )
        )
    for colors in product(range(3), repeat=nvars):
        if len(set(colors)) == 1:
            continue
        if all(sum(colors[v] for v in r) % 3 == 0 for r in rels):
            return True
    return False


def labeled(d, stem="L"):
    labels = tuple("%s%d" % (stem, i) for i in range(len(d.labels)))
    loops = tuple(
        ("%s%d" % (stem, len(labels) + i), lp.host) for i, lp in enumerate(d.loops)
    )
    return Diagram(d.mode, d.theta, d.over, labels, loops, dict(d.hosts))


def test_component_names():
    assert component_names(d_pq(2, 3)) == ("M1", "M2", "U")
    assert component_names(split_d_pq(2, 3)) == ("M1", "M2", "U")
    assert component_names(hopf()) == ("#0", "#1")
    assert component_names(unlink(2)) == ("#0", "#1")
    assert component_names(goeritz_diagram()) == ("#0",)


def test_linking_hopf():
    assert linking_table(hopf()) == {("#0", "#1"): 1}
    assert linking_table(hopf(mirror=True)) == {("#0", "#1"): 1}
    assert abs(linking_number(hopf(), 0, 1)) == 1
    assert linking_number(hopf(), 0, 1) == -linking_number(hopf(mirror=True), 0, 1)


def test_linking_clasped_pair():
    want = {("M1", "M2"): 1, ("M1", "U"): 0, ("M2", "U"): 0}
    assert linking_table(d_pq(2, 3)) == want
    assert linking_table(split_d_pq(2, 3)) == want
    assert linking_table(d_pq(3, 4)) == want
    assert linking_number(d_pq(2, 3), "U", "M1") == 0
    assert linking_number(d_pq(2, 3), "U", "M2") == 0
    assert abs(linking_number(d_pq(2, 3), "M1", "M2")) == 1


def test_linking_errors():
    d = d_pq(2, 3)
    with pytest.raises(DiagramError):
        linking_number(d, "M1", "M1")
    with pytest.raises(DiagramError):
        linking_number(d, "M1", "X")
    with pytest.raises(DiagramError):
        linking_number(d, 0, 3)
    # two circles labelled alike: the name picks neither
    twins = Diagram(PLANE, (), (), (), (("A", ROOT), ("A", ROOT), ("B", ROOT)), {})
    with pytest.raises(DiagramError, match="component name 'A' is ambiguous"):
        linking_number(twins, "A", "B")


def test_crossing_signs_of_the_pair():
    # the guard circle's two crossings cancel; everything else is positive
    d = d_pq(2, 3)
    assert tuple(crossing_sign(d, c) for c in range(d.ncross)) == (1,) * 9 + (-1,)


def test_split_predicate_unpartitioned():
    assert is_split_diagram(unlink(2))
    assert is_split_diagram(split_d_pq(2, 3))
    assert not is_split_diagram(d_pq(2, 3))
    assert not is_split_diagram(hopf())
    assert not is_split_diagram(unlink(1))
    assert not is_split_diagram(torus_knot_diagram(2, 3))


def test_split_predicate_partitioned():
    s = split_d_pq(2, 3)
    assert is_split_diagram(s, ("U",))
    assert is_split_diagram(s, (("U",), ("M1", "M2")))
    assert is_split_diagram(s, ("M1", "M2"))
    assert not is_split_diagram(s, ("M1",))
    # a bare string is one component name, not a set of one-letter names
    assert not is_split_diagram(s, "M1")
    assert is_split_diagram(s, "U")
    # a pair with a collection in it is two sides, a bare name a side of one;
    # a pair of two names stays one side (above)
    assert is_split_diagram(s, ("U", ("M1", "M2")))
    assert is_split_diagram(s, [["M2", "M1"], "U"])
    assert not is_split_diagram(s, ("M1", ("U", "M2")))
    for side in [("U",), ("M1",), ("M2",), ("M1", "M2")]:
        assert not is_split_diagram(d_pq(2, 3), side)


def test_split_partition_errors():
    s = split_d_pq(2, 3)
    with pytest.raises(DiagramError):
        is_split_diagram(s, ("U", "M1", "M2"))  # one side empty
    with pytest.raises(DiagramError):
        is_split_diagram(s, ())
    with pytest.raises(DiagramError):
        is_split_diagram(s, ("nope",))
    with pytest.raises(DiagramError):
        is_split_diagram(s, (("U", "M1"), ("M1", "M2")))  # overlap
    with pytest.raises(DiagramError):
        is_split_diagram(s, (("U",), ("M1",)))  # misses M2
    with pytest.raises(DiagramError, match="misses"):
        is_split_diagram(s, ("U", ("M1",)))


def test_splitness_is_not_move_invariant():
    s = split_d_pq(2, 3)
    site = next(
        m
        for m in enumerate_moves(s)
        if m.kind == "RII+"
        and {e[0] for e in (m.spot[1], m.spot[2])} == {"d", "loop"}
    )
    j = apply_move(s, site)
    assert j.validate() == []
    assert not is_split_diagram(j)
    assert not is_split_diagram(j, ("U",))
    # while the true invariants survive the poke
    assert component_names(j) == component_names(s)
    assert linking_table(j) == linking_table(s)
    assert tricolorable(j) == tricolorable(s)


def test_murasugi_bound_values():
    assert murasugi_bound(2, 3) == 3
    assert murasugi_bound(2, 5) == 5
    assert murasugi_bound(3, 4) == 8
    assert murasugi_bound(4, 3) == 8
    for n in range(2, 11):
        assert murasugi_bound(n, n + 1) == n * n - 1


def test_murasugi_bound_rejects_bad_params():
    for p, q in [(2, 4), (3, 3), (6, 9), (1, 5), (2, 0)]:
        with pytest.raises(ValueError):
            murasugi_bound(p, q)


def test_crossing_floors():
    assert d_pq_crossing_floor(2) == 8
    assert d_pq_crossing_floor(3) == 18
    for n in range(2, 11):
        assert d_pq_crossing_floor(n) == 2 * n * n
        assert d_pq(n, n + 1).ncross == d_pq_crossing_floor(n) + 2
    assert splitting_peak_floor(2) == 10
    assert splitting_peak_floor(3) == 20
    assert splitting_peak_floor(4) == 35
    with pytest.raises(ValueError):
        d_pq_crossing_floor(1)
    with pytest.raises(ValueError):
        splitting_peak_floor(1)


def test_tricolorable_fixtures():
    assert tricolorable(torus_knot_diagram(2, 3))
    assert not tricolorable(unknot_diagram())
    assert not tricolorable(unknot_diagram(3))
    assert not tricolorable(goeritz_diagram())
    assert not tricolorable(torus_knot_diagram(2, 5))
    assert not tricolorable(hopf())
    assert tricolorable(unlink(2))
    assert tricolorable(d_pq(2, 3))
    assert tricolorable(split_d_pq(2, 3))


def test_tricolorable_matches_brute_force():
    for d in [
        torus_knot_diagram(2, 3),
        torus_knot_diagram(2, 5),
        torus_knot_diagram(3, 2),
        hopf(),
        hopf(mirror=True),
        unknot_diagram(2),
        goeritz_diagram(),
        d_pq(2, 3),
        split_d_pq(2, 3),
    ]:
        assert tricolorable(d) == brute_tricolorable(d)


def test_invariance_under_random_moves():
    rng = random.Random(20817)
    for base in [
        labeled(torus_knot_diagram(2, 3)),
        labeled(hopf()),
        d_pq(2, 3),
        labeled(unknot_diagram(1)),
        labeled(unlink(2)),
    ]:
        ncomp = len(component_names(base))
        table = linking_table(base)
        tric = tricolorable(base)
        d = base
        for _ in range(12):
            d = apply_move(d, rng.choice(enumerate_moves(d)))
            assert d.validate() == []
            assert len(component_names(d)) == ncomp
            assert linking_table(d) == table
            assert tricolorable(d) == tric
