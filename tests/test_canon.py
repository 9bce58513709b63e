import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardsplit import canon, _canon_py
from hardsplit.canon import state_digest
from hardsplit.generators import (
    d_pq,
    goeritz_diagram,
    split_d_pq,
    torus_knot_diagram,
)
from hardsplit.maps import PLANE, ROOT, SPHERE, Diagram, DiagramError, Loop
from hardsplit.moves import apply_move, enumerate_moves

KINK = [3, 2, 1, 0]
TREFOIL = [11, 10, 5, 4, 3, 2, 9, 8, 7, 6, 1, 0]


def tre(over=(0, 0, 0), **kw):
    return Diagram(PLANE, TREFOIL, over, labels=["T"], **kw)


def test_relabel_invariance():
    d = tre()
    assert d.canonically_equal(d.relabeled([2, 0, 1], [1, 2, 3]))
    assert d.canonically_equal(d.relabeled([1, 2, 0], [3, 0, 1]))


def test_decoration_matters():
    assert not tre().canonically_equal(tre(over=(0, 0, 1)))
    a = Diagram(PLANE, KINK, [0], labels=["A"])
    b = Diagram(PLANE, KINK, [0], labels=["B"])
    assert not a.canonically_equal(b)


def test_mirror_differs():
    # reflect the slot numbering; odd slots stay odd so over bits carry over
    d = tre()
    dmap = {4 * c + s: 4 * c + ((-s) & 3) for c in range(3) for s in range(4)}
    theta = [0] * 12
    for x, t in enumerate(d.theta):
        theta[dmap[x]] = dmap[t]
    m = Diagram(PLANE, theta, d.over, labels=["T"])
    assert not d.canonically_equal(m)
    assert not d.with_mode(SPHERE).canonically_equal(m.with_mode(SPHERE))


def test_plane_embedding_matters_sphere_does_not():
    a = Diagram(PLANE, KINK, [0], labels=["K"])  # petal outward
    b = Diagram(PLANE, KINK, [0], labels=["K"], hosts={0: (ROOT, 1)})
    assert not a.canonically_equal(b)
    assert a.with_mode(SPHERE).canonically_equal(b.with_mode(SPHERE))


def test_sphere_reroot_invariance():
    d = Diagram(SPHERE, KINK, [0], labels=["K"], loops=[("C", ("f", 2))])
    for region in (("f", 1), ("f", 2), ("l", 0)):
        assert d.canonically_equal(d.rerooted(region))


def test_split_pieces_commute():
    a = Diagram(
        PLANE, KINK + [x + 4 for x in KINK], [0, 1],
        labels=["A", "B"], loops=[("C", ROOT)],
    )
    # same content with the two pieces' ids exchanged
    b = a.relabeled([1, 0], None)
    assert a.labels == ("A", "B") and b.labels == ("B", "A")
    assert a.canonically_equal(b)


def test_nesting_depth_coded():
    flat = Diagram(PLANE, KINK, [0], labels=["K"], loops=[("C", ROOT)])
    nested = Diagram(PLANE, KINK, [0], labels=["K"], loops=[("C", ("f", 2))])
    assert not flat.canonically_equal(nested)


def test_digest_shape():
    d = tre()
    fp = state_digest(d.canonical_code())
    assert isinstance(fp, bytes) and len(fp) == 16
    assert fp == state_digest(d.relabeled([2, 0, 1], [1, 2, 3]).canonical_code())
    assert fp != state_digest(tre(over=(0, 0, 1)).canonical_code())


def test_label_table_limit():
    labels = ["L%d" % i for i in range(16)]
    loops = [(lab, ROOT) for lab in labels]
    d = Diagram(PLANE, [], [], labels=[], loops=loops)
    with pytest.raises(DiagramError):
        d.canonical_code()


def exhaustive_best_walk(theta, deco, darts):
    "Reference kernel: the smallest walk code over every dart as a start."
    if len(darts) <= 252:
        coder, stride = _canon_py.walk_code, 3
    else:
        coder, stride = _canon_py._walk_code_wide, 5
    best = None
    argmin = []
    for s in darts:
        code = coder(theta, deco, s)
        if len(code) != stride * len(darts):
            raise ValueError("darts must be the dart set of one connected piece")
        if best is None or code < best:
            best, argmin = code, [s]
        elif code == best:
            argmin.append(s)
    return best, argmin


def hopf():
    return Diagram(PLANE, (5, 4, 7, 6, 1, 0, 3, 2), (1, 1))


CORPUS = {
    "trefoil": lambda: torus_knot_diagram(2, 3),
    "hopf": hopf,
    "goeritz": goeritz_diagram,
    "d_pq(2,3)": lambda: d_pq(2, 3),
    "d_pq(3,4)": lambda: d_pq(3, 4),
    "T(3,4)": lambda: torus_knot_diagram(3, 4),
    "split d_pq(2,3)": lambda: split_d_pq(2, 3),
}


def random_relabeling(rng, d):
    n = d.ncross
    return d.relabeled(rng.sample(range(n), n), [rng.randrange(4) for _ in range(n)])


# under the exhaustive kernel the one-move children of Goeritz and the
# d_pq diagrams (about 2,000 pieces of 48 to 88 darts) take about 9 s, so
# only the smaller diagrams contribute their children
WITH_CHILDREN = ("trefoil", "hopf", "T(3,4)", "split d_pq(2,3)")


def partition_corpus():
    rng = random.Random(7)
    out = []
    for name, make in CORPUS.items():
        d = make()
        out += [d, random_relabeling(rng, d), random_relabeling(rng, d)]
        s = d.with_mode(SPHERE)
        out += [s.rerooted(r) for r in rng.sample(s.region_keys, 2)]
        if name in WITH_CHILDREN:
            out += [apply_move(d, site) for site in enumerate_moves(d)]
    return out


def test_pruned_kernel_keeps_the_partition(monkeypatch):
    # byte codes may differ from the exhaustive kernel's, but equal and
    # unequal must fall exactly as they do there
    corpus = partition_corpus()
    shipped = [canon.canonical_code(d) for d in corpus]
    monkeypatch.setattr(_canon_py, "best_walk", exhaustive_best_walk)
    reference = [canon.canonical_code(d) for d in corpus]
    classes = len(set(shipped))
    assert classes < len(corpus)  # the corpus does hold equal diagrams
    assert len(set(reference)) == classes == len(set(zip(shipped, reference)))


def test_disconnected_darts_rejected():
    d = Diagram(PLANE, KINK + [x + 4 for x in KINK], [0, 1])
    ctx = canon._Ctx(d)
    with pytest.raises(ValueError):
        _canon_py.best_walk(ctx.theta, ctx.deco, list(range(8)))
    with pytest.raises(ValueError):
        _canon_py.best_walk(ctx.theta, ctx.deco, [0, 1, 2])


@st.composite
def relabelings(draw, d):
    n = d.ncross
    perm = draw(st.permutations(range(n)))
    shifts = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return perm, shifts


PROPERTY_CORPUS = ["goeritz", "d_pq(2,3)", "trefoil", "split d_pq(2,3)"]


@pytest.mark.parametrize("name", PROPERTY_CORPUS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_digest_survives_relabeling(name, data):
    d = CORPUS[name]()
    perm, shifts = data.draw(relabelings(d))
    e = d.relabeled(perm, shifts)
    assert state_digest(canon.canonical_code(e)) == state_digest(canon.canonical_code(d))


@pytest.mark.parametrize("name", PROPERTY_CORPUS)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_sphere_digest_survives_rerooting(name, data):
    d = CORPUS[name]().with_mode(SPHERE)
    perm, shifts = data.draw(relabelings(d))
    e = d.relabeled(perm, shifts)
    e = e.rerooted(data.draw(st.sampled_from(e.region_keys)))
    assert state_digest(canon.canonical_code(e)) == state_digest(canon.canonical_code(d))
