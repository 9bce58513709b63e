import random
from hashlib import sha256

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hardsplit import canon, _canon_py
from hardsplit.canon import canonical_code, state_digest
from hardsplit.generators import (
    d_pq,
    goeritz_diagram,
    split_d_pq,
    torus_knot_diagram,
)
from hardsplit.maps import PLANE, ROOT, SPHERE, Diagram, DiagramError
from hardsplit.moves import apply_move, enumerate_moves

KINK = [3, 2, 1, 0]
TREFOIL = [11, 10, 5, 4, 3, 2, 9, 8, 7, 6, 1, 0]


def tre(over=(0, 0, 0), **kw):
    return Diagram(PLANE, TREFOIL, over, labels=["T"], **kw)


def test_relabel_invariance():
    d = tre()
    assert canonical_code(d) == canonical_code(d.relabeled([2, 0, 1], [1, 2, 3]))
    assert canonical_code(d) == canonical_code(d.relabeled([1, 2, 0], [3, 0, 1]))


def test_decoration_matters():
    assert canonical_code(tre()) != canonical_code(tre(over=(0, 0, 1)))
    a = Diagram(PLANE, KINK, [0], labels=["A"])
    b = Diagram(PLANE, KINK, [0], labels=["B"])
    assert canonical_code(a) != canonical_code(b)


def test_mirror_differs():
    # reflect the slot numbering; odd slots stay odd so over bits carry over
    d = tre()
    dmap = {4 * c + s: 4 * c + ((-s) & 3) for c in range(3) for s in range(4)}
    theta = [0] * 12
    for x, t in enumerate(d.theta):
        theta[dmap[x]] = dmap[t]
    m = Diagram(PLANE, theta, d.over, labels=["T"])
    assert canonical_code(d) != canonical_code(m)
    assert canonical_code(d.with_mode(SPHERE)) != canonical_code(m.with_mode(SPHERE))


def test_plane_embedding_matters_sphere_does_not():
    a = Diagram(PLANE, KINK, [0], labels=["K"])  # petal outward
    b = Diagram(PLANE, KINK, [0], labels=["K"], hosts={0: (ROOT, 1)})
    assert canonical_code(a) != canonical_code(b)
    assert canonical_code(a.with_mode(SPHERE)) == canonical_code(b.with_mode(SPHERE))


def test_sphere_reroot_invariance():
    d = Diagram(SPHERE, KINK, [0], labels=["K"], loops=[("C", ("f", 2))])
    for region in (("f", 1), ("f", 2), ("l", 0)):
        assert canonical_code(d) == canonical_code(d.rerooted(region))


def test_split_pieces_commute():
    a = Diagram(
        PLANE, KINK + [x + 4 for x in KINK], [0, 1],
        labels=["A", "B"], loops=[("C", ROOT)],
    )
    # same content with the two pieces' ids exchanged
    b = a.relabeled([1, 0], None)
    assert a.labels == ("A", "B") and b.labels == ("B", "A")
    assert canonical_code(a) == canonical_code(b)


def test_nesting_depth_coded():
    flat = Diagram(PLANE, KINK, [0], labels=["K"], loops=[("C", ROOT)])
    nested = Diagram(PLANE, KINK, [0], labels=["K"], loops=[("C", ("f", 2))])
    assert canonical_code(flat) != canonical_code(nested)


def test_digest_shape():
    d = tre()
    fp = state_digest(canonical_code(d))
    assert isinstance(fp, bytes) and len(fp) == 16
    assert fp == state_digest(canonical_code(d.relabeled([2, 0, 1], [1, 2, 3])))
    assert fp != state_digest(canonical_code(tre(over=(0, 0, 1))))


def test_label_table_limit():
    labels = ["L%d" % i for i in range(16)]
    loops = [(lab, ROOT) for lab in labels]
    d = Diagram(PLANE, [], [], labels=[], loops=loops)
    with pytest.raises(DiagramError):
        canonical_code(d)


def exhaustive_best_walk(theta, deco, darts, faces, face_of):
    "Reference kernel: the smallest walk code over every dart as a start."
    wide = len(darts) > 252
    best = None
    argmin = []
    for s in darts:
        code, lab, order = _canon_py.walk(theta, deco, s, wide)
        if len(order) != len(darts):
            raise ValueError("darts must be the dart set of one connected piece")
        if best is None or code < best:
            best, argmin = code, [(lab, order)]
        elif code == best:
            argmin.append((lab, order))
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
    # 260 darts: past 252 the walk numbers darts with two bytes
    "T(2,65)": lambda: torus_knot_diagram(2, 65),
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


def test_one_island_code_records_an_achieving_numbering():
    # a diagram with one island and no loops is coded without the region
    # recursion and records the walk orders of the numberings that achieve
    # its code, in kernel order; in the plane, exactly those that also
    # give the smallest up-face marker
    single = 0
    for d in partition_corpus():
        code = canon.canonical_code(d)
        if len(d.islands) != 1 or d.loops:
            assert d.numberings is None
            continue
        single += 1
        table, sym, deco = canon._decorations(d)
        (key,) = d.islands
        walk = _canon_py.best_walk(d.theta, deco, d.islands[key], d.faces, d.face_of)
        orders = [tuple(order) for _lab, order in walk[1]]
        if d.mode == PLANE:
            # the region recursion, given the same walk, codes it alike
            assert code == ("P", table, canon._region_code(d, sym, {key: walk}, ROOT))
            up = d.face_darts(d.hosts[key][1])
            marker = code[2][0][1][1]
            orders = [o for o in orders if min(o.index(x) for x in up) == marker]
        assert d.numberings == tuple(orders)
    assert single


def island_faces(d, key):
    "The face orbits of island `key`, sorted by key as `d.faces` is."
    return [orb for orb in d.faces if d.island_of[orb[0]] == key]


def test_walk_numbers_one_island_of_two():
    # the numbering is indexed by dart: the other island's darts read -1,
    # and the discovery order lists the walked island's darts by number
    d = Diagram(PLANE, KINK + [x + 4 for x in KINK], [0, 1])
    _table, _sym, deco = canon._decorations(d)
    _code, lab, order = _canon_py.walk(d.theta, deco, 5, False)
    assert len(lab) == d.ndart and lab[:4] == [-1] * 4
    assert order[0] == 5 and sorted(order) == [4, 5, 6, 7]
    assert [lab[x] for x in order] == [0, 1, 2, 3]
    faces = island_faces(d, 4)
    _best, achievers = _canon_py.best_walk(d.theta, deco, d.islands[4], faces, d.face_of)
    for lab, order in achievers:
        assert lab[:4] == [-1] * 4 and sorted(order) == [4, 5, 6, 7]


def test_disconnected_darts_rejected():
    d = Diagram(PLANE, KINK + [x + 4 for x in KINK], [0, 1])
    _table, _sym, deco = canon._decorations(d)

    def walk(darts, faces):
        return _canon_py.best_walk(d.theta, deco, darts, faces, d.face_of)

    assert walk((0, 1, 2, 3), island_faces(d, 0))
    # the darts are the piece's in any order
    assert walk([3, 1, 0, 2], island_faces(d, 0))
    with pytest.raises(ValueError):
        walk(list(range(8)), d.faces)
    with pytest.raises(ValueError):
        walk([0, 1, 2], island_faces(d, 0))
    # as many darts as the faces' piece holds, but not that piece's darts:
    # a negative dart (which would index from the end), a repeated dart,
    # a dart of the other piece, and the other piece whole
    for darts in ([-1, 0, 1, 2], [0, 1, 2, 2], [0, 1, 2, 4], [4, 0, 1, 2], [4, 5, 6, 7]):
        with pytest.raises(ValueError):
            walk(darts, island_faces(d, 0))


def flen_start_darts(theta, deco, darts, flen):
    """The start set by the earlier rule: `flen[x]` is the length of dart
    x's face, read into a per-dart list before every code."""
    m = min([flen[x] for x in darts])
    cand = [x for x in darts if flen[x] == m]
    sig = [(flen[theta[x]], deco[x]) for x in cand]
    low = min(sig)
    return [x for x, s in zip(cand, sig) if s == low]


def test_face_start_set_matches_the_per_dart_rule():
    # the kernel reads face lengths off the face orbits; its start set,
    # in order, must be the one the per-dart length list picked.  The
    # corpus holds split_d_pq(2,3), with several islands and loops; the
    # children of T(2,65) (about 18,000 sites) are left out for time
    ds = partition_corpus()
    for name, make in CORPUS.items():
        if name != "T(2,65)":
            d = make()
            ds += [apply_move(d, site) for site in enumerate_moves(d)]
    pieces = 0
    for d in ds:
        _table, _sym, deco = canon._decorations(d)
        flen = [0] * d.ndart
        for orb in d.faces:
            for x in orb:
                flen[x] = len(orb)
        for key, darts in d.islands.items():
            got = _canon_py._start_darts(d.theta, deco, island_faces(d, key), d.face_of)
            assert got == flen_start_darts(d.theta, deco, darts, flen)
            pieces += 1
    assert pieces > len(ds)  # some diagrams have several islands


# sha256 of repr((state_digest, numberings)) over the children of every
# enumerated site of the trefoil, the Hopf link and d_pq(2,3), in order, in
# each mode; on the sphere the order of the walk kernel's start set shows
CHILDREN_PINS = {
    PLANE: "e96b38fb05146485514d783640cefcceb88c8bc70960d474686a0f85915d8e66",
    SPHERE: "077ce3adaefba4ec192e8c4276fdfce060acbf0a22d874e534d6adbd80a25913",
}


def test_children_digests_and_numberings_are_pinned():
    got = {}
    for mode in CHILDREN_PINS:
        h = sha256()
        for d in (torus_knot_diagram(2, 3), hopf(), d_pq(2, 3)):
            d = d.with_mode(mode)
            for site in enumerate_moves(d):
                child = apply_move(d, site)
                h.update(repr((state_digest(canonical_code(child)), child.numberings)).encode())
        got[mode] = h.hexdigest()
    assert got == CHILDREN_PINS


@st.composite
def relabelings(draw, d):
    n = d.ncross
    perm = draw(st.permutations(range(n)))
    shifts = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return perm, shifts


PROPERTY_CORPUS = ["goeritz", "d_pq(2,3)", "trefoil", "split d_pq(2,3)", "T(2,65)"]


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
