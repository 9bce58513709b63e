"""Combinatorial-map representation of link diagrams.

A diagram with n crossings uses dart identifiers 0..4n-1; dart 4c+s is the
s-th edge end at crossing c, with slots numbered counterclockwise.  Only the
pairing involution ``theta`` (matching the two ends of each edge) needs to be
stored; the rotation system is implicit in the dart numbering.  Crossing-free
components ("loops") and the nesting of disconnected pieces are carried
alongside the map so that the planar embedding stays faithful for split
diagrams.

Faces are traced with phi(d) = rot(theta(d)); the orbit of a dart under phi
is the face lying to the right of that dart.

Everything theta alone determines (faces, strand components, islands) is
derived by one checking pass, `structure(theta)`, into an immutable
`Structure` record; its per-dart maps (`face_of`, `comp_of`, `island_of`)
are tuples indexed by dart, like theta.  A tuple reads -1 as its last
entry, so a dart key that comes from outside this module is range- and
type-checked (`_in_range`) before it indexes one.  `Diagram` accepts such
a record in place of theta, so a surgery that has already read faces and
islands off its new theta, or a re-rooting that keeps theta, hands the
record on instead of deriving it again.  A dart curl, plain or wrap
(`surgery.ri_add` on ("d", x) or ("wrap", x)), hands over a patched
record instead: `curled` splices the four new darts into the parent's
two faces, one strand and one island, shares every other tuple, and
checks theta at the darts whose partner changed.  `structure` stays the
one full derivation for every other theta, and `curled` the one patch.
A face's darts are read from the record (`face_darts`), never walked
again.

Records and diagrams share what does not vary between them.  A record
with one island takes `island_of` and `islands` from one pair per dart
count (`_lone`), and one with one strand takes the same zeros tuple as
`comp_of`; a diagram whose one island sits in the root region, with no
loops, takes one `region_children` (`_ROOT_ISLAND`).  Every state of a
one-island search holds them, so a waiting state costs only what is
its own.  Nothing may mutate a record's or a diagram's fields: a
builder that changes one copies it first, as `curled` and `rerooted`
do.

This module is the bottom of the package and imports none of it;
canonical codes, which compare diagrams up to isotopy, come from
`canon.canonical_code`.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple, Optional

PLANE = "plane"
SPHERE = "sphere"

#: Region key of the unbounded region (plane mode: the outer region).
ROOT = ("root",)


class DiagramError(Exception):
    """Malformed diagram data."""


class MoveError(DiagramError):
    """A move site that is absent, stale, or blocked."""


def opp(d: int) -> int:
    "Dart on the same strand directly across the crossing."
    return d ^ 2


def rot(d: int) -> int:
    "Next dart counterclockwise around the same crossing."
    return (d & ~3) | ((d + 1) & 3)


class Loop(NamedTuple):
    """A crossing-free circle living in some region of the diagram."""

    label: Optional[str]
    host: tuple


class Structure(NamedTuple):
    """Everything a pairing involution determines on its own.

    Built by `structure`, or for a dart curl patched from the parent's
    record by `curled`; the fields are the `Diagram` attributes
    of the same names.  A surgery computes it once for its new theta,
    reads faces and islands from it, and hands it to `Diagram` as the
    theta argument.  Both builders check theta: `structure` at every
    dart, `curled` at the darts whose partner changed and their old
    partners, the parent's record being checked already.  A record with
    one island shares `island_of` and `islands` with every other of its
    dart count, and one with one strand shares `comp_of` too (`_lone`),
    so no field may be mutated.
    """

    theta: tuple
    faces: tuple
    face_of: tuple
    components: tuple
    comp_of: tuple
    islands: dict
    island_of: tuple

    def face_darts(self, fkey):
        return _face_darts(self, fkey)


def structure(theta) -> Structure:
    """Check a pairing involution and derive its faces, strands and islands.

    Raises DiagramError unless `theta` is a fixed-point-free involution on
    0..4n-1.  Faces are phi-orbits, strands are forward (opp . theta)
    cycles, and islands are found by a search over crossings: an island is
    a set of whole crossings, keyed by its smallest dart.
    """
    theta = tuple(theta)
    nd = len(theta)
    if nd % 4:
        raise DiagramError("dart count %d is not a multiple of 4" % nd)

    # faces: orbits of phi = rot . theta (inlined), met from their smallest
    # dart.  The trace checks theta at each dart before it steps on: two
    # checked darts never share a phi-image, so each orbit closes at its
    # first dart, and every dart is checked once the trace is done
    fkey = [-1] * nd
    faces = []
    for d0 in range(nd):
        if fkey[d0] >= 0:
            continue
        orb = [d0]
        fkey[d0] = d0
        x = d0
        while True:
            t = theta[x]
            if not 0 <= t < nd or t == x or theta[t] != x:
                raise DiagramError(
                    "theta is not a fixed-point-free involution at dart %d" % x
                )
            x = (t & ~3) | ((t + 1) & 3)
            if x == d0:
                break
            orb.append(x)
            fkey[x] = d0
        faces.append(tuple(orb))

    # strands: opp . theta traces each one twice, once per direction; the
    # direction met first holds the strand's smallest dart and is kept,
    # and its theta-images (the other direction) are marked with it
    cidx = [-1] * nd
    comps = []
    for d0 in range(nd):
        if cidx[d0] >= 0:
            continue
        i = len(comps)
        orb = []
        x = d0
        while True:
            orb.append(x)
            t = theta[x]
            cidx[x] = cidx[t] = i
            x = t ^ 2
            if x == d0:
                break
        comps.append(tuple(orb))

    # islands: connected sets of crossings; one that holds them all takes
    # the shared pair
    ncross = nd >> 2
    ikey = [-1] * ncross
    islands = {}
    for c0 in range(ncross):
        if ikey[c0] >= 0:
            continue
        key = 4 * c0
        ikey[c0] = key
        members = [c0]
        for c in members:
            for t in theta[4 * c : 4 * c + 4]:
                if ikey[t >> 2] < 0:
                    ikey[t >> 2] = key
                    members.append(t >> 2)
        if len(members) == ncross:
            island_of, islands = _lone(nd)
            break
        members.sort()
        # from a list, not a generator: tuple() of a generator resizes a
        # small tuple and never reuses the freed tuples of the final size,
        # which pile up in the interpreter's free list (+0.3 MB peak RSS)
        islands[key] = tuple([d for c in members for d in range(4 * c, 4 * c + 4)])
    else:
        island_of = tuple([ikey[d >> 2] for d in range(nd)])

    return Structure(
        theta,
        tuple(faces),
        tuple(fkey),
        tuple(comps),
        _lone(nd)[0] if len(comps) == 1 else tuple(cidx),
        islands,
        island_of,
    )


# the shared (island_of, islands) pair of each dart count, made on first use
_LONE = {}


def _lone(nd):
    """The `(island_of, islands)` pair that every record with `nd` darts
    and one island holds: the island's key is dart 0, so `island_of` is
    `(0,) * nd`, which a record with one strand also takes as `comp_of`.
    Made once per dart count and shared, so nothing may mutate it."""
    pair = _LONE.get(nd)
    if pair is None:
        pair = _LONE[nd] = ((0,) * nd, {0: tuple(range(nd))})
    return pair


def _face_index(faces, f):
    "Index of the face keyed `f` in `faces`, which sort by key."
    # (f,) sorts right before every orbit that starts with f
    return bisect_left(faces, (f,))


def _spliced(orb, x, new):
    "The tuple `orb` with the tuple `new` inserted right after dart `x`."
    i = orb.index(x) + 1
    return orb[:i] + new + orb[i:]


def curled(s, x) -> Structure:
    """The record of `s` with the edge at dart `x` curled into the face on
    x's right, as `surgery.ri_add` does for ("d", x) and ("wrap", x),
    which differ only in hosts: the new crossing n makes x-n2,
    n1-theta[x] and n0-n3 edges, and 4n is the new petal.

    `s` is a checked record (a `Structure`, or the `Diagram` made from
    one) and `x` one of its darts.  The curl changes two face tuples, one
    strand and one island, and only those are rebuilt: n3, n1 go into x's
    face after x and n2 into theta[x]'s face after theta[x] (one orbit
    when both flanks are one face); n0, n1 go into the strand after x, or
    n3, n2 after theta[x], whichever direction it is stored in; the
    island gains the four darts and the monogon (4n,) comes last.  Every
    other tuple is shared.  The new darts sort last, so every key and
    order `structure` would give is kept.  Theta is checked at each dart
    whose partner changed and at that dart's old partner, which, with
    `s` already checked, is the whole involution check.
    """
    theta = s.theta
    nd = len(theta)
    n0, n1, n2, n3 = nd, nd + 1, nd + 2, nd + 3
    tx = theta[x]
    new = list(theta) + [n3, tx, x, n0]
    new[x], new[tx] = n2, n1
    new = tuple(new)
    for y in (x, tx, n0, n1, n2, n3):
        t = new[y]
        if not 0 <= t < n0 + 4 or t == y or new[t] != y:
            raise DiagramError("theta is not a fixed-point-free involution at dart %d" % y)

    face_of = s.face_of
    fx, ft = face_of[x], face_of[tx]
    faces = list(s.faces)
    # when both flanks are one face, the second splice goes into the
    # first's result
    i = _face_index(faces, fx)
    faces[i] = _spliced(faces[i], x, (n3, n1))
    i = _face_index(faces, ft)
    faces[i] = _spliced(faces[i], tx, (n2,))
    faces.append((n0,))

    c = s.comp_of[x]
    comps = list(s.components)
    orb = comps[c]
    comps[c] = _spliced(orb, x, (n0, n1)) if x in orb else _spliced(orb, tx, (n3, n2))

    # one island (key 0) and one strand take the shared maps
    if len(s.islands) == 1:
        island_of, islands = _lone(n0 + 4)
    else:
        k = s.island_of[x]
        islands = dict(s.islands)
        islands[k] += (n0, n1, n2, n3)
        island_of = s.island_of + (k, k, k, k)
    return Structure(
        new,
        tuple(faces),
        face_of + (n0, fx, ft, fx),
        tuple(comps),
        _lone(n0 + 4)[0] if len(comps) == 1 else s.comp_of + (c, c, c, c),
        islands,
        island_of,
    )


def carried_labels(d, skel, dmap):
    """Labels for the strand components of `skel`, carried over from `d`.

    `skel` was made from d's theta by renumbering darts with the mapping
    `dmap` (old dart -> new dart; a dart that did not survive is absent)
    and joining strands straight through any dropped crossing.  A
    surviving component keeps its label; it is matched by its smallest
    surviving dart, which is the smallest dart of its new component.
    """
    by_min = {}
    theta = d.theta
    for orb, lab in zip(d.components, d.labels):
        surv = [dmap[x] for y in orb for x in (y, theta[y]) if x in dmap]
        if surv:
            by_min[min(surv)] = lab
    # a component's forward cycle starts at its smallest dart
    return [by_min[orb[0]] for orb in skel.components]


def _in_range(x, n):
    """Whether `x`, a dart, face or loop key from a caller, is an int (not
    a bool) in range(n); `surgery` checks the keys it is given with it
    too, and `resolution.verify_isotopy` the edge indices of a given
    path."""
    return type(x) is int and 0 <= x < n


#: the `region_children` of every diagram whose one island sits in the
#: root region and which has no loops; shared, so nothing may mutate it
_ROOT_ISLAND = {ROOT: [("I", 0)]}


def _face_darts(s, fkey):
    """The orbit `s.faces` holds for face key `fkey`; `s` is a `Structure`
    or a `Diagram`."""
    if not _in_range(fkey, len(s.face_of)) or s.face_of[fkey] != fkey:
        raise DiagramError("no face with key %r" % (fkey,))
    return s.faces[_face_index(s.faces, fkey)]


class Diagram:
    """An immutable link diagram.

    Parameters
    ----------
    mode : "plane" or "sphere"
    theta : pairing involution over darts 0..4n-1 (fixed-point free), or
        a `Structure` record of one; a sequence is checked and derived
        here by `structure`, a record is used as it is.  Surgeries hand
        over records: `curled`'s patch of the parent's record for a
        dart curl (RI+ on ("d", x) or ("wrap", x)), and a `structure`
        pass over the new theta for every other move
    over : per crossing, 0 if the strand through slots {0,2} passes over,
        1 if the strand through slots {1,3} does
    labels : per strand component (ordered by smallest dart), a name or None
    loops : iterable of (label, host_region_key) for crossing-free circles
    hosts : mapping island_key -> (host_region_key, up_face_key); islands
        not mentioned sit in the root region with a default up face.  Any
        dart of the up face may stand for its key.

    Attributes
    ----------
    The structure is built once, by the constructor; the fields of the
    `Structure` record (theta to island_of) are taken from it unchanged.
    Some are shared with other diagrams (below), and none may be
    mutated:

    faces : face orbits of phi = rot . theta, each starting at its smallest
        dart, in order of that dart
    face_of : per dart, its face key (the smallest dart on its face)
    components : strand components as forward dart cycles (one dart per
        edge).  The forward direction is the orbit containing the
        component's smallest dart, which makes derived orientations
        deterministic.
    comp_of : per dart, its component index; with one strand, the zeros
        tuple every such diagram of its dart count shares
    islands : map island key (the smallest dart of a connected shadow
        piece) -> sorted tuple of its darts, in order of key; with one
        island, shared like `island_of`
    island_of : per dart, its island key; with one island, the zeros
        tuple every such diagram of its dart count shares (`_lone`)
    region_keys : ROOT, then ("f", face_key) for each face that is not an
        up face, then ("l", loop_index) for each loop's far side; computed
        on each access, not stored
    region_children : map region key -> list of ("I", island_key) and
        ("L", loop_index) hosted there; a region that hosts nothing has no
        entry.  One island in the root region and no loops share one map,
        `_ROOT_ISLAND`
    numberings : None until `canon.canonical_code` codes a diagram with
        one island and no loops; then one tuple per walk numbering that
        achieves the code (in the plane, per achiever with the smallest
        up marker), listing the darts in walk order, the recorded
        numbering first (set once, like the fields above).  Any two
        compose to an isomorphism (`search._carried`)
    """

    __slots__ = (
        "mode", "theta", "over", "labels", "loops", "hosts",
        "faces", "face_of", "components", "comp_of",
        "islands", "island_of", "region_children", "numberings",
    )

    def __init__(self, mode, theta, over, labels=None, loops=(), hosts=None):
        put = object.__setattr__
        if mode not in (PLANE, SPHERE):
            raise DiagramError("mode must be %r or %r" % (PLANE, SPHERE))
        put(self, "mode", mode)
        s = theta if isinstance(theta, Structure) else structure(theta)
        for name, value in zip(Structure._fields, s):
            put(self, name, value)
        over = tuple(over)
        if over.count(0) + over.count(1) != len(over):
            raise DiagramError("over entries must be 0 or 1, not %r" % (over,))
        if len(over) * 4 != len(s.theta):
            raise DiagramError(
                "over has %d entries for %d crossings" % (len(over), len(s.theta) // 4)
            )
        # through a list: tuple() of a map resizes, as of a generator (see
        # `structure`), and raises peak RSS
        put(self, "over", tuple([*map(int, over)]))
        face_of = s.face_of

        ncomp = len(s.components)
        if labels is None:
            labels = (None,) * ncomp
        labels = tuple(labels)
        if len(labels) != ncomp:
            raise DiagramError("%d labels for %d strand components" % (len(labels), ncomp))
        put(self, "labels", labels)

        loops = tuple([Loop(lab, self._norm_region(h)) for lab, h in loops]) if loops else ()
        put(self, "loops", loops)

        norm_hosts = {}
        for key in s.islands:
            if hosts and key in hosts:
                host, up = hosts[key]
                if not _in_range(up, len(s.theta)):
                    raise DiagramError("island %r: no dart %r for its up face" % (key, up))
                norm_hosts[key] = (self._norm_region(host), face_of[up])
            else:
                norm_hosts[key] = (ROOT, face_of[key])
        if hosts:
            for key in hosts:
                if key not in norm_hosts:
                    raise DiagramError("host entry for unknown island %r" % (key,))
        put(self, "hosts", norm_hosts)

        if not loops and len(norm_hosts) == 1 and norm_hosts[0][0] == ROOT:
            # one island (key 0) in the root region: the shared tree
            children = _ROOT_ISLAND
        else:
            children = {}
            for key in s.islands:
                children.setdefault(norm_hosts[key][0], []).append(("I", key))
            for i, lp in enumerate(loops):
                children.setdefault(lp.host, []).append(("L", i))
        put(self, "region_children", children)
        put(self, "numberings", None)

    def __setattr__(self, name, value):
        raise AttributeError("Diagram is immutable")

    # -- basic sizes -------------------------------------------------

    @property
    def ncross(self) -> int:
        return len(self.over)

    @property
    def ndart(self) -> int:
        return len(self.theta)

    def darts(self):
        return range(self.ndart)

    # -- faces, components, islands ------------------------------------

    def face_darts(self, fkey):
        return _face_darts(self, fkey)

    def label_of_dart(self, d):
        return self.labels[self.comp_of[d]]

    # -- regions -----------------------------------------------------
    #
    # Region keys: ROOT, ('f', face_key) for a face that is not some
    # island's up face, or ('l', loop_index) for the far side of a loop.

    def _norm_region(self, rkey):
        "Region keys name faces by their smallest dart; fix up any other dart."
        rkey = tuple(rkey)
        if rkey and rkey[0] == "f":
            if len(rkey) != 2 or not _in_range(rkey[1], self.ndart):
                raise DiagramError("no face for region %r" % (rkey,))
            return ("f", self.face_of[rkey[1]])
        return rkey

    @property
    def region_keys(self):
        "ROOT, the faces that are not up faces, then the loops' far sides."
        ups = {up for (_h, up) in self.hosts.values()}
        return (
            (ROOT,)
            + tuple(("f", orb[0]) for orb in self.faces if orb[0] not in ups)
            + tuple(("l", i) for i in range(len(self.loops)))
        )

    def region_of_face(self, fkey):
        """Region key for the area of face `fkey`, named by any of its darts
        (follows up faces outward)."""
        if not _in_range(fkey, self.ndart):
            raise DiagramError("no dart %r" % (fkey,))
        fkey = self.face_of[fkey]
        host, up = self.hosts[self.island_of[fkey]]
        if fkey == up:
            return host
        return ("f", fkey)

    def region_boundary(self, rkey):
        """Boundary elements of a region: ('d', dart) and ('loop', index).

        Darts listed have the region on their right; loops listed are the
        circles bounding the region (hosted in it, or the loop itself when
        the region is its far side).  A key naming no region - an up
        face, a face by a dart other than its key, a loop out of range -
        raises DiagramError.
        """
        if not self._region_exists(rkey):
            raise DiagramError("no region %r" % (rkey,))
        elems = []
        if rkey[0] == "f":
            elems.extend(("d", d) for d in self.face_darts(rkey[1]))
        elif rkey[0] == "l":
            elems.append(("loop", rkey[1]))
        for kind, ref in self.region_children.get(rkey, ()):
            if kind == "I":
                _host, up = self.hosts[ref]
                elems.extend(("d", d) for d in self.face_darts(up))
            else:
                elems.append(("loop", ref))
        return elems

    # -- validation --------------------------------------------------

    def validate(self):
        "Return a list of violation strings (empty when the diagram is sound)."
        out = []
        for key, ds in self.islands.items():
            ncr = len(ds) // 4
            nfaces = sum(self.face_of[x] == x for x in ds)
            chi = ncr - 2 * ncr + nfaces
            if chi != 2:
                out.append(
                    "island %d: Euler characteristic %d (not planar)" % (key, chi)
                )
        for key, (host, up) in self.hosts.items():
            if self.island_of[up] != key:
                out.append("island %d: up face %r is not its own face" % (key, up))
            if host != ROOT and not self._region_exists(host):
                out.append("island %d: host region %r does not exist" % (key, host))
            if host[0] == "f" and self.island_of[host[1]] == key:
                out.append("island %d hosted inside itself" % key)
        for i, lp in enumerate(self.loops):
            if lp.host != ROOT and not self._region_exists(lp.host):
                out.append("loop %d: host region %r does not exist" % (i, lp.host))
        out.extend(self._forest_violations())
        return out

    def _region_exists(self, rkey):
        if rkey == ROOT:
            return True
        if not isinstance(rkey, tuple) or len(rkey) != 2:
            return False
        kind, ref = rkey
        if kind == "f":
            return _in_range(ref, self.ndart) and self.region_of_face(ref) == rkey
        if kind == "l":
            return _in_range(ref, len(self.loops))
        return False

    def _owner(self, rkey):
        """The node whose piece bounds region `rkey`: ("I", island key) for
        a face, ("L", loop index) for a loop's far side, None at ROOT."""
        if rkey == ROOT:
            return None
        if rkey[0] == "f":
            return ("I", self.island_of[rkey[1]])
        return ("L", rkey[1])

    def _node_parent(self, node):
        "Owning node of a region-hosted node, or None at the root region."
        kind, ref = node
        return self._owner(self.hosts[ref][0] if kind == "I" else self.loops[ref].host)

    def _forest_violations(self):
        out = []
        nodes = [("I", k) for k in self.islands] + [
            ("L", i) for i in range(len(self.loops))
        ]
        for start in nodes:
            seen = {start}
            node = start
            while True:
                try:
                    node = self._node_parent(node)
                except (KeyError, IndexError, DiagramError):
                    out.append("node %r: broken host chain" % (start,))
                    break
                if node is None:
                    break
                if node in seen:
                    out.append("node %r: hosting cycle" % (start,))
                    break
                seen.add(node)
        return out

    def check(self):
        "Raise DiagramError if validate() reports anything."
        bad = self.validate()
        if bad:
            raise DiagramError("; ".join(bad))
        return self

    # -- crossing classification ------------------------------------

    def is_over_dart(self, d: int) -> bool:
        "True when dart d sits on the over strand of its crossing."
        return (d & 1) == self.over[d >> 2]

    def strandpair_labels(self, c: int):
        "Labels of the two transversal strands at crossing c (slots 0/2 first)."
        return (self.label_of_dart(4 * c), self.label_of_dart(4 * c + 1))

    # -- transformations ---------------------------------------------

    def _structure(self):
        "The record this diagram was built from, for a copy with the same theta."
        return Structure(
            self.theta, self.faces, self.face_of, self.components,
            self.comp_of, self.islands, self.island_of,
        )

    def with_mode(self, mode):
        return Diagram(
            mode, self._structure(), self.over, self.labels, self.loops, self.hosts
        )

    def relabeled(self, perm=None, shifts=None):
        """Rename crossings and rotate slot numbering; an isotopy no-op.

        perm : sequence, perm[c] = new id of crossing c
        shifts : per crossing, how many slots to rotate the numbering by
        """
        n = self.ncross
        perm = list(perm) if perm is not None else list(range(n))
        shifts = list(shifts) if shifts is not None else [0] * n
        if len(perm) != n or set(perm) != set(range(n)):
            raise DiagramError("perm %r is not a permutation of range(%d)" % (perm, n))
        if len(shifts) != n:
            raise DiagramError("%d shifts for %d crossings" % (len(shifts), n))
        dmap = {}
        for c in range(n):
            for s in range(4):
                dmap[4 * c + s] = 4 * perm[c] + ((s + shifts[c]) & 3)
        theta = [0] * self.ndart
        for d, t in enumerate(self.theta):
            theta[dmap[d]] = dmap[t]
        over = [0] * n
        for c in range(n):
            over[perm[c]] = (self.over[c] + shifts[c]) & 1

        skel = structure(theta)
        labels = carried_labels(self, skel, dmap)

        def map_region(rkey):
            if rkey == ROOT or rkey[0] == "l":
                return rkey
            return ("f", skel.face_of[dmap[rkey[1]]])

        loops = [(lp.label, map_region(lp.host)) for lp in self.loops]
        hosts = {}
        for _key, (host, up) in self.hosts.items():
            new_up = skel.face_of[dmap[up]]
            hosts[skel.island_of[new_up]] = (map_region(host), new_up)
        return Diagram(self.mode, skel, over, labels, loops, hosts)

    def rerooted(self, new_root):
        """Re-choose which region is outermost (a sphere isotopy).

        Returns an equal diagram whose root region is the area formerly
        known by region key `new_root`.
        """
        if new_root == ROOT:
            return self
        if not self._region_exists(new_root):
            raise DiagramError("no region %r" % (new_root,))
        hosts = dict(self.hosts)
        loops = list(self.loops)
        # membership decisions come from the original tree: each region along
        # the inverted chain is handled exactly once, mutations never cascade
        orig_children = self.region_children

        def move_children(rkey, newkey, skip):
            for kind, ref in orig_children.get(rkey, ()):
                if (kind, ref) == skip:
                    continue
                if kind == "I":
                    hosts[ref] = (newkey, hosts[ref][1])
                else:
                    loops[ref] = (loops[ref][0], newkey)

        # occupants of the new root region float to the top ...
        move_children(new_root, ROOT, None)
        # ... then the chain of former ancestors is turned inside out: the
        # owner of each region on it moves into the region its child freed,
        # and an island turns the face it owned outward
        node, carry_host, owned = self._owner(new_root), ROOT, new_root
        while node is not None:
            kind, ref = node
            if kind == "I":
                old_host, old_up = self.hosts[ref]
                hosts[ref] = (carry_host, owned[1])
                freed = ("f", old_up)
            else:
                old_host = self.loops[ref].host
                loops[ref] = (loops[ref][0], carry_host)
                freed = ("l", ref)
            move_children(old_host, freed, node)
            node, carry_host, owned = self._owner(old_host), freed, old_host
        return Diagram(self.mode, self._structure(), self.over, self.labels, loops, hosts)

    # -- misc --------------------------------------------------------

    def __repr__(self):
        return "<Diagram %s %d crossings, %d loops, %d components>" % (
            self.mode,
            self.ncross,
            len(self.loops),
            len(self.labels) + len(self.loops),
        )
