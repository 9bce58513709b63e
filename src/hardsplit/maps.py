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
`Structure` record.  `Diagram` accepts such a record in place of theta, so
a surgery that has already read faces and islands off its new theta, or a
re-rooting that keeps theta, hands the record on instead of deriving it
again.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

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


def rot_inv(d: int) -> int:
    return (d & ~3) | ((d - 1) & 3)


def cross_of(d: int) -> int:
    return d >> 2


def slot_of(d: int) -> int:
    return d & 3


class Loop(NamedTuple):
    """A crossing-free circle living in some region of the diagram."""

    label: Optional[str]
    host: tuple


class Structure(NamedTuple):
    """Everything a pairing involution determines on its own.

    Built by `structure`; the fields are the `Diagram` attributes of the
    same names.  A surgery computes it once for its new theta, reads faces
    and islands from it, and hands it to `Diagram` as the theta argument.
    """

    theta: tuple
    faces: tuple
    face_of: dict
    components: tuple
    comp_of: dict
    islands: dict
    islands_keys: tuple
    island_of: dict

    def face_darts(self, fkey):
        return _face_darts(self.theta, self.face_of, fkey)


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
    for d in range(nd):
        t = theta[d]
        if not 0 <= t < nd or t == d or theta[t] != d:
            raise DiagramError("theta is not a fixed-point-free involution at dart %d" % d)

    # faces: orbits of phi = rot . theta (inlined), met from their smallest dart
    fkey = [-1] * nd
    faces = []
    for d0 in range(nd):
        if fkey[d0] >= 0:
            continue
        orb = [d0]
        fkey[d0] = d0
        t = theta[d0]
        x = (t & ~3) | ((t + 1) & 3)
        while x != d0:
            orb.append(x)
            fkey[x] = d0
            t = theta[x]
            x = (t & ~3) | ((t + 1) & 3)
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

    # islands: connected sets of crossings
    ikey = [-1] * (nd >> 2)
    islands = {}
    for c0 in range(nd >> 2):
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
        members.sort()
        # from a list, not a generator: tuple() of a generator resizes a
        # small tuple and never reuses the freed tuples of the final size,
        # which pile up in the interpreter's free list (+0.3 MB peak RSS)
        islands[key] = tuple([d for c in members for d in range(4 * c, 4 * c + 4)])

    return Structure(
        theta,
        tuple(faces),
        dict(enumerate(fkey)),
        tuple(comps),
        dict(enumerate(cidx)),
        islands,
        tuple(islands),
        {d: ikey[d >> 2] for d in range(nd)},
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


def _face_darts(theta, face_of, fkey):
    "The phi-orbit of face key `fkey`, walked from the key."
    if face_of.get(fkey) != fkey:
        raise DiagramError("no face with key %r" % (fkey,))
    orb = [fkey]
    t = theta[fkey]
    x = (t & ~3) | ((t + 1) & 3)
    while x != fkey:
        orb.append(x)
        t = theta[x]
        x = (t & ~3) | ((t + 1) & 3)
    return tuple(orb)


class Diagram:
    """An immutable link diagram.

    Parameters
    ----------
    mode : "plane" or "sphere"
    theta : pairing involution over darts 0..4n-1 (fixed-point free), or
        the `Structure` record `structure` made of one; a sequence is
        checked and derived here, a record is used as it is
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
    `Structure` record (theta to island_of) are taken from it unchanged:

    faces : face orbits of phi = rot . theta, each starting at its smallest
        dart, in order of that dart
    face_of : map dart -> face key (the smallest dart on its face)
    components : strand components as forward dart cycles (one dart per
        edge).  The forward direction is the orbit containing the
        component's smallest dart, which makes derived orientations
        deterministic.
    comp_of : map dart -> component index
    islands : map island key -> sorted tuple of its darts
    islands_keys : sorted smallest-dart keys of the connected shadow pieces
    island_of : map dart -> island key
    region_keys : ROOT, then ("f", face_key) for each face that is not an
        up face, then ("l", loop_index) for each loop's far side
    region_children : map region key -> list of ("I", island_key) and
        ("L", loop_index) hosted there; every region key is present
    """

    __slots__ = (
        "mode", "theta", "over", "labels", "loops", "hosts",
        "faces", "face_of", "components", "comp_of",
        "islands", "islands_keys", "island_of", "region_keys", "region_children",
    )

    def __init__(self, mode, theta, over, labels=None, loops=(), hosts=None):
        put = object.__setattr__
        if mode not in (PLANE, SPHERE):
            raise DiagramError("mode must be %r or %r" % (PLANE, SPHERE))
        put(self, "mode", mode)
        s = theta if isinstance(theta, Structure) else structure(theta)
        for name, value in zip(Structure._fields, s):
            put(self, name, value)
        over = tuple(int(o) & 1 for o in over)
        if len(over) * 4 != len(s.theta):
            raise DiagramError(
                "over has %d entries for %d crossings" % (len(over), len(s.theta) // 4)
            )
        put(self, "over", over)
        face_of = s.face_of

        ncomp = len(s.components)
        if labels is None:
            labels = (None,) * ncomp
        labels = tuple(labels)
        if len(labels) != ncomp:
            raise DiagramError("%d labels for %d strand components" % (len(labels), ncomp))
        put(self, "labels", labels)

        loops = tuple(Loop(lab, self._norm_region(host)) for lab, host in loops)
        put(self, "loops", loops)

        norm_hosts = {}
        for key in s.islands_keys:
            if hosts and key in hosts:
                host, up = hosts[key]
                up_face = face_of.get(up)
                if up_face is None:
                    raise DiagramError("island %r: no dart %r for its up face" % (key, up))
                norm_hosts[key] = (self._norm_region(host), up_face)
            else:
                norm_hosts[key] = (ROOT, face_of[key])
        if hosts:
            for key in hosts:
                if key not in norm_hosts:
                    raise DiagramError("host entry for unknown island %r" % (key,))
        put(self, "hosts", norm_hosts)

        ups = {up for (_h, up) in norm_hosts.values()}
        region_keys = (
            (ROOT,)
            + tuple(("f", orb[0]) for orb in s.faces if orb[0] not in ups)
            + tuple(("l", i) for i in range(len(loops)))
        )
        # a host naming no region still gets an entry; validate() reports it
        children = {key: [] for key in region_keys}
        for key in s.islands_keys:
            children.setdefault(norm_hosts[key][0], []).append(("I", key))
        for i, lp in enumerate(loops):
            children.setdefault(lp.host, []).append(("L", i))
        put(self, "region_keys", region_keys)
        put(self, "region_children", children)

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
        return _face_darts(self.theta, self.face_of, fkey)

    def label_of_dart(self, d):
        return self.labels[self.comp_of[d]]

    def island_faces(self, key):
        face_of = self.face_of
        return tuple(x for x in self.islands.get(key, ()) if face_of[x] == x)

    # -- regions -----------------------------------------------------
    #
    # Region keys: ROOT, ('f', face_key) for a face that is not some
    # island's up face, or ('l', loop_index) for the far side of a loop.

    def _norm_region(self, rkey):
        "Region keys name faces by their smallest dart; fix up any other dart."
        rkey = tuple(rkey)
        if rkey and rkey[0] == "f":
            f = self.face_of.get(rkey[1]) if len(rkey) == 2 else None
            if f is None:
                raise DiagramError("no face for region %r" % (rkey,))
            return ("f", f)
        return rkey

    def region_of_face(self, fkey):
        """Region key for the area of face `fkey` (follows up faces outward)."""
        fkey = self.face_of[fkey]
        host, up = self.hosts[self.island_of[fkey]]
        if fkey == up:
            return host
        return ("f", fkey)

    def region_boundary(self, rkey):
        """Boundary elements of a region: ('d', dart) and ('loop', index).

        Darts listed have the region on their right; loops listed are the
        circles bounding the region (hosted in it, or the loop itself when
        the region is its far side).
        """
        elems = []
        if rkey[0] == "f":
            elems.extend(("d", d) for d in self.face_darts(rkey[1]))
        elif rkey[0] == "l":
            elems.append(("loop", rkey[1]))
        elif rkey != ROOT:
            raise DiagramError("bad region key %r" % (rkey,))
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
            nfaces = len(self.island_faces(key))
            chi = ncr - 2 * ncr + nfaces
            if chi != 2:
                out.append(
                    "island %d: Euler characteristic %d (not planar)" % (key, chi)
                )
        for key, (host, up) in self.hosts.items():
            if self.island_of.get(up) != key:
                out.append("island %d: up face %r is not its own face" % (key, up))
            if host != ROOT and not self._region_exists(host):
                out.append("island %d: host region %r does not exist" % (key, host))
            if host[0] == "f" and self.island_of.get(host[1]) == key:
                out.append("island %d hosted inside itself" % key)
        for i, lp in enumerate(self.loops):
            if lp.host != ROOT and not self._region_exists(lp.host):
                out.append("loop %d: host region %r does not exist" % (i, lp.host))
        out.extend(self._forest_violations())
        return out

    def _region_exists(self, rkey):
        if rkey == ROOT:
            return True
        if len(rkey) != 2:
            return False
        kind, ref = rkey
        if kind == "f":
            return ref in self.face_of and self.region_of_face(ref) == rkey
        if kind == "l":
            return isinstance(ref, int) and 0 <= ref < len(self.loops)
        return False

    def _node_parent(self, node):
        "Owning node of a region-hosted node, or None at the root region."
        kind, ref = node
        host = self.hosts[ref][0] if kind == "I" else self.loops[ref].host
        if host == ROOT:
            return None
        if host[0] == "f":
            return ("I", self.island_of[host[1]])
        return ("L", host[1])

    def _forest_violations(self):
        out = []
        nodes = [("I", k) for k in self.islands_keys] + [
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

    def crossing_partition(self, u=("U",), m=("M1", "M2")):
        """Count crossings by class: (u-self, mixed, m-self).

        Every strand component must carry a label from u or m.
        """
        useen = set(u)
        mseen = set(m)
        for lab in self.labels:
            if lab not in useen and lab not in mseen:
                raise DiagramError("component label %r outside the u/m partition" % (lab,))
        for lp in self.loops:
            if lp.label not in useen and lp.label not in mseen:
                raise DiagramError("loop label %r outside the u/m partition" % (lp.label,))
        uu = um = mm = 0
        for c in range(self.ncross):
            a, b = self.strandpair_labels(c)
            au = a in useen
            bu = b in useen
            if au and bu:
                uu += 1
            elif au or bu:
                um += 1
            else:
                mm += 1
        return (uu, um, mm)

    # -- transformations ---------------------------------------------

    def _structure(self):
        "The record this diagram was built from, for a copy with the same theta."
        return Structure(
            self.theta, self.faces, self.face_of, self.components, self.comp_of,
            self.islands, self.islands_keys, self.island_of,
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
        if new_root[0] == "f":
            node = ("I", self.island_of[new_root[1]])
        else:
            node = ("L", new_root[1])
        move_children(new_root, ROOT, None)
        # ... then the chain of former ancestors is turned inside out
        carry_host = ROOT
        carry_up = new_root[1] if new_root[0] == "f" else None
        while node is not None:
            kind, ref = node
            if kind == "I":
                old_host, old_up = self.hosts[ref]
                hosts[ref] = (carry_host, carry_up)
                freed = ("f", old_up)
            else:
                old_host = self.loops[ref].host
                loops[ref] = (loops[ref][0], carry_host)
                freed = ("l", ref)
            move_children(old_host, freed, node)
            if old_host == ROOT:
                node = None
            elif old_host[0] == "f":
                node = ("I", self.island_of[old_host[1]])
                carry_host, carry_up = freed, old_host[1]
            else:
                node = ("L", old_host[1])
                carry_host, carry_up = freed, None
        return Diagram(self.mode, self._structure(), self.over, self.labels, loops, hosts)

    # -- canonical form ----------------------------------------------

    def canonical_code(self):
        "Canonical code; equal codes mean equal up to relabeling and isotopy."
        from . import canon

        return canon.canonical_code(self)

    def canonically_equal(self, other) -> bool:
        return self.canonical_code() == other.canonical_code()

    # -- misc --------------------------------------------------------

    def __repr__(self):
        return "<Diagram %s %d crossings, %d loops, %d components>" % (
            self.mode,
            self.ncross,
            len(self.loops),
            len(self.labels) + len(self.loops),
        )
