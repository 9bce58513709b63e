"""Raw move surgeries on diagrams, and the geometry of their sites.

Each surgery rebuilds theta/decorations/hosting for one Reidemeister
move and returns the new diagram.  This module owns the geometry of a
move site: which faces are petals, bigons and triangles (`site_faces`,
checked by `site_face`), whether a swept disk is empty
(`swept_face_ok`), and what an RII+ poke may capture or engulf
(`rii_scope`); no other module decides these.  Which sites count as *admissible moves* -
crossing decorations, strand classes - is the caller's policy (see
`moves` and `resolution`).

A removal (RI-, RII-) deletes crossings of one island and sweeps one
region open: the petal and the face across it, or the bigon and the two
faces at its opposite corners.  Placing that region places everything
else: it is the island's host, or it borders the one piece that takes
the host, and every other piece the removal leaves is hosted in it
(`_remove_crossings` gives the argument).

An insertion (RI+, RII+) appends its crossings and threads new strand
runs through its site elements (`_splice`): a dart's edge is cut and
routed through them, a bare circle is closed through them.  A dart
curl, plain or wrap, changes only two faces, one strand and one island,
so its child's record is the parent's, patched by `maps.curled`; the
two curls differ only in where the island's up face lies.  Every other
surgery runs one `structure` pass over its new theta.  A circle so
consumed becomes a strand; its side away from the poke becomes a named
face, and the circles after it shift down (`_remap_circles`).  An RII+
site is a region and two elements of its `Diagram.region_boundary`, the
list `moves` pairs when it enumerates pokes, so the surgery accepts
exactly what enumeration offers.

Conventions:

* new crossings are appended, so surviving darts keep their (crossing,
  slot) identity, up to index compaction on removal;
* region keys are remapped explicitly; children of a swept or split
  region land where the geometry dictates, with the free choices
  (capture) passed in by the caller.
"""

from __future__ import annotations

from .maps import (
    ROOT, Diagram, DiagramError, MoveError, _in_range, carried_labels, curled, opp,
    rot, structure,
)

__all__ = [
    "ri_add",
    "ri_remove",
    "rii_add",
    "rii_remove",
    "riii",
    "site_faces",
    "site_face",
    "swept_face_ok",
    "rii_scope",
]


# -- site geometry ---------------------------------------------------

_SHAPES = {1: "monogon", 2: "two-crossing bigon", 3: "three-crossing triangle"}


def site_faces(d, k):
    """Keys of the faces with k darts at k distinct crossings, in face
    order: petals (k = 1, keyed by the petal dart), bigons (2) and
    triangles (3) - the faces RI-, RII- and RIII act on."""
    return [orb[0] for orb in d.faces if len(orb) == k and len({x >> 2 for x in orb}) == k]


def site_face(d, f, k):
    """The darts of face `f` (any of its darts may name it), checked to be
    a site face of `site_faces(d, k)`; MoveError otherwise."""
    if not _in_range(f, d.ndart):
        raise MoveError("no face %r" % (f,))
    orb = d.face_darts(d.face_of[f])
    if len(orb) != k or len({x >> 2 for x in orb}) != k:
        raise MoveError("face %r is not a %s" % (f, _SHAPES[k]))
    return orb


def swept_face_ok(d, fkey):
    """The disk of face `fkey` may be swept by a move: it must be empty.

    For an ordinary face that means its region has no children.  When the
    face is its island's outward face, its disk is everything beyond the
    island, which is empty only when the island sits alone at the root.
    """
    fkey = d.face_of[fkey]
    k = d.island_of[fkey]
    host, up = d.hosts[k]
    if fkey != up:
        return not d.region_children.get(("f", fkey), ())
    return host == ROOT and d.region_children.get(ROOT, ()) == [("I", k)]


def rii_scope(d, region, a, b):
    """What an RII+ poke of strand `a` across `b` through `region` may
    carry along: (split, capturable, engulfable).

    a, b are valid site elements bounding the region, ("d", dart) or
    ("loop", i).  split: the finger separates the region, which happens
    when a and b lie on one boundary circle (one face, or one circle
    poked through itself).  capturable: the region's children that may
    ride into the finger pocket, empty unless split.  engulfable: the
    children of the region beyond B that the tip may wrap into the new
    bigon.  Neither set holds the islands or circles of the site itself.
    """
    parts = {("I", d.island_of[e[1]]) if e[0] == "d" else ("L", e[1]) for e in (a, b)}
    split = a == b or (a[0] == "d" == b[0] and d.face_of[a[1]] == d.face_of[b[1]])
    if b[0] == "d":
        far = d.region_of_face(d.face_of[d.theta[b[1]]])
    elif region == ("l", b[1]):
        far = d.loops[b[1]].host
    else:
        far = ("l", b[1])
    capturable = set(d.region_children.get(region, ())) - parts if split else set()
    engulfable = set(d.region_children.get(far, ())) - parts
    return split, capturable, engulfable


# -- insertion rules, RI ---------------------------------------------


def _splice(theta, d, elem, runs):
    """Thread new strand runs (enter, leave), in order, through one site
    element: a dart's edge is cut and routed through them, a bare circle
    ("loop", i) is closed through them."""
    x = runs[-1][1] if elem[0] == "loop" else elem[1]
    for enter, leave in runs:
        theta[x], theta[enter] = enter, x
        x = leave
    if elem[0] != "loop":
        y = d.theta[elem[1]]
        theta[x], theta[y] = y, x


def _remap_circles(rkey, faces):
    """A region key once the circles `faces` names (index -> face key)
    have become strands: each one's far side is its named face, and the
    circles after it shift down."""
    if rkey[0] != "l":
        return rkey
    if rkey[1] in faces:
        return ("f", faces[rkey[1]])
    return ("l", rkey[1] - sum(1 for j in faces if j < rkey[1]))


def ri_add(d: Diagram, elem, over: int) -> Diagram:
    """Add a kink: the strand runs n2 -> n1 through the new crossing n,
    whose darts 4n and 4n+3 bound the new petal.

    elem : ("d", dart) — curl the dart's edge into the face on its right;
           ("wrap", dart) — same arc and side, but the lobe is thrown
           around the whole island, so the petal becomes its outer face
           (only meaningful when the face right of the dart already is
           the island's outer face);
           ("loop", i, side) — curl a bare circle instead; side "out"
           puts the petal on the side of the circle's hosting region,
           "in" on its far side.
    over : 0 or 1, the new crossing's decoration (0 puts the slot-{0,2} strand,
           which includes the petal-out end, on top).

    Both dart curls build one theta, so both take `maps.curled`'s patch
    of the parent's record; a wrap curl only moves its island's up face
    to the petal.  A loop curl runs one `structure` pass.
    """
    if over not in (0, 1):
        raise MoveError("over must be 0 or 1, not %r" % (over,))
    n = d.ncross
    n0, n1, n2, n3 = 4 * n, 4 * n + 1, 4 * n + 2, 4 * n + 3
    over_list = list(d.over) + [over]
    if len(elem) == 2 and elem[0] in ("d", "wrap"):
        how, x = elem
        if not _in_range(x, d.ndart):
            raise MoveError("no dart %r" % (x,))
        hosts = d.hosts
        if how == "wrap":
            isl = d.island_of[x]
            if hosts[isl][1] != d.face_of[x]:
                raise MoveError("wrap curl needs the arc on its island's outer face")
            hosts = dict(hosts)
            hosts[isl] = (hosts[isl][0], n0)
        # every old face and island keeps its key: new darts sort last
        return Diagram(d.mode, curled(d, x), over_list, d.labels, d.loops, hosts)
    if len(elem) != 3 or elem[0] != "loop":
        raise MoveError("no curl element %r" % (elem,))
    _kind, li, side = elem
    if not _in_range(li, len(d.loops)):
        raise MoveError("no loop %r" % (li,))
    if side not in ("in", "out"):
        raise MoveError("side must be 'in' or 'out'")
    theta = list(d.theta) + [0] * 4
    theta[n0], theta[n3] = n3, n0  # the petal
    _splice(theta, d, ("loop", li), ((n2, n1),))

    # the kinked circle: monogon (n0) is the petal, monogon (n2) and the
    # 2-face (n1,n3) are the two sides of the old circle, the petal lying
    # on the (n1,n3) side
    up, far_face = (n1, n2) if side == "out" else (n2, n1)
    faces = {li: far_face}
    hosts = {k: (_remap_circles(h, faces), u) for k, (h, u) in d.hosts.items()}
    hosts[n0] = (_remap_circles(d.loops[li].host, faces), up)
    loops = [
        (lp.label, _remap_circles(lp.host, faces))
        for j, lp in enumerate(d.loops)
        if j != li
    ]
    # the kink is a fresh component whose smallest dart sorts last
    labels = list(d.labels) + [d.loops[li].label]
    return Diagram(d.mode, theta, over_list, labels, loops, hosts)


# -- crossing removal ------------------------------------------------


def _remove_crossings(d: Diagram, removed, swept, discount) -> Diagram:
    """Delete crossings of one island, joining their strands straight
    through, as a move that sweeps the faces `swept` open into one region.

    discount marks the arcs (by either end dart) that the move retracts:
    their old flank faces do not say which regions a fully contracted
    strand ends up bounding.  The contracted strands are the components
    of `d` whose darts all lie on removed crossings; each becomes a bare
    circle, in component order.

    The swept region places everything.  The faces at the removed
    crossings fall into two groups, the swept faces and the rest.  Each
    other face stays one face of the one piece its surviving darts lie
    on, and a face with no surviving dart is the far side of exactly one
    contracted circle.  Every piece the removal leaves - island fragment
    or contracted circle - borders the swept region.  So the swept region
    is the island's host when the outward face was swept; else the far
    side of the contracted circle whose other side is the outward face
    (that circle takes the host); else the outward fragment's face on
    it.  Every other piece is hosted in the swept region, by its face
    there.  The host itself is the root, a circle's far side or a face of
    another island, so it keeps its key and nothing is placed twice.
    """
    removed = set(removed)
    keep = [c for c in range(d.ncross) if c not in removed]
    dmap = {4 * c + s: 4 * i + s for i, c in enumerate(keep) for s in range(4)}
    theta = [0] * len(dmap)
    for u, nu in dmap.items():
        t = d.theta[u]
        while t not in dmap:
            t = d.theta[opp(t)]
        theta[nu] = dmap[t]

    # strands living entirely on removed crossings contract to bare circles
    zone_darts = [x for c in sorted(removed) for x in range(4 * c, 4 * c + 4)]
    cycles = [orb for orb in d.components if all(x >> 2 in removed for x in orb)]

    skel = structure(theta)
    affected = {d.face_of[x] for x in zone_darts}
    if not swept <= affected:
        raise DiagramError("swept face outside the removal zone")
    border = {}  # piece -> its face on the swept region
    kept = {}  # other face at the zone -> its region key after removal
    for f in affected:
        news = {
            (skel.island_of[dmap[x]], skel.face_of[dmap[x]])
            for x in d.face_darts(f)
            if x in dmap
        }
        if f in swept:
            for piece, nf in news:
                if border.setdefault(piece, nf) != nf:
                    raise DiagramError("swept region split across one piece")
        elif len(news) > 1:
            raise DiagramError("face %r split by the removal" % (f,))
        elif news:
            kept[f] = ("f", news.pop()[1])

    nloops_old = len(d.loops)
    for idx, cyc in enumerate(cycles):
        # the contracted circle separates the swept region from one other
        # face, not counting arcs the move retracted across other strands
        sides = set()
        for x in cyc:
            y = opp(x)
            z = d.theta[y]
            if y not in discount and z not in discount:
                sides.update((d.face_of[y], d.face_of[z]))
        far = sides - swept
        if len(far) != 1 or far == sides or not far.isdisjoint(kept):
            raise DiagramError("contracted circle does not bound two regions")
        kept[far.pop()] = ("l", nloops_old + idx)

    # the piece holding the outward face takes the island's host
    isl = d.island_of[zone_darts[0]]
    host, up = d.hosts[isl]
    if host[0] == "f":
        host = ("f", dmap[host[1]])
    hosts = {}
    lead = None
    if up in swept:
        sweep = host
    else:
        outward = kept.get(up) if up in affected else ("f", skel.face_of[dmap[up]])
        if outward is None:
            raise DiagramError("island fragment unreachable from its outward face")
        if outward[0] == "l":
            sweep = outward
        else:
            lead = skel.island_of[outward[1]]
            if lead not in border:
                raise DiagramError("island fragment unreachable from its outward face")
            hosts[lead] = (host, outward[1])
            sweep = ("f", border[lead])
    frags = {skel.island_of[dmap[x]] for x in d.islands[isl] if x in dmap}
    for piece in frags - {lead}:
        if piece not in border:
            raise DiagramError("island fragment unreachable from its outward face")
        hosts[piece] = (sweep, border[piece])

    def region(rkey):
        if rkey[0] != "f":
            return rkey
        if rkey[1] in swept:
            return sweep
        if rkey[1] not in affected:
            return ("f", dmap[rkey[1]])
        if rkey[1] not in kept:
            raise DiagramError("region %r vanished with content" % (rkey,))
        return kept[rkey[1]]

    for k, (h, u) in d.hosts.items():
        if k != isl:
            hosts[skel.island_of[dmap[u]]] = (region(h), dmap[u])
    loops = [(lp.label, region(lp.host)) for lp in d.loops]
    for idx, cyc in enumerate(cycles):
        # the circle whose far side is the swept region takes the host
        far = ("l", nloops_old + idx)
        loops.append((d.labels[d.comp_of[cyc[0]]], host if far == sweep else sweep))
    over = [d.over[c] for c in keep]
    return Diagram(d.mode, skel, over, carried_labels(d, skel, dmap), loops, hosts)


def ri_remove(d: Diagram, petal: int) -> Diagram:
    "Contract the kink whose monogon face starts at dart `petal`."
    site_face(d, petal, 1)
    if not swept_face_ok(d, petal):
        raise MoveError("kink petal is not empty")
    swept = {petal, d.face_of[rot(petal)]}
    return _remove_crossings(d, [petal >> 2], swept, {petal})


def rii_remove(d: Diagram, fkey: int) -> Diagram:
    "Pull apart the two strands bounding the bigon face `fkey`."
    f1, q1 = site_face(d, fkey, 2)
    if not swept_face_ok(d, f1):
        raise MoveError("bigon is not empty")
    swept = {f1, d.face_of[opp(f1)], d.face_of[opp(q1)]}
    return _remove_crossings(d, [f1 >> 2, q1 >> 2], swept, {f1, q1})


# -- RII insertion ---------------------------------------------------

_E, _N, _W, _S = 0, 1, 2, 3


def rii_add(
    d: Diagram,
    region,
    elem_a,
    elem_b,
    over: str,
    captured=(),
    engulfed=(),
) -> Diagram:
    """Push a finger of strand A across strand B through `region`.

    elem_a, elem_b : ("d", dart) or ("loop", i), each bounding the region.
        Strand A carries the finger; B is the strand crossed.  Using one
        dart twice (or one loop twice) pushes a strand across itself.
        On one edge the finger base is spliced nearer the named dart's
        own crossing.  Splicing the crossed run first needs no site of
        its own: both runs are stretches of the one edge, so which of
        them is the finger is the same choice as which passes over, and
        that splice builds this poke with `over` swapped and the same
        `captured` and `engulfed` (the same pocket and bigon).
    over : "A" if the finger passes over, "B" if under.
    captured : children of `region` that end up inside the finger pocket
        (possible only when both site elements lie on one boundary
        circle, which is when the finger separates the region).
    engulfed : children of the region beyond B wrapped into the new
        bigon by the finger tip.
    Both must lie in the pools `rii_scope` names.
    """
    if over not in ("A", "B"):
        raise MoveError("over must be 'A' or 'B'")
    try:
        captured, engulfed = set(captured), set(engulfed)
    except TypeError as e:
        raise MoveError("captured and engulfed must be collections of children") from e
    n = d.ncross
    pl, pu = 4 * n, 4 * n + 4  # A runs E-W through both; B enters pu from N
    try:
        region = d._norm_region(region)
        elems = d.region_boundary(region)
    except DiagramError as e:
        raise MoveError(str(e)) from e
    for e in (elem_a, elem_b):
        if e not in elems:
            raise MoveError("%r does not bound region %r" % (e, region))
    split, capturable, engulfable = rii_scope(d, region, elem_a, elem_b)

    theta = list(d.theta) + [0] * 8
    over_list = list(d.over) + ([0, 0] if over == "A" else [1, 1])
    theta[pl + _E], theta[pu + _E] = pu + _E, pl + _E  # finger tip
    theta[pu + _S], theta[pl + _N] = pl + _N, pu + _S  # crossed middle of B
    run_a, run_b = (pl + _W, pu + _W), (pu + _N, pl + _S)
    if elem_a == elem_b:  # a strand across itself: one edge, or one circle
        _splice(theta, d, elem_a, (run_a, run_b))
    else:  # no region lists the two darts of one edge: shadows are bridgeless
        _splice(theta, d, elem_a, (run_a,))
        _splice(theta, d, elem_b, (run_b,))

    skel = structure(theta)

    bigon = skel.face_of[pl + _N]
    if set(skel.face_darts(bigon)) != {pl + _N, pu + _E}:
        raise DiagramError("finger surgery produced no bigon")
    # the face that keeps the region's role: the one at the first site
    # dart, or, for circles alone, the one cut off by the long remnant arc
    darts = [e[1] for e in (elem_a, elem_b) if e[0] == "d"]
    keep_face = skel.face_of[darts[0] if darts else pu + _W]
    pocket_face = None
    if split:
        cand = {skel.face_of[pl + _S], skel.face_of[pu + _W]} - {keep_face}
        if len(cand) != 1:
            raise DiagramError("finger pocket did not separate")
        pocket_face = cand.pop()

    if captured & engulfed:
        raise MoveError("captured and engulfed overlap")
    if captured:
        if not split:
            raise MoveError("capture needs both site elements on one circle")
        if not captured <= capturable:
            raise MoveError("captured content is not in the region")
    if not engulfed <= engulfable:
        raise MoveError("engulfed content is not beyond the crossed strand")

    # a consumed circle's side away from the poke becomes the face behind
    # the finger (A, or a circle poked through itself) or beyond the tip
    # (B); that is its far side unless the poke came from there
    faces = {}
    for e, f in ((elem_a, skel.face_of[pu + _S]), (elem_b, skel.face_of[pl + _E])):
        if e[0] == "loop":
            faces.setdefault(e[1], f)

    # site islands and consumed circles merge into one island; when the
    # region was bounded by a site island's face or a consumed circle's
    # far side, the new island takes over that place, else every
    # participant was a child of the region
    site_islands = {d.island_of[x] for x in darts}
    owner = d.island_of[region[1]] if region[0] == "f" else None
    if owner in site_islands:
        outer, up = d.hosts[owner][0], skel.face_of[d.hosts[owner][1]]
    elif region[0] == "l" and region[1] in faces:
        # poked from the far side: the face away from the poke opens
        # toward the circle's host (map_ref maps the region itself first)
        outer, up = d.loops[region[1]].host, faces[region[1]]
    else:
        outer = None
        for isl in sorted(site_islands):
            if d.hosts[isl][0] != region:
                raise DiagramError("site island outside the poked region")
        for li in faces:
            if d.loops[li].host != region:
                raise DiagramError("consumed circle outside the poked region")
    if outer is None:
        region_new = _remap_circles(region, faces)
        outer, up = region_new, keep_face
    else:
        if outer[0] == "l" and outer[1] in faces:
            raise DiagramError("participant hosted by a consumed circle")
        region_new = ("f", keep_face)
        outer = _remap_circles(outer, faces)

    def map_ref(child, rkey):
        if child in captured:
            return ("f", pocket_face)
        if child in engulfed:
            return ("f", bigon)
        if rkey == region:
            return region_new
        return _remap_circles(rkey, faces)

    hosts = {
        k: (map_ref(("I", k), h), u)
        for k, (h, u) in d.hosts.items()
        if k not in site_islands
    }
    hosts[skel.island_of[pl]] = (outer, up)
    loops = [
        (lp.label, map_ref(("L", i), lp.host))
        for i, lp in enumerate(d.loops)
        if i not in faces
    ]
    # consumed circles become strand components: the finger strand's
    # smallest dart is pl+E, the crossed strand's pl+N, so A sorts first
    labels = list(d.labels) + [d.loops[li].label for li in faces]
    return Diagram(d.mode, skel, over_list, labels, loops, hosts)


# -- RIII ------------------------------------------------------------


def riii(d: Diagram, fkey: int) -> Diagram:
    "Slide the strand opposite each corner across the triangle `fkey`."
    orb = site_face(d, fkey, 3)
    if not swept_face_ok(d, orb[0]):
        raise MoveError("triangle is not empty")

    g = list(orb)
    a = [d.theta[x] for x in g]
    bp = [opp(g[(i + 1) % 3]) for i in range(3)]
    transfer = {}
    for i in range(3):
        transfer[opp(a[i])] = g[i]
        transfer[bp[i]] = a[(i + 1) % 3]
    side_darts = set(g) | set(a)
    # the side arcs pair among themselves, so only the edges at the six
    # transferred ends change; they re-attach to the side darts, and the
    # ends they leave form the new triangle
    theta = list(d.theta)
    for x, nx in transfer.items():
        y = d.theta[x]
        ny = transfer.get(y, y)
        theta[nx], theta[ny] = ny, nx
    for i in range(3):
        x, y = opp(a[(i + 1) % 3]), bp[i]
        theta[x], theta[y] = y, x

    skel = structure(theta)
    new_tri = skel.face_of[bp[0]]
    if set(skel.face_darts(new_tri)) != set(bp):
        raise DiagramError("triangle slide produced no new triangle")

    zone = {d.face_of[y] for x in g for y in range(x & ~3, (x & ~3) + 4)}

    old_tri = d.face_of[orb[0]]

    def map_face(f):
        f = d.face_of[f]
        if f == old_tri:
            # the swept disk itself re-forms as the flipped triangle
            return new_tri
        if f not in zone:
            return f
        # a face keeps every flank except those on the three side arcs:
        # flanks at re-attached arc ends follow the transfer, flanks away
        # from the triangle's crossings stay put
        cands = set()
        for x in d.face_darts(f):
            if x in transfer:
                cands.add(skel.face_of[transfer[x]])
            elif x not in side_darts:
                cands.add(skel.face_of[x])
        if len(cands) != 1:
            raise DiagramError("face %r scattered by the slide" % (f,))
        return cands.pop()

    def map_region(rkey):
        if rkey[0] == "f":
            return ("f", map_face(rkey[1]))
        return rkey

    hosts = {}
    for k, (h, u) in d.hosts.items():
        nu = map_face(u)
        hosts[skel.island_of[nu]] = (map_region(h), nu)
    loops = [(lp.label, map_region(lp.host)) for lp in d.loops]
    return Diagram(d.mode, skel, d.over, d.labels, loops, hosts)
