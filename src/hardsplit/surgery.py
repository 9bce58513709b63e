"""Raw move surgeries on diagrams, and the geometry of their sites.

Each surgery rebuilds theta/decorations/hosting for one Reidemeister
move and returns the new diagram.  This module owns the geometry of a
move site: which faces are petals, bigons and triangles (`site_faces`,
checked by `site_face`), whether a swept disk is empty
(`swept_face_ok`), and what an RII+ poke may capture or engulf
(`rii_scope`); no other module decides these.  Which sites count as *admissible moves* -
crossing decorations, strand classes - is the caller's policy (see
`moves` and `resolution`).

Conventions:

* new crossings are appended, so surviving darts keep their (crossing,
  slot) identity, up to index compaction on removal;
* region keys are remapped explicitly; children of a swept or split
  region land where the geometry dictates, with the free choices
  (capture) passed in by the caller.
"""

from __future__ import annotations

from .maps import ROOT, Diagram, DiagramError, MoveError, opp, rot, structure

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
    if not 0 <= f < d.ndart:
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


# -- RI: kink insertion ----------------------------------------------


def ri_add(d: Diagram, elem, over: int) -> Diagram:
    """Add a kink.

    elem : ("d", dart) — curl the dart's edge into the face on its right;
           ("wrap", dart) — same arc and side, but the lobe is thrown
           around the whole island, so the petal becomes its outer face
           (only meaningful when the face right of the dart already is
           the island's outer face);
           ("loop", i, side) — curl a bare circle instead; side "out"
           puts the petal on the side of the circle's hosting region,
           "in" on its far side.
    over : decoration of the new crossing (0 puts the slot-{0,2} strand,
           which includes the petal-out end, on top).
    """
    n = d.ncross
    n0, n1, n2, n3 = 4 * n, 4 * n + 1, 4 * n + 2, 4 * n + 3
    over_list = list(d.over) + [int(over) & 1]

    if elem[0] in ("d", "wrap"):
        da = elem[1]
        if not 0 <= da < d.ndart:
            raise MoveError("no dart %r" % (da,))
        ea = d.theta[da]
        theta = list(d.theta) + [0] * 4
        theta[n0], theta[n3] = n3, n0  # the petal
        theta[n2], theta[da] = da, n2
        theta[n1], theta[ea] = ea, n1
        # every old face and island keeps its key: new darts sort last
        hosts = d.hosts
        if elem[0] == "wrap":
            isl = d.island_of[da]
            if d.hosts[isl][1] != d.face_of[da]:
                raise MoveError(
                    "wrap curl needs the arc on its island's outer face"
                )
            hosts = dict(d.hosts)
            hosts[isl] = (hosts[isl][0], n0)
        return Diagram(d.mode, theta, over_list, d.labels, d.loops, hosts)

    _kind, li, side = elem
    if not 0 <= li < len(d.loops):
        raise MoveError("no loop %r" % (li,))
    if side not in ("in", "out"):
        raise MoveError("side must be 'in' or 'out'")
    lab, host = d.loops[li]
    theta = list(d.theta) + [0] * 4
    theta[n0], theta[n3] = n3, n0
    theta[n1], theta[n2] = n2, n1
    # the kinked circle: monogon (n0) is the petal, monogon (n2) and the
    # 2-face (n1,n3) are the two sides of the old circle, the petal lying
    # on the (n1,n3) side
    if side == "out":
        up, far_face = n1, n2
    else:
        up, far_face = n2, n1

    def map_region(rkey):
        if rkey == ("l", li):
            return ("f", far_face)
        if rkey[0] == "l" and rkey[1] > li:
            return ("l", rkey[1] - 1)
        return rkey

    hosts = {k: (map_region(h), u) for k, (h, u) in d.hosts.items()}
    hosts[n0] = (map_region(host), up)
    loops = [
        (lp.label, map_region(lp.host))
        for j, lp in enumerate(d.loops)
        if j != li
    ]
    # the kink is a fresh component whose smallest dart sorts last
    labels = list(d.labels) + [lab]
    return Diagram(d.mode, theta, over_list, labels, loops, hosts)


# -- generic crossing removal ----------------------------------------


def _remove_crossings(d: Diagram, removed, merge_pairs, discount=()):
    """Delete crossings, joining their strands straight through.

    merge_pairs are pairs of old face keys that the move geometry fuses
    into one region.  discount marks the arcs (by either end dart) that
    the move retracts — their old flank faces are unreliable for deciding
    which regions a fully contracted strand ends up bounding.  Handles
    islands splitting, islands dying into bare circles, and all hosting
    updates.
    """
    discount = set(discount)
    removed = set(removed)
    keep = [c for c in range(d.ncross) if c not in removed]
    cmap = {c: i for i, c in enumerate(keep)}

    def dmap(x):
        return 4 * cmap[x >> 2] + (x & 3)

    theta = [0] * (4 * len(keep))
    consumed = set()
    for u in d.darts():
        if (u >> 2) in removed:
            continue
        t = d.theta[u]
        while (t >> 2) in removed:
            consumed.add(t)
            consumed.add(opp(t))
            t = d.theta[opp(t)]
        theta[dmap(u)] = dmap(t)

    # strands living entirely on removed crossings contract to bare circles
    zone_darts = [x for c in sorted(removed) for x in range(4 * c, 4 * c + 4)]
    cycles = []
    seen = set()
    for x0 in zone_darts:
        if x0 in consumed or x0 in seen:
            continue
        cyc = []
        x = x0
        while x not in seen:
            seen.add(x)
            seen.add(opp(x))
            cyc.append(x)
            x = d.theta[opp(x)]
            if (x >> 2) not in removed or x in consumed:
                raise DiagramError("contracted strand escapes the removed set")
        cycles.append(tuple(cyc))

    over = [d.over[c] for c in keep]
    skel = structure(theta)

    # fuse the faces at the removed crossings into region classes
    affected = {d.face_of[x] for x in zone_darts}
    for a, b in merge_pairs:
        if a not in affected or b not in affected:
            raise DiagramError("merge pair outside the removal zone")
    parent = {f: f for f in affected}

    def find(f):
        while parent[f] != f:
            parent[f] = parent[parent[f]]
            f = parent[f]
        return f

    for a, b in merge_pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    def new_face(x):
        return skel.face_of[dmap(x)]

    # incidence between region classes and the pieces bounding them; each
    # piece meets a class through at most one of its faces
    cls_pieces = {}
    piece_cls = {}

    def link(rep, piece, face):
        cls_pieces.setdefault(rep, set()).add(piece)
        fmap = piece_cls.setdefault(piece, {})
        if rep in fmap and fmap[rep] != face:
            raise DiagramError("region class split across one piece")
        fmap[rep] = face

    for f in affected:
        rep = find(f)
        cls_pieces.setdefault(rep, set())
        for x in d.face_darts(f):
            if (x >> 2) not in removed:
                link(rep, ("I", skel.island_of[dmap(x)]), new_face(x))

    nloops_old = len(d.loops)
    for idx, cyc in enumerate(cycles):
        # the contracted circle separates the two classes flanking its
        # arcs, not counting arcs the move retracted across other strands
        sides = set()
        for x in cyc:
            y = opp(x)
            z = d.theta[y]
            if y in discount or z in discount:
                continue
            sides.add(find(d.face_of[y]))
            sides.add(find(d.face_of[z]))
        if len(sides) != 2:
            raise DiagramError("contracted circle does not bound two regions")
        for rep in sides:
            link(rep, ("L", nloops_old + idx), None)

    # around each old island in the zone, classes and pieces form a forest
    # rooted at the class (or fragment) holding the island's outward face
    zone_islands = {d.island_of[f] for f in affected}
    cls_key = {}
    piece_host = {}

    for isl in sorted(zone_islands):
        old_host, old_up = d.hosts[isl]
        queue = []
        visited = set()
        if d.face_of[old_up] in affected:
            rep = find(d.face_of[old_up])
            cls_key[rep] = ("old", old_host)
            queue.append(("C", rep))
            visited.add(("C", rep))
        else:
            piece = ("I", skel.island_of[dmap(old_up)])
            piece_host[piece] = (("old", old_host), dmap(old_up))
            queue.append(("P", piece))
            visited.add(("P", piece))
        while queue:
            tag, node = queue.pop(0)
            if tag == "C":
                for piece in sorted(cls_pieces.get(node, ())):
                    if ("P", piece) in visited:
                        continue
                    visited.add(("P", piece))
                    if piece[0] == "I":
                        piece_host[piece] = (("cls", node), piece_cls[piece][node])
                    else:
                        piece_host[piece] = (("cls", node),)
                    queue.append(("P", piece))
            else:
                for rep in sorted(piece_cls.get(node, {})):
                    if ("C", rep) in visited or rep in cls_key:
                        continue
                    visited.add(("C", rep))
                    if node[0] == "I":
                        cls_key[rep] = ("f", piece_cls[node][rep])
                    else:
                        cls_key[rep] = ("l", node[1])
                    queue.append(("C", rep))

    def old_region(rkey, depth=0):
        # follow ("old", host) class keys outward until a region survives
        while True:
            if depth > len(d.faces) + 2:
                raise DiagramError("hosting recursion runaway")
            if rkey == ROOT or rkey[0] == "l":
                return rkey
            f = d.face_of[rkey[1]]
            if f not in affected:
                return ("f", dmap(f))
            rep = find(f)
            if rep not in cls_key:
                raise DiagramError("region %r vanished with content" % (rkey,))
            val = cls_key[rep]
            if val[0] != "old":
                return val
            rkey, depth = val[1], depth + 1

    def key_of_cls(rep):
        val = cls_key[rep]
        return old_region(val[1], 1) if val[0] == "old" else val

    hosts = {}
    for isl in d.islands_keys:
        if isl in zone_islands:
            continue
        h, u = d.hosts[isl]
        hosts[skel.island_of[dmap(u)]] = (old_region(h), dmap(u))
    for piece, val in piece_host.items():
        if piece[0] != "I":
            continue
        h, u = val
        hosts[piece[1]] = (
            old_region(h[1]) if h[0] == "old" else key_of_cls(h[1]),
            u,
        )
    # every fragment of a zone island must have been reached
    frag_keys = {
        skel.island_of[dmap(x)]
        for isl in zone_islands
        for x in d.islands[isl]
        if (x >> 2) not in removed
    }
    if not frag_keys <= set(hosts):
        raise DiagramError("island fragment unreachable from its outward face")

    loops = [(lp.label, old_region(lp.host)) for lp in d.loops]
    for idx, cyc in enumerate(cycles):
        val = piece_host[("L", nloops_old + idx)]
        loops.append((d.labels[d.comp_of[cyc[0]]], key_of_cls(val[0][1])))

    # a surviving component keeps its name under the new numbering
    by_min = {}
    for i, orb in enumerate(d.components):
        surv = [
            dmap(x)
            for x in list(orb) + [d.theta[y] for y in orb]
            if (x >> 2) not in removed
        ]
        if surv:
            by_min[min(surv)] = d.labels[i]
    labels = []
    for orb in skel.components:
        m = min(min(orb), min(theta[x] for x in orb))
        labels.append(by_min[m])

    return Diagram(d.mode, skel, over, labels, loops, hosts)


def ri_remove(d: Diagram, petal: int) -> Diagram:
    "Contract the kink whose monogon face starts at dart `petal`."
    site_face(d, petal, 1)
    if not swept_face_ok(d, petal):
        raise MoveError("kink petal is not empty")
    merge = [(d.face_of[petal], d.face_of[rot(petal)])]
    return _remove_crossings(d, [petal >> 2], merge, discount=[petal])


def rii_remove(d: Diagram, fkey: int) -> Diagram:
    "Pull apart the two strands bounding the bigon face `fkey`."
    f1, q1 = site_face(d, fkey, 2)
    if not swept_face_ok(d, f1):
        raise MoveError("bigon is not empty")
    merge = [
        (f1, d.face_of[opp(f1)]),
        (f1, d.face_of[opp(q1)]),
    ]
    return _remove_crossings(d, [f1 >> 2, q1 >> 2], merge, discount=[f1, q1])


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
    order: int = 1,
) -> Diagram:
    """Push a finger of strand A across strand B through `region`.

    elem_a, elem_b : ("d", dart) or ("loop", i), each bounding the region.
        Strand A carries the finger; B is the strand crossed.  Using one
        dart twice (or one loop twice) pushes a strand across itself.
        For such one-edge sites `order` picks which new crossing sits
        nearer the named dart's own crossing: 1 the finger base, 2 the
        spot where the finger crosses the edge.
    over : "A" if the finger passes over, "B" if under.
    captured : children of `region` that end up inside the finger pocket
        (possible only when both site elements lie on one boundary
        circle, which is when the finger separates the region).
    engulfed : children of the region beyond B wrapped into the new bigon
        by the finger tip.
    Both must lie in the pools `rii_scope` names.
    """
    if over not in ("A", "B"):
        raise MoveError("over must be 'A' or 'B'")
    if order not in (1, 2):
        raise MoveError("order must be 1 or 2")
    n = d.ncross
    pl, pu = 4 * n, 4 * n + 4  # A runs E-W through both; B enters pu from N
    region = d._norm_region(region)

    def check_elem(e):
        if e[0] == "d":
            x = e[1]
            if not (isinstance(x, int) and 0 <= x < d.ndart):
                raise MoveError("no dart %r" % (x,))
            if d.region_of_face(d.face_of[x]) != region:
                raise MoveError("dart %r does not bound region %r" % (x, region))
        elif e[0] == "loop":
            i = e[1]
            if not (isinstance(i, int) and 0 <= i < len(d.loops)):
                raise MoveError("no loop %r" % (i,))
            if d.loops[i].host != region and region != ("l", i):
                raise MoveError("loop %r does not bound region %r" % (i, region))
        else:
            raise MoveError("bad site element %r" % (e,))

    check_elem(elem_a)
    check_elem(elem_b)
    split, capturable, engulfable = rii_scope(d, region, elem_a, elem_b)

    theta = list(d.theta) + [0] * 8
    over_list = list(d.over) + ([0, 0] if over == "A" else [1, 1])

    def pair(x, y):
        theta[x], theta[y] = y, x

    pair(pl + _E, pu + _E)  # finger tip
    pair(pu + _S, pl + _N)  # crossed middle of B

    consumed = {}  # loop index -> role "A" | "B" | "AB"
    keep_probe = None  # a dart of the face that keeps the region's role
    one_edge = False

    if elem_a[0] == "d" and elem_b[0] == "d":
        da, db = elem_a[1], elem_b[1]
        ea, eb = d.theta[da], d.theta[db]
        keep_probe = da
        if da == db:  # strand across itself, one edge, one flank
            one_edge = True
            if order == 1:
                pair(da, pl + _W)
                pair(pu + _W, pu + _N)
                pair(pl + _S, ea)
            else:
                pair(da, pu + _N)
                pair(pl + _S, pl + _W)
                pair(pu + _W, ea)
        elif db == ea:
            # the two flanks of one edge never bound a common region (a
            # 4-valent shadow is Eulerian, hence bridgeless), so this
            # naming cannot describe a site
            raise MoveError("site names both flanks of one edge")
        else:
            pair(da, pl + _W)
            pair(pu + _W, ea)
            pair(db, pu + _N)
            pair(pl + _S, eb)
    elif elem_a[0] == "d":  # B is a bare circle
        da = elem_a[1]
        pair(da, pl + _W)
        pair(pu + _W, d.theta[da])
        pair(pl + _S, pu + _N)
        consumed[elem_b[1]] = "B"
        keep_probe = da
    elif elem_b[0] == "d":  # A is a bare circle
        db = elem_b[1]
        pair(pu + _W, pl + _W)
        pair(db, pu + _N)
        pair(pl + _S, d.theta[db])
        consumed[elem_a[1]] = "A"
        keep_probe = db
    elif elem_a[1] == elem_b[1]:  # a bare circle poked through itself
        pair(pu + _W, pu + _N)
        pair(pl + _S, pl + _W)
        consumed[elem_a[1]] = "AB"
        # the poked-from side ends in two teardrop faces; the one cut off
        # by the long remnant arc keeps the region's role
        keep_probe = pu + _W
    else:  # two bare circles
        pair(pu + _W, pl + _W)
        pair(pl + _S, pu + _N)
        consumed[elem_a[1]] = "A"
        consumed[elem_b[1]] = "B"
        keep_probe = pl + _S  # both circles' region-side flanks merge here

    if order == 2 and not one_edge:
        raise MoveError("order applies only to one-edge sites")

    skel = structure(theta)

    bigon = skel.face_of[pl + _N]
    if set(skel.face_darts(bigon)) != {pl + _N, pu + _E}:
        raise DiagramError("finger surgery produced no bigon")
    keep_face = skel.face_of[keep_probe]
    pocket_face = None
    if split:
        cand = {skel.face_of[pl + _S], skel.face_of[pu + _W]} - {keep_face}
        if len(cand) != 1:
            raise DiagramError("finger pocket did not separate")
        pocket_face = cand.pop()
    far_face = skel.face_of[pl + _E]  # beyond B, outside the tip
    behind_face = skel.face_of[pu + _S]  # dragged along behind the finger

    site_islands = {d.island_of[e[1]] for e in (elem_a, elem_b) if e[0] == "d"}

    captured = set(captured)
    engulfed = set(engulfed)
    if captured & engulfed:
        raise MoveError("captured and engulfed overlap")
    if captured:
        if not split:
            raise MoveError("capture needs both site elements on one circle")
        if not captured <= capturable:
            raise MoveError("captured content is not in the region")
    if not engulfed <= engulfable:
        raise MoveError("engulfed content is not beyond the crossed strand")

    dropped = sorted(consumed)

    def loop_shift(i):
        return i - sum(1 for x in dropped if x < i)

    # the region keeps its key unless its own bounding circle was rebuilt
    site_faces = {d.face_of[e[1]] for e in (elem_a, elem_b) if e[0] == "d"}
    if region == ROOT:
        region_new = ROOT
    elif region[0] == "f":
        region_new = ("f", keep_face) if region[1] in site_faces else region
    elif region[1] in consumed:
        region_new = ("f", keep_face)
    else:
        region_new = ("l", loop_shift(region[1]))

    def consumed_far_target(li):
        # where the far side of a circle consumed from its hosting side went
        return ("f", behind_face if consumed[li] in ("A", "AB") else far_face)

    def map_ref(child, rkey):
        if child in captured:
            return ("f", pocket_face)
        if child in engulfed:
            return ("f", bigon)
        if rkey == region:
            return region_new
        if rkey[0] == "l" and rkey[1] in consumed:
            return consumed_far_target(rkey[1])
        if rkey[0] == "l":
            return ("l", loop_shift(rkey[1]))
        return rkey

    def map_outside(rkey):
        # host reference of a participant, one level out of the region
        if rkey[0] == "l":
            if rkey[1] in consumed:
                raise DiagramError("participant hosted by a consumed circle")
            return ("l", loop_shift(rkey[1]))
        return rkey

    hosts = {}
    for k, (h, u) in d.hosts.items():
        if k in site_islands:
            continue
        hosts[k] = (map_ref(("I", k), h), u)

    # site islands and consumed circles merge into one island
    new_island = skel.island_of[pl]
    owner = d.island_of[region[1]] if region != ROOT and region[0] == "f" else None
    if owner in site_islands:
        # the region's own face carried a site dart; the merged island
        # takes over the owner's place (its outward face is untouched)
        host_new = map_outside(d.hosts[owner][0])
        up_new = skel.face_of[d.hosts[owner][1]]
    else:
        host_new = up_new = None
        if region[0] == "l" and region[1] in consumed:
            # poked from the circle's far side: it opens toward its host
            li = region[1]
            host_new = map_outside(d.loops[li].host)
            up_new = behind_face if consumed[li] in ("A", "AB") else far_face
        if host_new is None:
            for isl in sorted(site_islands):
                if d.hosts[isl][0] != region:
                    raise DiagramError("site island outside the poked region")
        if host_new is None:
            for li in dropped:
                if d.loops[li].host != region:
                    raise DiagramError("consumed circle outside the poked region")
        if host_new is None:
            # every participant was a child of the region
            host_new, up_new = region_new, keep_face
    hosts[new_island] = (host_new, up_new)

    loops = []
    for i, lp in enumerate(d.loops):
        if i in consumed:
            continue
        loops.append((lp.label, map_ref(("L", i), lp.host)))

    # consumed circles become strand components: the finger strand's
    # smallest dart is pl+E, the crossed strand's pl+N, so A sorts first
    labels = list(d.labels)
    for role in ("A", "AB", "B"):
        for li in dropped:
            if consumed[li] == role:
                labels.append(d.loops[li].label)

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
