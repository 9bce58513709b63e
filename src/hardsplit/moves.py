"""Reidemeister moves over the raw surgeries.

`surgery` rewires darts and owns the geometry of a site: the shape of
the face a removal or slide acts on, the emptiness of the swept disk,
and what an RII+ poke may capture or engulf (`surgery.rii_scope`, which
enumeration here and `surgery.rii_add`'s validation share).  This module
owns the decoration policy - which sites count as moves (an RII- bigon
must be over/under, an RIII triangle `triangle_coherent`) - enumerates
every site available on a diagram, and reads/writes the
one-move-per-line script format.

Enumeration takes an optional crossing cap and then lists only the sites
whose result has at most that many crossings; a move kind that cannot
fit under the cap is never built.  Below the cap the list is the full
one, in the same order, so a capped search loses nothing it could keep.

Enumeration works on one rooted representative and is identical in
plane and sphere mode.  Some sites depend on which region is outermost:
a wrap curl around an island's outer face, a curl of a bare circle
(whose "out" side is the side of its host region), and the sets an RII+
poke can capture or engulf.  Plane search needs only the given root.
Sphere equality quotients out the choice of outer region, so the sphere
search also enumerates every re-rooting of a state that has more than
one island or a loop (`search._expand_one`; a state with one island and
no loops gains no child from another rooting).  The other sites - RI-,
RII-, RIII and the plain dart curl - are `rooting_free`: every rooting
lists them in the same order and each builds the same sphere diagram in
every rooting, so the sphere search builds them in the state's own
rooting only.
Scripts record a re-rooting as an explicit `ROOT` step - a sphere
isotopy, not a Reidemeister move - so a sequence found on a re-rooted
representative stays replayable line by line.

In plane mode the enumeration is not complete: some RII- removals have
no listed RII+ that undoes them, so the plane move graph has one-way
edges once a search may add two crossings (ROADMAP item 1;
`tests/test_search.py` pins the smallest known case as an expected
failure).

`inverse_site` names, without enumerating or building anything, the site
that undoes an insertion or a triangle slide.  It relies on how
`surgery.ri_add`, `surgery.rii_add` and `surgery.riii` number the darts
they create or move; a change to that numbering must change it too
(`tests/test_search.py` checks it against every discovery of the search
corpus).
"""

from __future__ import annotations

from typing import NamedTuple

from . import surgery
from .maps import ROOT, SPHERE, Diagram, DiagramError, MoveError, opp

__all__ = [
    "CROSSING_DELTA",
    "MoveSite",
    "MoveSequence",
    "enumerate_moves",
    "apply_move",
    "rooting_free",
    "triangle_coherent",
    "inverse_site",
    "top_of_sequence",
    "replay",
    "format_move",
    "parse_move",
    "apply_script",
]

#: crossing-count change per move kind
CROSSING_DELTA = {"RI+": 1, "RI-": -1, "RII+": 2, "RII-": -2, "RIII": 0, "ROOT": 0}


class MoveSite(NamedTuple):
    """One applicable move, pinned to the diagram it was enumerated on.

    spot payloads:
        RI+   ("d", dart, over) or ("loop", index, side, over)
        RI-   (petal_dart,)
        RII+  (region, elem_a, elem_b, over, captured, engulfed, order)
        RII-  (bigon_face,)
        RIII  (triangle_face,)
        ROOT  (region,)       sphere re-rooting, never enumerated
    """

    kind: str
    spot: tuple


class MoveSequence(NamedTuple):
    start: Diagram
    steps: tuple


def _rii_decorations_ok(d, fkey):
    f1, q1 = d.face_darts(fkey)
    return d.is_over_dart(f1) != d.is_over_dart(q1)


def triangle_coherent(d, fkey):
    "Strand heights at the three corners admit a total order (no cyclic pattern)."
    orb = d.face_darts(d.face_of[fkey])
    bits = [d.is_over_dart(x) for x in orb]
    return not (bits[0] == bits[1] == bits[2])


def _subsets(items):
    out = [()]
    for it in sorted(items):
        out += [s + (it,) for s in out]
    return out


def enumerate_moves(d: Diagram, max_cross=None):
    """All applicable move sites whose result has at most `max_cross`
    crossings (no cap when None), deterministically ordered.

    The sites returned are those of the uncapped enumeration that fit,
    in the same order.  Meant to be complete within the cap - every
    diagram with at most `max_cross` crossings that is one Reidemeister
    move away is apply_move of some returned site, on the sphere taken
    over every re-rooting - but in plane mode that fails for some RII+
    insertions: a diagram that returns to `d` by RII- need not be
    rebuilt by any RII+ site of `d` (ROADMAP item 1).  Distinct sites
    may still produce equal diagrams (e.g. a poke described from either
    strand's point of view).
    """

    def fits(kind):
        return max_cross is None or d.ncross + CROSSING_DELTA[kind] <= max_cross

    sites = []
    if fits("RI+"):
        for x in d.darts():
            for ov in (0, 1):
                sites.append(MoveSite("RI+", ("d", x, ov)))
            if d.hosts[d.island_of[x]][1] == d.face_of[x]:
                # arc on the island's outer face: the lobe can also wrap
                # around the island, putting everything inside the petal
                for ov in (0, 1):
                    sites.append(MoveSite("RI+", ("wrap", x, ov)))
        for i in range(len(d.loops)):
            for side in ("out", "in"):
                for ov in (0, 1):
                    sites.append(MoveSite("RI+", ("loop", i, side, ov)))

    if fits("RI-"):
        for p in surgery.site_faces(d, 1):
            if surgery.swept_face_ok(d, p):
                sites.append(MoveSite("RI-", (p,)))

    if fits("RII+"):
        sites += _rii_add_sites(d)

    if fits("RII-"):
        for f in surgery.site_faces(d, 2):
            if _rii_decorations_ok(d, f) and surgery.swept_face_ok(d, f):
                sites.append(MoveSite("RII-", (f,)))

    if fits("RIII"):
        for f in surgery.site_faces(d, 3):
            if triangle_coherent(d, f) and surgery.swept_face_ok(d, f):
                sites.append(MoveSite("RIII", (f,)))
    return sites


def _rii_add_sites(d):
    "Every RII+ poke: two boundary elements of a region, plus what it moves."
    sites = []
    for region in d.region_keys:
        elems = d.region_boundary(region)
        for a in elems:
            for b in elems:
                _split, cap_pool, eng_pool = surgery.rii_scope(d, region, a, b)
                orders = (1, 2) if (a == b and a[0] == "d") else (1,)
                for ov in ("A", "B"):
                    for order in orders:
                        for cap in _subsets(cap_pool):
                            for eng in _subsets(eng_pool):
                                sites.append(
                                    MoveSite(
                                        "RII+", (region, a, b, ov, cap, eng, order)
                                    )
                                )
    return sites


def rooting_free(site) -> bool:
    """Whether the site means the same move in every rooting of a sphere
    diagram: RI-, RII-, RIII and the plain dart curl.

    Such a site names darts or face keys of theta, and a re-rooting keeps
    theta; its legality checks read decorations and
    `surgery.swept_face_ok`, which judges the same disk of the sphere
    whichever region is outer.  So every rooting of a state enumerates
    the same rooting-free sites in the same order, and each builds the
    same sphere diagram in every rooting.  Wrap and loop curls and RII+
    pokes name sides, regions and contents that a re-rooting moves.
    """
    kind, spot = site
    return kind in ("RI-", "RII-", "RIII") or (kind == "RI+" and spot[0] == "d")


def apply_move(d: Diagram, site) -> Diagram:
    "Apply one site; raises MoveError when the site is stale or illegal."
    kind, spot = site
    if kind == "RI+":
        if spot[0] in ("d", "wrap"):
            _k, x, ov = spot
            return surgery.ri_add(d, (spot[0], x), ov)
        _k, i, side, ov = spot
        return surgery.ri_add(d, ("loop", i, side), ov)
    if kind == "RI-":
        return surgery.ri_remove(d, spot[0])
    if kind == "RII+":
        region, a, b, ov, cap, eng, order = spot
        return surgery.rii_add(
            d, region, a, b, ov, captured=cap, engulfed=eng, order=order
        )
    if kind == "RII-":
        (f,) = spot
        if not _rii_decorations_ok(d, surgery.site_face(d, f, 2)[0]):
            raise MoveError("2-gon %r is a clasp, not an over/under bigon" % (f,))
        return surgery.rii_remove(d, f)
    if kind == "RIII":
        (f,) = spot
        if not triangle_coherent(d, surgery.site_face(d, f, 3)[0]):
            raise MoveError("triangle heights are cyclic; no slide exists")
        return surgery.riii(d, f)
    if kind == "ROOT":
        if d.mode != SPHERE:
            raise MoveError("re-rooting is a move only on the sphere")
        try:
            return d.rerooted(spot[0])
        except DiagramError as e:
            raise MoveError(str(e)) from e
    raise MoveError("unknown move kind %r" % (kind,))


def inverse_site(d: Diagram, site, child: Diagram):
    """The site on `child` = apply_move(d, site) that rebuilds `d`, or None.

    Read off the numbering the surgeries give the darts they create, so
    nothing is enumerated or built:

    * RI+ (any curl): `surgery.ri_add` appends crossing n = d.ncross and
      pairs 4n with 4n+3, so 4n bounds the new monogon: RI- (4n,).
    * RII+: `surgery.rii_add` appends crossings n and n+1 and checks that
      4n+1 (pl+N) bounds the new bigon: RII- on that face.
    * RIII: `surgery.riii` keeps every dart number, and the new triangle
      is made of the darts opp(x) for the darts x of the slid one (it
      checks this), so opp of the named dart lies on it: RIII on that
      face.

    The swept face must also be empty for the site to be enumerated on
    `child` (an RII+ that engulfs fills its bigon); when it is not, the
    answer is None.  The inverse of RI- or RII- is an insertion, which
    would have to be recovered from the compacted numbering; it is not
    tracked, and the answer is None.  The sites returned name a face key
    of theta, which every re-rooting keeps, so on the sphere the answer
    holds in every rooting of `child` that enumerates it.
    """
    kind, spot = site
    if kind == "RI+":
        inv = MoveSite("RI-", (4 * d.ncross,))
    elif kind == "RII+":
        inv = MoveSite("RII-", (child.face_of[4 * d.ncross + 1],))
    elif kind == "RIII":
        inv = MoveSite("RIII", (child.face_of[opp(spot[0])],))
    else:
        return None
    return inv if surgery.swept_face_ok(child, inv.spot[0]) else None


def replay(seq: MoveSequence):
    "Diagrams D^0 .. D^r along the sequence; MoveError names the bad step."
    out = [seq.start]
    for i, s in enumerate(seq.steps):
        try:
            out.append(apply_move(out[-1], s))
        except MoveError as e:
            raise MoveError("step %d: %s" % (i, e)) from e
    return out

def top_of_sequence(seq: MoveSequence) -> int:
    "Largest crossing excess over the start, taken over all prefixes."
    base = seq.start.ncross
    return max(x.ncross - base for x in replay(seq))


# -- script format ---------------------------------------------------
#
#   RI+ dart=5 side=R over=1        RI+ loop=0 side=out over=0
#   RI- crossing=2                  (petal=2 or 3 names a petal at that slot)
#   RII+ dartA=1 dartB=3 over=A     (loopA=/loopB=; order=2, from=far,
#                                    captured=I0,L1 engulfed=... as needed)
#   RII- face=5
#   RIII face=0 variant=0
#   ROOT region=f5                  (also root / l0; sphere scripts only)
#
# Lines refer to the diagram produced by the preceding lines, using its
# dart numbering; `variant` is accepted for symmetry but there is only
# one way to slide a triangle, so it carries no information.


def _fmt_children(refs):
    return ",".join("%s%d" % (kind, ref) for kind, ref in refs)


def format_move(site) -> str:
    kind, spot = site
    if kind == "RI+":
        if spot[0] == "d":
            return "RI+ dart=%d side=R over=%d" % (spot[1], spot[2])
        if spot[0] == "wrap":
            return "RI+ dart=%d side=R over=%d wrap=1" % (spot[1], spot[2])
        return "RI+ loop=%d side=%s over=%d" % (spot[1], spot[2], spot[3])
    if kind == "RI-":
        p = spot[0]
        if p & 3 < 2:
            return "RI- crossing=%d" % (p >> 2)
        return "RI- crossing=%d petal=%d" % (p >> 2, p & 3)
    if kind == "RII+":
        region, a, b, ov, cap, eng, order = spot
        toks = []
        for name, e in (("A", a), ("B", b)):
            if e[0] == "d":
                toks.append("dart%s=%d" % (name, e[1]))
            else:
                toks.append("loop%s=%d" % (name, e[1]))
        toks.append("over=%s" % ov)
        if order != 1:
            toks.append("order=%d" % order)
        if a == b and a[0] == "loop" and region == ("l", a[1]):
            toks.append("from=far")
        if cap:
            toks.append("captured=%s" % _fmt_children(cap))
        if eng:
            toks.append("engulfed=%s" % _fmt_children(eng))
        return "RII+ " + " ".join(toks)
    if kind == "RII-":
        return "RII- face=%d" % spot[0]
    if kind == "RIII":
        return "RIII face=%d variant=0" % spot[0]
    if kind == "ROOT":
        (r,) = spot
        return "ROOT region=%s" % ("root" if r == ROOT else "%s%d" % r)
    raise MoveError("unknown move kind %r" % (kind,))


def _digits(s):
    # str.isdigit also takes "²" and other scripts' digits, which int() refuses
    return s.isascii() and s.isdigit()


def _parse_children(text):
    out = []
    for tok in text.split(","):
        if len(tok) < 2 or tok[0] not in "IL" or not _digits(tok[1:]):
            raise MoveError("bad content reference %r" % tok)
        out.append((tok[0], int(tok[1:])))
    return tuple(out)


def _kv(parts):
    kv = {}
    for tok in parts:
        k, eq, v = tok.partition("=")
        if not eq or k in kv:
            raise MoveError("bad token %r" % tok)
        kv[k] = v
    return kv


def _take_int(kv, key):
    v = kv.pop(key, None)
    if v is None or not _digits(v[1:] if v.startswith("-") else v):
        raise MoveError("missing or bad %s=" % key)
    return int(v)


def parse_move(d: Diagram, line: str) -> MoveSite:
    "Parse one script line against the diagram it will apply to."
    parts = line.split()
    if not parts:
        raise MoveError("empty move line")
    kind, kv = parts[0], _kv(parts[1:])

    if kind == "RI+":
        ov = _take_int(kv, "over")
        if ov not in (0, 1):
            raise MoveError("over must be 0 or 1")
        side = kv.pop("side", None)
        wrap = kv.pop("wrap", "0")
        if wrap not in ("0", "1"):
            raise MoveError("wrap must be 0 or 1")
        if "dart" in kv:
            x = _take_int(kv, "dart")
            if side not in ("L", "R"):
                raise MoveError("side must be L or R")
            if not 0 <= x < d.ndart:
                raise MoveError("no dart %d" % x)
            spot = (
                "wrap" if wrap == "1" else "d",
                x if side == "R" else d.theta[x],
                ov,
            )
        else:
            if wrap == "1":
                raise MoveError("wrap only applies to dart curls")
            i = _take_int(kv, "loop")
            if side not in ("in", "out"):
                raise MoveError("side must be in or out")
            spot = ("loop", i, side, ov)
        site = MoveSite("RI+", spot)

    elif kind == "RI-":
        c = _take_int(kv, "crossing")
        if not 0 <= c < d.ncross:
            raise MoveError("no crossing %d" % c)
        # a crossing has at most two petals, p and p^2 (a lone curl), and
        # in the plane their retractions differ when the curl's 2-face
        # holds content; petal= names the one at slot 2 or 3, and a line
        # without it means the smaller retractable one
        pets = [
            p
            for p in surgery.site_faces(d, 1)
            if p >> 2 == c and surgery.swept_face_ok(d, p)
        ]
        if "petal" in kv:
            slot = _take_int(kv, "petal")
            pets = [p for p in pets if p & 3 == slot]
        if not pets:
            raise MoveError("crossing %d has no retractable petal" % c)
        site = MoveSite("RI-", (pets[0],))

    elif kind == "RII+":
        elems = {}
        for name in ("A", "B"):
            if "dart" + name in kv:
                x = _take_int(kv, "dart" + name)
                if not 0 <= x < d.ndart:
                    raise MoveError("no dart %d" % x)
                elems[name] = ("d", x)
            else:
                i = _take_int(kv, "loop" + name)
                if not 0 <= i < len(d.loops):
                    raise MoveError("no loop %d" % i)
                elems[name] = ("loop", i)
        a, b = elems["A"], elems["B"]
        far_flag = kv.pop("from", None)
        if far_flag not in (None, "far"):
            raise MoveError("from= only takes 'far'")
        region = _site_region(d, a, b, far_flag == "far")
        ov = kv.pop("over", None)
        if ov not in ("A", "B"):
            raise MoveError("over must be A or B")
        order = _take_int(kv, "order") if "order" in kv else 1
        cap = _parse_children(kv.pop("captured")) if "captured" in kv else ()
        eng = _parse_children(kv.pop("engulfed")) if "engulfed" in kv else ()
        site = MoveSite("RII+", (region, a, b, ov, cap, eng, order))

    elif kind == "RII-":
        f = _take_int(kv, "face")
        if not 0 <= f < d.ndart:
            raise MoveError("no face %d" % f)
        site = MoveSite("RII-", (f,))

    elif kind == "RIII":
        f = _take_int(kv, "face")
        if not 0 <= f < d.ndart:
            raise MoveError("no face %d" % f)
        if kv.pop("variant", "0") not in ("0", "1"):
            raise MoveError("variant must be 0 or 1")
        site = MoveSite("RIII", (f,))

    elif kind == "ROOT":
        tok = kv.pop("region", None)
        if tok == "root":
            region = ROOT
        elif tok and tok[0] in "fl" and _digits(tok[1:]):
            region = (tok[0], int(tok[1:]))
        else:
            raise MoveError("missing or bad region=")
        site = MoveSite("ROOT", (region,))

    else:
        raise MoveError("unknown move kind %r" % kind)

    if kv:
        raise MoveError("unexpected tokens %s" % ", ".join(sorted(kv)))
    return site


def _site_region(d, a, b, from_far):
    "The region a parsed RII+ site pokes through."
    if from_far:
        if a != b or a[0] != "loop":
            raise MoveError("from=far only applies to a circle poked through itself")
        return ("l", a[1])
    for e in (a, b):
        if e[0] == "d":
            return d.region_of_face(d.face_of[e[1]])
    i, j = a[1], b[1]
    if i == j:
        return d.loops[i].host
    cands = {d.loops[i].host, ("l", i)} & {d.loops[j].host, ("l", j)}
    if len(cands) != 1:
        raise MoveError("circles %d and %d bound no common region" % (i, j))
    return cands.pop()


def apply_script(d: Diagram, text: str) -> Diagram:
    "Run a move script; each line sees the numbering of the diagram so far."
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            d = apply_move(d, parse_move(d, line))
        except MoveError as e:
            raise MoveError("line %d: %s" % (ln, e)) from e
    return d
