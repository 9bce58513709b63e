"""Reading and writing diagrams in an extended PD text format.

The format is line oriented, UTF-8, ``#`` to end of line is a comment.
Record kinds:

    X <name> <e1> <e2> <e3> <e4> [over=1|3]
    O <name> <face-hint>
    C <name> <edge> [<edge> ...]
    H <anchor-edge> <parent-hint> <up-hint>
    F <face-hint>

``X`` lists the four edge ends around a crossing counterclockwise.  By
default the strand through positions 2 and 4 passes over (the usual
convention that a PD tuple starts with an incoming under end); ``over=1``
(equivalently ``over=3``) flips this.  Every edge token must appear exactly
twice over all ``X`` records.

``O`` declares a crossing-free circle living in the hinted region.  The
name doubles as its component label; ``-`` means unlabeled, and names
starting with ``~`` are unlabeled but still addressable in hints
(component labels must not start with ``~``).

``C`` labels the strand component containing the listed edges.

``H`` places one connected piece (identified by any of its edges) inside a
region of another piece, and says which of its own faces opens toward that
region.  ``F`` does the same for a piece sitting in the root region, naming
its outward face.  Pieces with neither record sit in the root region with a
default outward face.

A face hint is ``outer`` (the root region), ``<edge>:R`` / ``<edge>:L``
(the face to the right / left of the edge's first-listed end), or
``in:<loop-name>`` (the far side of a circle).

``parse_pd`` returns the checked `Diagram`.  The names a text gives its
crossings, edges and circles only tie its records together; the diagram
does not keep them.

``emit_pd`` writes a normal form: slot numbering rotated so every crossing
has its under strand in positions 1 and 3 (so no ``over=`` tokens), edges
named ``E1..`` in order of first appearance, crossings ``c0..``, and an
explicit ``F`` record for every root piece.  Parsing an emitted text
reproduces the diagram dart for dart.
"""

from __future__ import annotations

import re

from .maps import PLANE, ROOT, Diagram, DiagramError, structure

__all__ = ["PDError", "parse_pd", "emit_pd"]


class PDError(DiagramError):
    """Text that does not describe a diagram."""


_HINT_RE = re.compile(r"^(.+):([RL])$")


def text_lines(text):
    """(line number, line) for each line of `text` that holds more than a
    comment, stripped; "#" starts a comment.  PD text, `moves` scripts and
    `resolution` traces all read their lines through this."""
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield ln, line


def parse_pd(text, mode=PLANE):
    """Parse PD text into a checked `Diagram`; PDError names what is wrong."""
    xrecs, orecs, crecs, hrecs, frecs = [], [], [], [], []
    for ln, line in text_lines(text):
        parts = line.split()
        kind = parts[0]
        if kind == "X":
            if len(parts) == 7:
                if parts[6] not in ("over=1", "over=3"):
                    raise PDError("line %d: bad over token %r" % (ln, parts[6]))
                xrecs.append((ln, parts[1], parts[2:6], True))
            elif len(parts) == 6:
                xrecs.append((ln, parts[1], parts[2:6], False))
            else:
                raise PDError("line %d: X needs a name and four edges" % ln)
        elif kind == "O":
            if len(parts) != 3:
                raise PDError("line %d: O needs a name and a face hint" % ln)
            orecs.append((ln, parts[1], parts[2]))
        elif kind == "C":
            if len(parts) < 3:
                raise PDError("line %d: C needs a name and at least one edge" % ln)
            crecs.append((ln, parts[1], parts[2:]))
        elif kind == "H":
            if len(parts) != 4:
                raise PDError("line %d: H needs an edge and two face hints" % ln)
            hrecs.append((ln, parts[1], parts[2], parts[3]))
        elif kind == "F":
            if len(parts) != 2:
                raise PDError("line %d: F needs a face hint" % ln)
            frecs.append((ln, None, "outer", parts[1]))  # an H with no anchor
        else:
            raise PDError("line %d: unknown record kind %r" % (ln, kind))

    cnames = set()
    for ln, name, _e, _f in xrecs:
        if name in cnames:
            raise PDError("line %d: crossing name %r reused" % (ln, name))
        cnames.add(name)

    occ = {}
    for c, (_ln, _name, edges, _flip) in enumerate(xrecs):
        for s, e in enumerate(edges):
            occ.setdefault(e, []).append(4 * c + s)
    for e, ds in occ.items():
        if len(ds) != 2:
            raise PDError("edge %r has %d ends (dangling dart)" % (e, len(ds)))

    theta = [0] * (4 * len(xrecs))
    for a, b in occ.values():
        theta[a], theta[b] = b, a
    over = [0 if flip else 1 for (_ln, _n, _e, flip) in xrecs]
    skel = structure(theta)

    loop_names = []
    for _ln, name, _hint in orecs:
        loop_names.append(None if name == "-" else name)
    loop_index = {}
    for i, n in enumerate(loop_names):
        if n is not None:
            loop_index[n] = None if n in loop_index else i

    def hint_target(ln, hint):
        # -> ("R",) | ("F", face_key) | ("L", loop_index)
        if hint == "outer":
            return ("R",)
        if hint.startswith("in:"):
            name = hint[3:]
            if name not in loop_index:
                raise PDError("line %d: unknown loop %r in hint" % (ln, name))
            if loop_index[name] is None:
                raise PDError("line %d: loop name %r is ambiguous" % (ln, name))
            return ("L", loop_index[name])
        m = _HINT_RE.match(hint)
        if not m:
            raise PDError("line %d: bad face hint %r" % (ln, hint))
        e, side = m.groups()
        if e not in occ:
            raise PDError("line %d: unknown edge %r in hint" % (ln, e))
        d = occ[e][0] if side == "R" else occ[e][1]
        return ("F", skel.face_of[d])

    # outward ("up") faces first: they decide which hinted faces are regions
    up = {}
    host_hint = {}
    for ln, anchor, parent, own in hrecs + frecs:
        if anchor is not None and anchor not in occ:
            raise PDError("line %d: unknown edge %r" % (ln, anchor))
        tgt = hint_target(ln, own)
        if tgt[0] != "F":
            what = "F" if anchor is None else "up"
            raise PDError("line %d: %s hint must name a face by edge" % (ln, what))
        k = skel.island_of[tgt[1]]
        if anchor is not None and skel.island_of[occ[anchor][0]] != k:
            raise PDError("line %d: up face is not on the anchored piece" % ln)
        if k in up:
            raise PDError("line %d: piece already placed" % ln)
        up[k] = tgt[1]
        host_hint[k] = (ln, parent)
    for k in skel.islands:
        up.setdefault(k, skel.face_of[k])

    def resolve(ln, tgt, stack):
        if tgt == ("R",):
            return ROOT
        if tgt[0] == "L":
            return ("l", tgt[1])
        f = tgt[1]
        k = skel.island_of[f]
        if up[k] != f:
            return ("f", f)
        # the hinted face opens outward: the region is the piece's own host
        if k in stack:
            raise PDError("line %d: H records form a hosting cycle" % ln)
        if k in host_hint:
            hln, hint = host_hint[k]
            return resolve(hln, hint_target(hln, hint), stack | {k})
        return ROOT

    hosts = {}
    for k in skel.islands:
        if k in host_hint:
            ln, hint = host_hint[k]
            hosts[k] = (resolve(ln, hint_target(ln, hint), {k}), up[k])
        else:
            hosts[k] = (ROOT, up[k])
    loops = []
    for i, (ln, name, hint) in enumerate(orecs):
        lab = loop_names[i]
        if lab is not None and lab.startswith("~"):
            lab = None  # addressable in hints but carries no label
        loops.append((lab, resolve(ln, hint_target(ln, hint), set())))

    labels = [None] * len(skel.components)
    for ln, name, edges in crecs:
        if name.startswith("~") or name == "-":
            raise PDError("line %d: bad component label %r" % (ln, name))
        comp = None
        for e in edges:
            if e not in occ:
                raise PDError("line %d: unknown edge %r" % (ln, e))
            i = skel.comp_of[occ[e][0]]
            if comp is None:
                comp = i
            elif comp != i:
                raise PDError("line %d: edges on different components" % ln)
        if labels[comp] is not None:
            raise PDError("line %d: component labeled twice" % ln)
        labels[comp] = name

    diagram = Diagram(mode, skel, over, labels, loops, hosts)
    bad = diagram.validate()
    if bad:
        raise PDError("; ".join(bad))
    return diagram


def emit_pd(diagram) -> str:
    """Serialize a diagram; deterministic, and parse(emit(d)) == d dart for dart."""
    shifts = [0 if o else 1 for o in diagram.over]
    d = diagram.relabeled(None, shifts) if any(shifts) else diagram

    lab = {}
    nedges = 0
    for a in d.darts():
        b = d.theta[a]
        if a < b:
            nedges += 1
            lab[a] = lab[b] = "E%d" % nedges

    lname = []
    anon = 0
    for i, lp in enumerate(d.loops):
        if lp.label is not None:
            lname.append(lp.label)
        elif d.region_children.get(("l", i)):
            lname.append("~%d" % anon)
            anon += 1
        else:
            lname.append("-")

    def face_hint(f):
        return "%s:%s" % (lab[f], "R" if f < d.theta[f] else "L")

    def region_hint(rkey):
        if rkey == ROOT:
            return "outer"
        if rkey[0] == "f":
            return face_hint(rkey[1])
        return "in:%s" % lname[rkey[1]]

    out = []
    for c in range(d.ncross):
        out.append(
            "X c%d %s %s %s %s"
            % (c, lab[4 * c], lab[4 * c + 1], lab[4 * c + 2], lab[4 * c + 3])
        )
    for i, lp in enumerate(d.loops):
        out.append("O %s %s" % (lname[i], region_hint(lp.host)))
    for i, comp in enumerate(d.components):
        if d.labels[i] is not None:
            out.append("C %s %s" % (d.labels[i], " ".join(lab[x] for x in comp)))
    for k in d.islands:
        host, upf = d.hosts[k]
        if host != ROOT:
            out.append("H %s %s %s" % (lab[k], region_hint(host), face_hint(upf)))
    for k in d.islands:
        host, upf = d.hosts[k]
        if host == ROOT:
            out.append("F %s" % face_hint(upf))
    return "".join(line + "\n" for line in out)
