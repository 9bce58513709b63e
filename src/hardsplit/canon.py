"""Canonical codes for diagrams.

Two diagrams get equal codes exactly when one is the other with crossings
renumbered / slots rotated (and, in sphere mode, with a different choice of
outer region).  Reflections are *not* identified: the walk kernel follows
the counterclockwise rotation, so a mirror image codes differently.

Shape of a code::

    ("P", label_table, region)            plane mode
    ("S", label_table, region)            sphere mode (minimized over roots)

    region  = sorted tuple of ("I", island) and ("L", sym, region)
    island  = (walk_bytes, up_marker, parts)
    parts   = sorted tuple of (face_marker, region)   # non-empty faces only

`label_table` lists the component labels in use; decoration bytes refer to
them by index (0 = unlabeled), so label names take part in equality.  Face
markers are the smallest walk number on the face, taken over the walk
numberings that achieve the minimal walk bytes.

Every island is coded by one kernel, `_canon_py.best_walk`: the smallest
breadth-first walk code over the island's start darts.  Only the darts of
smallest isomorphism-invariant signature (face lengths on both sides and
decoration) are tried as starts; the kernel reads the lengths off the
island's face orbits in the diagram's record, so a code builds no
per-dart table but the decoration bytes.  Because the start set is
invariant, the minimum over it, and the set of starts achieving it, are
canonical (see `_canon_py`).

Each achiever comes from the kernel as a pair of lists: the numbering,
indexed by dart (-1 off the island), which face markers read, and the
discovery order, which lists the darts by number.

An island's content is read off the region tree: the faces of the island
that host something are exactly the keys ("f", face) of
`Diagram.region_children` that lie on it, so no other face is coded.
Each island is walked once per code, before any re-rooting: a re-rooting
keeps theta, so every rooting of a sphere diagram shares one dict of
island walks, and only the up markers and parts read from them differ.

A diagram with one island and no loops has no content, so its code is
the island's alone, read without the region recursion: the island's
faces are the diagram's faces.
`canonical_code` records on such a diagram (`Diagram.numberings`) the
discovery orders of the walk numberings that achieve the code: on the
sphere every achiever, in the plane every achiever that also gives the
smallest up-face marker, the first of them first.  Any two such
orders, of one diagram or of two with equal codes, compose to an
isomorphism that keeps theta, decorations, labels and, in the plane, the
up face: dart x goes to the dart the second order holds at x's number in
the first.
`search` composes them, and only for the states it uses them on: the
recorded first orders of two diagrams carry a move site from one to the
other, and the first order with each other order of one diagram gives
all its automorphisms that keep those things, the identity left out.

`state_digest` takes blake2b from the builtin `_blake2` module, which is
where `hashlib` gets it too: `import hashlib` would also load OpenSSL's
`_hashlib`, about 3.7 MB of resident memory that no search uses.
"""

from __future__ import annotations

from _blake2 import blake2b

from . import _canon_py
from .maps import ROOT, SPHERE, DiagramError

backend = "python"  # reported by bench/run.py
_kernel = _canon_py  # read by bench/tracer.py

__all__ = ["backend", "canonical_code", "state_digest"]

# the over bits of one crossing's four darts, by its `over` entry
_OVER = (b"\x10\x00\x10\x00", b"\x00\x10\x00\x10")


def _decorations(d):
    """(label table, label symbols, decoration bytes) of diagram `d`.

    Symbols number the table's labels from 1 (0 = unlabeled).  A dart's
    decoration byte is 16 if it is on its crossing's over strand (slots 0
    and 2 when over is 0), plus its label's symbol when any are in use.
    """
    labs = set(d.labels) | {lp.label for lp in d.loops}
    labs.discard(None)
    table = tuple(sorted(labs))
    if len(table) > 15:
        raise DiagramError("too many distinct component labels to code")
    sym = {None: 0}
    for i, lab in enumerate(table):
        sym[lab] = i + 1
    deco = b"".join([_OVER[o] for o in d.over])
    if table:
        lsym = [sym[lab] for lab in d.labels]
        deco = bytes([b | lsym[c] for b, c in zip(deco, d.comp_of)])
    return table, sym, deco


def _island_code(d, sym, walks, key):
    best, numberings = walks[key]
    # the island's faces that hold content are the region tree's keys on it
    content = [
        (d.face_darts(r[1]), _region_code(d, sym, walks, r))
        for r in d.region_children
        if r[0] == "f" and d.island_of[r[1]] == key
    ]
    up = d.face_darts(d.hosts[key][1])
    cands = []
    for lab, _order in numberings:
        marker = min(lab[x] for x in up)
        parts = tuple(sorted((min(lab[x] for x in f), code) for f, code in content))
        cands.append((marker, parts))
    marker, parts = min(cands)
    return (best, marker, parts)


def _region_code(d, sym, walks, rkey):
    kids = []
    for kind, ref in d.region_children.get(rkey, ()):
        if kind == "I":
            kids.append(("I", _island_code(d, sym, walks, ref)))
        else:
            lp = d.loops[ref]
            kids.append(("L", sym[lp.label], _region_code(d, sym, walks, ("l", ref))))
    return tuple(sorted(kids))


def canonical_code(d):
    if len(d.islands) == 1 and not d.loops:
        (key,) = d.islands
        # no content: the code is the island's, and the diagram records the
        # orders of the numberings that achieve it (`search` maps sites
        # between states and within one)
        table, _sym, deco = _decorations(d)
        best, numberings = _canon_py.best_walk(
            d.theta, deco, d.islands[key], d.faces, d.face_of
        )
        if d.mode == SPHERE:
            # any face can be made outer, so the up marker bottoms out at 0;
            # search._expand_one enumerates such a state in one rooting only
            marker, achievers = 0, numberings
        else:
            up = d.face_darts(d.hosts[key][1])
            marks = [min(map(lab.__getitem__, up)) for lab, _order in numberings]
            marker = min(marks)
            achievers = [w for w, m in zip(numberings, marks) if m == marker]
        # the one island holds every dart, so each order lists them all
        object.__setattr__(d, "numberings", tuple([tuple(o) for _lab, o in achievers]))
        tag = "S" if d.mode == SPHERE else "P"
        return (tag, table, (("I", (best, marker, ())),))
    table, sym, deco = _decorations(d)
    # re-rootings keep theta, so every rooting shares each island's walks
    walks = {
        key: _canon_py.best_walk(
            d.theta, deco, darts, [f for f in d.faces if d.island_of[f[0]] == key], d.face_of
        )
        for key, darts in d.islands.items()
    }
    if d.mode == SPHERE:
        body = min(_region_code(d.rerooted(r), sym, walks, ROOT) for r in d.region_keys)
        return ("S", table, body)
    return ("P", table, _region_code(d, sym, walks, ROOT))


def state_digest(code) -> bytes:
    "Short stable fingerprint of a canonical code (for search dedup tables)."
    return blake2b(repr(code).encode(), digest_size=16).digest()
