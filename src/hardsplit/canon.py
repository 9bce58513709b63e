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
decoration) are tried as starts; because the start set is invariant, the
minimum over it, and the set of starts achieving it, are canonical (see
`_canon_py`).
"""

from __future__ import annotations

from hashlib import blake2b

from . import _canon_py
from .maps import ROOT, SPHERE, DiagramError

backend = "python"  # reported by bench/run.py
_kernel = _canon_py  # read by bench/tracer.py

__all__ = ["backend", "canonical_code", "state_digest"]


class _Ctx:
    """Per-theta scratch shared across re-rootings of the same diagram."""

    def __init__(self, d):
        labs = {lab for lab in d.labels} | {lp.label for lp in d.loops}
        labs.discard(None)
        self.table = tuple(sorted(labs))
        if len(self.table) > 15:
            raise DiagramError("too many distinct component labels to code")
        sym = {None: 0}
        for i, lab in enumerate(self.table):
            sym[lab] = i + 1
        self.sym = sym
        theta = list(d.theta)
        self.theta = theta
        deco = bytearray(len(theta))
        for dart in d.darts():
            deco[dart] = (int(d.is_over_dart(dart)) << 4) | sym[d.label_of_dart(dart)]
        self.deco = bytes(deco)
        self._best = {}
        self._labmaps = {}

    def island_best(self, d, key):
        if key not in self._best:
            self._best[key] = _canon_py.best_walk(self.theta, self.deco, d.islands[key])
        return self._best[key]

    def labmap(self, start):
        if start not in self._labmaps:
            self._labmaps[start] = _canon_py.walk_label_order(self.theta, start)[1]
        return self._labmaps[start]


def _island_code(ctx, d, key):
    best, starts = ctx.island_best(d, key)
    _host, up = d.hosts[key]
    content = []
    for f in d.island_faces(key):
        if f == up:
            continue
        code = _region_code(ctx, d, ("f", f))
        if code:
            content.append((f, code))
    cands = []
    for s in starts:
        lab = ctx.labmap(s)
        marker = min(lab[x] for x in d.face_darts(up))
        parts = tuple(
            sorted((min(lab[x] for x in d.face_darts(f)), code) for f, code in content)
        )
        cands.append((marker, parts))
    marker, parts = min(cands)
    return (best, marker, parts)


def _region_code(ctx, d, rkey):
    kids = []
    for kind, ref in d.region_children.get(rkey, ()):
        if kind == "I":
            kids.append(("I", _island_code(ctx, d, ref)))
        else:
            lp = d.loops[ref]
            kids.append(("L", ctx.sym[lp.label], _region_code(ctx, d, ("l", ref))))
    return tuple(sorted(kids))


def canonical_code(d):
    ctx = _Ctx(d)
    if d.mode == SPHERE:
        keys = d.islands_keys
        if len(keys) == 1 and not d.loops:
            # any face can be made outer, so the up marker bottoms out at 0
            best, _ = ctx.island_best(d, keys[0])
            return ("S", ctx.table, (("I", (best, 0, ())),))
        body = min(
            (_region_code(ctx, d.rerooted(r), ROOT)) for r in d.region_keys
        )
        return ("S", ctx.table, body)
    return ("P", ctx.table, _region_code(ctx, d, ROOT))


def state_digest(code) -> bytes:
    "Short stable fingerprint of a canonical code (for search dedup tables)."
    return blake2b(repr(code).encode(), digest_size=16).digest()
