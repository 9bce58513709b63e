"""Walk-code kernel: the one routine every canonical code is built on.

A walk code is a breadth-first certificate of one connected piece rooted
at a start dart.  `walk` numbers the darts in discovery order (neighbors
pushed as rotation-successor first, then edge partner) and, in the same
loop, writes for each dart the numbers of its two neighbors and its
decoration byte.  The numbering is a list indexed by dart, as theta is,
holding -1 at the darts of other pieces; the walk returns it with the
discovery order, the darts listed by number.  Equal codes mean
isomorphic rooted decorated pieces, and that isomorphism carries one
walk's numbering onto the other's, so callers read face markers off the
numbering without walking again.

`best_walk` does not root a walk at every dart.  Each dart gets an
isomorphism-invariant signature: the length of its face, the length of
the face across its edge (faces traced by phi = rot o theta), and its
decoration byte.  The kernel reads both lengths off the piece's face
orbits, which the caller passes sorted by key as `maps.structure` leaves
them: the smallest face length picks the candidate darts, and the face
across each candidate takes one bisect.  Walks start only from the darts
whose signature is smallest, as the canonical codes of plantri do
(Brinkmann–McKay, "Fast generation of planar graphs").  An isomorphism
of decorated pieces keeps faces and decorations, so it maps that start
set onto the start set of the image, and the two sets produce the same
codes.  The minimum over them is therefore still a complete invariant,
and the achievers' numberings still correspond under every isomorphism,
which keeps the face markers built from them canonical.
"""

from __future__ import annotations

from .maps import _face_index

__all__ = ["walk", "best_walk"]


def walk(theta, deco, start, wide):
    """(code, lab, order) of the piece rooted at `start`: `lab[x]` is dart
    x's discovery number, -1 for a dart the walk does not reach, and
    `order` lists the darts reached in discovery order.

    With `wide` each number takes two big-endian bytes, for pieces whose
    numbering would not fit a byte; byte order keeps code comparison equal
    to numeric comparison.
    """
    lab = [-1] * len(theta)
    lab[start] = 0
    order = [start]
    out = bytearray()
    put = out.append
    for d in order:  # grows while it is read
        r = (d & ~3) | ((d + 1) & 3)
        a = lab[r]
        if a < 0:
            a = lab[r] = len(order)
            order.append(r)
        t = theta[d]
        b = lab[t]
        if b < 0:
            b = lab[t] = len(order)
            order.append(t)
        if wide:
            out += bytes((a >> 8, a & 255, b >> 8, b & 255))
        else:
            put(a)
            put(b)
        put(deco[d])
    return bytes(out), lab, order


def _start_darts(theta, deco, faces, face_of):
    """The darts of smallest signature (face length, face across,
    decoration), in ascending order."""
    # the face length alone leaves few darts; only those compare the rest
    m = min(map(len, faces))
    cand = sorted([x for orb in faces if len(orb) == m for x in orb])
    sig = [(len(faces[_face_index(faces, face_of[theta[x]])]), deco[x]) for x in cand]
    low = min(sig)
    return [x for x, s in zip(cand, sig) if s == low]


def best_walk(theta, deco, darts, faces, face_of):
    """Smallest walk code over the piece's start darts, and the numberings
    of all the starts that achieve it, each a (lab, order) pair of `walk`.

    `darts` must be exactly the dart set of one connected piece, `faces`
    the piece's face orbits sorted by key (each orbit starts at its key,
    its smallest dart) and `face_of[x]` the key of dart x's face; walks
    start only from the darts of smallest invariant signature.  Pieces of
    more than 252 darts switch to a two-byte encoding; the two widths can
    never produce codes of equal length, so codes stay unambiguous.
    """
    wide = len(darts) > 252
    starts = _start_darts(theta, deco, faces, face_of)
    best, lab, order = walk(theta, deco, starts[0], wide)
    # the first walk reaches the whole piece of its start, each dart once;
    # as many darts as it holds, each of its darts among them, are exactly
    # its darts, and every other start lies in it, so one check covers all
    if len(order) != len(darts) or not set(darts).issuperset(order):
        raise ValueError("darts must be the dart set of one connected piece")
    argmin = [(lab, order)]
    for s in starts[1:]:
        code, lab, order = walk(theta, deco, s, wide)
        if code < best:
            best, argmin = code, [(lab, order)]
        elif code == best:
            argmin.append((lab, order))
    return best, argmin
