"""Walk-code kernel: the one routine every canonical code is built on.

A walk code is a breadth-first certificate of one connected piece rooted
at a start dart: darts are numbered in discovery order (neighbors pushed
as rotation-successor first, then edge partner), and each dart in that
order contributes three bytes — the numbers of its two neighbors and its
decoration byte.  Equal codes mean isomorphic rooted decorated pieces.

`best_walk` does not root a walk at every dart.  Each dart gets an
isomorphism-invariant signature: the length of its face, the length of
the face across its edge (faces traced by phi = rot o theta), and its
decoration byte.  Walks start only from the darts whose signature is
smallest, as the canonical codes of plantri do (Brinkmann–McKay, "Fast
generation of planar graphs").  An isomorphism of decorated pieces keeps
faces and decorations, so it maps that start set onto the start set of
the image, and the two sets produce the same codes.  The minimum over
them is therefore still a complete invariant, and the achievers still
correspond under every isomorphism, which keeps the face markers built
from them canonical.
"""

from __future__ import annotations

__all__ = ["walk_label_order", "walk_code", "best_walk"]


def walk_label_order(theta, start):
    "Discovery order of the piece's darts; order[i] is the dart numbered i."
    lab = {start: 0}
    order = [start]
    i = 0
    while i < len(order):
        d = order[i]
        i += 1
        for nb in ((d & ~3) | ((d + 1) & 3), theta[d]):
            if nb not in lab:
                lab[nb] = len(order)
                order.append(nb)
    return order, lab


def walk_code(theta, deco, start):
    order, lab = walk_label_order(theta, start)
    out = bytearray()
    for d in order:
        out.append(lab[(d & ~3) | ((d + 1) & 3)])
        out.append(lab[theta[d]])
        out.append(deco[d])
    return bytes(out)


def _walk_code_wide(theta, deco, start):
    # same certificate with big-endian two-byte dart numbers, for pieces
    # whose numbering would not fit a byte; byte order keeps code
    # comparison equal to numeric comparison
    order, lab = walk_label_order(theta, start)
    out = bytearray()
    for d in order:
        a = lab[(d & ~3) | ((d + 1) & 3)]
        b = lab[theta[d]]
        out += bytes((a >> 8, a & 255, b >> 8, b & 255, deco[d]))
    return bytes(out)


def _start_darts(theta, deco, darts):
    "The darts of smallest signature (face length, face across, decoration)."
    flen = {}
    for d in darts:
        if d in flen:
            continue
        face = [d]
        t = theta[d]
        x = (t & ~3) | ((t + 1) & 3)
        while x != d:
            face.append(x)
            t = theta[x]
            x = (t & ~3) | ((t + 1) & 3)
        for x in face:
            flen[x] = len(face)
    if len(flen) != len(darts) or any(theta[d] not in flen for d in darts):
        # not closed under rotation and edge pairing
        raise ValueError("darts must be the dart set of one connected piece")
    sig = [(flen[d], flen[theta[d]], deco[d]) for d in darts]
    low = min(sig)
    return [d for d, s in zip(darts, sig) if s == low]


def best_walk(theta, deco, darts):
    """Smallest walk code over the piece's start darts, and all its achievers.

    `darts` must be exactly the dart set of one connected piece; walks
    start only from the darts of smallest invariant signature.  Pieces of
    more than 252 darts switch to a two-byte encoding; the two widths can
    never produce codes of equal length, so codes stay unambiguous.
    """
    if len(darts) <= 252:
        coder, stride = walk_code, 3
    else:
        coder, stride = _walk_code_wide, 5
    best = None
    argmin = []
    for s in _start_darts(theta, deco, darts):
        code = coder(theta, deco, s)
        if len(code) != stride * len(darts):
            raise ValueError("darts must be the dart set of one connected piece")
        if best is None or code < best:
            best, argmin = code, [s]
        elif code == best:
            argmin.append(s)
    return best, argmin
