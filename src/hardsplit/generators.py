"""Stock diagrams: torus-knot braid closures, the clasped pair with its
guard circle, the Goeritz culprit, and trivial unknots.

Everything here is built in plane mode; callers wanting sphere semantics
re-mode the result with `with_mode`.
"""

from __future__ import annotations

from importlib import resources
from math import gcd

from .maps import PLANE, ROOT, Diagram
from .pdio import parse_pd
from .surgery import ri_add

__all__ = [
    "torus_knot_diagram",
    "d_pq",
    "split_d_pq",
    "goeritz_diagram",
    "unknot_diagram",
]


def _family_params(p, q):
    if p < 2 or q < 2:
        raise ValueError("torus parameters need p, q >= 2, got (%r, %r)" % (p, q))
    if gcd(p, q) != 1:
        raise ValueError("torus parameters must be coprime, got (%d, %d)" % (p, q))


def _closed_braid(p, q, base):
    """Edges of the closed braid (s1 s2 ... s_{p-1})^q, darts offset by base.

    Crossing j realizes the letter s_{a+1}, a = j mod (p-1), acting on
    strand positions a and a+1.  Its darts 4j+s sit at slot s with
    0 = SE, 1 = NE, 2 = NW, 3 = SW, so the braid flows upward and slots
    run counterclockwise.  Returns (pairs, wrap) where wrap is position
    0's closure arc as (top NW dart, bottom SW dart); `_clasped_pair`
    cuts the diagram open along that arc.
    """
    n = q * (p - 1)
    pairs = []
    last = {}
    first = {}
    for j in range(n):
        a = j % (p - 1)
        for pos, din in ((a, 4 * j + 3), (a + 1, 4 * j)):
            if pos in last:
                pairs.append((last.pop(pos), din))
            else:
                first[pos] = din
        last[a] = 4 * j + 2
        last[a + 1] = 4 * j + 1
    wraps = {pos: (last[pos], first[pos]) for pos in range(p)}
    pairs.extend(wraps[pos] for pos in range(p))
    if base:
        pairs = [(x + base, y + base) for x, y in pairs]
        wraps = {pos: (x + base, y + base) for pos, (x, y) in wraps.items()}
    return pairs, wraps[0]


def _theta(pairs, ndart):
    theta = [-1] * ndart
    for x, y in pairs:
        theta[x], theta[y] = y, x
    return theta


def torus_knot_diagram(p, q):
    """The (p, q) torus knot as a closed braid, with q(p-1) crossings."""
    _family_params(p, q)
    n = q * (p - 1)
    pairs, (top, _bottom) = _closed_braid(p, q, 0)
    theta = _theta(pairs, 4 * n)
    return Diagram(PLANE, theta, (1,) * n, (None,), (), {0: (ROOT, top)})


# slots of the clasp and guard crossings, counterclockwise from east
_E, _N, _W, _S = 0, 1, 2, 3


def _clasped_pair(p, q):
    """The clasp shared by `d_pq` and `split_d_pq`: two (p, q) braid
    closures M1, M2 with their position-0 closure arcs cut open, M1's
    opened arc made a tongue that crosses M2's at K (crossing 2n) and
    back at L (2n + 1).

    Returns (pairs, over, out, back): the edges so far, the decorations
    of crossings 0..2n+1, and the two gaps of the tongue left for the
    caller's route, each (M1 dart, clasp dart): from M1 out to K, and
    from L back to M1.
    """
    _family_params(p, q)
    n = q * (p - 1)
    pairs1, (a1, b1) = _closed_braid(p, q, 0)
    pairs2, (a2, b2) = _closed_braid(p, q, 4 * n)
    ck, cl = 8 * n, 8 * n + 4
    drop = {(a1, b1), (a2, b2)}
    pairs = [e for e in pairs1 + pairs2 if e not in drop]
    pairs += [
        # the fingertip between K and L
        (ck + _E, cl + _E),
        # M2's opened arc is pierced twice by the tongue
        (a2, ck + _S), (ck + _N, cl + _S), (cl + _N, b2),
    ]
    # the tongue is over at K and under at L (equal crossing signs, so
    # the pair really links)
    over = (1,) * (2 * n) + (0, 1)
    return pairs, over, (a1, ck + _W), (cl + _W, b1)


def d_pq(p, q):
    """Two clasped (p, q) torus-knot copies M1, M2 and a guard circle U.

    M1 reaches over to M2 with a two-crossing clasp, and U rings M1's
    body so that the only strands leaving U's disk are the two running to
    the clasp; U passes over both.  Census: 2q(p-1) braid crossings plus
    2 clasp plus 2 guard.
    """
    pairs, over, (a1, kw), (lw, b1) = _clasped_pair(p, q)
    # the guard pair P, Q follows the clasp
    cp = 4 * len(over)
    cq = cp + 4
    pairs += [
        # the tongue goes out through the guard at P and comes home
        # through it at Q
        (a1, cp + _W), (cp + _E, kw), (lw, cq + _E), (cq + _W, b1),
        # The guard circle: one short arc between the tongue strands, one
        # long arc around the whole of M1's body.
        (cp + _N, cq + _S), (cp + _S, cq + _N),
    ]
    # U is over at both P and Q (opposite signs, so U links nothing)
    return Diagram(
        PLANE, _theta(pairs, cq + 4), over + (1, 1), ("M1", "M2", "U"), (),
        {0: (ROOT, cp + _E)},
    )


def split_d_pq(p, q):
    """The same clasped pair, with U parked as a bare circle beside it."""
    pairs, over, (a1, kw), (lw, b1) = _clasped_pair(p, q)
    # the tongue runs straight home
    pairs += [(a1, kw), (lw, b1)]
    return Diagram(
        PLANE, _theta(pairs, 4 * len(over)), over, ("M1", "M2"), (("U", ROOT),),
        {0: (ROOT, a1)},
    )


def goeritz_diagram():
    """The Goeritz culprit, read from its shipped transcription."""
    text = resources.files("hardsplit").joinpath("data/goeritz.pd").read_text()
    return parse_pd(text)


def unknot_diagram(kinks=0):
    """An unknot drawn with `kinks` removable curls."""
    if kinks < 0:
        raise ValueError("kinks must be >= 0")
    d = Diagram(PLANE, (), (), (), ((None, ROOT),), {})
    if kinks:
        d = ri_add(d, ("loop", 0, "out"), 1)
        for _ in range(kinks - 1):
            d = ri_add(d, ("d", 0), 1)
    return d
