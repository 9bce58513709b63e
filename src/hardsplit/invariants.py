"""Numeric invariants and goal predicates over diagrams.

`linking_number` and `tricolorable` never change under Reidemeister
moves, which makes them the workhorse oracles for the move engine.
Splitness is *not* move-invariant (a poke joins two pieces), so
`is_split_diagram` is a goal predicate rather than an oracle.

Crossing signs need component orientations; we orient every component
the way `Diagram.components` walks it, so signs (and with them linking
numbers) are deterministic but only pinned down up to one global flip
per component.
"""

from __future__ import annotations

from math import gcd

from .maps import DiagramError

__all__ = [
    "component_names",
    "crossing_sign",
    "is_split_diagram",
    "linking_number",
    "linking_table",
    "murasugi_bound",
    "partition_sides",
    "d_pq_crossing_floor",
    "splitting_peak_floor",
    "tricolorable",
]


def component_names(d):
    """Display names for strand components then loops, in storage order.

    Labeled components keep their labels; unlabeled ones get positional
    "#k" names so that every component stays addressable.
    """
    names = []
    for i, lab in enumerate(d.labels):
        names.append("#%d" % i if lab is None else lab)
    base = len(d.labels)
    for i, lp in enumerate(d.loops):
        names.append("#%d" % (base + i) if lp.label is None else lp.label)
    return tuple(names)


def _component_index(which, names):
    if isinstance(which, int):
        if not 0 <= which < len(names):
            raise DiagramError("no component %d" % which)
        return which
    hits = [i for i, n in enumerate(names) if n == which]
    if not hits:
        raise DiagramError("unknown component %r" % (which,))
    if len(hits) > 1:
        raise DiagramError("component name %r is ambiguous" % (which,))
    return hits[0]


def _forward_darts(d):
    fw = set()
    for orb in d.components:
        fw.update(orb)
    return fw


def _exits(d, c, fw):
    "The over and under exit darts of crossing c: its forward darts `fw`."
    base = 4 * c
    exits = [base + s for s in range(4) if base + s in fw]
    return exits if d.is_over_dart(exits[0]) else exits[::-1]


def crossing_sign(d, c, _fw=None):
    """+1 or -1 for crossing c under the derived component orientations."""
    o, u = _exits(d, c, _forward_darts(d) if _fw is None else _fw)
    return 1 if (u - o) % 4 == 1 else -1


def _pair_sums(d):
    """Signed crossing sum per pair (i, j), i < j, of strand components
    that cross; pairs that never cross are absent."""
    fw = _forward_darts(d)
    acc = {}
    for c in range(d.ncross):
        i, j = d.comp_of[4 * c], d.comp_of[4 * c + 1]
        if i != j:
            key = (i, j) if i < j else (j, i)
            acc[key] = acc.get(key, 0) + crossing_sign(d, c, fw)
    return acc


def linking_number(d, a, b) -> int:
    """Half the signed sum over the mixed crossings of components a and b."""
    names = component_names(d)
    ia = _component_index(a, names)
    ib = _component_index(b, names)
    if ia == ib:
        raise DiagramError("linking number needs two distinct components")
    return _pair_sums(d).get((min(ia, ib), max(ia, ib)), 0) // 2


def linking_table(d):
    """|linking number| for every unordered pair, keyed (name_a, name_b).

    Key pairs are sorted; pairs without mixed crossings (loops included)
    are present with value 0.  The table drops the sign on purpose: the
    derived orientations are a numbering artifact, so only the per-pair
    magnitude is stable across moves.  Use `linking_number` when the
    sign relative to the derived orientations matters.
    """
    names = component_names(d)
    sums = _pair_sums(d)
    return {
        tuple(sorted((names[i], names[j]))): abs(sums.get((i, j), 0)) // 2
        for i in range(len(names))
        for j in range(i + 1, len(names))
    }


def _shadow_pieces(d):
    # component-index sets, one per connected piece of the shadow
    pieces = []
    for ds in d.islands.values():
        pieces.append({d.comp_of[x] for x in ds})
    base = len(d.labels)
    for i in range(len(d.loops)):
        pieces.append({base + i})
    return pieces


def partition_sides(partition):
    """The sides a split partition names: (side_a, side_b) for a tuple or
    list of exactly two collections of component names, else (side,),
    one side whose complement is the other; a string is one component
    name, the one member of its side.  `is_split_diagram` and
    `search.Goal.describe` read a partition through this."""
    if isinstance(partition, str):
        return ((partition,),)
    if (
        isinstance(partition, (tuple, list))
        and len(partition) == 2
        and all(isinstance(s, (set, frozenset, tuple, list)) for s in partition)
    ):
        return tuple(partition)
    return (partition,)


def is_split_diagram(d, partition=None) -> bool:
    """Is the diagram split: do its shadow pieces separate the components?

    Without a partition, true when the shadow has at least two connected
    pieces (distinct plane pieces can always be separated by a circle,
    nested or not).  With one, true when no piece mixes the two sides.
    The partition is either one non-empty side (an iterable of component
    names, the rest forming the other side) or an explicit pair of sides
    (`partition_sides`).
    """
    if partition is None:
        return len(d.islands) + len(d.loops) >= 2
    names = component_names(d)
    pieces = _shadow_pieces(d)
    sides = [{_component_index(x, names) for x in s} for s in partition_sides(partition)]
    side_a = sides[0]
    if len(sides) == 2:
        side_b = sides[1]
        if side_a & side_b:
            raise DiagramError("partition sides overlap")
        if side_a | side_b != set(range(len(names))):
            raise DiagramError("partition misses some components")
    else:
        side_b = set(range(len(names))) - side_a
    if not side_a or not side_b:
        raise DiagramError("partition needs two non-empty sides")
    return all(piece <= side_a or piece <= side_b for piece in pieces)


def murasugi_bound(p, q) -> int:
    """Crossing number of the (p, q) torus knot: min(p(q-1), q(p-1)).

    By Murasugi's theorem this is a floor on the crossings of *any*
    diagram containing the knot, which makes it a live sanity check on
    search states.
    """
    if p < 2 or q < 2 or gcd(p, q) != 1:
        raise ValueError("need coprime p, q >= 2, got (%r, %r)" % (p, q))
    return min(p * (q - 1), q * (p - 1))


def d_pq_crossing_floor(n) -> int:
    """Least crossings of any diagram move-equivalent to d_pq(n, n+1).

    Each torus-knot component needs murasugi_bound(n, n+1) = n*n - 1
    crossings of its own, and the clasped pair always shares two more:
    2n^2 in total.  Search asserts this floor while exploring.
    """
    if n < 2:
        raise ValueError("floor defined for n >= 2, got %r" % (n,))
    return 2 * n * n


def splitting_peak_floor(n) -> int:
    """Crossings some intermediate diagram must hit when splitting
    d_pq(n, n+1): 2n^2 + ceil(2n/3)."""
    if n < 2:
        raise ValueError("floor defined for n >= 2, got %r" % (n,))
    return 2 * n * n + -(-2 * n // 3)


def tricolorable(d) -> bool:
    """Does some non-constant 3-coloring of the arcs respect every crossing?

    Arcs are the over-strand runs between consecutive under-passes; at
    each crossing the over arc and the two under ends must sum to zero
    mod 3.  Bare circles are unconstrained arcs.  We count solutions by
    rank over GF(3): tricolorable means the solution space holds more
    than the constant colorings.
    """
    # arc id per forward dart; an arc break happens where the strand
    # arrives under
    arc_of = {}
    narcs = 0
    for orb in d.components:
        breaks = [i for i, f in enumerate(orb) if not d.is_over_dart(d.theta[f])]
        if not breaks:
            for f in orb:
                arc_of[f] = narcs
            narcs += 1
            continue
        k = len(orb)
        for j, i in enumerate(breaks):
            next_break = breaks[(j + 1) % len(breaks)]
            span = (next_break - i) % k or k
            for t in range(1, span + 1):
                arc_of[orb[(i + t) % k]] = narcs
            narcs += 1
    nvars = narcs + len(d.loops)

    fw = _forward_darts(d)
    rows = []
    for c in range(d.ncross):
        oe, ue = _exits(d, c, fw)
        ua = ue ^ 2  # the under arrival dart at this crossing
        row = [0] * nvars
        for var in (arc_of[oe], arc_of[ue], arc_of[d.theta[ua]]):
            row[var] = (row[var] + 1) % 3
        rows.append(row)

    # rank over GF(3)
    rank = 0
    col = 0
    while rows and col < nvars:
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 if rows[rank][col] == 1 else 2
        rows[rank] = [(x * inv) % 3 for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(a - f * b) % 3 for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return nvars - rank >= 2
