"""Print the size and a hash of the ordered `parent` table of 41 closures.

`search._run` with no goal walks each closure to the end and returns its
`parent` table: each state's digest, in discovery order, with how it was
first reached (parent digest, root region, site).  Two checkouts that
print the same lines build the same closures in the same order from the
same sites, so a refactor of the surgeries, the move enumeration or the
search can be checked against its parent commit with one `diff`.  The
expected output is committed as `scripts/closure_tables.txt`, and CI
fails when the output differs from it; the output does not depend on
`PYTHONHASHSEED`.

Closures, each in plane and sphere mode: the trefoil, the Hopf link,
`unknot_diagram(1)`, `unknot_diagram(2)`, T(2,5) and three bare circles
at budgets 0-2, `split_d_pq(2,3)` at budgets 0-1; and `d_pq(3,4)` in the
plane at budget 0.  The circles and `split_d_pq(2,3)` have several
pieces in one region tree, so they reach the multi-piece coder.  About
5 s on one core.

Usage: PYTHONPATH=src python scripts/closure_tables.py | diff scripts/closure_tables.txt -
"""

from hashlib import sha256

from hardsplit.generators import d_pq, split_d_pq, torus_knot_diagram, unknot_diagram
from hardsplit.maps import PLANE, ROOT, SPHERE, Diagram
from hardsplit.search import _run


def closures():
    "(name, start diagram, budget) for every closure, in print order."
    hopf = Diagram(PLANE, (5, 4, 7, 6, 1, 0, 3, 2), (1, 1))
    starts = [
        ("trefoil", torus_knot_diagram(2, 3), 2),
        ("hopf", hopf, 2),
        ("unknot1", unknot_diagram(1), 2),
        ("unknot2", unknot_diagram(2), 2),
        ("T(2,5)", torus_knot_diagram(2, 5), 2),
        ("split_d_pq(2,3)", split_d_pq(2, 3), 1),
        ("circles3", Diagram(PLANE, (), (), (), ((None, ROOT),) * 3, {}), 2),
    ]
    for name, d, top in starts:
        for mode in (PLANE, SPHERE):
            for budget in range(top + 1):
                yield "%s %s" % (name, mode), d.with_mode(mode), budget
    yield "d_pq(3,4) plane", d_pq(3, 4), 0


def main():
    for name, d, budget in closures():
        _res, parent = _run(d, None, budget, None, None)
        table = repr(list(parent.items())).encode()
        digest = sha256(table).hexdigest()[:16]
        print("%-24s b%d  states=%-6d %s" % (name, budget, len(parent), digest))


if __name__ == "__main__":
    main()
