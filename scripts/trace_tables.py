"""Print the counts and a hash of everything `resolution` derives from 200
seeded traces.

Trace `seed` is `random_trace` of `tests/test_resolution.py`, imported
from there: from the Hopf overlay, or from the bare-loop overlay when
seed % 4 == 0, a walk of 1 to 8 sites of `moves.enumerate_moves` under a
cap of four added crossings, each written as `moves.format_move` prints
it.  Each line gives the seed, the numbers of events, layers and graph
edges, and a sha256 prefix over the event tags, the replayed states
(theta, over, labels, loops, hosts), `Trace.names`, the resolution
layers, the edges, the path `find_isotopy_path` finds and the
`verify_isotopy` report.  Two checkouts that print the same lines parse,
replay, tag and certify these traces alike, so a refactor of
`resolution` can be checked against its parent commit with one `diff`.
The expected output is committed as `scripts/trace_tables.txt`, and CI
fails when the output differs from it; the output does not depend on
`PYTHONHASHSEED`.  Under a second on one core; needs pytest, which the
test module imports.

Usage: PYTHONPATH=src python scripts/trace_tables.py | diff scripts/trace_tables.txt -
"""

import sys
from hashlib import sha256
from pathlib import Path

from hardsplit.resolution import build_resolution_graph, find_isotopy_path, verify_isotopy

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from test_resolution import random_trace


def main():
    for seed in range(200):
        trace = random_trace(seed)
        graph = build_resolution_graph(trace)
        path = find_isotopy_path(graph)
        states = [
            (d.theta, d.over, d.labels, d.loops, d.hosts)
            for d in (st.diagram for st in trace.states)
        ]
        facts = (
            [ev.tag for ev in trace.events],
            states,
            trace.names,
            graph.layers,
            graph.edges,
            path,
            verify_isotopy(trace, path).report,
        )
        digest = sha256(repr(facts).encode()).hexdigest()[:16]
        print(
            "seed %-3d events=%d layers=%d edges=%-3d %s"
            % (seed, len(trace.events), trace.nlayers, len(graph.edges), digest)
        )


if __name__ == "__main__":
    main()
