"""The pinned certificate workloads and the gate that checks their answers.

Each workload is a list of certificate calls (`verify_hard` with default
`Limits`).  Its start diagrams are made from the seed: crossings are
renumbered and slots rotated with `Diagram.relabeled`, and in sphere mode
the outer region is picked with `Diagram.rerooted`.  None of that changes
the diagram up to isotopy, so every seed must give the pinned verdict and
the pinned `states_explored` of every budget; the gate therefore also
checks that canonical codes do not change under relabeling.  Why each
workload exists is in README.md.
"""

from __future__ import annotations

import random
from typing import Callable, NamedTuple, Optional

from tracer import SURGERIES


class Cert(NamedTuple):
    """One pinned `verify_hard` call; its callables take the imported API."""

    name: str
    start: Callable
    goal: Callable
    kmax: int
    floor: Optional[Callable]
    verdict: str
    states: tuple  # pinned states_explored, one per budget 0..kmax


class Workload(NamedTuple):
    name: str
    sphere: bool
    certs: tuple
    spans: tuple  # spans that must have calls in the traced run


def _trefoil(api):
    return api.generators.torus_knot_diagram(2, 3)


def _hopf(api):
    return api.maps.Diagram(api.maps.PLANE, (5, 4, 7, 6, 1, 0, 3, 2), (1, 1))


def _unknot_goal(api):
    return api.search.Goal.zero_crossing()


def _split_goal(api):
    return api.search.Goal.split_any()


# spans every workload must show in the traced run
_CORE = (
    "search.verify_hard",
    "search.bfs_reachable",
    "canon.canonical_code",
    "canon.best_walk",
    "moves.enumerate_moves",
    "moves.apply_move",
    "maps.Diagram",
    "invariants.is_split_diagram",
)
_SURGERIES = tuple("surgery." + s for s in SURGERIES)


def _knots(trefoil_states, hopf_states):
    return (
        Cert("trefoil", _trefoil, _unknot_goal, 2, None, "hard", trefoil_states),
        Cert("hopf", _hopf, _split_goal, 2, None, "hard", hopf_states),
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "knots-plane-b2",
            False,
            _knots((1, 28, 609), (1, 22, 372)),
            _CORE + _SURGERIES,
        ),
        Workload(
            "knots-sphere-b2",
            True,
            _knots((1, 6, 95), (1, 5, 69)),
            _CORE + _SURGERIES + ("maps.rerooted",),
        ),
        Workload(
            "dpq34-split-b0",
            False,
            (
                Cert(
                    "dpq34",
                    lambda api: api.generators.d_pq(3, 4),
                    lambda api: api.search.Goal.split_partition(
                        (("U",), ("M1", "M2"))
                    ),
                    0,
                    lambda api: api.invariants.d_pq_crossing_floor(3),
                    "hard",
                    (729,),
                ),
            ),
            # zero headroom: only RIII is ever applied
            _CORE + ("surgery.riii",),
        ),
    )
}


class Start(NamedTuple):
    cert: Cert
    diagram: object
    goal: object
    floor: Optional[int]


def seeded_starts(api, workload, seed):
    "The workload's certificate inputs for this seed, in call order."
    rng = random.Random(seed)
    out = []
    for cert in workload.certs:
        d = cert.start(api)
        n = d.ncross
        d = d.relabeled(rng.sample(range(n), n), [rng.randrange(4) for _ in range(n)])
        if workload.sphere:
            d = d.with_mode(api.maps.SPHERE)
            d = d.rerooted(rng.choice(d.region_keys))
        floor = cert.floor(api) if cert.floor is not None else None
        out.append(Start(cert, d, cert.goal(api), floor))
    return out


def certify(api, start):
    "The certificate call every measurement times: default Limits."
    return api.search.verify_hard(
        start.diagram, start.goal, start.cert.kmax, None, start.floor
    )


def check(cert, result):
    """None when the certificate matches its pinned answer, else why not.

    A capped run is "inconclusive" and fails on its verdict, so a limit
    can never pass off a partial closure as a number.
    """
    states = tuple(r.states_explored for r in result.outcome.runs)
    if result.verdict != cert.verdict:
        return "%s: verdict %s, pinned %s" % (cert.name, result.verdict, cert.verdict)
    if states != cert.states:
        return "%s: states per budget %s, pinned %s" % (
            cert.name,
            list(states),
            list(cert.states),
        )
    return None
