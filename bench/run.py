"""Certificate benchmark for hardsplit.

    python3 bench/run.py --workload knots-plane-b2 --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from `src/`.  One
process, no threads.  The workload's certificate calls are repeated, one
pass over all of them at a time, until `--seconds` have passed.  Each pass
follows its own few set-up rounds (each a fresh import of the package
plus building and relabeling the seeded starts) and a short warm-up, so
the set-up rounds are spread over the run like the passes; the median over
passes of each pass's fastest round is reported.  Every answer goes
through the pinned-answer gate in `workloads.py`.

With `--trace 0` the end-to-end metrics are measured with tracing off.
With `--trace 1` untraced and traced passes alternate: the untraced ones
give the tracing overhead and RSS per state, the traced ones (every layer
wrapped, see `tracer.py`) the per-state layer metrics.  The last stdout
line is one JSON object
{"correct", "attempted", "failed", "metrics"}; the full record, with run
metadata, every sample and the span table, goes to
bench/out/BENCH_<workload>_s<seed>_t<trace>.json.  The exit code is 1 when
any certificate misses its pinned answer or a predicted span has no calls,
and 2 when the package source is missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter
from types import SimpleNamespace

from tracer import SURGERIES, Tracer, instrument
from workloads import WORKLOADS, certify, check, seeded_starts

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PACKAGE = "hardsplit"

# set-up rounds before each pass; the fastest one is the pass's set-up
# sample, and the last one's objects are used
SETUP_ROUNDS = 4
# warm-up searches stop after this many states; they are not gated
WARMUP_STATES = 8

END_TO_END = {
    "setup_s": "s",
    "states_per_s": "1/s",
    "cert_s_p50": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "canon.best_walk.us_per_state": "us",
    "canon.best_walk.calls_per_state": "count",
    "canon.best_walk.darts_per_call": "count",
    "canon.best_walk.ties_per_call": "count",
    "canon.best_walk.share": "ratio",
    "canon.canonical_code.us_per_state": "us",
    "canon.canonical_code.calls_per_state": "count",
    "moves.enumerate_moves.us_per_state": "us",
    "moves.enumerate_moves.calls_per_state": "count",
    "moves.sites_per_state": "count",
    "moves.kept_ratio": "ratio",
    "moves.apply_move.us_per_state": "us",
    **{"surgery.%s.us_per_state" % s: "us" for s in SURGERIES},
    "maps.Diagram.us_per_state": "us",
    "maps.Diagram.per_child": "count",
    "maps.rerooted.calls_per_state": "count",
    "maps.rerooted.us_per_state": "us",
    "invariants.is_split_diagram.us_per_state": "us",
    "search.self_us_per_state": "us",
    "search.us_per_state": "us",
    "search.children_per_state": "count",
    "search.new_per_child": "ratio",
    "search.rss_kb_per_state": "kB",
    "trace.overhead_ratio": "ratio",
}

MODULES = (
    "maps",
    "generators",
    "search",
    "canon",
    "_canon_py",
    "moves",
    "surgery",
    "invariants",
)


def load_api():
    """A fresh import of the package from this checkout's `src/`."""
    for name in list(sys.modules):
        if name == PACKAGE or name.startswith(PACKAGE + "."):
            del sys.modules[name]
    mods = {m: importlib.import_module("%s.%s" % (PACKAGE, m)) for m in MODULES}
    return SimpleNamespace(canon_py=mods.pop("_canon_py"), **mods)


def setup(workload, seed):
    "(api, starts, seconds) of one set-up round."
    t0 = perf_counter()
    api = load_api()
    starts = seeded_starts(api, workload, seed)
    return api, starts, perf_counter() - t0


def warm_up(api, starts):
    lim = api.search.Limits(max_states=WARMUP_STATES)
    for st in starts:
        api.search.bfs_reachable(st.diagram, st.goal, st.cert.kmax, lim, st.floor)


class Samples:
    "Timings and answers of the certificate calls of one measured phase."

    def __init__(self):
        self.passes = []  # (seconds, states explored, calls) per pass
        self.calls = []  # (cert name, seconds, states per budget, failure or None)
        self.max_run_states = 0

    @property
    def seconds(self):
        return sum(p[0] for p in self.passes)

    @property
    def states(self):
        return sum(p[1] for p in self.passes)

    @property
    def failures(self):
        return [c[3] for c in self.calls if c[3] is not None]


def certify_pass(api, starts, out):
    "Certify every start once, recording into `out` (a Samples)."
    pass_s = 0.0
    pass_states = 0
    for st in starts:
        t0 = perf_counter()
        try:
            res = certify(api, st)
        except Exception as e:  # a crashing certificate is a failed operation
            dt = perf_counter() - t0
            traceback.print_exc()
            counts = []
            why = "%s: %s: %s" % (st.cert.name, type(e).__name__, e)
        else:
            dt = perf_counter() - t0
            counts = [r.states_explored for r in res.outcome.runs]
            why = check(st.cert, res)
        out.calls.append((st.cert.name, dt, counts, why))
        out.max_run_states = max([out.max_run_states, *counts])
        pass_s += dt
        pass_states += sum(counts)
    out.passes.append((pass_s, pass_states, len(starts)))


def maxrss_kb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def rss_kb():
    "Resident set size now, from /proc/self/statm."
    with open("/proc/self/statm") as f:
        pages = int(f.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") // 1024


def end_to_end_metrics(samples, setup_times):
    return {
        "setup_s": median(min(rounds) for rounds in setup_times),
        "states_per_s": samples.states / samples.seconds,
        "cert_s_p50": median(s / n for s, _states, n in samples.passes),
        "peak_rss_mb": maxrss_kb() / 1024.0,
    }


def _div(a, b):
    # a layer without calls fails the span check; its ratios read 0
    return a / b if b else 0.0


def layer_metrics(table, counts, untraced, rss_kb_per_state, traced_s):
    """Per-state layer metrics from the traced phase's span table.

    Times are self times, so the layers and `search.self_us_per_state`
    add up to `search.us_per_state` less the top-level certificate code.
    """
    states = counts["search.states"]

    def calls(name):
        return table[name]["calls"]

    def us(name):
        return _div(table[name]["self_s"] * 1e6, states)

    children = calls("moves.apply_move")
    sites = counts["moves.sites"]
    walks = calls("canon.best_walk")
    search_s = table["search.verify_hard"]["total_s"]
    out = {
        "canon.best_walk.darts_per_call": _div(counts["canon.best_walk.darts"], walks),
        "canon.best_walk.ties_per_call": _div(counts["canon.best_walk.ties"], walks),
        "canon.best_walk.share": _div(table["canon.best_walk"]["self_s"], search_s),
        "moves.sites_per_state": _div(sites, states),
        "moves.kept_ratio": _div(children, sites),
        "maps.Diagram.per_child": _div(calls("maps.Diagram"), children),
        "search.self_us_per_state": us("search.bfs_reachable"),
        "search.us_per_state": _div(search_s * 1e6, states),
        "search.children_per_state": _div(children, states),
        "search.new_per_child": _div(states - counts["search.bfs_runs"], children),
        "search.rss_kb_per_state": rss_kb_per_state,
        "trace.overhead_ratio": _div(
            _div(traced_s, states), untraced.seconds / untraced.states
        ),
    }
    for name in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if stat == "us_per_state" and name not in out:
            out[name] = us(layer)
        elif stat == "calls_per_state":
            out[name] = _div(calls(layer), states)
    return {name: out[name] for name in PER_LAYER}


def check_spans(workload, table):
    """A missed patch reads as a zero-cost layer: require calls where the
    workload is predicted to use a layer, and none where it cannot."""
    out = [
        "span %s has no calls on %s" % (name, workload.name)
        for name in workload.spans
        if table[name]["calls"] == 0
    ]
    if not workload.sphere and table["maps.rerooted"]["calls"]:
        out.append("span maps.rerooted has calls on plane workload %s" % workload.name)
    return out


def run(workload, seed, seconds, trace):
    """(api, metrics, phases, record): the measured phases by name, and
    the run's extra record (set-up times, span table, counts, failed span
    checks).

    Passes repeat until `seconds` have passed, at least one of each kind.
    Each untraced pass follows its own set-up rounds and warm-up and uses
    the last round's fresh import: a fresh import replaces the package in
    `sys.modules`, and `maps` imports `canon` lazily from there.  A traced
    run follows each untraced pass with a traced one on the same import,
    so the overhead ratio compares passes made at the same time.  RSS per
    state comes from the first untraced pass, before any span is recorded:
    its peak RSS less the RSS after set-up.
    """
    untraced = Samples()
    traced = Samples()
    tracer = Tracer()
    setup_times = []
    t_end = perf_counter() + seconds
    while not untraced.passes or perf_counter() < t_end:
        setup_times.append([])
        for _ in range(SETUP_ROUNDS):
            api = starts = None
            gc.collect()  # the last round's import, so RSS does not drift
            api, starts, setup_s = setup(workload, seed)
            setup_times[-1].append(setup_s)
        warm_up(api, starts)
        first = trace and not untraced.passes
        if first:
            gc.collect()
            rss0 = rss_kb()
        certify_pass(api, starts, untraced)
        if first:
            rss_kb_per_state = (maxrss_kb() - rss0) / untraced.max_run_states
        if trace:
            with instrument(tracer, api):
                certify_pass(api, starts, traced)
    record = {"setup_s": setup_times}
    if not trace:
        metrics = end_to_end_metrics(untraced, setup_times)
        return api, metrics, {"untraced": untraced}, record
    table = tracer.table()
    metrics = layer_metrics(
        table, tracer.counts, untraced, rss_kb_per_state, traced.seconds
    )
    record.update(
        span_failures=check_spans(workload, table),
        spans=table,
        counts=dict(tracer.counts),
    )
    return api, metrics, {"untraced": untraced, "traced": traced}, record


def meta(api, args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "canon.backend": api.canon.backend,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / PACKAGE / "__init__.py").is_file():
        print("no package source at %s" % (SRC / PACKAGE), file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    api, metrics, phases, record = run(
        workload, args.seed, args.seconds, bool(args.trace)
    )
    units = PER_LAYER if args.trace else END_TO_END
    info = meta(api, args)
    calls = [c for p in phases.values() for c in p.calls]
    failures = [why for p in phases.values() for why in p.failures]
    problems = failures + record.get("span_failures", [])
    print("# " + " ".join("%s=%s" % kv for kv in info.items()))
    for name, value in metrics.items():
        print("%-42s %.6g %s" % (name, value, units[name]))
    done = ", ".join("%d %s" % (len(p.passes), k) for k, p in phases.items())
    print("passes of %d certificate calls: %s" % (len(workload.certs), done))
    print("ops_failed: %d of %d certificate calls" % (len(failures), len(calls)))
    for why in problems:
        print("FAILED " + why)

    result = {
        "correct": not problems,
        "attempted": len(calls),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    full = {"meta": info, **result, **record}
    full["phases"] = {
        k: {"passes": p.passes, "calls": p.calls} for k, p in phases.items()
    }
    name = "BENCH_%s_s%d_t%d.json" % (args.workload, args.seed, args.trace)
    out = BENCH / "out" / name
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(full, indent=1) + "\n")
    print("results: %s" % out.relative_to(ROOT))
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
