"""Self-tests of the certificate benchmark.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
from tracer import Tracer, instrument  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Cert,
    Workload,
    certify,
    check,
    seeded_starts,
)


def test_self_time_excludes_child_spans():
    ticks = iter([0.0, 1.0, 4.0, 10.0])
    tr = Tracer(clock=lambda: next(ticks))
    inner = tr.wrap("inner", lambda: None)
    outer = tr.wrap("outer", lambda: inner())
    outer()
    t = tr.table()
    assert t["outer"]["calls"] == 1 and t["inner"]["calls"] == 1
    assert t["outer"]["total_s"] == 10.0 and t["outer"]["self_s"] == 7.0
    assert t["inner"]["total_s"] == 3.0 and t["inner"]["self_s"] == 3.0
    assert t["inner"]["parents"] == {"outer": 1}
    assert t["outer"]["parents"] == {"-": 1}


def test_instrument_patches_every_binding_and_restores():
    api = run.load_api()
    bound = (
        (api.search, "canonical_code"),
        (api.search, "enumerate_moves"),
        (api.search, "apply_move"),
        (api.search, "is_split_diagram"),
        (api.canon, "canonical_code"),
        (api.canon_py, "best_walk"),
        (api.maps.Diagram, "__init__"),
        (api.maps.Diagram, "rerooted"),
    )
    before = [vars(o)[k] for o, k in bound]
    with instrument(Tracer(), api):
        assert all(vars(o)[k] is not f for (o, k), f in zip(bound, before))
    assert all(vars(o)[k] is f for (o, k), f in zip(bound, before))


def test_wrong_pinned_count_fails_gate():
    api = run.load_api()
    (start,) = seeded_starts(
        api, Workload("w", False, WORKLOADS["knots-plane-b2"].certs[1:], ()), 1
    )
    res = certify(api, start)
    assert check(start.cert, res) is None
    assert "states per budget" in check(start.cert._replace(states=(1, 22, 373)), res)
    assert "verdict" in check(start.cert._replace(verdict="not-hard"), res)


def test_wrong_pin_makes_command_fail(monkeypatch, capsys):
    hopf = WORKLOADS["knots-plane-b2"].certs[1]
    wrong = Cert("hopf", hopf.start, hopf.goal, 1, None, "hard", (1, 23))
    bad = Workload("bad-pin", False, (wrong,), ())
    monkeypatch.setitem(run.WORKLOADS, "bad-pin", bad)
    assert run.main(["--workload", "bad-pin", "--seconds", "0"]) == 1
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] == last["attempted"] == 1


def test_seeds_give_identical_answers_on_knots_plane():
    api = run.load_api()
    w = WORKLOADS["knots-plane-b2"]
    answers = []
    for seed in (1, 2):
        starts = seeded_starts(api, w, seed)
        results = [certify(api, st) for st in starts]
        assert [check(st.cert, r) for st, r in zip(starts, results)] == [None, None]
        answers.append([r.report for r in results])
    assert answers[0] == answers[1]
    a, b = (seeded_starts(api, w, s)[0].diagram for s in (1, 2))
    assert a.theta != b.theta


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_of_smallest_workload(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = spec["per_layer" if trace == "1" else "end_to_end"]
    args = ["--workload", "knots-plane-b2", "--seed", "3", "--seconds", "0"]
    out = _bench(*args, "--trace", trace)
    assert out.returncode == 0, out.stdout + out.stderr
    last = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in want
    }
    for line in (m["name"] for m in want):
        assert line in out.stdout


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_exits_nonzero_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    skip = shutil.ignore_patterns("out", "__pycache__")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=skip)
    out = _bench("--workload", "knots-plane-b2", "--seconds", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
