"""The `hardsplit` command: certificate text and exit status."""

from importlib import resources

import pytest

from hardsplit.cli import main
from hardsplit.generators import torus_knot_diagram, unknot_diagram
from hardsplit.maps import SPHERE
from hardsplit.moves import apply_script
from hardsplit.pdio import emit_pd, parse_pd
from hardsplit.search import Goal, bfs_reachable
from test_search import GOERITZ_REPORT, ROOT_HOP_SCRIPT, circles, script_lines

GOERITZ_PD = str(resources.files("hardsplit").joinpath("data/goeritz.pd"))


def test_certify_prints_the_report_unchanged(capsys):
    argv = ["certify", GOERITZ_PD, "--goal", "unknot", "--kmax", "0", "--sphere"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out == GOERITZ_REPORT


def test_certify_exit_status_is_the_verdict(tmp_path, capsys):
    pd = tmp_path / "kink.pd"
    pd.write_text(emit_pd(unknot_diagram(1)))
    assert main(["certify", str(pd), "--goal", "unknot", "--kmax", "1"]) == 1
    assert capsys.readouterr().out.endswith("verdict: not-hard (added = 0)\n")
    assert main(["certify", GOERITZ_PD, "--goal", "split", "--kmax", "0"]) == 0


def test_certify_rejects_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.pd"
    bad.write_text("X c0 E1 E2 E3\n")
    for argv in (
        ["certify", str(bad), "--goal", "unknot", "--kmax", "0"],
        ["certify", str(tmp_path / "missing.pd"), "--goal", "unknot", "--kmax", "0"],
        ["certify", GOERITZ_PD, "--goal", "nowhere", "--kmax", "0"],
        ["certify", GOERITZ_PD, "--goal", "unknot", "--kmax", "-1"],
    ):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        assert capsys.readouterr().out == ""


def test_replay_reaches_the_witness_target(tmp_path, capsys):
    # the pinned sphere target witness, written out as a script and
    # replayed on the emitted start, lands on the target's sphere state
    d0 = torus_knot_diagram(2, 3).with_mode(SPHERE)
    target = apply_script(
        d0,
        "RI+ dart=0 side=R over=0\nRI+ dart=1 side=R over=0\nRIII face=2",
    )
    r = bfs_reachable(d0, Goal.target(target), 2)
    assert r.reached
    pd = tmp_path / "trefoil.pd"
    pd.write_text(emit_pd(d0))
    script = tmp_path / "witness.txt"
    script.write_text("".join(line + "\n" for line in script_lines(r.witness)))
    assert main(["replay", str(pd), str(script), "--sphere"]) == 0
    out = capsys.readouterr().out
    got = parse_pd(out, mode=SPHERE).check()
    assert Goal.target(target).met(got)
    assert out == emit_pd(apply_script(d0, script.read_text()))


def test_replay_rejects_bad_input(tmp_path, capsys):
    pd = tmp_path / "trefoil.pd"
    pd.write_text(emit_pd(torus_knot_diagram(2, 3)))
    bad_pd = tmp_path / "bad.pd"
    bad_pd.write_text("X c0 E1 E2 E3\n")
    good = tmp_path / "good.txt"
    good.write_text("RI+ dart=0 side=R over=0\n")
    bad = tmp_path / "bad.txt"
    bad.write_text("# a comment\nRI+ dart=0 side=R over=0\nRIII face=99\n")
    for argv, why in (
        (["replay", str(pd), str(bad)], "line 3: no face 99"),
        (["replay", str(bad_pd), str(good)], "bad.pd"),
        (["replay", str(pd), str(tmp_path / "missing.txt")], "missing.txt"),
    ):
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        cap = capsys.readouterr()
        assert cap.out == "" and why in cap.err


def test_replay_crosses_a_root_hop(tmp_path, capsys):
    # the pinned sphere witness whose script re-roots between moves
    d0 = circles(3).with_mode(SPHERE)
    target = apply_script(d0, "\n".join(ROOT_HOP_SCRIPT))
    pd = tmp_path / "circles.pd"
    pd.write_text(emit_pd(d0))
    script = tmp_path / "witness.txt"
    script.write_text("".join(line + "\n" for line in ROOT_HOP_SCRIPT))
    assert main(["replay", str(pd), str(script), "--sphere"]) == 0
    got = parse_pd(capsys.readouterr().out, mode=SPHERE).check()
    assert Goal.target(target).met(got)
