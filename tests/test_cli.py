"""The `hardsplit` command: certificate text and exit status."""

from importlib import resources

import pytest

from hardsplit.cli import main
from hardsplit.generators import unknot_diagram
from hardsplit.pdio import emit_pd
from test_search import GOERITZ_REPORT

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
