"""The `hardsplit` command.

    hardsplit certify <pd-file> --goal unknot|split --kmax K [--sphere]

`certify` reads a diagram in the PD text format of `hardsplit.pdio`, runs
`search.verify_hard` with the default limits, and prints the certificate
report unchanged.  The exit status is the verdict: 0 for "hard", 1 for
"not-hard", 2 for "inconclusive".  Unreadable input is a usage error: a
message on stderr, nothing on stdout, status 2.
"""

from __future__ import annotations

import argparse
import sys

from .maps import PLANE, SPHERE, DiagramError
from .pdio import parse_pd
from .search import Goal, verify_hard

__all__ = ["main"]

_GOALS = {"unknot": Goal.zero_crossing, "split": Goal.split_any}
_STATUS = {"hard": 0, "not-hard": 1, "inconclusive": 2}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hardsplit", description="Certify hard link diagrams."
    )
    sub = parser.add_subparsers(dest="command", required=True)
    certify = sub.add_parser(
        "certify", help="prove a goal needs more than K added crossings"
    )
    certify.add_argument("pd_file", help="diagram in PD text format")
    certify.add_argument("--goal", choices=sorted(_GOALS), required=True)
    certify.add_argument("--kmax", type=int, required=True, help="largest budget tried")
    certify.add_argument(
        "--sphere", action="store_true", help="diagrams up to sphere isotopy"
    )
    args = parser.parse_args(argv)
    if args.kmax < 0:
        parser.error("--kmax must be >= 0")
    try:
        with open(args.pd_file, encoding="utf-8") as fh:
            text = fh.read()
        d = parse_pd(text, mode=SPHERE if args.sphere else PLANE).diagram.check()
    except (OSError, UnicodeDecodeError, DiagramError) as e:
        parser.error("%s: %s" % (args.pd_file, e))
    cert = verify_hard(d, _GOALS[args.goal](), args.kmax)
    sys.stdout.write(cert.report)
    return _STATUS[cert.verdict]


if __name__ == "__main__":
    sys.exit(main())
