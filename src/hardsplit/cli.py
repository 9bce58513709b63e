"""The `hardsplit` command.

    hardsplit certify <pd-file> --goal unknot|split --kmax K [--sphere]
    hardsplit replay <pd-file> <script-file> [--sphere]

`certify` reads a diagram in the PD text format of `hardsplit.pdio`, runs
`search.verify_hard` with the default limits, and prints the certificate
report unchanged.  The exit status is the verdict: 0 for "hard", 1 for
"not-hard", 2 for "inconclusive".

`replay` runs a move script (the one-move-per-line format of
`moves.apply_script`, as witnesses are written by `moves.format_move`)
on the diagram and prints the result in PD text; the status is 0.

Unreadable input - a PD file or a script line that does not apply - is a
usage error: a message on stderr (for a script, naming its line),
nothing on stdout, status 2.
"""

from __future__ import annotations

import argparse
import sys

from .maps import PLANE, SPHERE, DiagramError
from .moves import apply_script
from .pdio import emit_pd, parse_pd
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
    replay = sub.add_parser("replay", help="apply a move script, print the result")
    replay.add_argument("pd_file", help="diagram in PD text format")
    replay.add_argument("script_file", help="one move per line")
    for cmd in (certify, replay):
        cmd.add_argument(
            "--sphere", action="store_true", help="diagrams up to sphere isotopy"
        )
    args = parser.parse_args(argv)
    if args.command == "certify" and args.kmax < 0:
        parser.error("--kmax must be >= 0")

    def read(path, use):
        try:
            with open(path, encoding="utf-8") as fh:
                return use(fh.read())
        except (OSError, UnicodeDecodeError, DiagramError) as e:
            parser.error("%s: %s" % (path, e))

    mode = SPHERE if args.sphere else PLANE
    d = read(args.pd_file, lambda text: parse_pd(text, mode=mode))
    if args.command == "replay":
        d = read(args.script_file, lambda text: apply_script(d, text))
        sys.stdout.write(emit_pd(d))
        return 0
    cert = verify_hard(d, _GOALS[args.goal](), args.kmax)
    sys.stdout.write(cert.report)
    return _STATUS[cert.verdict]


if __name__ == "__main__":
    sys.exit(main())
