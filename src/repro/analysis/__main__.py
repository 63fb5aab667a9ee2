"""CLI: static checks and schedule exploration.

::

    python -m repro.analysis lint [paths...]     # protocol lint (default: src)
    python -m repro.analysis docs FILE.md ...    # documented-CLI consistency
    python -m repro.analysis explore [...]       # exhaustive schedule explorer
"""

from __future__ import annotations

import argparse
import sys

from . import explore


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static checks and schedule exploration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    lint = sub.add_parser("lint", add_help=False, help="protocol lint")
    lint.add_argument("paths", nargs="*", default=["src"], help="default: src")
    docs = sub.add_parser("docs", help="documented-CLI consistency")
    docs.add_argument("files", nargs="+", metavar="FILE.md")
    sub.add_parser(
        "explore",
        parents=[explore.build_parser()],
        add_help=False,
        help="exhaustive schedule explorer",
    )
    return parser


def main(argv: list[str]) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        if exc.code:
            raise
        return 0  # --help
    if args.command == "docs":
        from .docs_cli import main as docs_main

        return docs_main(args.files)
    if args.command == "explore":
        return explore.run(args)
    from .lint import main as lint_main

    return lint_main(args.paths)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
