"""Command-line front end.

Subcommands: build, score, analyze, distances, report. Every config field
can come from a JSON config file (--config) and from a flag; flags win.
lambda2 is no field to set: it follows lambda1.
Exit codes: 0 success, 1 usage or configuration error, 2 input error; any
other error is a fault: exit 3, with its traceback on stderr.
score and analyze run numpy's OpenBLAS on one thread; OPENBLAS_NUM_THREADS overrides that.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import fields
from typing import Optional, Sequence

from .errors import ParseError
from .ingest import PROVIDERS
from .pipeline import (
    RunConfig,
    cmd_analyze,
    cmd_build,
    cmd_distances,
    cmd_report,
    cmd_score,
)

log = logging.getLogger(__name__)

# OSError covers a missing, unreadable or unwritable path of any kind
_INPUT_ERRORS = (ParseError, OSError, UnicodeDecodeError)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON config file; flags override its fields")
    parser.add_argument("--seed", type=int, help="master random seed")
    parser.add_argument(
        "--provider",
        choices=PROVIDERS,
        dest="annotation_provider",
        help="annotation source for corpus ingestion",
    )
    parser.add_argument("--rbo-p", type=float, dest="rbo_p", help="RBO persistence parameter")
    parser.add_argument(
        "--lambda1",
        type=float,
        help="appearance weight in newness, in [0, 1] (lambda2 becomes 1 - lambda1)",
    )
    parser.add_argument("--window", type=int, dest="pmi_window", help="PMI sliding window size")
    parser.add_argument(
        "--holdout",
        type=float,
        dest="holdout_fraction",
        help="same-country hold-out fraction",
    )
    parser.add_argument("--n-boot", type=int, dest="n_boot", help="bootstrap replicates")
    parser.add_argument("--corpus", dest="corpus_path", help="recipe corpus JSONL")
    parser.add_argument("--dishes", dest="dish_specs_path", help="dish-spec JSON file")
    parser.add_argument("--registry", dest="registry_path", help="country registry JSON")
    parser.add_argument("--linguistic", dest="linguistic_path", help="linguistic distance CSV")
    parser.add_argument("--religious", dest="religious_path", help="religious distance CSV")
    parser.add_argument("--output-dir", dest="output_dir", help="directory for all outputs")


def build_parser() -> _Parser:
    parser = _Parser(prog="cultnovelty", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("build", "construct split manifests and the eligibility report"),
        ("score", "score variations from split manifests into scores.csv"),
        ("analyze", "correlation/regression/mediation tables from scores"),
        ("distances", "write the registry's IW and GEO matrices that analyze uses"),
        ("report", "bundle the analyze tables with digests"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        _add_common_flags(cmd)
        if name == "score":
            cmd.add_argument("--manifests", nargs="*", help="manifest files (default: <out>/manifests/*.json)")
        if name == "analyze":
            cmd.add_argument("--scores", help="scores CSV (default: <out>/scores.csv)")
        if name == "report":
            cmd.add_argument("--analyze-dir", help="directory holding the analyze tables")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    overrides = {f.name: getattr(args, f.name, None) for f in fields(RunConfig) if f.init}
    return RunConfig.load(args.config, overrides)


def main(argv: Optional[Sequence[str]] = None) -> int:
    # OpenBLAS reads this once, when numpy is first imported, and score and analyze
    # are the first to import it; a caller's own value is kept
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    logging.basicConfig(
        level=logging.INFO, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        config = _config_from_args(args)
    except _INPUT_ERRORS as exc:  # before ValueError: UnicodeDecodeError is one
        print(f"cultnovelty: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"cultnovelty: bad configuration: {exc}", file=sys.stderr)
        return 1

    try:
        if args.command == "build":
            result = cmd_build(config)
            print(f"wrote {len(result['manifests'])} manifest(s) and {result['eligibility_report']}")
        elif args.command == "score":
            manifests = args.manifests if args.manifests else None
            path = cmd_score(config, manifests)
            print(f"wrote {path}")
        elif args.command == "analyze":
            result = cmd_analyze(config, args.scores)
            print(f"wrote {len(result['outputs'])} table(s) from {result['rows']} row(s)")
        elif args.command == "distances":
            for path in cmd_distances(config):
                print(f"wrote {path}")
        elif args.command == "report":
            print(f"wrote {cmd_report(config, args.analyze_dir)}")
        else:  # pragma: no cover - argparse enforces the choices
            return 1
    except _INPUT_ERRORS as exc:
        print(f"cultnovelty: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary: every other error is a fault
        log.exception("unhandled failure")
        print(f"cultnovelty: internal error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
