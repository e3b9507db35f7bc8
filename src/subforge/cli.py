"""Command-line front end: run the pipeline, export artifacts, list presets.

Exit codes: 0 every verification check passed, 2 some check failed,
1 usage, configuration or resource error.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time

from . import exports
from .parallel import fork_map, split
from .pipeline import (
    EXIT_ERROR,
    ConfigError,
    RunConfig,
    run_pipeline,
)
from .presentation import PRESET_TEXTS, PresentationError

log = logging.getLogger("subforge.cli")

# the export kinds in groups written in parallel: gamma's files take about
# as long to write as xi's, and the acceptor and subdivision tables are small
EXPORT_GROUPS = (("gamma",), ("xi", "acceptor", "subdivisions"))


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors exit 1, the code of a configuration
    error, rather than argparse's 2, which here means a failed check.
    Subparsers are made with the parser's own class, so they inherit it."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _add_config_args(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=sorted(PRESET_TEXTS), help="built-in presentation")
    src.add_argument("--file", help="presentation file path")
    p.add_argument("--radius", type=int, required=True, help="ball radius R")
    p.add_argument("--delta", type=float, default=None, help="override the thinness constant")
    p.add_argument("--delta-radius", type=int, default=None, help="triangle search radius (default R//2)")
    p.add_argument("--cap", type=int, default=RunConfig.element_cap, help="element cap for enumeration")
    p.add_argument("--probe", type=int, default=RunConfig.probe, help="cone-lemma probe depth")
    p.add_argument("--qi-samples", type=int, default=RunConfig.qi_samples)
    p.add_argument("--seed", type=int, default=RunConfig.seed)
    p.add_argument("--cache-dir", default=None, help="binary ball cache directory")
    p.add_argument("-v", "--verbose", action="store_true", help="log each stage's time on stderr")


def _config_from(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        preset=args.preset,
        file=args.file,
        radius=args.radius,
        delta_override=args.delta,
        delta_radius=args.delta_radius,
        element_cap=args.cap,
        probe=args.probe,
        qi_samples=args.qi_samples,
        seed=args.seed,
        cache_dir=args.cache_dir,
    )


def _write(path: str, content: str) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(content)


def cmd_run(args: argparse.Namespace) -> int:
    formats = [f for f in (args.export or "").split(",") if f]
    for f in formats:
        if f not in exports.EXPORT_FORMATS:
            print(f"error: unknown export format {f!r}", file=sys.stderr)
            return EXIT_ERROR
    result = run_pipeline(_config_from(args))
    out = args.out
    start = time.perf_counter()
    _write(os.path.join(out, "report.json"), exports.export_report(result.report))

    def write(groups):
        for group in groups:
            for what in group:
                for fmt in formats:
                    try:
                        exports.export_graph(result.artifacts, what, fmt, os.path.join(out, f"{what}.{fmt}"))
                    except exports.MissingArtifact:
                        continue

    if formats:
        fork_map(write, split(EXPORT_GROUPS))
    log.info("exports: %.3f s", time.perf_counter() - start)
    checks = result.report.get("checks", {})
    failed = sorted(name for name, ok in checks.items() if not ok)
    status = result.report.get("status", "completed")
    if status != "completed":
        print(f"status: {status} ({result.report.get('error', '')})")
    elif failed:
        print("FAILED checks: " + ", ".join(failed))
    else:
        print(f"all {len(checks)} checks passed")
    print(f"report: {os.path.join(out, 'report.json')}")
    return result.exit_code


def cmd_export(args: argparse.Namespace) -> int:
    result = run_pipeline(_config_from(args))
    if result.report["status"] != "completed":
        print(f"error: {result.report['error']}", file=sys.stderr)
        return EXIT_ERROR
    path = os.path.join(args.out, f"{args.what}.{args.format}")
    try:
        exports.export_graph(result.artifacts, args.what, args.format, path)
    except exports.MissingArtifact as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(path)
    return result.exit_code


def cmd_presets(_: argparse.Namespace) -> int:
    for name in sorted(PRESET_TEXTS):
        text = PRESET_TEXTS[name].strip().replace("\n", "; ")
        print(f"{name}: {text}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="subforge")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the full pipeline and write the report")
    _add_config_args(run_p)
    run_p.add_argument("--out", default="subforge-out", help="output directory")
    run_p.add_argument("--export", default="", help="comma-separated formats: dot,json")
    run_p.set_defaults(func=cmd_run, subparser=run_p)

    exp_p = sub.add_parser("export", help="run the pipeline and write one artifact")
    _add_config_args(exp_p)
    exp_p.add_argument("--out", default="subforge-out")
    exp_p.add_argument("--what", choices=exports.EXPORT_KINDS, required=True)
    exp_p.add_argument("--format", choices=exports.EXPORT_FORMATS, required=True)
    exp_p.set_defaults(func=cmd_export, subparser=exp_p)

    pre_p = sub.add_parser("presets", help="list built-in presentations")
    pre_p.set_defaults(func=cmd_presets, subparser=pre_p)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:
            # leftovers belong to the subcommand, so its usage is shown
            args.subparser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:  # --help (0) or a usage error (1)
        return exc.code
    # progress lines go to stderr only, so stdout and every file written
    # are the same with and without -v
    logger = logging.getLogger("subforge")
    level = logger.level
    handler = None
    if getattr(args, "verbose", False):
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(logging.Formatter("subforge: %(message)s"))
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
    try:
        return args.func(args)
    except (ConfigError, PresentationError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        if handler is not None:
            logger.removeHandler(handler)
            logger.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
