"""Command-line front end: run the pipeline, export artifacts, list presets.

Exit codes: 0 every verification check passed, 2 some check failed,
1 usage, configuration or resource error.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import exports, log
from .pipeline import (
    EXIT_ERROR,
    ConfigError,
    RunConfig,
    run_pipeline,
)
from .presentation import PRESET_TEXTS, PresentationError


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
    defaults = RunConfig._field_defaults
    p.add_argument("--cap", type=int, default=defaults["element_cap"], help="element cap for enumeration")
    p.add_argument(
        "--seed", type=int, default=defaults["seed"], help="seed of the QI pair sample, the only sampled check"
    )
    p.add_argument("--cache-dir", default=None, help="binary ball cache directory")
    p.add_argument("-v", "--verbose", action="store_true", help="log each stage's time on stderr")


def _config_from(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        preset=args.preset,
        file=args.file,
        radius=args.radius,
        delta_override=args.delta,
        element_cap=args.cap,
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

    if formats:
        arts = result.artifacts
        kinds = [what for what in exports.EXPORT_KINDS if exports.missing(arts, what) is None]
        exports.export_graph(arts, out, kinds, formats)
    log.info("exports: %.3f s", time.perf_counter() - start)
    checks = result.report.get("checks", {})
    failed = sorted(name for name, v in checks.items() if not v["passed"])
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
    try:
        exports.export_graph(result.artifacts, args.out, [args.what], [args.format])
    except exports.MissingArtifact as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    print(os.path.join(args.out, f"{args.what}.{args.format}"))
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
    verbose = log.verbose
    log.verbose = getattr(args, "verbose", False)
    try:
        return args.func(args)
    except (ConfigError, PresentationError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    finally:
        log.verbose = verbose


def entry_point() -> None:
    """The process entry point (``python -m subforge``, ``python -m
    subforge.cli`` and the ``subforge`` console script): ``main()``, then
    flush stdout and stderr and end the process with ``os._exit``, with
    the status ``sys.exit`` gives the same value (None is 0).  It does not
    return.

    Skipping interpreter teardown (8-10 ms of a 0.11 s surface2 R=5 run
    on a 2-vCPU VM) loses nothing: every file a run writes is closed by
    its ``with`` block, ``fork_map`` reaps every child before ``main()``
    returns and no subforge code registers an ``atexit`` handler.  An
    exception out of ``main()`` or a failed flush takes the ``sys.exit``
    path, with teardown, as before."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (AttributeError, OSError, ValueError):  # a missing, closed or broken stream
        sys.exit(code)
    if code is None or isinstance(code, int):
        os._exit(code or 0)
    sys.exit(code)  # any other value is printed, with status 1


if __name__ == "__main__":
    entry_point()
