"""Stage bench: wall time, per-stage time and peak RSS of a fixed set of runs.

Usage (from any directory; it takes no options)::

    python3 tools/bench_stages.py

Each config is run ``RUNS`` times as a fresh ``python -m subforge run``
child, built from the ``src`` next to this script, without exports; the
rounds go over every config in turn, one child at a time, so a slow spell
of the machine is shared among the configs.  For each run it takes the
child's wall time, exit code and peak RSS (``ru_maxrss`` from
``os.wait4``, this child alone) and, from its ``report.json``, the
per-stage ``timings`` and, from ``checks``, whether each verdict passed
and the size of the domain it quantified over, so each config shows what
it checked next to what it cost.  Every time and the RSS are recorded as
the median and the min-max over the runs.  The ``startup`` entry times
``import subforge.cli`` alone, over ``STARTUP_RUNS`` children.

Every child gets the same environment: no ``PYTHON*`` or ``SUBFORGE_*``
variable from the caller, ``PYTHONHASHSEED=0`` and a private bytecode
cache (``PYTHONPYCACHEPREFIX``) filled by one untimed import, so no timed
child compiles the package.  Back-to-back runs of one config on a 2-vCPU
VM have differed by up to a third of their wall time: compare two files
by their ranges, not by single values.  The result goes to
``BENCH_stages.json`` at the repository root, with the machine it ran
on.  Stdlib only.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "BENCH_stages.json")
RUNS = 3
STARTUP_RUNS = 5

# presentation files the configs read, written into the run's directory
FILES = {"bbaab.txt": "gens: a A b B\nrelators: BBAABabAAbABA\n"}

# name -> arguments after "run"
CONFIGS = {
    "f2-r8": ["--preset", "f2", "--radius", "8"],
    "surface2-r6-delta1.0": ["--preset", "surface2", "--radius", "6", "--delta", "1.0"],
    "surface2-r6-delta0.5": ["--preset", "surface2", "--radius", "6", "--delta", "0.5"],
    "surface2-r7-delta0.5": ["--preset", "surface2", "--radius", "7", "--delta", "0.5"],
    "surface2-r7": ["--preset", "surface2", "--radius", "7"],
    "bbaab-r11": ["--file", "bbaab.txt", "--radius", "11"],
}


def child_env(pycache: str) -> dict[str, str]:
    """The caller's environment without its PYTHON* and SUBFORGE_*
    variables, with a fixed hash seed, this checkout's ``src`` as the only
    import path and ``pycache`` as the bytecode cache."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "SUBFORGE_"))}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONPYCACHEPREFIX"] = pycache
    return env


def spread(values: list[float], digits: int = 3) -> dict:
    return {
        "median": round(statistics.median(values), digits),
        "min": round(min(values), digits),
        "max": round(max(values), digits),
    }


def run_child(argv: list[str], env: dict, where: str):
    """Run ``python argv`` in ``where``; returns (exit code, wall s, peak RSS MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], cwd=where, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # already reaped by wait4
    return proc.returncode, wall, usage.ru_maxrss / 1024


def run_config(args: list[str], env: dict) -> dict:
    """One child run of ``subforge run`` in a fresh directory."""
    with tempfile.TemporaryDirectory() as where:
        for name, text in FILES.items():
            with open(os.path.join(where, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        code, wall, rss = run_child(["-m", "subforge", "run", *args, "--out", "out"], env, where)
        try:
            with open(os.path.join(where, "out", "report.json"), encoding="utf-8") as fh:
                report = json.load(fh)
        except FileNotFoundError:
            report = {}
    checks = report.get("checks", {})
    return {
        "exit_code": code,
        "wall_s": wall,
        "peak_rss_mb": rss,
        "timings_s": report.get("timings", {}),
        "checks": {name: v["passed"] for name, v in checks.items()},
        "domains": {name: v["domain"] for name, v in checks.items()},
    }


def summary(args: list[str], runs: list[dict]) -> dict:
    """The runs of one config: what every run agrees on, and the spread of
    each time and of the peak RSS."""
    first = runs[0]
    for key in ("exit_code", "checks", "domains"):
        if any(r[key] != first[key] for r in runs):
            raise RuntimeError(f"runs of {args} differ in {key}")
    return {
        "argv": ["run", *args],
        "exit_code": first["exit_code"],
        "runs": len(runs),
        "wall_s": spread([r["wall_s"] for r in runs]),
        "peak_rss_mb": spread([r["peak_rss_mb"] for r in runs], 1),
        "timings_s": {stage: spread([r["timings_s"][stage] for r in runs], 4) for stage in sorted(first["timings_s"])},
        "checks": first["checks"],
        "domains": first["domains"],
    }


def main() -> int:
    with tempfile.TemporaryDirectory() as pycache:
        env = child_env(pycache)
        subprocess.run([sys.executable, "-c", "import subforge.cli"], env=env, cwd=ROOT, check=True)
        startup = [run_child(["-c", "import subforge.cli"], env, ROOT)[1] for _ in range(STARTUP_RUNS)]
        print(f"startup: {statistics.median(startup):.3f} s", file=sys.stderr)
        runs: dict[str, list[dict]] = {name: [] for name in CONFIGS}
        for _ in range(RUNS):
            for name, args in CONFIGS.items():
                r = run_config(args, env)
                runs[name].append(r)
                print(f"{name}: exit {r['exit_code']}, {r['wall_s']:.3f} s, {r['peak_rss_mb']:.1f} MB", file=sys.stderr)
    bench = {
        "date": datetime.date.today().isoformat(),
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus_in_affinity_mask": len(os.sched_getaffinity(0)),
        },
        "startup": {"argv": ["-c", "import subforge.cli"], "runs": STARTUP_RUNS, "wall_s": spread(startup)},
        "configs": {name: summary(CONFIGS[name], rs) for name, rs in runs.items()},
    }
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=2)
        fh.write("\n")
    print(OUT)
    return 0


if __name__ == "__main__":
    sys.exit(main())
