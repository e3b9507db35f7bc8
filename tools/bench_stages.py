"""Stage bench: wall time, per-stage time and peak RSS of a fixed set of runs.

Usage (from any directory; it takes no options)::

    python3 tools/bench_stages.py

Each config is one fresh ``python -m subforge run`` child, built from the
``src`` next to this script and run one at a time, without exports.  For
each config it records the child's wall time, exit code and peak RSS
(``ru_maxrss`` from ``os.wait4``, this child alone) and, from its
``report.json``, the per-stage ``timings`` and, from ``checks``, whether
each verdict passed and the size of the domain it quantified over, so
each run shows what it checked next to what it cost.  The result goes to
``BENCH_stages.json`` at the repository root, with the machine it ran on.
One run per config: compare two files only when the gap is well above the
few percent a run varies by.  Stdlib only.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "BENCH_stages.json")

# presentation files the configs read, written into the run's directory
FILES = {"bbaab.txt": "gens: a A b B\nrelators: BBAABabAAbABA\n"}

# name -> arguments after "run"
CONFIGS = {
    "f2-r8": ["--preset", "f2", "--radius", "8"],
    "surface2-r6-delta1.0": ["--preset", "surface2", "--radius", "6", "--delta", "1.0"],
    "surface2-r6-delta0.5": ["--preset", "surface2", "--radius", "6", "--delta", "0.5"],
    "surface2-r7-delta0.5": ["--preset", "surface2", "--radius", "7", "--delta", "0.5"],
    "bbaab-r11": ["--file", "bbaab.txt", "--radius", "11"],
}


def run_config(args: list[str]) -> dict:
    """One child run of ``subforge run`` in a fresh directory."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    with tempfile.TemporaryDirectory() as where:
        for name, text in FILES.items():
            with open(os.path.join(where, name), "w", encoding="utf-8") as fh:
                fh.write(text)
        argv = [sys.executable, "-m", "subforge", "run", *args, "--out", "out"]
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=where, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # already reaped by wait4
        try:
            with open(os.path.join(where, "out", "report.json"), encoding="utf-8") as fh:
                report = json.load(fh)
        except FileNotFoundError:
            report = {}
    checks = report.get("checks", {})
    return {
        "argv": ["run", *args],
        "exit_code": proc.returncode,
        "wall_s": round(wall, 3),
        "peak_rss_mb": round(usage.ru_maxrss / 1024, 1),
        "timings_s": report.get("timings", {}),
        "checks": {name: v["passed"] for name, v in checks.items()},
        "domains": {name: v["domain"] for name, v in checks.items()},
    }


def main() -> int:
    results = {}
    for name, args in CONFIGS.items():
        results[name] = run_config(args)
        r = results[name]
        print(f"{name}: exit {r['exit_code']}, {r['wall_s']} s, {r['peak_rss_mb']} MB", file=sys.stderr)
    bench = {
        "date": datetime.date.today().isoformat(),
        "machine": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpus_in_affinity_mask": len(os.sched_getaffinity(0)),
        },
        "configs": results,
    }
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=2)
        fh.write("\n")
    print(OUT)
    return 0


if __name__ == "__main__":
    sys.exit(main())
