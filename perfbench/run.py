"""subforge benchmark: time to a verified run of the CLI.

Each timed run is one fresh ``subforge run ... --export dot,json`` process.
The loop is closed with one client: the next run starts only after the
previous one has exited, one process at a time, no threads.  Every run is
checked (exit code 0, no timeout, sha256 over its export files equal to the
workload's reference digest in ``reference.json``); a failed run counts in
``failed`` and is never dropped or retried.

Usage::

    python3 perfbench/run.py --workload surface2-r5-cold --seed 1 --seconds 50 --trace 0

Each run passes the CLI its own ``--seed``, drawn from a generator seeded
with the benchmark's ``--seed``; on these workloads the CLI seed moves only
the QI pair sample, so one invocation's result covers many samples.

``--trace 0`` prints the end-to-end metrics: the trimmed mean over runs of
the run's wall time at the reference speed (``wall_ref_s``, see
``calibrate`` and ``trimmed_mean``), the median peak RSS per run (read per
child with ``os.wait4``) and the median set-up time over several set-ups.
``--trace 1`` alternates untraced runs with runs under ``tracer.py`` and
prints the per-layer metrics, among them the raw wall time.  The last line of
standard output is the JSON result; the line before it records the
environment and sample counts.  Run it from the repository root or any
copy holding ``src/subforge``; it writes only under ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
REFERENCE = os.path.join(HERE, "reference.json")
TRACER = os.path.join(HERE, "tracer.py")

RUN_TIMEOUT_S = 30.0  # about 6x the slowest workload's run at the seed commit
SETUP_REPS = 5
REPORT_FILE = "report.json"  # holds timings and the seed echo, so it is not digested
CAL_LOOPS = 3_000_000
CAL_REF_S = 0.25  # calibration time at the reference speed (see reference.json)


@dataclass(frozen=True)
class Workload:
    cli_args: tuple[str, ...]
    # None: no cache; "fresh": an empty cache directory for every run;
    # "filled": a cache filled once during set-up and only read afterwards.
    cache: str | None


# Why each workload was chosen is recorded in BENCHMARK.json.  The warm
# workload is not listed there: its set-ups (a cold run each) do not fit the
# benchmark's time budget next to the other two; run it by hand.
WORKLOADS = {
    "surface2-r5-cold": Workload(("--preset", "surface2", "--radius", "5"), "fresh"),
    "surface2-r5-warm": Workload(("--preset", "surface2", "--radius", "5"), "filled"),
    "f2-r8": Workload(("--preset", "f2", "--radius", "8"), None),
}


@dataclass
class RunResult:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int  # negative: killed by that signal
    timed_out: bool
    digest: str | None
    error: str | None  # why the run failed; None when it passed


def child_env(pycache: str) -> dict[str, str]:
    """The ambient environment minus every PYTHON* and SUBFORGE_* variable
    (so an ambient SUBFORGE_THREADS cannot switch on the thread pool), with
    a fixed hash seed and this checkout's ``src`` as the only import path."""
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith("PYTHON") and not k.startswith("SUBFORGE_")
    }
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC
    env["PYTHONPYCACHEPREFIX"] = pycache
    return env


def calibrate() -> float:
    """Seconds this process needs for a fixed pure-Python loop.

    A shared host runs the same child up to 1.6x slower for stretches of
    tens of seconds to minutes, often longer than one invocation, and the
    child's CPU time slows with it.  Timed next to each run, this loop measures the
    host's speed at that moment; ``wall_ref_s`` scales each run's wall time
    by ``CAL_REF_S`` over the mean of the two calibrations around it."""
    t0 = time.perf_counter()
    x = 0
    for i in range(CAL_LOOPS):
        x += i * i
    return time.perf_counter() - t0


def trimmed_mean(values: list[float]) -> float:
    """Mean without the lowest and highest tenth of the values, at least one
    each from three values on.  Over the ten-odd runs of one invocation it
    varies less between invocations than the median, and no single stray
    run can move it far."""
    ordered = sorted(values)
    k = max(1, round(len(ordered) / 10)) if len(ordered) >= 3 else 0
    return statistics.fmean(ordered[k:len(ordered) - k])


def export_digest(out_dir: str) -> str | None:
    """sha256 over the export files (name, length, bytes) in name order;
    None when the run left no output directory."""
    if not os.path.isdir(out_dir):
        return None
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        if name == REPORT_FILE:
            continue
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        h.update(name.encode() + b"\0" + len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()


def dir_bytes(path: str, skip: str | None = None) -> int:
    if not os.path.isdir(path):
        return 0
    return sum(
        os.path.getsize(os.path.join(path, n)) for n in os.listdir(path) if n != skip
    )


def run_child(
    argv: list[str],
    env: dict[str, str],
    out_dir: str,
    expected_digest: str,
    log_path: str,
    timeout_s: float = RUN_TIMEOUT_S,
) -> RunResult:
    """Run one child to completion and check it.  Wall time spans process
    start to exit; CPU time and peak RSS come from this child's own
    ``wait4`` usage, not the cumulative RUSAGE_CHILDREN."""
    shutil.rmtree(out_dir, ignore_errors=True)
    timed_out = False
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=log)

        def on_alarm(signum, frame):
            nonlocal timed_out
            timed_out = True
            proc.kill()

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - t0
    exit_code = os.waitstatus_to_exitcode(status)
    proc.returncode = exit_code  # already reaped by wait4
    digest = export_digest(out_dir)
    if timed_out:
        error = f"timed out after {timeout_s:g} s"
    elif exit_code != 0:
        error = f"exit code {exit_code}"
    elif digest != expected_digest:
        error = f"export digest {digest} != reference {expected_digest}"
    else:
        error = None
    if error is not None:
        with open(log_path, "rb") as fh:
            tail = fh.read()[-2000:].decode(errors="replace")
        print(f"run failed: {error}\n{tail}", file=sys.stderr)
    return RunResult(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        exit_code=exit_code,
        timed_out=timed_out,
        digest=digest,
        error=error,
    )


def layer_metrics(trace: dict, report: dict, export_bytes: int, cache_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run.  Every ``*_s`` value is the
    summed inclusive duration of the named entry points."""
    fns = trace["functions"]
    oracle = trace["layers"]["presentation"]

    def calls(name):
        return fns[name]["calls"]

    def seconds(*names):
        return sum(fns[n]["total_s"] for n in names)

    elements = report["ball"]["size"]
    hits = fns["WordOracle.is_identity"]["truthy"]
    triangles = calls("hyperbolicity.triangle_thinness")
    delta_s = seconds("hyperbolicity.compute_delta")
    return {
        "presentation.oracle_calls": (oracle["entries"], "count"),
        "presentation.oracle_s": (oracle["total_s"], "s"),
        "presentation.oracle_identity_hits": (hits, "count"),
        "presentation.oracle_hit_ratio": (hits / oracle["entries"] if oracle["entries"] else 0.0, "ratio"),
        "ball.enumerate_s": (seconds("ball.enumerate_ball"), "s"),
        "ball.elements": (elements, "count"),
        "ball.oracle_calls_per_element": (oracle["entries"] / elements, "ratio"),
        "ball.cache_write_s": (seconds("CayleyBall.to_bytes"), "s"),
        "ball.cache_load_s": (seconds("CayleyBall.from_bytes"), "s"),
        "ball.cache_bytes": (cache_bytes, "bytes"),
        "hyperbolicity.s": (delta_s, "s"),
        "hyperbolicity.triangles": (triangles, "count"),
        "hyperbolicity.pair_geodesic_calls": (calls("hyperbolicity.enumerate_pair_geodesics"), "count"),
        "hyperbolicity.s_per_triangle": (delta_s / triangles if triangles else 0.0, "s"),
        "qi.s": (seconds("qi.verify_qi_bounds", "qi.estimate_qi_constants"), "s"),
        "qi.pairs": (report["qi"]["pairs_sampled"] or 0, "count"),
        "qi.cayley_distance_calls": (calls("CayleyBall.distance_between"), "count"),
        "qi.cayley_distance_s": (seconds("CayleyBall.distance_between"), "s"),
        "exports.s": (seconds("exports.export_graph"), "s"),
        "exports.bytes": (export_bytes, "bytes"),
        "language.s": (seconds(
            "language.check_prefix_closure", "language.build_gamma", "language.cone_type_classes",
            "language.build_acceptor", "language.verify_cone_lemma"), "s"),
        "language.k_attempts": (len(report["cone_types"]["adaptation"]), "count"),
        "subdivision.build_s": (seconds("subdivision.build_subdivision_graph", "subdivision.assign_labels"), "s"),
        "subdivision.close_tests": (calls("subdivision.geodesically_close"), "count"),
        "subdivision.horizontal_edges": (report["xi"]["total_horizontal"], "count"),
        "subdivision.axioms_s": (seconds("subdivision.verify_axioms"), "s"),
        "labeled_graph.iso_calls": (calls("subdivision.find_isomorphism"), "count"),
        "labeled_graph.iso_s": (seconds("subdivision.find_isomorphism"), "s"),
    }


class Bench:
    """One benchmark invocation: a work directory, the pinned child
    environment and the tally of every child run.

    Every path a child sees has the same length in every invocation: the
    peak RSS of a run moves by several MB with the lengths of its path
    arguments (allocation sizes shift when the collector runs)."""

    def __init__(self, name: str, seed: int, digest: str):
        self.name = name
        self.workload = WORKLOADS[name]
        self.cli_seeds = random.Random(seed)
        self.digest = digest
        os.makedirs(WORK_ROOT, exist_ok=True)
        self.work = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT)
        self.env: dict[str, str] = {}  # set by setup()
        self.out_dir = os.path.join(self.work, "out")
        self.cache_dir = os.path.join(self.work, "cache")
        self.runs: list[RunResult] = []
        self._setups = 0

    def run(self, traced: bool = False, fill: bool = False) -> tuple[RunResult, dict | None]:
        """One checked child run; with ``traced`` also its per-layer metrics.
        ``fill`` empties the cache of a filled-cache workload first."""
        argv = [sys.executable]
        spans = os.path.join(self.work, "trace.json")
        argv += [TRACER, "--spans", spans, "--"] if traced else ["-m", "subforge"]
        # zero-padded, so that the seed's digit count does not move peak RSS
        cli_seed = self.cli_seeds.randrange(10**10)
        argv += ["run", *self.workload.cli_args, "--seed", f"{cli_seed:010d}",
                 "--out", self.out_dir, "--export", "dot,json"]
        if self.workload.cache is not None:
            if self.workload.cache == "fresh" or fill:
                shutil.rmtree(self.cache_dir, ignore_errors=True)
                os.makedirs(self.cache_dir)
            argv += ["--cache-dir", self.cache_dir]
        result = run_child(argv, self.env, self.out_dir, self.digest,
                           os.path.join(self.work, "child.log"))
        self.runs.append(result)
        if not traced or result.error is not None:
            return result, None
        with open(spans, encoding="utf-8") as fh:
            trace = json.load(fh)
        with open(os.path.join(self.out_dir, REPORT_FILE), encoding="utf-8") as fh:
            report = json.load(fh)
        return result, layer_metrics(trace, report, dir_bytes(self.out_dir, REPORT_FILE),
                                     dir_bytes(self.cache_dir))

    def setup(self) -> float:
        """Prepare the workload from a fresh bytecode cache and return how
        long it took: compile and import the package, and for a
        filled-cache workload also enumerate the ball and write its cache
        (one checked run).  Later runs use what the last set-up left."""
        self._setups += 1
        self.env = child_env(os.path.join(self.work, f"pycache-{self._setups}"))
        t0 = time.perf_counter()
        if self.workload.cache == "filled":
            self.run(fill=True)
        else:
            subprocess.run([sys.executable, "-c", "import subforge.cli"], env=self.env,
                           cwd=ROOT, stdin=subprocess.DEVNULL, check=True)
        return time.perf_counter() - t0

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)  # only when no other invocation is using it


def measure_end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    # Each set-up is followed by an equal share of the timed runs, so the
    # runs spread over the whole invocation.
    setups: list[float] = []
    timed: list[tuple[RunResult, float]] = []  # run, mean calibration around it
    measured = 0.0  # seconds spent in timed runs and their calibrations so far
    for k in range(1, SETUP_REPS + 1):
        setups.append(bench.setup())
        t0 = time.perf_counter()
        first = len(timed)
        before = calibrate()
        while len(timed) == first or measured + time.perf_counter() - t0 < seconds * k / SETUP_REPS:
            result = bench.run()[0]
            after = calibrate()
            timed.append((result, (before + after) / 2))
            before = after
        measured += time.perf_counter() - t0
    ok = [(r, c) for r, c in timed if r.error is None] or timed
    metrics = {
        "wall_ref_s": (trimmed_mean([r.wall_s * CAL_REF_S / c for r, c in ok]), "s"),
        "peak_rss_mb": (statistics.median([r.peak_rss_mb for r, _ in ok]), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    samples = {
        "wall_ref_s": len(ok), "peak_rss_mb": len(ok), "setup_s": len(setups),
        "wall_s_runs": [round(r.wall_s, 4) for r, _ in timed],
        "calibration_s_runs": [round(c, 4) for _, c in timed],
        "setup_s_runs": [round(s, 4) for s in setups],
    }
    return metrics, samples


def measure_per_layer(bench: Bench, seconds: float) -> tuple[dict, dict]:
    bench.setup()
    plain: list[RunResult] = []
    traced: list[RunResult] = []
    layers: list[dict] = []
    t0 = time.perf_counter()
    calibrations: list[float] = []
    while not traced or time.perf_counter() - t0 < seconds:
        calibrations.append(calibrate())
        plain.append(bench.run()[0])
        result, metrics = bench.run(traced=True)
        traced.append(result)
        if metrics is not None:
            layers.append(metrics)
    metrics: dict[str, tuple[float, str]] = {}
    for name, (_, unit) in (layers[0] if layers else {}).items():
        # median_low: a value some traced run measured, so counts stay whole
        metrics[name] = (statistics.median_low([m[name][0] for m in layers]), unit)
    plain_ok = [r for r in plain if r.error is None] or plain
    traced_ok = [r for r in traced if r.error is None] or traced
    plain_wall = statistics.median([r.wall_s for r in plain_ok])
    metrics["proc.wall_s"] = (plain_wall, "s")
    metrics["proc.calibration_s"] = (statistics.median(calibrations), "s")
    metrics["proc.cpu_s"] = (statistics.median([r.cpu_s for r in plain_ok]), "s")
    metrics["trace.overhead_pct"] = (100.0 * (statistics.median([r.wall_s for r in traced_ok]) / plain_wall - 1.0), "%")
    samples = {"traced_runs": len(layers), "untraced_runs": len(plain_ok)}
    spans = os.path.join(bench.work, "trace.json")
    if os.path.exists(spans):  # keep the last traced run's spans for inspection
        kept = os.path.join(WORK_ROOT, f"{bench.name}-trace.json")
        os.replace(spans, kept)
        samples["spans_file"] = os.path.relpath(kept, ROOT)
    return metrics, samples


def load_reference(name: str) -> str:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)["digests"][name]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="subforge time-to-verified-run benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="seeds the CLI --seed of every run")
    parser.add_argument("--seconds", type=float, required=True, help="length of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "subforge", "cli.py")):
        print(f"error: no subforge sources under {SRC}", file=sys.stderr)
        return 2
    digest = load_reference(args.workload)
    # on SIGTERM, unwind: the running child is killed and the work directory removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    load_before = os.getloadavg()
    bench = Bench(args.workload, args.seed, digest)
    try:
        if args.trace:
            metrics, samples = measure_per_layer(bench, args.seconds)
        else:
            metrics, samples = measure_end_to_end(bench, args.seconds)
    finally:
        bench.close()
    failed = sum(r.error is not None for r in bench.runs)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "samples": samples,
    }
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(bench.runs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
