"""Tests of the benchmark harness itself (not of subforge).

Run with ``python3 -m pytest -q perfbench``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import run
import tracer


def _child(tmp_path, code: str, **kwargs) -> run.RunResult:
    """Run ``python -c code`` as a benchmark child writing into ``out``."""
    out = tmp_path / "out"
    argv = [sys.executable, "-c", code, str(out)]
    return run.run_child(argv, run.child_env(str(tmp_path / "pycache")), str(out),
                         "0" * 64, str(tmp_path / "child.log"), **kwargs)


WRITE_EXPORT = (
    "import os, sys; os.makedirs(sys.argv[1]); "
    "open(os.path.join(sys.argv[1], 'xi.json'), 'w').write('{}')"
)


def test_digest_mismatch_is_a_failed_run(tmp_path):
    result = _child(tmp_path, WRITE_EXPORT)
    assert result.exit_code == 0
    assert result.digest is not None and result.digest != "0" * 64
    assert result.error.startswith("export digest")


def test_nonzero_exit_is_a_failed_run(tmp_path):
    result = _child(tmp_path, WRITE_EXPORT + "; sys.exit(3)")
    assert result.exit_code == 3
    assert result.error == "exit code 3"


def test_timeout_is_a_failed_run(tmp_path):
    result = _child(tmp_path, "import time; time.sleep(30)", timeout_s=0.5)
    assert result.timed_out
    assert result.wall_s < 10
    assert result.error.startswith("timed out")


def test_peak_rss_is_read_per_child(tmp_path):
    big = _child(tmp_path, "blob = b'x' * (200 << 20)")
    small = _child(tmp_path, "pass")
    assert big.peak_rss_mb > 200
    # RUSAGE_CHILDREN would still report the big child's peak here
    assert small.peak_rss_mb < 100


def test_trimmed_mean_drops_a_stray_run():
    assert run.trimmed_mean([3.0, 1.0, 2.0, 100.0]) == 2.5
    assert run.trimmed_mean([4.0, 6.0]) == 5.0


def test_export_digest_ignores_the_report(tmp_path):
    (tmp_path / "xi.json").write_text("{}")
    before = run.export_digest(str(tmp_path))
    (tmp_path / run.REPORT_FILE).write_text('{"timings": {}}')
    assert run.export_digest(str(tmp_path)) == before
    (tmp_path / "xi.json").write_text("{} ")
    assert run.export_digest(str(tmp_path)) != before


def _traced_counts(tmp_path, tag: str) -> dict:
    out = tmp_path / f"out-{tag}"
    spans = tmp_path / f"trace-{tag}.json"
    cache = tmp_path / f"cache-{tag}"
    argv = [sys.executable, tracer.__file__, "--spans", str(spans), "--",
            "run", "--preset", "surface2", "--radius", "4", "--out", str(out),
            "--export", "dot,json", "--cache-dir", str(cache), "--seed", tag]
    env = run.child_env(str(tmp_path / "pycache"))
    done = subprocess.run(argv, env=env, cwd=run.ROOT, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    trace = json.loads(spans.read_text())
    report = json.loads((out / run.REPORT_FILE).read_text())
    metrics = run.layer_metrics(trace, report, run.dir_bytes(str(out), run.REPORT_FILE),
                                run.dir_bytes(str(cache)))
    counts = {name: value for name, (value, unit) in metrics.items() if unit in ("count", "bytes")}
    counts["calls"] = {name: (f["calls"], f["truthy"]) for name, f in trace["functions"].items()}
    counts["spans"] = [s["name"] for s in trace["spans"]]
    return counts


def test_traced_counts_repeat_exactly(tmp_path):
    first = _traced_counts(tmp_path, "1")
    second = _traced_counts(tmp_path, "2")
    assert first == second
    assert first["presentation.oracle_calls"] > 0
    assert first["hyperbolicity.triangles"] > 0
    assert first["calls"]["CayleyBall.to_bytes"] == (1, 1)
    assert len(first["calls"]) == len(tracer.TARGETS)  # every target was installed
