import argparse
import hashlib
import json
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import subforge
from subforge import pipeline
from subforge.ball import CACHE_HEADER_LEN, CACHE_MAGIC, CayleyBall, cache_key, enumerate_ball
from subforge.cli import _config_from, build_parser, main
from subforge.exports import EXPORT_FORMATS, EXPORT_KINDS
from subforge.pipeline import RunConfig
from subforge.presentation import preset


def _report(out_dir):
    with open(out_dir / "report.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_run_f2(tmp_path):
    out = tmp_path / "f2"
    code = main(["run", "--preset", "f2", "--radius", "6", "--out", str(out)])
    assert code == 0
    report = _report(out)
    assert report["cone_types"]["count"] == 5
    assert report["xi"]["total_horizontal"] == 0
    assert all(v["passed"] for v in report["checks"].values())


def test_run_writes_exports(tmp_path):
    out = tmp_path / "z"
    code = main(
        ["run", "--preset", "z", "--radius", "4", "--out", str(out), "--export", "dot,json"]
    )
    assert code == 0
    for name in (
        "report.json",
        "gamma.dot",
        "gamma.json",
        "xi.dot",
        "xi.json",
        "acceptor.dot",
        "acceptor.json",
        "subdivisions.dot",
        "subdivisions.json",
    ):
        assert (out / name).exists(), name
    xi = json.loads((out / "xi.json").read_text())
    assert len(xi["vertices"]) == 9
    assert len(xi["vertical_edges"]) == 8
    assert xi["horizontal_edges"] == []


@pytest.mark.parametrize("fmt", EXPORT_FORMATS)
def test_run_writes_only_the_formats_asked_for(fmt, tmp_path):
    assert main(["run", "--preset", "z", "--radius", "4", "--out", str(tmp_path), "--export", fmt]) == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == sorted(["report.json"] + [f"{what}.{fmt}" for what in EXPORT_KINDS])


def test_acceptor_export_counts(tmp_path):
    out = tmp_path / "acc"
    code = main(
        ["export", "--preset", "f2", "--radius", "4", "--what", "acceptor", "--format", "json", "--out", str(out)]
    )
    assert code == 0
    acc = json.loads((out / "acceptor.json").read_text())
    assert len(acc["states"]) == 5
    assert len(acc["transitions"]) == 16
    assert acc["all_accepting"] is True


def test_subdivisions_export_f2(tmp_path):
    out = tmp_path / "subs"
    code = main(
        ["export", "--preset", "f2", "--radius", "5", "--what", "subdivisions", "--format", "json", "--out", str(out)]
    )
    assert code == 0
    subs = json.loads((out / "subdivisions.json").read_text())
    assert len(subs["vertex_subdivisions"]) == 5
    assert len(subs["edge_subdivisions"]) == 0


def test_exit_code_on_config_error(tmp_path):
    assert main(["run", "--preset", "f2", "--radius", "0", "--out", str(tmp_path)]) == 1
    # so is an unknown flag, a usage error
    assert main(["run", "--preset", "f2", "--radius", "4", "--horizon", "9", "--out", str(tmp_path)]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--preset", "f2", "--radius", "4", "--bogus"],
        ["run", "--preset", "f2"],
        ["run", "--preset", "f2", "--radius", "x"],
        ["run", "--preset", "f2", "--radius", "4", "--delta-mode", "sampled"],
        ["run", "--preset", "f2", "--radius", "4", "--force-k", "0"],
        ["run", "--preset", "f2", "--radius", "4", "--delta-radius", "1"],
        ["run", "--preset", "f2", "--radius", "4", "--probe", "1"],
        ["run", "--preset", "f2", "--radius", "4", "--qi-samples", "10"],
        ["bogus"],
    ],
    ids=[
        "unknown-flag", "missing-radius", "bad-radius", "retired-flag", "retired-force-k",
        "retired-delta-radius", "retired-probe", "retired-qi-samples", "unknown-command",
    ],
)
def test_usage_error_exits_1_with_the_usage(argv, tmp_path, capsys):
    # exit 2 means a failed check, so a mistyped command line must not get it
    assert main(argv + ["--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    # a leftover flag gets the usage of the subcommand it was given to
    assert captured.err.startswith("usage: subforge run" if argv[0] == "run" else "usage: subforge")
    assert "error: " in captured.err
    assert not any(tmp_path.iterdir())


def test_help_exits_0(capsys):
    assert main(["run", "--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: subforge run")
    for retired in (
        "--delta-mode", "--delta-samples", "--horizon", "--force-k", "--delta-radius", "--probe", "--qi-samples",
    ):
        assert retired not in out
    for command in ("run", "export"):
        assert main([command, "--help"]) == 0
        # argparse wraps help text at the terminal's width
        assert "seed of the QI pair sample, the only sampled check" in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("delta", ["inf", "1e308", "nan"])
def test_non_finite_delta_is_a_config_error(delta, tmp_path, capsys):
    code = main(["run", "--preset", "f2", "--radius", "4", "--delta", delta, "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: delta override")


def test_radius_one_probes_to_depth_one(tmp_path):
    # the cone lemma probes to depth min(2, R), so a radius-1 ball runs
    assert main(["run", "--preset", "f2", "--radius", "1", "--out", str(tmp_path)]) == 0
    assert _report(tmp_path)["cone_lemma"]["probe"] == 1


def test_exit_code_on_cap(tmp_path):
    out = tmp_path / "cap"
    code = main(["run", "--preset", "f2", "--radius", "6", "--cap", "50", "--out", str(out)])
    assert code == 1
    report = _report(out)
    assert report["status"] == "aborted"
    assert sum(report["ball"]["partial_sphere_sizes"]) >= 50


F2_R4_ACCEPTOR = ["export", "--preset", "f2", "--radius", "4", "--what", "acceptor", "--format", "json"]
# delta 0.5 gives K=2, too small for the surface group: the cone lemma fails
SURFACE2_R5_K2 = ["--preset", "surface2", "--radius", "5", "--delta", "0.5"]


def test_export_exit_code_on_failed_checks(tmp_path):
    # a failed check still writes the export, and the exit code is the
    # pipeline's, as for `run`
    out = tmp_path / "k2"
    assert main(["run"] + SURFACE2_R5_K2 + ["--out", str(tmp_path / "r")]) == 2
    assert main(["export"] + SURFACE2_R5_K2 + ["--what", "acceptor", "--format", "json", "--out", str(out)]) == 2
    assert (out / "acceptor.json").exists()


def test_export_exit_code_on_cap(tmp_path, capsys):
    assert main(F2_R4_ACCEPTOR + ["--cap", "50", "--out", str(tmp_path / "cap")]) == 1
    err = capsys.readouterr().err
    assert "element cap 50 exceeded" in err
    assert "acceptor not built" not in err
    assert not (tmp_path / "cap" / "acceptor.json").exists()


def test_export_missing_artifact_errors(tmp_path, monkeypatch):
    from reference import corrupt_pipeline_labels

    # label corruption breaks conditions 5/6, so no subdivision tables exist
    corrupt_pipeline_labels(monkeypatch)
    code = main(
        [
            "export", "--preset", "f2", "--radius", "5",
            "--what", "subdivisions", "--format", "json", "--out", str(tmp_path / "m"),
        ]
    )
    assert code == 1
    assert not (tmp_path / "m" / "subdivisions.json").exists()


def test_run_on_cap_writes_only_the_report(tmp_path):
    out = tmp_path / "cap"
    code = main(["run", "--preset", "f2", "--radius", "6", "--cap", "50", "--out", str(out), "--export", "dot,json"])
    assert code == 1
    assert [p.name for p in out.iterdir()] == ["report.json"]


def test_presentation_file_input(tmp_path):
    path = tmp_path / "pres.txt"
    path.write_text("gens: a A b B\n")
    out = tmp_path / "out"
    code = main(["run", "--file", str(path), "--radius", "3", "--out", str(out)])
    assert code == 0
    assert _report(out)["presentation"]["generators"] == ["a", "A", "b", "B"]


def test_relator_reduction_warns_with_and_without_verbose(tmp_path, capsys):
    # a warning reaches stderr without -v, as a bare line, and under -v
    # among the progress lines, with their prefix
    path = tmp_path / "pres.txt"
    path.write_text("gens: a A b B c C d D\nrelators: aabABcdCDA\n")
    warning = "relator 'aabABcdCDA' cyclically reduced to 'abABcdCD'"
    argv = ["run", "--file", str(path), "--radius", "3", "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    assert capsys.readouterr().err == warning + "\n"
    assert main(argv + ["-v"]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert lines[0] == "subforge: " + warning and len(lines) > 8


def test_verbose_lasts_one_call(tmp_path, monkeypatch, capsys):
    # main() turns the progress lines off again when its -v run ends
    monkeypatch.chdir(tmp_path)
    argv = ["run", "--preset", "f2", "--radius", "3", "--out", "out"]
    assert main(argv + ["-v"]) == 0
    assert "subforge: parse: " in capsys.readouterr().err
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


def test_odd_relator_file_pipeline(tmp_path):
    from reference import ODD_RELATOR

    path = tmp_path / "odd.txt"
    path.write_text(f"gens: a A b B\nrelators: {ODD_RELATOR}\n")
    out = tmp_path / "odd-out"
    code = main(["run", "--file", str(path), "--radius", "3", "--out", str(out)])
    assert code == 0
    report = _report(out)
    assert report["small_cancellation"]["satisfies_c16"]
    assert all(v["passed"] for v in report["checks"].values())


def test_non_c16_file_is_operational_error(tmp_path):
    path = tmp_path / "torus.txt"
    path.write_text("gens: a A b B\nrelators: abAB\n")
    assert main(["run", "--file", str(path), "--radius", "3", "--out", str(tmp_path / "t")]) == 1


def test_missing_file_errors(tmp_path):
    assert main(["run", "--file", str(tmp_path / "nope.txt"), "--radius", "3", "--out", str(tmp_path)]) == 1


def test_cache_dir_roundtrip(tmp_path):
    cache = tmp_path / "cache"
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--preset", "f2", "--radius", "4", "--cache-dir", str(cache), "--out", str(out1)]) == 0
    assert len(list(cache.iterdir())) == 1
    assert main(["run", "--preset", "f2", "--radius", "4", "--cache-dir", str(cache), "--out", str(out2)]) == 0
    r1, r2 = _report(out1), _report(out2)
    assert r1["ball"] == r2["ball"]


def _run_on_ball(ball, route, tmp_path, monkeypatch) -> Path:
    """Run f2 at the ball's radius on ``ball`` instead of the enumerated
    one, read from a cache file that holds it ("cache") or returned by a
    patched ``enumerate_ball`` ("enumerate"); returns the output directory
    after asserting the run ended with failed checks (exit 2)."""
    argv = ["run", "--preset", "f2", "--radius", str(ball.radius)]
    if route == "cache":
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / f"{cache_key(ball.presentation, ball.radius)}.ball").write_bytes(ball.to_bytes())
        argv += ["--cache-dir", str(cache)]
    else:
        monkeypatch.setattr(pipeline, "enumerate_ball", lambda *args, **kwargs: ball)
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    return out


@pytest.mark.parametrize("route", ["cache", "enumerate"])
def test_cached_ball_with_an_off_level_parent_fails_its_checks(route, tmp_path, monkeypatch):
    # a ball, loaded from a cache file or enumerated, that has one parent
    # link two levels down: the run ends with verdicts, not an exception
    ball = enumerate_ball(preset("f2"), 3)
    e = ball.sphere(2).start
    ball.parent[e] = 0
    report = _report(_run_on_ball(ball, route, tmp_path, monkeypatch))
    failed = {name for name, v in report["checks"].items() if not v["passed"]}
    assert {"prefix_closure", "axiom_3"} <= failed
    assert [x["id"] for x in report["checks"]["axiom_3"]["counterexample"]] == [e, 0]


@pytest.mark.parametrize("route", ["cache", "enumerate"])
def test_cached_ball_with_a_wrong_parent_link_entry_fails_prefix_closure(route, tmp_path, monkeypatch):
    # a ball, from a checksum-valid cache file or enumerated, in which the
    # letter-table entry of one parent link names another element of the
    # same level: the run goes on, and prefix closure fails on that link
    ball = enumerate_ball(preset("f2"), 3)
    e = ball.sphere(2).start
    p = ball.parent[e]
    ball.table[p * ball.degree + ball.last_letter[e]] = e + 1
    closure = _report(_run_on_ball(ball, route, tmp_path, monkeypatch))["checks"]["prefix_closure"]
    assert not closure["passed"] and closure["domain"] == ball.size - 1
    assert [x["id"] for x in closure["counterexample"]] == [e, p]


F2_R4 = ["run", "--preset", "f2", "--radius", "4", "--export", "dot,json"]


def _exports(out_dir):
    return {p.name: p.read_bytes() for p in out_dir.iterdir() if p.name != "report.json"}


UNPICKLED = []


def _record_unpickling():
    UNPICKLED.append(True)
    return {}


class _Tripwire:
    """Unpickling this object records that a pickle was loaded."""

    def __reduce__(self):
        return _record_unpickling, ()


def _version_2_file() -> bytes:
    """A cache file in format version 2 (a pickled dict behind the same
    magic, version and checksum), with a valid checksum over a payload that
    must never be unpickled."""
    data = pickle.dumps(_Tripwire(), protocol=pickle.HIGHEST_PROTOCOL)
    return CACHE_MAGIC + (2).to_bytes(2, "big") + hashlib.sha256(data).digest() + data


@pytest.mark.parametrize(
    "spoil",
    ["truncated", "flipped_byte", "other_presentation", "other_radius", "old_version", "parent_cycle", "bad_letter"],
)
def test_unusable_cache_file_is_a_logged_miss(tmp_path, capsys, spoil):
    cache = tmp_path / "cache"
    assert main(F2_R4 + ["--cache-dir", str(cache), "--out", str(tmp_path / "fill")]) == 0
    (path,) = cache.iterdir()
    good = path.read_bytes()
    if spoil == "truncated":
        path.write_bytes(good[: len(good) // 2])
    elif spoil == "flipped_byte":
        spoiled = bytearray(good)
        spoiled[(CACHE_HEADER_LEN + len(good)) // 2] ^= 0x01  # inside the tables
        path.write_bytes(bytes(spoiled))
    elif spoil == "old_version":
        path.write_bytes(_version_2_file())
    elif spoil in ("parent_cycle", "bad_letter"):
        # checksum-valid files whose links would send a parent-chain walk
        # round a cycle, or name a letter outside the alphabet
        ball = enumerate_ball(preset("f2"), 4)
        e = ball.sphere(3).start
        if spoil == "parent_cycle":
            ball.parent[e] = e
        else:
            ball.last_letter[e] = ball.degree
        path.write_bytes(ball.to_bytes())
    else:
        other = ["--preset", "z", "--radius", "4"] if spoil == "other_presentation" else ["--preset", "f2", "--radius", "3"]
        elsewhere = tmp_path / "elsewhere"
        assert main(["run", *other, "--cache-dir", str(elsewhere), "--out", str(tmp_path / "o")]) == 0
        (foreign,) = elsewhere.iterdir()
        path.write_bytes(foreign.read_bytes())
    capsys.readouterr()
    assert main(F2_R4 + ["--cache-dir", str(cache), "--out", str(tmp_path / "cached")]) == 0
    # without -v the warning is one bare line on stderr
    (warning,) = capsys.readouterr().err.splitlines()
    assert warning.startswith(f"ball cache {path} unusable (") and warning.endswith("); re-enumerating")
    if spoil == "flipped_byte":
        assert "checksum mismatch" in warning
    if spoil in ("parent_cycle", "bad_letter"):
        assert "parent links do not each point to a smaller id" in warning
    if spoil == "old_version":
        assert "cache format version 2, expected 3" in warning
        assert UNPICKLED == []
        # the tripwire is live: loading the payload would have tripped it
        pickle.loads(_version_2_file()[CACHE_HEADER_LEN:])
        assert UNPICKLED == [True]
        UNPICKLED.clear()
    assert main(F2_R4 + ["--out", str(tmp_path / "cold")]) == 0
    assert _exports(tmp_path / "cached") == _exports(tmp_path / "cold")
    # the spoiled file was replaced by a loadable ball, with no temp file left
    assert list(cache.iterdir()) == [path]
    assert CayleyBall.from_bytes(path.read_bytes(), preset("f2")).radius == 4
    assert path.read_bytes() == good


def _run_with_unwritable_cache(tmp_path, capsys, cache) -> str:
    """Run F2_R4 with ``cache`` as the cache directory, which cannot take
    the ball: the write is a warning on stderr and the run's outputs are a
    run's without a cache.  Returns the run's stderr."""
    capsys.readouterr()
    assert main(F2_R4 + ["--cache-dir", str(cache), "--out", str(tmp_path / "cached")]) == 0
    err = capsys.readouterr().err
    assert err.splitlines()[-1].startswith("ball cache ") and " not written (" in err
    assert main(F2_R4 + ["--out", str(tmp_path / "cold")]) == 0
    assert _report(tmp_path / "cached")["checks"] == _report(tmp_path / "cold")["checks"]
    assert _exports(tmp_path / "cached") == _exports(tmp_path / "cold")
    return err


def test_cache_dir_that_is_a_file_is_a_logged_miss(tmp_path, capsys):
    cache = tmp_path / "cache"
    cache.write_text("not a directory")
    assert len(_run_with_unwritable_cache(tmp_path, capsys, cache).splitlines()) == 1
    assert cache.read_text() == "not a directory"


def test_directory_at_the_cache_file_path_is_a_logged_miss(tmp_path, capsys):
    cache = tmp_path / "cache"
    (cache / f"{cache_key(preset('f2'), 4)}.ball").mkdir(parents=True)
    assert "re-enumerating" in _run_with_unwritable_cache(tmp_path, capsys, cache)
    # the temp file is removed, and the directory left as it was
    (entry,) = cache.iterdir()
    assert entry.is_dir() and not any(entry.iterdir())


def test_os_errors_exit_1_with_a_message(tmp_path, capsys):
    # a directory given as the presentation file
    assert main(["run", "--file", str(tmp_path), "--radius", "3", "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    # a regular file given as the output directory
    out = tmp_path / "out"
    out.write_text("")
    assert main(["run", "--preset", "f2", "--radius", "3", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def _child_env(**extra) -> dict[str, str]:
    """The environment for a subforge child process: this checkout's
    sources on the path and no PYTHON* setting, so that stdout on a pipe
    is block-buffered, as in a plain shell."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(Path(subforge.__file__).resolve().parent.parent)
    env.update(extra)
    return env


def test_console_entry_point(tmp_path, monkeypatch, capsys):
    # the process entry point ends with os._exit after flushing stdout and
    # stderr: each child writes exactly what main() writes in-process and
    # exits with its return value, so no buffered output is lost
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to the terminal width
    env = _child_env(COLUMNS="80")
    cases = [
        ["run", "--preset", "f2", "--radius", "3", "--out", "out"],
        ["run"] + SURFACE2_R5_K2 + ["--out", "out"],
        ["run", "--preset", "f2", "--radius", "3", "--bogus"],
        ["--help"],
        ["presets"],
    ]
    for argv, code in zip(cases, [0, 2, 1, 0, 0]):
        where = tmp_path / "in-process"
        where.mkdir(exist_ok=True)
        monkeypatch.chdir(where)
        assert main(argv) == code, argv
        captured = capsys.readouterr()
        for module in ("subforge", "subforge.cli"):
            where = tmp_path / module
            where.mkdir(exist_ok=True)
            proc = subprocess.run(
                [sys.executable, "-m", module, *argv], env=env, cwd=where,
                stdin=subprocess.DEVNULL, capture_output=True, text=True, check=False,
            )
            assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err), (module, argv)


@pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache-dir"])
def test_hashlib_loads_only_with_the_cache(tmp_path, cached):
    # hashlib loads OpenSSL, which only the ball cache needs
    script = (
        "import sys\n"
        "before = 'hashlib' in sys.modules\n"
        "import subforge.cli\n"
        "code = subforge.cli.main(sys.argv[1:])\n"
        "print(before, 'hashlib' in sys.modules, code)\n"
    )
    argv = ["run", "--preset", "f2", "--radius", "3", "--out", str(tmp_path / "out")]
    if cached:
        argv += ["--cache-dir", str(tmp_path / "cache")]
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], env=_child_env(), stdin=subprocess.DEVNULL,
        capture_output=True, text=True, check=True,
    )
    before, loaded, code = proc.stdout.splitlines()[-1].split()
    if before == "True":
        pytest.skip("the interpreter loads hashlib before subforge is imported")
    assert (loaded, code) == (str(cached), "0")


def test_cli_starts_without_dataclasses_inspect_or_logging(tmp_path):
    # each would cost every run milliseconds of import (README, start-up);
    # a run without a cache loads none of them, nor hashlib
    script = (
        "import json, sys\n"
        "heavy = ('dataclasses', 'inspect', 'logging', 'hashlib')\n"
        "loaded = lambda: [m for m in heavy if m in sys.modules]\n"
        "before = loaded()\n"
        "import subforge.cli\n"
        "imported = loaded()\n"
        "code = subforge.cli.main(sys.argv[1:])\n"
        "print(json.dumps([before, imported, loaded(), code]))\n"
    )
    argv = ["run", "--preset", "f2", "--radius", "3", "--out", str(tmp_path / "out")]
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], env=_child_env(), stdin=subprocess.DEVNULL,
        capture_output=True, text=True, check=True,
    )
    before, imported, ran, code = json.loads(proc.stdout.splitlines()[-1])
    if before:
        pytest.skip(f"the interpreter loads {before} before subforge is imported")
    assert (imported, ran, code) == ([], [], 0)


def test_exports_do_not_depend_on_the_cpu_count(tmp_path):
    # one run pinned to a single CPU and one over every CPU of this process
    # write the same exports and the same report apart from its timings.
    # Neither run forks: delta's 202 computed pairs are far below its fork
    # threshold, and QI measures its pairs in the process (both of its
    # graphs are the geodesic tree here).  test_parallel checks that the
    # forked loop gives the same result for any chunk count
    cpus = os.sched_getaffinity(0)
    env = dict(os.environ, PYTHONPATH=str(Path(subforge.__file__).resolve().parent.parent))
    runs = {}
    for name, pin in (("one", lambda: os.sched_setaffinity(0, {min(cpus)})), ("all", None)):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "subforge", "run", "--preset", "f2", "--radius", "6",
             "--export", "dot,json", "--out", str(out), "-v"],
            env=env, preexec_fn=pin, capture_output=True, text=True, check=True,
        )
        report = _report(out)
        del report["timings"]
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir() if p.name != "report.json"}
        runs[name] = (digests, report)
        cpu_line = f"delta: 202 computed triangles in 1 chunk(s), {1 if pin else len(cpus)} CPU(s) in the affinity mask"
        assert cpu_line in proc.stderr
    assert runs["one"] == runs["all"]
    assert len(runs["one"][0]) == 8


def test_report_records_config(tmp_path):
    out = tmp_path / "cfg"
    main(["run", "--preset", "z", "--radius", "5", "--seed", "7", "--out", str(out)])
    cfg = _report(out)["config"]
    assert cfg["seed"] == 7 and cfg["radius"] == 5 and cfg["preset"] == "z"


def _cli_flags() -> set[str]:
    """Every long option of every subcommand, hidden ones included."""
    flags = set()
    for action in build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                for opt in sub._actions:
                    flags.update(o for o in opt.option_strings if o.startswith("--"))
    flags.discard("--help")
    return flags


def test_cli_defaults_are_the_run_config_defaults():
    # a flag left out gives the run exactly what RunConfig() would
    for command in ("run", "export"):
        argv = [command, "--preset", "z", "--radius", "3"]
        if command == "export":
            argv += ["--what", "xi", "--format", "json"]
        config = _config_from(build_parser().parse_args(argv))
        assert config == RunConfig(preset="z", radius=3)


def test_readme_lists_the_cli_flags():
    # the README's CLI section names exactly the flags the parser accepts
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    documented = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
    flags = _cli_flags()
    assert sorted(flags - documented) == []
    assert sorted(documented - flags) == []


# (argv, QI's distances line): surface2 R=4 has no two trusted vertices,
# so its QI sample measures nothing; on f2 R=4 both graphs are the
# geodesic tree, so QI searches neither
@pytest.mark.parametrize(
    "argv, qi_line",
    [
        (["run", "--preset", "surface2", "--radius", "4", "--export", "dot,json"], None),
        (
            ["run"] + SURFACE2_R5_K2,
            "qi: distances within B_4 of B_5 (3,193 of 22,289 elements): "
            "Cayley graph by search of the ball's table, subdivision graph by search over rows",
        ),
        (
            F2_R4_ACCEPTOR,
            "qi: distances within B_4 of B_4 (161 of 161 elements): "
            "Cayley graph by geodesic tree, subdivision graph by geodesic tree",
        ),
    ],
    ids=["argv0", "argv1", "argv2"],
)
def test_verbose_changes_only_stderr(tmp_path, monkeypatch, capsys, argv, qi_line):
    # -v adds progress lines on stderr; stdout, the exit code and every
    # file written stay the same, report.json apart from its timings
    runs = {}
    for flag in ([], ["-v"]):
        where = tmp_path / ("verbose" if flag else "quiet")
        where.mkdir()
        monkeypatch.chdir(where)
        code = main(argv + ["--out", "out"] + flag)
        captured = capsys.readouterr()
        files = {p.name: p.read_bytes() for p in (where / "out").iterdir()}
        if "report.json" in files:
            report = json.loads(files.pop("report.json"))
            assert set(report.pop("timings")) == {"parse", "ball", "delta", "gamma", "language", "xi", "axioms", "qi"}
            files["report.json"] = report
        runs[bool(flag)] = (code, captured.out, files, captured.err)
    quiet, verbose = runs[False], runs[True]
    assert verbose[:3] == quiet[:3]
    assert quiet[3] == ""
    lines = verbose[3].splitlines()
    stages = [line.split(":")[1].strip() for line in lines if line.endswith(" s")]
    assert stages == ["parse", "ball", "delta", "gamma", "language", "xi", "axioms", "qi"] + (
        ["exports"] if argv[0] == "run" else []
    )
    assert any("sphere sizes [1, " in line for line in lines)
    assert [line for line in lines if "qi: distances" in line] == ([f"subforge: {qi_line}"] if qi_line else [])
    assert all(line.startswith("subforge: ") for line in lines)
