import argparse
import hashlib
import json
import logging
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import subforge
from subforge.ball import CACHE_HEADER_LEN, CACHE_MAGIC, CayleyBall
from subforge.cli import _config_from, build_parser, main
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
    assert all(report["checks"].values())


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
        ["bogus"],
    ],
    ids=["unknown-flag", "missing-radius", "bad-radius", "retired-flag", "retired-force-k", "unknown-command"],
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
    for retired in ("--delta-mode", "--delta-samples", "--horizon", "--force-k"):
        assert retired not in out


@pytest.mark.parametrize("delta", ["inf", "1e308", "nan"])
def test_non_finite_delta_is_a_config_error(delta, tmp_path, capsys):
    code = main(["run", "--preset", "f2", "--radius", "4", "--delta", delta, "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: delta override")


def test_probe_error_names_its_values(tmp_path, capsys):
    # the default probe depth 2 does not fit a radius-1 ball
    assert main(["run", "--preset", "f2", "--radius", "1", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: probe depth 2 must lie in [0, 1]\n"
    assert main(["run", "--preset", "f2", "--radius", "1", "--probe", "1", "--out", str(tmp_path)]) == 0


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


def test_odd_relator_file_pipeline(tmp_path):
    from reference import ODD_RELATOR

    path = tmp_path / "odd.txt"
    path.write_text(f"gens: a A b B\nrelators: {ODD_RELATOR}\n")
    out = tmp_path / "odd-out"
    code = main(["run", "--file", str(path), "--radius", "3", "--out", str(out)])
    assert code == 0
    report = _report(out)
    assert report["small_cancellation"]["satisfies_c16"]
    assert all(report["checks"].values())


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
    "spoil", ["truncated", "flipped_byte", "other_presentation", "other_radius", "old_version"]
)
def test_unusable_cache_file_is_a_logged_miss(tmp_path, caplog, spoil):
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
    else:
        other = ["--preset", "z", "--radius", "4"] if spoil == "other_presentation" else ["--preset", "f2", "--radius", "3"]
        elsewhere = tmp_path / "elsewhere"
        assert main(["run", *other, "--cache-dir", str(elsewhere), "--out", str(tmp_path / "o")]) == 0
        (foreign,) = elsewhere.iterdir()
        path.write_bytes(foreign.read_bytes())
    with caplog.at_level(logging.WARNING, logger="subforge.pipeline"):
        assert main(F2_R4 + ["--cache-dir", str(cache), "--out", str(tmp_path / "cached")]) == 0
    assert "re-enumerating" in caplog.text
    if spoil == "flipped_byte":
        assert "checksum mismatch" in caplog.text
    if spoil == "old_version":
        assert "cache format version 2, expected 3" in caplog.text
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


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "subforge.cli", "presets"],
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0
    assert "surface2" in proc.stdout


def test_exports_do_not_depend_on_the_cpu_count(tmp_path):
    # one run pinned to a single CPU, where nothing is forked, and one over
    # every CPU of this process write the same exports and the same report
    # apart from its timings
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
        chunks = 1 if pin else len(cpus)
        assert f"chunks per parallel loop: at most {chunks}," in proc.stderr
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


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--preset", "surface2", "--radius", "4", "--export", "dot,json"],
        ["run"] + SURFACE2_R5_K2,
        F2_R4_ACCEPTOR,
    ],
)
def test_verbose_changes_only_stderr(tmp_path, monkeypatch, capsys, argv):
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
    assert all(line.startswith("subforge: ") for line in lines)
