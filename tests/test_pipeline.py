import json

import pytest

from subforge.pipeline import ConfigError, RunConfig, run_pipeline


def test_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(radius=3).validate()  # no source
    with pytest.raises(ConfigError):
        RunConfig(preset="f2", file="x", radius=3).validate()
    with pytest.raises(ConfigError):
        RunConfig(preset="f2", radius=0).validate()
    with pytest.raises(ConfigError):
        RunConfig(preset="f2", radius=4, delta_override=-0.5).validate()
    # the working constant ceil(2*delta) + 1 needs 2*delta finite
    for bad in (float("inf"), float("nan"), 1e308):
        with pytest.raises(ConfigError):
            RunConfig(preset="f2", radius=4, delta_override=bad).validate()
    RunConfig(preset="f2", radius=4, delta_override=1e307).validate()
    RunConfig(preset="f2", radius=4).validate()


def test_report_echoes_every_setting():
    # all run settings but the cache directory, which is left out so that
    # cold and cached runs write the same report
    report = run_pipeline(RunConfig(preset="z", radius=4)).report
    assert set(report["config"]) == set(RunConfig._fields) - {"cache_dir"}


def _failed(res):
    return {k for k, v in res.report["checks"].items() if not v["passed"]}


def test_undersized_delta_fails_at_its_own_k():
    # delta = 0 gives K = 1, which is too small for the surface group: the
    # run stays at that K, and the acceptor, the cone lemma, condition 5
    # and QI (d) all fail there
    res = run_pipeline(RunConfig(preset="surface2", radius=5, delta_override=0.0))
    assert res.report["cone_types"]["k"] == 1
    assert res.report["cone_types"]["adaptation"] == [{"k": 1}]
    assert _failed(res) == {"acceptor_consistent", "axiom_5", "cone_lemma", "qi_d"}
    assert res.exit_code == 2


def test_half_delta_fails_at_k_two_on_radius_six():
    # delta = 0.5 gives K = 2; at R=6 the acceptor, the cone lemma and
    # condition 4 fail there rather than pass at a larger K
    res = run_pipeline(RunConfig(preset="surface2", radius=6, delta_override=0.5))
    assert res.report["cone_types"]["k"] == 2
    assert len(res.report["cone_types"]["adaptation"]) == 1
    assert _failed(res) == {"acceptor_consistent", "axiom_4", "cone_lemma"}
    assert res.exit_code == 2
    # each failing verdict still runs over its whole domain
    checks = res.report["checks"]
    assert checks["axiom_4"]["domain"] == res.report["xi"]["total_horizontal"] == 400
    assert checks["cone_lemma"]["domain"] == 3_120
    assert checks["acceptor_consistent"]["domain"] == 520


def test_report_schema_stable(f2_run):
    report = f2_run.report
    for key in (
        "config",
        "presentation",
        "small_cancellation",
        "ball",
        "delta",
        "gamma",
        "cone_types",
        "cone_lemma",
        "acceptor",
        "xi",
        "subdivisions",
        "qi",
        "checks",
        "timings",
    ):
        assert key in report, key
    assert report["status"] == "completed"
    # one verdict per fact, each of which can fail
    assert list(report["checks"]) == [
        "prefix_closure",
        "cone_lemma",
        "acceptor_consistent",
        *(f"axiom_{i}" for i in range(1, 7)),
        *(f"qi_{c}" for c in "bcd"),
    ]
    for verdict in report["checks"].values():
        assert set(verdict) == {"passed", "domain", "counterexample", "note"}
    # the blocks hold statistics, not a second copy of any verdict
    blocks = {k: v for k, v in report.items() if k != "checks"}
    for key in ("passed", "consistent", "domain", "pairs_checked", "counterexample", "conflicts", "checks"):
        assert f'"{key}"' not in json.dumps(blocks), key
    assert "label_warnings" not in report["xi"] and "horizon" not in report["xi"]


def test_delta_override_recorded(surface_labeled_run):
    assert surface_labeled_run.report["delta"] == {
        "value": 1.0,
        "source": "override",
        "is_lower_bound": True,
    }


def test_delta_sample_count_recorded(surface_run):
    # an exhaustive run counts every anchored triangle of B_2 and computes
    # one per orbit of the 4 letter symmetries
    assert surface_run.report["delta"]["triangles"] == 2_145
    assert surface_run.report["delta"]["triangles_computed"] == 561


def test_k_clamp_recorded():
    res = run_pipeline(RunConfig(preset="surface2", radius=4))
    assert res.report["cone_types"]["k_clamped_to_radius"] is True
    assert res.report["cone_types"]["k"] == 4
