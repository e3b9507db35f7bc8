from dataclasses import fields

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
        RunConfig(preset="f2", radius=4, delta_radius=3).validate()
    with pytest.raises(ConfigError):
        RunConfig(preset="f2", radius=4, delta_radius=-1).validate()
    with pytest.raises(ConfigError):
        RunConfig(preset="f2", radius=4, delta_override=-0.5).validate()
    # the working constant ceil(2*delta) + 1 needs 2*delta finite
    for bad in (float("inf"), float("nan"), 1e308):
        with pytest.raises(ConfigError):
            RunConfig(preset="f2", radius=4, delta_override=bad).validate()
    with pytest.raises(ConfigError):
        RunConfig(preset="f2", radius=4, force_k=5).validate()
    # a check handed nothing to test must not read as a pass
    for bad in (
        dict(qi_samples=0),
        dict(qi_samples=-1),
        dict(probe=-1),
        # a probe past the radius tests no element at a negative depth
        dict(probe=5),
        dict(probe=50),
    ):
        with pytest.raises(ConfigError):
            RunConfig(preset="f2", radius=4, **bad).validate()
    RunConfig(preset="f2", radius=4, probe=0, qi_samples=1).validate()
    RunConfig(preset="f2", radius=4, probe=4, delta_override=1e307).validate()
    RunConfig(preset="f2", radius=4).validate()


def test_report_echoes_every_setting():
    # all run settings but the cache directory, which is left out so that
    # cold and cached runs write the same report
    report = run_pipeline(RunConfig(preset="z", radius=4)).report
    assert set(report["config"]) == {f.name for f in fields(RunConfig)} - {"cache_dir"}


def test_adaptive_k_escape_hatch():
    # an undersized delta makes the K=1 acceptor inconsistent on the
    # surface group; the pipeline bumps K until transitions are well
    # defined, and the dishonest delta still fails the QI (b) bound
    res = run_pipeline(RunConfig(preset="surface2", radius=5, delta_override=0.0))
    adaptation = res.report["cone_types"]["adaptation"]
    assert adaptation[0] == {"k": 1, "consistent": False}
    assert adaptation[-1]["consistent"]
    assert res.report["cone_types"]["k"] == adaptation[-1]["k"]
    assert res.report["acceptor"]["consistent"]
    failed = {k for k, v in res.report["checks"].items() if not v}
    assert "qi_b" in failed
    assert res.exit_code == 2


def test_forced_k_disables_adaptation(f2_run):
    res = run_pipeline(RunConfig(preset="f2", radius=5, force_k=0))
    assert len(res.report["cone_types"]["adaptation"]) == 1
    assert res.report["cone_types"]["k"] == 0


def test_report_schema_stable(f2_run):
    report = f2_run.report
    for key in (
        "config",
        "presentation",
        "small_cancellation",
        "ball",
        "prefix_closure",
        "delta",
        "gamma",
        "cone_types",
        "cone_lemma",
        "acceptor",
        "xi",
        "axioms",
        "subdivisions",
        "qi",
        "checks",
        "timings",
    ):
        assert key in report, key
    assert report["status"] == "completed"
    # one verdict per fact, each of which can fail
    assert list(report["checks"]) == [
        "small_cancellation",
        "prefix_closure",
        "cone_lemma",
        "acceptor_consistent",
        *(f"axiom_{i}" for i in range(1, 7)),
        *(f"qi_{c}" for c in "abcd"),
    ]


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
