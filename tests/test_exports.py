"""The streamed exports against the writers that built each file whole
(``reference.reference_export``): every kind in every format, byte for
byte."""

import dataclasses

import pytest
from reference import ODD_RELATOR, reference_export

from subforge.ball import enumerate_ball
from subforge.exports import EXPORT_FORMATS, EXPORT_KINDS, MissingArtifact, export_graph
from subforge.pipeline import Artifacts, RunConfig, run_pipeline
from subforge.presentation import preset


def _assert_streams_as_reference(arts: Artifacts, out_dir) -> int:
    """Compare every file the run can export; return how many there were."""
    written = 0
    for what in EXPORT_KINDS:
        for fmt in EXPORT_FORMATS:
            path = out_dir / f"{what}.{fmt}"
            try:
                export_graph(arts, what, fmt, str(path))
            except MissingArtifact:
                assert not path.exists()
                continue
            assert path.read_bytes() == reference_export(arts, what, fmt).encode(), path.name
            written += 1
    return written


@pytest.fixture(scope="module")
def f2_r5_run():
    return run_pipeline(RunConfig(preset="f2", radius=5))


@pytest.fixture(scope="module")
def surface_r4_run():
    return run_pipeline(RunConfig(preset="surface2", radius=4))


@pytest.fixture(scope="module")
def odd_r4_run(tmp_path_factory):
    path = tmp_path_factory.mktemp("odd") / "odd.txt"
    path.write_text(f"gens: a A b B\nrelators: {ODD_RELATOR}\n")
    return run_pipeline(RunConfig(file=str(path), radius=4))


# (fixture, files it exports): surface2 R=4 labels no vertex (n_max is -1),
# so it has no subdivision tables
RUNS = [
    ("f2_r5_run", 8),
    ("z_run", 8),
    ("surface_r4_run", 6),
    ("surface_labeled_run", 8),
    ("odd_r4_run", 8),
]


@pytest.mark.parametrize("run, files", RUNS)
def test_streamed_exports_equal_the_reference(run, files, request, tmp_path):
    result = request.getfixturevalue(run)
    assert result.exit_code == 0
    assert _assert_streams_as_reference(result.artifacts, tmp_path) == files


def test_the_compared_exports_are_not_vacuous(f2_r5_run, surface_labeled_run):
    # the label records and the horizontal-edge records go through their
    # own templates, so the configs above must hold some of each
    graph = f2_r5_run.artifacts.graph
    assert len(graph.vertex_labels) == 53
    assert f2_r5_run.artifacts.axiom_report.vertex_subdivisions
    graph = surface_labeled_run.artifacts.graph
    edges = [e for _, e in graph.all_level_edges()]
    assert len(edges) == 8
    assert all(e in graph.edge_labels and e in graph.witnesses for e in edges)


def test_unstable_levels_stream_as_the_reference(f2_r5_run, tmp_path):
    # no config above has unstable levels, so give one graph some
    arts = f2_r5_run.artifacts
    assert arts.graph.unstable_levels == ()
    graph = dataclasses.replace(arts.graph, unstable_levels=(1, 2))
    unstable = dataclasses.replace(arts, graph=graph)
    for fmt in EXPORT_FORMATS:
        path = tmp_path / f"xi.{fmt}"
        export_graph(unstable, "xi", fmt, str(path))
        assert path.read_bytes() == reference_export(unstable, "xi", fmt).encode()
    assert b'"unstable_levels": [\n    1,\n    2\n  ],' in (tmp_path / "xi.json").read_bytes()


@pytest.mark.parametrize("radius", [0, 1])
def test_gamma_of_a_small_ball_streams_as_the_reference(radius, tmp_path):
    # at radius 0 the identity is the outer sphere and has no parent
    arts = Artifacts(ball=enumerate_ball(preset("f2"), radius))
    for fmt in EXPORT_FORMATS:
        path = tmp_path / f"gamma.{fmt}"
        export_graph(arts, "gamma", fmt, str(path))
        assert path.read_bytes() == reference_export(arts, "gamma", fmt).encode()
