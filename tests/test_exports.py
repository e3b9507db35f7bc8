"""The streamed exports against the writers that built each file whole
(``reference.reference_export``): every kind in every format, byte for
byte."""

import copy

import pytest
from reference import ODD_RELATOR, graph_with, reference_export

from subforge import exports
from subforge.ball import enumerate_ball
from subforge.cli import main
from subforge.exports import EXPORT_FORMATS, EXPORT_KINDS, MissingArtifact, export_graph
from subforge.pipeline import Artifacts, RunConfig, run_pipeline
from subforge.presentation import preset


def _assert_streams_as_reference(arts: Artifacts, out_dir, references: dict) -> int:
    """Compare every file the run can export with its reference, built
    once per (kind, format) into ``references``; return how many files
    there were."""
    written = 0
    for what in EXPORT_KINDS:
        for fmt in EXPORT_FORMATS:
            path = out_dir / f"{what}.{fmt}"
            try:
                export_graph(arts, str(out_dir), [what], [fmt])
            except MissingArtifact:
                assert not path.exists()
                continue
            if (what, fmt) not in references:
                references[(what, fmt)] = reference_export(arts, what, fmt).encode()
            assert path.read_bytes() == references[(what, fmt)], path.name
            written += 1
    return written


@pytest.fixture(scope="module")
def surface_r4_run():
    return run_pipeline(RunConfig(preset="surface2", radius=4))


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
    assert _assert_streams_as_reference(result.artifacts, tmp_path, {}) == files


@pytest.mark.parametrize("run", ["surface_r4_run", "f2_r5_run", "surface_labeled_run"])
def test_exports_do_not_depend_on_the_chunk_size(run, request, tmp_path, monkeypatch):
    # records are rendered CHUNK at a time; 1, 2 and 3 put chunk boundaries
    # everywhere, and the outer sphere's first id, or one less, makes a
    # chunk end just before the outer sphere (ids from 0) or the tree edges
    # (ids from 1) reach it
    arts = request.getfixturevalue(run).artifacts
    outer = arts.ball.sphere(arts.ball.radius).start
    references = {}
    for chunk in (1, 2, 3, outer - 1, outer):
        monkeypatch.setattr(exports, "CHUNK", chunk)
        assert _assert_streams_as_reference(arts, tmp_path, references) == dict(RUNS)[run], chunk


@pytest.mark.parametrize("export", ["dot,json", "json", "dot"])
@pytest.mark.parametrize(
    "run, argv",
    [
        ("f2_r5_run", ["--preset", "f2", "--radius", "5"]),
        ("surface_labeled_run", ["--preset", "surface2", "--radius", "5", "--delta", "1.0"]),
        ("odd_r4_run", ["--file", None, "--radius", "4"]),
    ],
)
def test_run_exports_equal_the_reference(run, argv, export, request, tmp_path, monkeypatch):
    # run writes the gamma and xi files of each format together, in two
    # passes over the chunks; every file must still equal the reference,
    # and no file of a format not asked for may appear
    arts = request.getfixturevalue(run).artifacts
    if None in argv:
        odd = tmp_path / "odd.txt"
        odd.write_text(f"gens: a A b B\nrelators: {ODD_RELATOR}\n")
        argv = [str(odd) if a is None else a for a in argv]
    expected = {
        f"{what}.{fmt}": reference_export(arts, what, fmt).encode()
        for what in EXPORT_KINDS
        for fmt in export.split(",")
    }
    for chunk in (1, 3, exports.CHUNK):
        monkeypatch.setattr(exports, "CHUNK", chunk)
        out = tmp_path / f"out-{chunk}"
        assert main(["run", *argv, "--out", str(out), "--export", export]) == 0
        assert {p.name for p in out.iterdir()} == set(expected) | {"report.json"}, chunk
        for name, data in expected.items():
            assert (out / name).read_bytes() == data, (name, chunk)


def test_the_compared_exports_are_not_vacuous(f2_r5_run, surface_labeled_run):
    # the label records and the horizontal-edge records go through their
    # own templates, so the configs above must hold some of each
    graph = f2_r5_run.artifacts.graph
    assert len(graph.vertex_labels) == 53
    assert f2_r5_run.artifacts.subdivisions[0]
    graph = surface_labeled_run.artifacts.graph
    edges = [e for _, e in graph.all_level_edges()]
    assert len(edges) == 8
    assert all(e in graph.edge_labels and e in graph.witnesses for e in edges)


def test_unstable_levels_stream_as_the_reference(f2_r5_run, tmp_path):
    # no config above has unstable levels, so give one graph some
    arts = f2_r5_run.artifacts
    assert arts.graph.unstable_levels == ()
    unstable = copy.copy(arts)
    unstable.graph = graph_with(arts.graph, unstable_levels=(1, 2))
    for fmt in EXPORT_FORMATS:
        path = tmp_path / f"xi.{fmt}"
        export_graph(unstable, str(tmp_path), ["xi"], [fmt])
        assert path.read_bytes() == reference_export(unstable, "xi", fmt).encode()
    assert b'"unstable_levels": [\n    1,\n    2\n  ],' in (tmp_path / "xi.json").read_bytes()


@pytest.mark.parametrize("radius", [0, 1])
def test_gamma_of_a_small_ball_streams_as_the_reference(radius, tmp_path):
    # at radius 0 the identity is the outer sphere and has no parent
    arts = Artifacts(ball=enumerate_ball(preset("f2"), radius))
    for fmt in EXPORT_FORMATS:
        path = tmp_path / f"gamma.{fmt}"
        export_graph(arts, str(tmp_path), ["gamma"], [fmt])
        assert path.read_bytes() == reference_export(arts, "gamma", fmt).encode()


def test_graphs_of_a_ball_with_empty_spheres_stream_as_the_reference(tmp_path):
    # <a | a> is the trivial group: every sphere past the identity is
    # empty, and xi.dot still holds a cluster for each level
    path = tmp_path / "trivial.txt"
    path.write_text("gens: a A\nrelators: a\n")
    arts = run_pipeline(RunConfig(file=str(path), radius=3)).artifacts
    assert arts.ball.size == 1
    export_graph(arts, str(tmp_path), ["gamma", "xi"], EXPORT_FORMATS)
    for what in ("gamma", "xi"):
        for fmt in EXPORT_FORMATS:
            assert (tmp_path / f"{what}.{fmt}").read_bytes() == reference_export(arts, what, fmt).encode()
    assert (tmp_path / "xi.dot").read_text().count("subgraph cluster_level_") == 4
