"""The streamed exports against the writers that built each file whole
(``reference.reference_export``): every kind in every format, byte for
byte."""

import dataclasses
import hashlib
import json

import pytest
from reference import ODD_RELATOR, reference_export

from subforge.ball import enumerate_ball
from subforge.cli import main
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


# sha256 of every export of surface2 R=5 at two delta overrides, the only
# small configs with horizontal edges: 8 edges at delta 1.0, and at 0.5 56
# edges in 8 edge-subdivision classes (the cone lemma fails there, exit 2).
# "report" is report.json less its timings, re-dumped as the exports are.
LABELED_DIGESTS = {
    "1.0": (0, {
        "acceptor.dot": "ec9f4821f6e7e840a2b7044446a39a8f1cbf943da28a5ab0566dcbac01afc207",
        "acceptor.json": "32cb0698e747519bb151cba3a1a3e439c6884da5f328bd0970252d88826a8035",
        "gamma.dot": "60b0a9f8f6635c61230e191bf552cffe18311e3c751e704d43bc2237087caad8",
        "gamma.json": "b656e64cf0ca999eceb24a3c36a9894f03f5c422a2b8ef51bfa344ce7701716e",
        "subdivisions.dot": "04b041a8b4960e23bfff2688931e12010f665fa4c4cb0333e0e59cfaebd412f7",
        "subdivisions.json": "f2c3eee857623748cfea0163da98f5477d59c845e23e4d544e8f9a2619100c78",
        "xi.dot": "10b6975d00e93726b0afce83b338fdaf81fa7f1ab904907f546f83c63024c2dc",
        "xi.json": "6b5971df227394fc6b60113e156b3f78f1337c34223b7f61bb9416e9380e1a77",
        "report": "038735acd613fc0dccc19b2163314c6506aa87d4f47a7538d6f64a14ee38280c",
    }),
    "0.5": (2, {
        "acceptor.dot": "272a464d1778c451931827ad6543db9b90ae500032799abb44d6bee249d947a3",
        "acceptor.json": "448e59179abae5df0991c233e05eaedae33b9365d6cfcd5f7483e1771e970086",
        "gamma.dot": "60b0a9f8f6635c61230e191bf552cffe18311e3c751e704d43bc2237087caad8",
        "gamma.json": "b656e64cf0ca999eceb24a3c36a9894f03f5c422a2b8ef51bfa344ce7701716e",
        "subdivisions.dot": "3509a241d736666eb0257cf9918b41b10daba05aa56c4cc61f568a0eec126ac1",
        "subdivisions.json": "5a680f6f9a69518c9dbd64270f2e5814741b928d781bdfb6de0ee8ef5a76bbd9",
        "xi.dot": "56a3449d03da9ab0e35f5061a5ad5732de1689ca07ac0af45307d9fffd85dbb0",
        "xi.json": "4be42cad8f4938958b1b01d0b0a9645109a040bf1479c5e3c10d0a503e34c4b7",
        "report": "a45d973deeb3e277b69c622e485ae68942e8dfcb2f9d9c8e99ff71210e8e66df",
    }),
}


@pytest.mark.parametrize("delta", sorted(LABELED_DIGESTS))
def test_labeled_surface_exports_are_pinned(delta, tmp_path):
    code, digests = LABELED_DIGESTS[delta]
    argv = ["run", "--preset", "surface2", "--radius", "5", "--delta", delta]
    assert main(argv + ["--out", str(tmp_path), "--export", "dot,json"]) == code
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    report = json.loads((tmp_path / "report.json").read_text())
    del report["timings"]
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    got["report"] = hashlib.sha256(text.encode()).hexdigest()
    del got["report.json"]
    assert got == digests
