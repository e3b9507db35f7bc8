"""The streamed exports against the writers that built each file whole
(``reference.reference_export``): every kind in every format, byte for
byte."""

import dataclasses
import hashlib
import json

import pytest
from reference import ODD_RELATOR, reference_export

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


# sha256 of every export of surface2 at delta overrides, keyed by radius
# and delta.  R=5 gives the only small configs with horizontal edges: 8
# edges at delta 1.0, and at 0.5 56 edges in 8 edge-subdivision classes
# (the cone lemma fails there, exit 2).  At R=6 and delta 1.0 the trusted
# levels hold 56 edges and QI searches both graphs over rows.  "report" is
# report.json less its timings, re-dumped as the exports are.
LABELED_DIGESTS = {
    (5, "1.0"): (0, {
        "acceptor.dot": "ec9f4821f6e7e840a2b7044446a39a8f1cbf943da28a5ab0566dcbac01afc207",
        "acceptor.json": "32cb0698e747519bb151cba3a1a3e439c6884da5f328bd0970252d88826a8035",
        "gamma.dot": "60b0a9f8f6635c61230e191bf552cffe18311e3c751e704d43bc2237087caad8",
        "gamma.json": "b656e64cf0ca999eceb24a3c36a9894f03f5c422a2b8ef51bfa344ce7701716e",
        "subdivisions.dot": "04b041a8b4960e23bfff2688931e12010f665fa4c4cb0333e0e59cfaebd412f7",
        "subdivisions.json": "f2c3eee857623748cfea0163da98f5477d59c845e23e4d544e8f9a2619100c78",
        "xi.dot": "10b6975d00e93726b0afce83b338fdaf81fa7f1ab904907f546f83c63024c2dc",
        "xi.json": "6b5971df227394fc6b60113e156b3f78f1337c34223b7f61bb9416e9380e1a77",
        "report": "456bdf298a3940ddd52aa9c594e63ed5f4ca7981aff0778943705f2d8f425baf",
    }),
    (5, "0.5"): (2, {
        "acceptor.dot": "272a464d1778c451931827ad6543db9b90ae500032799abb44d6bee249d947a3",
        "acceptor.json": "448e59179abae5df0991c233e05eaedae33b9365d6cfcd5f7483e1771e970086",
        "gamma.dot": "60b0a9f8f6635c61230e191bf552cffe18311e3c751e704d43bc2237087caad8",
        "gamma.json": "b656e64cf0ca999eceb24a3c36a9894f03f5c422a2b8ef51bfa344ce7701716e",
        "subdivisions.dot": "3509a241d736666eb0257cf9918b41b10daba05aa56c4cc61f568a0eec126ac1",
        "subdivisions.json": "5a680f6f9a69518c9dbd64270f2e5814741b928d781bdfb6de0ee8ef5a76bbd9",
        "xi.dot": "56a3449d03da9ab0e35f5061a5ad5732de1689ca07ac0af45307d9fffd85dbb0",
        "xi.json": "4be42cad8f4938958b1b01d0b0a9645109a040bf1479c5e3c10d0a503e34c4b7",
        "report": "1b3125de28dd75963ab1af8cf5e4ddab509e7042b97671031020cd286f2e441e",
    }),
    (6, "1.0"): (0, {
        "acceptor.dot": "e78637c059eba6e3a960f34f15ba536497f3abb3bf626bf6c142a28afea8a385",
        "acceptor.json": "2381c03604adb492a8ab881854574925ddd52e51b0e99c7be8295fb183a5c119",
        "gamma.dot": "a4c84da5db9e570568ee549d0b071fd66d3ec377252f32a8017e2f7257703938",
        "gamma.json": "92f5676728690fb57a6e41a29c87fb6d56d406cc6fc121e6107c45bfb111caf4",
        "subdivisions.dot": "3509a241d736666eb0257cf9918b41b10daba05aa56c4cc61f568a0eec126ac1",
        "subdivisions.json": "5a680f6f9a69518c9dbd64270f2e5814741b928d781bdfb6de0ee8ef5a76bbd9",
        "xi.dot": "c472dac18c2743e888972d37bf0ab55f7efbba1487a3d97d21d7223b4c70c002",
        "xi.json": "0fca2509476d57879ec191a20c1a9218bdd87e81b05201952cdd2f3f823dc874",
        "report": "8c1312cd57ab92072efcce6531f6856a6b2dcf90e47fb5933fd7488406b60838",
    }),
}


# ids: the delta alone at R=5, radius and delta otherwise
@pytest.mark.parametrize(
    "radius, delta", sorted(LABELED_DIGESTS), ids=[d if r == 5 else f"r{r}-{d}" for r, d in sorted(LABELED_DIGESTS)]
)
def test_labeled_surface_exports_are_pinned(radius, delta, tmp_path):
    code, digests = LABELED_DIGESTS[radius, delta]
    argv = ["run", "--preset", "surface2", "--radius", str(radius), "--delta", delta]
    assert main(argv + ["--out", str(tmp_path), "--export", "dot,json"]) == code
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    report = json.loads((tmp_path / "report.json").read_text())
    del report["timings"]
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    got["report"] = hashlib.sha256(text.encode()).hexdigest()
    del got["report.json"]
    assert got == digests
