import pytest

from subforge.ball import enumerate_ball
from subforge.pipeline import RunConfig, run_pipeline
from subforge.presentation import preset

from reference import ODD_RELATOR


@pytest.fixture(scope="session")
def f2_ball():
    return enumerate_ball(preset("f2"), 6)


@pytest.fixture(scope="session")
def z_ball():
    return enumerate_ball(preset("z"), 8)


@pytest.fixture(scope="session")
def surface_ball():
    return enumerate_ball(preset("surface2"), 5)


@pytest.fixture(scope="session")
def surface4_ball():
    return enumerate_ball(preset("surface2"), 4)


@pytest.fixture(scope="session")
def surface_small_ball():
    return enumerate_ball(preset("surface2"), 3)


@pytest.fixture(scope="session")
def f2_run():
    return run_pipeline(RunConfig(preset="f2", radius=6))


@pytest.fixture(scope="session")
def f2_r5_run():
    return run_pipeline(RunConfig(preset="f2", radius=5))


@pytest.fixture(scope="session")
def z_run():
    return run_pipeline(RunConfig(preset="z", radius=8))


@pytest.fixture(scope="session")
def surface_run():
    return run_pipeline(RunConfig(preset="surface2", radius=5))


@pytest.fixture(scope="session")
def surface_labeled_run():
    # an undersized-but-adequate delta override gives the surface group a
    # non-vacuous trusted region (K=3, n_max=1) with real horizontal edges
    return run_pipeline(RunConfig(preset="surface2", radius=5, delta_override=1.0))


@pytest.fixture(scope="session")
def odd_r4_run(tmp_path_factory):
    path = tmp_path_factory.mktemp("odd") / "odd.txt"
    path.write_text(f"gens: a A b B\nrelators: {ODD_RELATOR}\n")
    return run_pipeline(RunConfig(file=str(path), radius=4))
