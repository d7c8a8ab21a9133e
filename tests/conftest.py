import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis.database import DirectoryBasedExampleDatabase

from nillab.config import standard_config

# "lab" (the default) draws the same examples on every run and stores none,
# so the suite is the same run twice; "hunt" (HYPOTHESIS_PROFILE=hunt) is a
# wider random search for local use, which keeps what fails in .hypothesis/
settings.register_profile(
    "lab", deadline=None, max_examples=200, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "hunt", settings.get_profile("lab"), max_examples=2000, derandomize=False,
    database=DirectoryBasedExampleDatabase(".hypothesis/examples"),
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "lab"))


@pytest.fixture(scope="session")
def std_cfg():
    return standard_config()


@pytest.fixture(scope="session")
def std_sys(std_cfg):
    return std_cfg.system()


@pytest.fixture(scope="session")
def std_js(std_cfg):
    return std_cfg.joining()


@pytest.fixture()
def rng():
    return np.random.default_rng(20260811)


@pytest.fixture()
def mesh_sizes(monkeypatch):
    """The sizes of the meshes ``np.linspace`` makes; it fails once a mesh
    outgrows the first, so a mesh that would double without end fails fast."""
    sizes = []
    linspace = np.linspace

    def spy(start, stop, num, **kwargs):
        sizes.append(num)
        assert num <= sizes[0], f"the mesh grew to {num} points"
        return linspace(start, stop, num, **kwargs)

    monkeypatch.setattr(np, "linspace", spy)
    return sizes
