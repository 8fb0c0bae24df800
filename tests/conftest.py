import numpy as np
import pytest

from zollab import make_example
from zollab.catalog import catalog_names
from zollab.engine import first_return_map, sample_boundary
from zollab.verifier import Tolerances

# session-wide sweeps, shared across test modules to keep the suite fast
_SWEEP_SETTINGS = {
    "flat_disk": ("flat_disk", {}, 64),
    "flat_band": ("flat_band", {}, 64),
    "flat_moebius": ("flat_moebius", {}, 64),
    "spherical_cap": ("spherical_cap", {}, 64),
    "spherical_band": ("spherical_band", {}, 64),
    "euclidean_ball3": ("euclidean_ball", {"n": 3}, 64),
    "solid_torus": ("solid_torus", {"rotation": 2 * np.pi / 5}, 256),
    "ellipse": ("ellipse", {}, 64),
}


@pytest.fixture(scope="session")
def specs():
    return {key: make_example(name, **params)
            for key, (name, params, _) in _SWEEP_SETTINGS.items()}


@pytest.fixture(scope="session")
def sweeps(specs):
    tol = Tolerances()
    out = {}
    for key, (_, _, n_launches) in _SWEEP_SETTINGS.items():
        spec = specs[key]
        launches = sample_boundary(spec, n_launches, seed=0)
        out[key] = first_return_map(spec, launches, rtol=tol.rtol, atol=tol.atol)
    return out


@pytest.fixture(scope="session")
def catalog_sweeps():
    """Every catalog example at its default parameters and its 64-launch sweep."""
    out = {}
    for name in catalog_names():
        spec = make_example(name)
        out[name] = spec, first_return_map(spec, sample_boundary(spec, 64))
    return out


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
