import sys

import numpy as np
import pytest

from gmi.increments import GMIncrementSpec
from gmi.spectra import DensityGrid, DensityModel, FrequencyGrid, _chi_beta


@pytest.fixture(scope="session")
def grid1k():
    return FrequencyGrid(1024)


@pytest.fixture(scope="session")
def grid2k():
    return FrequencyGrid(2048)


@pytest.fixture(scope="session")
def grid4k():
    return FrequencyGrid(4096)


def rational_density(grid, numerator, denominator, scale=1.0):
    model = DensityModel("rational", {"numerator": numerator,
                                      "denominator": denominator, "scale": scale})
    return model.evaluate(grid)


def constant_density(grid, value):
    return DensityGrid.constant(grid, np.atleast_2d(value))


def pchi_one_density(spec: GMIncrementSpec, grid) -> DensityGrid:
    """Signal density making the observed differenced sequence white."""
    chi, beta = _chi_beta(spec.s, spec.mu, spec.d, grid.nodes)
    return DensityGrid.from_scalar_samples(grid, np.abs(beta) ** 2 / np.abs(chi) ** 2)


def matrix_ma_density(grid, coefficients):
    return DensityModel("matrix_ma", {"coefficients": coefficients}).evaluate(grid)


def count_calls(monkeypatch, owner, name: str) -> list:
    """Record each call of owner.name, patched in every loaded gmi module that holds it
    (on the class itself when owner is a class, for a method)."""
    original = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    if isinstance(owner, type):
        monkeypatch.setattr(owner, name, counted)
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "gmi" and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, counted)
    return calls
