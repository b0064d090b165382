import math

import numpy as np
import pytest

from gmi.errors import ValidationError
from gmi.io import _format_float, write_characteristic_csv, write_density_csv
from gmi.spectra import DensityGrid, FrequencyGrid


def characteristic_csv_loop(grid_nodes, h) -> bytes:
    """Per-value formatting, the reference for the row-template writer."""
    h = np.asarray(h, dtype=complex)
    header = ["lambda"]
    for p in range(h.shape[1]):
        header += [f"h{p}_re", f"h{p}_im"]
    lines = [",".join(header)]
    for j, lam in enumerate(grid_nodes):
        row = [_format_float(float(lam))]
        for p in range(h.shape[1]):
            row += [_format_float(float(h[j, p].real)), _format_float(float(h[j, p].imag))]
        lines.append(",".join(row))
    return ("\n".join(lines) + "\n").encode()


def density_csv_loop(density) -> bytes:
    dim = density.dim
    header = ["lambda"]
    for i in range(dim):
        for j in range(dim):
            header += [f"f{i}{j}_re", f"f{i}{j}_im"]
    lines = [",".join(header)]
    for k, lam in enumerate(density.grid.nodes):
        row = [_format_float(float(lam))]
        for i in range(dim):
            for j in range(dim):
                z = density.values[k, i, j]
                row += [_format_float(float(z.real)), _format_float(float(z.imag))]
        lines.append(",".join(row))
    return ("\n".join(lines) + "\n").encode()


SPECIAL = [-0.0, 0.0, 5e-324, -1e-300, 1e300, 1.0, -3.0, 0.1, 1 / 3, 123456789.0]


def awkward_values(rng, shape):
    """Random values of many magnitudes with signed zeros and denormals mixed in."""
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, size=shape)
    flat = values.reshape(-1)
    flat[: len(SPECIAL)] = SPECIAL
    return values


class TestCharacteristicCsv:
    @pytest.mark.parametrize("T", [1, 2])
    def test_bytes_match_per_value_formatting(self, tmp_path, T):
        grid = FrequencyGrid(1024)
        rng = np.random.default_rng(T)
        h = awkward_values(rng, (1024, T)) + 1j * awkward_values(rng, (1024, T))
        write_characteristic_csv(tmp_path / "h.csv", grid.nodes, h)
        assert (tmp_path / "h.csv").read_bytes() == characteristic_csv_loop(grid.nodes, h)

    def test_negative_zero_written_as_zero(self, tmp_path):
        h = np.array([[complex(-0.0, -0.0)], [complex(1.0, -0.0)]])
        write_characteristic_csv(tmp_path / "h.csv", np.array([-0.0, 0.5]), h)
        lines = (tmp_path / "h.csv").read_text().splitlines()
        assert lines[1:] == ["0,0,0", "0.5,1,0"]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, tmp_path, bad):
        h = np.zeros((3, 1), dtype=complex)
        h[1, 0] = complex(0.0, bad)
        with pytest.raises(ValidationError, match="non-finite"):
            write_characteristic_csv(tmp_path / "h.csv", np.arange(3.0), h)
        nodes = np.array([0.0, bad, 1.0])
        with pytest.raises(ValidationError, match="non-finite"):
            write_characteristic_csv(tmp_path / "h.csv", nodes, np.zeros((3, 1)))


class TestDensityCsv:
    @pytest.mark.parametrize("T", [1, 2])
    def test_bytes_match_per_value_formatting(self, tmp_path, T):
        grid = FrequencyGrid(1024)
        rng = np.random.default_rng(10 + T)
        values = awkward_values(rng, (1024, T, T)) + 1j * awkward_values(rng, (1024, T, T))
        density = DensityGrid(grid, values, validate=False)
        write_density_csv(tmp_path / "f.csv", density)
        assert (tmp_path / "f.csv").read_bytes() == density_csv_loop(density)
