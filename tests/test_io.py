import importlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from brute import canonical_json_loop
from conftest import count_calls
from gmi import io
from gmi.cli import main
from gmi.errors import ValidationError
from gmi._floatfmt import format_blocks
from gmi.io import (
    _format_float,
    canonical_json,
    write_characteristic_csv,
    write_convergence_csv,
    write_density_csv,
)
from gmi.spectra import DensityGrid, FrequencyGrid

ROOT = Path(__file__).resolve().parents[1]


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


def column_bytes(values) -> bytes:
    """The kernel's bytes of a column of values, one per line."""
    values = np.asarray(values, dtype=float).reshape(-1, 1)
    return b"".join(format_blocks(values, np.array([[ord("\n")]], np.uint8)))


def column_loop(values) -> bytes:
    values = np.asarray(values, dtype=float).tolist()
    return "".join(_format_float(v) + "\n" for v in values).encode()


def fallbacks(monkeypatch, values) -> np.ndarray:
    """The values the kernel hands to ``_format_float``, after checking its bytes."""
    seen = []
    original = io._format_float
    monkeypatch.setattr(io, "_format_float", lambda x: seen.append(x) or original(x))
    got = column_bytes(values)
    monkeypatch.setattr(io, "_format_float", original)
    assert got == column_loop(values)
    return np.array(seen)


def powers_of_ten(values) -> np.ndarray:
    exact = {float(10 ** k) for k in range(23)}
    return np.array([abs(v) in exact for v in np.asarray(values).tolist()], dtype=bool)


def ties(values) -> np.ndarray:
    """Values exactly halfway between two 17-digit decimals."""
    def tie(x):
        x = abs(x)
        # x = n / 2^j needs j decimals, which 18 digits from 10^k down cannot hold
        if x == 0 or x.as_integer_ratio()[1].bit_length() - 1 > 19 - math.floor(math.log10(x)):
            return False
        digits = "".join(map(str, Decimal(x).as_tuple().digits)).rstrip("0")
        return len(digits) == 18 and digits.endswith("5")
    return np.array([tie(v) for v in np.asarray(values).tolist()], dtype=bool)


def special_cases(values) -> np.ndarray:
    """Subnormals and |x| > 1e290, which the kernel leaves to ``_format_float``."""
    mag = np.abs(values)
    return (mag < np.finfo(float).tiny) & (mag > 0) | (mag > 1e290)


def assert_fallbacks(odd, values):
    """Exactly the special cases and the ties fall back, and maybe exact powers of ten."""
    must = special_cases(values) | ties(values)
    assert np.all(special_cases(odd) | ties(odd) | powers_of_ten(odd))
    assert np.count_nonzero(special_cases(odd) | ties(odd)) == np.count_nonzero(must)


class TestKernel:
    def test_every_binary_exponent(self, monkeypatch):
        rng = np.random.default_rng(0)
        exponents = np.arange(-1074, 1024)
        mantissas = np.concatenate([[1.0, 1.5, 2.0 - 2.0 ** -52], 1.0 + rng.random(4)])
        values = np.ldexp(mantissas[None, :], exponents[:, None]).reshape(-1)
        values = np.concatenate([values, -values])
        assert np.count_nonzero(ties(values)) > 0
        assert_fallbacks(fallbacks(monkeypatch, values), values)

    def test_notation_switch_points(self, monkeypatch):
        steps = np.arange(-64, 65)
        values = np.concatenate([
            b + steps * np.spacing(b) for b in (1e-5, 1e-4, 1e16, 1e17, 1e-264, 1e-265, 1e290)])
        values = np.concatenate([values, -values])
        assert_fallbacks(fallbacks(monkeypatch, values), values)
        text = column_bytes([1e-5, 1e-4, 1e16, 1e17, 12345678901234567.0, 0.00012]).decode()
        assert text.split() == ["1.0000000000000001e-05", "0.0001", "10000000000000000",
                                "1e+17", "12345678901234568", "0.00012"]

    def test_neighbours_of_every_power_of_ten(self, monkeypatch):
        # log10 puts some of these on the wrong side of k: the exponent
        # correction must place them, not the fallback
        powers = np.array([float(f"1e{k}") for k in range(-307, 291)])
        steps = np.arange(-3, 4)
        values = (powers[:, None] + steps * np.spacing(powers)[:, None]).reshape(-1)
        assert_fallbacks(fallbacks(monkeypatch, values), values)

    def test_carries(self, monkeypatch):
        values = [float(f"{m}e{e}") for e in range(-307, 291)
                  for m in ("9.99999999999999999", "9.9999999999999995", "9.9999999999999999",
                            "1.00000000000000001", "0.99999999999999999")]
        values = np.array(values + [9.99999999999999999e-5, 99999999999999999.0])
        assert_fallbacks(fallbacks(monkeypatch, values), values)
        assert column_bytes([99999999999999999.0, 9.99999999999999999e-5]).split() == [
            b"1e+17", b"0.0001"]

    def test_every_layout(self):
        values = layout_values()
        # no double has a one-digit %.17g at k = -5 or -6: each d 10^k is
        # farther than half a unit of the 17th digit from its nearest double
        assert set(map(decimal_layout, values)) == {
            (k, m) for k in range(-6, 19) for m in range(1, 18)} - {(-6, 1), (-5, 1)}
        values = np.concatenate([values, -values])
        assert column_bytes(values) == column_loop(values)
        doc = {str(len(shape)): values.reshape(shape)
               for shape in [(850,), (50, 17), (2, 25, 17), (2, 5, 5, 17)]}
        assert canonical_json(doc) == canonical_json_loop(doc)

    def test_exact_ties_take_the_fallback(self, monkeypatch):
        rng = np.random.default_rng(1)
        # n + 1/4 and n + 3/4 with 16 integer digits: 18 digits ending in 5
        whole = rng.integers(10 ** 15, 2 ** 51 - 1, size=500).astype(float)
        values = np.concatenate([whole + 0.25, whole + 0.75, [1234567890123456.75]])
        assert np.all(ties(values))
        assert len(fallbacks(monkeypatch, values)) == len(values)
        assert column_bytes([1234567890123456.75]) == b"1234567890123456.8\n"

    def test_zeros_subnormals_and_extremes(self, monkeypatch):
        tiny = np.finfo(float).tiny
        values = np.array([0.0, -0.0, 5e-324, -5e-324, tiny, -tiny, np.nextafter(tiny, 0),
                           2.5e-320, 1.7976931348623157e308, -1.7976931348623157e308,
                           1e290, np.nextafter(1e290, np.inf)])
        assert_fallbacks(fallbacks(monkeypatch, values), values)
        assert column_bytes([-0.0, 0.0]) == b"0\n0\n"

    def test_a_million_random_doubles(self, monkeypatch):
        rng = np.random.default_rng(2)
        values = rng.integers(0, 2 ** 64, size=10 ** 6, dtype=np.uint64).view(np.float64)
        values = values[np.isfinite(values)]
        odd = fallbacks(monkeypatch, values)
        assert np.all(special_cases(odd) | ties(odd) | powers_of_ten(odd))
        assert np.count_nonzero(special_cases(odd)) == np.count_nonzero(special_cases(values))

    @staticmethod
    def characteristic_table() -> np.ndarray:
        """A characteristic table at grid 2^17: nodes and one Re/Im pair."""
        rng = np.random.default_rng(3)
        h = rng.standard_normal((2 ** 17, 2)) * 10.0 ** rng.integers(-8, 3, (2 ** 17, 2))
        return np.column_stack([FrequencyGrid(2 ** 17).nodes, h])

    def test_peak_memory_stays_near_the_output(self):
        table = self.characteristic_table()
        tails = np.array([[ord(",")], [ord(",")], [ord("\n")]], np.uint8)
        tracemalloc.start()
        try:
            size = len(b"".join(format_blocks(table, tails)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * size

    def test_csv_writer_holds_about_one_block(self, tmp_path):
        # the table streams to the file: its bytes are never held all at once
        table = self.characteristic_table()
        tracemalloc.start()
        try:
            io._write_table(tmp_path / "h.csv", ["lambda", "h0_re", "h0_im"], table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.8 * (tmp_path / "h.csv").stat().st_size

    def test_classical_large_tables_take_no_fallback(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        workloads = importlib.import_module("workloads")
        ops = workloads.ClassicalLarge(ROOT, 107, False)._build(shrink=0)
        monkeypatch.setattr(io, "write_json", lambda path, obj: None)
        calls = count_calls(monkeypatch, io, "_format_float")
        for k, op in enumerate(ops):
            (tmp_path / str(k)).mkdir()
            op.run(tmp_path / str(k))
            assert (tmp_path / str(k) / "spectral_characteristic.csv").stat().st_size > 0
        assert len(ops) == 6
        assert calls == []


def decimal_layout(x: float) -> tuple[int, int]:
    """(k, m): the decimal exponent of x and its significant digits in %.17g."""
    mantissa, exponent = f"{x:.16e}".split("e")
    return int(exponent), len(mantissa.strip("-").replace(".", "").rstrip("0"))


def layout_values() -> np.ndarray:
    """For each decimal exponent k in -6..18 and each count m of significant
    digits in 1..17, the double nearest D 10^(k-16), D having m significant
    digits, for the first of 400 seeded D whose double shows exactly (k, m)."""
    rng = np.random.default_rng(19)
    values = []
    for k in range(-6, 19):
        for m in range(1, 18):
            for _ in range(400):
                body = rng.integers(0, 10, max(m - 2, 0)).tolist()
                digits = [rng.integers(1, 10), *body, rng.integers(1, 10)][:m]
                x = float(f"{''.join(map(str, digits))}e{k - m + 1}")
                if decimal_layout(x) == (k, m):
                    break
            values.append(x)
    return np.array(values)


def doc_values(rng, shape):
    """Random values of many magnitudes with the awkward cases first."""
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, size=shape)
    flat = values.reshape(-1)
    flat[: len(SPECIAL)] = SPECIAL[: flat.size]
    return values


class TestJson:
    @pytest.mark.parametrize("shape", [(1,), (1, 1), (12,), (6, 2), (4, 3, 2), (2, 3, 2, 2)])
    def test_arrays_match_the_loop(self, shape):
        rng = np.random.default_rng(len(shape) * 10 + shape[0])
        real = doc_values(rng, shape)
        doc = {"real": real, "complex": real + 1j * doc_values(rng, shape),
               "single": rng.standard_normal(shape).astype(np.float32),
               "nested": [real, {"x": -0.0}],
               "empty": np.zeros((0, 2)), "empty_rows": np.zeros((2, 0)),
               "ints": np.arange(3), "flags": np.array([True, False])}
        assert canonical_json(doc) == canonical_json_loop(doc)

    @pytest.mark.parametrize("value, text", [(1.5, "1.5"), (2 + 1j, "[2,1]"), (3, "3")])
    def test_zero_dimensional_array_is_its_scalar(self, value, text):
        doc = {"x": np.array(value), "nested": [np.array(value)]}
        assert canonical_json(doc) == f'{{"nested":[{text}],"x":{text}}}'
        assert canonical_json_loop(doc) == canonical_json(doc)

    def test_non_finite_array_rejected(self):
        with pytest.raises(ValidationError, match="non-finite"):
            canonical_json({"x": np.array([[1.0, 2.0], [math.nan, 0.0]])})

    @pytest.mark.parametrize("command, config", [
        ("interpolate", "interpolate"), ("interpolate", "periodic"),
        ("oracle-verify", "periodic"), ("minimax", "minimax")])
    def test_cli_documents_match_the_loop(self, tmp_path, monkeypatch, command, config):
        written = []
        original = io.write_json

        def recorded(path, obj):
            written.append((path, obj))
            original(path, obj)

        monkeypatch.setattr(io, "write_json", recorded)
        assert main([command, "--config", str(ROOT / "configs" / f"{config}.json"),
                     "--output-dir", str(tmp_path), "--quiet"]) == 0
        assert written
        for path, obj in written:
            assert Path(path).read_text() == canonical_json_loop(obj) + "\n"
            json.loads(Path(path).read_text())


class TestConvergenceCsv:
    def test_bytes_match_per_value_formatting(self, tmp_path):
        rows = [(1, 1.25), (5, 1.0000000001), (200, 0.99999999999999989), (400, 0.999999999)]
        delta = 0.999999999
        write_convergence_csv(tmp_path / "c.csv", rows, delta)
        lines = ["L,delta_L,relative_gap"] + [
            ",".join([str(L), _format_float(dL), _format_float((dL - delta) / delta)])
            for L, dL in rows]
        assert (tmp_path / "c.csv").read_text() == "\n".join(lines) + "\n"

    def test_no_rows(self, tmp_path):
        write_convergence_csv(tmp_path / "c.csv", [], 1.0)
        assert (tmp_path / "c.csv").read_text() == "L,delta_L,relative_gap\n"

    def test_zero_classical_error_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="non-finite"):
            write_convergence_csv(tmp_path / "c.csv", [(1, 0.5)], 0.0)

    def test_refused_table_leaves_no_file(self, tmp_path):
        with pytest.raises(ValidationError, match="non-finite"):
            write_convergence_csv(tmp_path / "c.csv", [(1, 0.5), (2, math.nan)], 0.5)
        assert not (tmp_path / "c.csv").exists()


def test_commands_without_float_arrays_never_load_the_kernel(tmp_path):
    config = ROOT / "configs" / "coeffs.json"
    code = ("import sys; from gmi.cli import main; "
            f"code = main(['coeffs', '--config', {str(config)!r}, "
            f"'--output-dir', {str(tmp_path)!r}, '--quiet']); "
            "print(code, 'gmi._floatfmt' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.split() == ["0", "False"]
