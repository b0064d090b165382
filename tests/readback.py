"""Parse emitted JSON documents back into arrays, for the round-trip tests."""

import numpy as np

from gmi.classical import FunctionalSpec
from gmi.errors import ValidationError
from gmi.io import increment_from_dict


def parse_complex_array(data) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def solution_from_dict(data: dict) -> dict:
    """Re-parse an emitted solution into its value objects."""
    if data.get("kind") != "interpolation_solution":
        raise ValidationError("not an interpolation solution document")
    return {
        "increment": increment_from_dict(data["increment"]),
        "functional": FunctionalSpec(
            N=int(data["functional"]["N"]), a=np.asarray(data["functional"]["a"])),
        "c": parse_complex_array(data["c"]),
        "v": np.asarray(data["v"], dtype=float),
        "b": np.asarray(data["b"], dtype=float),
        "a_mu": np.asarray(data["a_mu"], dtype=float),
        "delta": float(data["delta"]),
        "delta_spectral": float(data["mse_routes"]["spectral"]),
        "condition_number": float(data["condition_number"]),
    }


def minimax_result_from_dict(data: dict) -> dict:
    """Re-parse an emitted minimax document into arrays and reports."""
    if data.get("kind") != "minimax_result":
        raise ValidationError("not a minimax result document")
    return {
        "delta0": float(data["delta0"]),
        "converged": bool(data["converged"]),
        "f0": parse_complex_array(data["f0"]),
        "g0": parse_complex_array(data["g0"]),
        "h0": parse_complex_array(data["h0"]),
        "multipliers": data["multipliers"],
        "residual_report": data["residual_report"],
        "saddle_report": data["saddle_report"],
        "trace": data["trace"],
    }
