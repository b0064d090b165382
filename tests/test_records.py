"""The records of gmi are plain classes: each keeps the constructor calls, defaults,
checks, messages and normalisations of the dataclass it replaced."""

import numpy as np
import pytest

from gmi.classical import (
    FourierBlocks,
    FunctionalSpec,
    InterpolationSolution,
    PeriodicFunctionalSpec,
    SystemSolution,
    lift_periodic,
)
from gmi.errors import DegenerateOperatorError, ValidationError
from gmi.increments import FMIncrementSpec, GMIncrementSpec, SeasonalFactor
from gmi.minimax import DensityClassSpec, FClassSpec, GClassSpec, MinimaxOptions
from gmi.oracle import GramSystem, ObservationWindow
from gmi.spectra import DensityModel, FrequencyGrid, MinimalityReport

#: (construction, error class, exact message) of every check a record's constructor makes
CHECKS = [
    (lambda: GMIncrementSpec((12,), (1,), ()), ValidationError,
     "s, mu, d must be non-empty tuples of equal length"),
    (lambda: GMIncrementSpec((), (), ()), ValidationError,
     "s, mu, d must be non-empty tuples of equal length"),
    (lambda: GMIncrementSpec((0,), (1,), (1,)), ValidationError, "seasonal periods must be >= 1"),
    (lambda: GMIncrementSpec((1,), (-1,), (1,)), ValidationError,
     "steps must be positive; negative steps are not supported"),
    (lambda: GMIncrementSpec((1,), (1,), (-1,)), ValidationError,
     "differencing orders must be non-negative"),
    (lambda: GMIncrementSpec((1, 2), (1, 1), (0, 0)), DegenerateOperatorError,
     "all differencing orders are zero"),
    (lambda: SeasonalFactor(1, 0, 0.1), ValidationError, "seasonal factor periods must be > 1"),
    (lambda: SeasonalFactor(4, -1, 0.1), ValidationError, "integer order R must be non-negative"),
    (lambda: FMIncrementSpec(0, 0.1, [(1, 0, 0.1)]), ValidationError,
     "seasonal factor periods must be > 1"),
    (lambda: FMIncrementSpec(-1, 0.1, ()), ValidationError, "R0 must be non-negative"),
    (lambda: FMIncrementSpec(0, 0.1, [(4, 0, 0.1), (4, 0, 0.1)]), ValidationError,
     "seasonal periods must be strictly increasing"),
    (lambda: FunctionalSpec(-1, np.zeros((0, 1))), ValidationError,
     "weight list must have N+1 entries"),
    (lambda: FunctionalSpec(2, [[1.0], [0.5]]), ValidationError,
     "weight list must have N+1 entries"),
    (lambda: PeriodicFunctionalSpec(-1, 2, []), ValidationError, "require M >= 0 and T >= 1"),
    (lambda: PeriodicFunctionalSpec(1, 0, [1.0, 2.0]), ValidationError,
     "require M >= 0 and T >= 1"),
    (lambda: PeriodicFunctionalSpec(2, 2, [1.0, 2.0]), ValidationError,
     "scalar weights must have M+1 entries"),
    (lambda: FrequencyGrid(512), ValidationError, "grid size must be a power of two >= 1024"),
    (lambda: FrequencyGrid(3000), ValidationError, "grid size must be a power of two >= 1024"),
    (lambda: ObservationWindow(-1), ValidationError, "window half-length must be >= 0"),
    (lambda: FClassSpec("D9"), ValidationError, "unknown f-class 'D9'"),
    (lambda: GClassSpec("D9", {}), ValidationError, "unknown g-class 'D9'"),
    (lambda: FClassSpec("D0_2"), ValidationError, "f-class D0_2 requires parameter(s) p"),
    (lambda: GClassSpec("Deps_1", {"eps": 0.2}), ValidationError,
     "g-class Deps_1 requires parameter(s) g1, q"),
]


@pytest.mark.parametrize("build, error, message", CHECKS)
def test_each_check_raises_its_message(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert type(raised.value) is error and str(raised.value) == message


def fields(obj):
    """A record as nested plain values: its class name and attributes, arrays by value."""
    if isinstance(obj, np.ndarray):
        return "array", obj.dtype.str, obj.shape, obj.tolist()
    if isinstance(obj, dict):
        return "dict", {key: fields(value) for key, value in obj.items()}
    if isinstance(obj, (tuple, list)):
        return type(obj).__name__, [fields(value) for value in obj]
    if type(obj).__module__.startswith("gmi."):
        return type(obj).__name__, fields(vars(obj))
    return type(obj).__name__, obj


A = np.array([[1.0], [0.5], [0.25]])

#: (name, the same record built by keyword and by position or normalised input, its
#: attributes); the first form is the one perfbench/workloads.py, scripts/ or README use
CONSTRUCTIONS = [
    ("GMIncrementSpec", [GMIncrementSpec(s=(12,), mu=(1,), d=(1,)),
                         GMIncrementSpec((12,), (1,), (1,)),
                         GMIncrementSpec([12.0], [True], np.array([1]))],
     {"s": (12,), "mu": (1,), "d": (1,)}),
    ("FMIncrementSpec", [FMIncrementSpec(R0=1, D0=0.2, factors=(SeasonalFactor(12, 0, 0.1),)),
                         FMIncrementSpec(1, 0.2, [(12, 0, 0.1)])],
     {"R0": 1, "D0": 0.2, "factors": (SeasonalFactor(12, 0, 0.1),)}),
    ("FrequencyGrid", [FrequencyGrid(8192), FrequencyGrid(n_grid=8192)], {"n_grid": 8192}),
    ("DensityModel", [DensityModel("constant", {"matrix": [[1.0]]}),
                      DensityModel(kind="constant", params={"matrix": [[1.0]]})],
     {"kind": "constant", "params": {"matrix": [[1.0]]}}),
    ("DensityModel zero", [DensityModel("zero"), DensityModel("zero", {})],
     {"kind": "zero", "params": {}}),
    ("FunctionalSpec", [FunctionalSpec(N=2, a=A), FunctionalSpec(2, [[1], [0.5], [0.25]])],
     {"N": 2, "a": A}),
    ("lift_periodic", [lift_periodic(PeriodicFunctionalSpec(M=2, T=2, a_scalar=[1.0, 0.5, 0.25])),
                       lift_periodic(PeriodicFunctionalSpec(2, 2, np.array([[1.0, 0.5, 0.25]])))],
     {"N": 1, "a": np.array([[1.0, 0.5], [0.25, 0.0]])}),
    ("MinimaxOptions", [MinimaxOptions(saddle_samples=100, seed=3),
                        MinimaxOptions(1e-7, 500, 100, 3)],
     {"tol": 1e-7, "max_iter": 500, "saddle_samples": 100, "seed": 3}),
    ("MinimaxOptions defaults", [MinimaxOptions()],
     {"tol": 1e-7, "max_iter": 500, "saddle_samples": 50, "seed": 0}),
    ("DensityClassSpec", [DensityClassSpec(FClassSpec("D0_2", {"p": 1.5}), GClassSpec("zero")),
                          DensityClassSpec(f=FClassSpec(kind="D0_2", params={"p": 1.5}),
                                           g=GClassSpec("zero", {}))],
     {"f": FClassSpec("D0_2", {"p": 1.5}), "g": GClassSpec("zero")}),
    ("ObservationWindow", [ObservationWindow(3), ObservationWindow(L=3)], {"L": 3}),
    ("GramSystem", [GramSystem(gram=A, cross=A[:, 0], target_var=2.0, indices=A),
                    GramSystem(A, A[:, 0], 2.0, A, None, None)],
     {"gram": A, "cross": A[:, 0], "target_var": 2.0, "indices": A, "eig_floor": None,
      "bordered": None}),
    ("MinimalityReport", [MinimalityReport(value=1.0, refined_value=1.01, is_minimal=True),
                          MinimalityReport(1.0, 1.01, True)],
     {"value": 1.0, "refined_value": 1.01, "is_minimal": True}),
    ("SystemSolution", [SystemSolution(c=A, rhs=A, condition_number=3.0, residual=0.0),
                        SystemSolution(A, A, 3.0, 0.0)],
     {"c": A, "rhs": A, "condition_number": 3.0, "residual": 0.0}),
    ("FourierBlocks", [FourierBlocks(P=A, T=A, Q=A, p=None, p_inv=A),
                       FourierBlocks(A, A, A, None, A)],
     {"P": A, "T": A, "Q": A, "p": None, "p_inv": A}),
]


@pytest.mark.parametrize("name, built, expected", CONSTRUCTIONS,
                         ids=[name for name, _, _ in CONSTRUCTIONS])
def test_every_construction_builds_equal_records(name, built, expected):
    for record in built:
        assert fields(record) == (type(built[0]).__name__, fields(expected))


def test_each_record_gets_a_fresh_params_dict():
    for make in (lambda: DensityModel("zero"), lambda: GClassSpec("zero")):
        first, second = make(), make()
        first.params["dim"] = 2
        assert second.params == {} and first.params is not second.params


def test_interpolation_solution_grid_defaults_to_none():
    args = [GMIncrementSpec((1,), (1,), (1,)), FunctionalSpec(0, [[1.0]])] + [A] * 3 + [
        1.0, 1.0] + [A] * 2 + [1.0, 0.0, MinimalityReport(1.0, 1.0, True)]
    assert InterpolationSolution(*args).grid is None
    grid = FrequencyGrid(1024)
    assert InterpolationSolution(*args, grid=grid).grid is grid


def test_minimality_reports_compare_by_value():
    assert MinimalityReport(1.0, 1.5, False) == MinimalityReport(1.0, 1.5, False)
    assert MinimalityReport(1.0, 1.5, False) != MinimalityReport(1.0, 1.5, True)
