import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute import (bisect_decreasing_loop, budget_weight, mse_functional, shift_clip_stable,
                   two_atom_search)
from conftest import constant_density, count_calls, matrix_ma_density, rational_density
from gmi.classical import FunctionalSpec, solve_interpolation
from gmi import minimax
from gmi.errors import ValidationError
from gmi.increments import GMIncrementSpec
from gmi.minimax import (
    DensityClassSpec,
    FClassSpec,
    GClassSpec,
    MinimaxOptions,
    feasibility_report,
    feasible_start,
    _bisect_decreasing,
    _Problem,
    _shift_clip,
    _waterfill_traces,
    saddle_check,
    solve_minimax,
)
from gmi.spectra import DensityGrid, FrequencyGrid

SPEC11 = GMIncrementSpec((1,), (1,), (1,))
FAST = MinimaxOptions(saddle_samples=0)
GRID1K = FrequencyGrid(1024)


def feasible_pair(cls, grid, dim=1):
    """The run problem of cls for a one-step block of dimension dim, and its feasible start."""
    ctx = _Problem(cls, SPEC11, FunctionalSpec(N=0, a=np.ones((1, dim))), grid)
    return ctx, feasible_start(ctx)


@pytest.fixture(scope="module")
def budget_class():
    return DensityClassSpec(FClassSpec("D0_2", {"p": 1.5}), GClassSpec("zero"))


@pytest.fixture(scope="module")
def ball_box_class(grid2k):
    f1 = rational_density(grid2k, [1.0], [1.0, -0.4])
    V = constant_density(grid2k, 0.2)
    U = constant_density(grid2k, 0.6)
    return DensityClassSpec(
        FClassSpec("D1delta_2", {"f1": f1, "delta_k": [0.1]}),
        GClassSpec("DVU_2", {"V": V, "U": U, "q": 0.35}),
    )


class TestMseFunctional:
    def test_coincides_at_the_anchor_pair(self, grid2k):
        f0 = rational_density(grid2k, [1.0, 0.4], [1.0, -0.5])
        g0 = constant_density(grid2k, 0.5)
        fs = FunctionalSpec(N=1, a=np.array([[1.0], [0.7]]))
        sol = solve_interpolation(SPEC11, f0, g0, fs)
        val = mse_functional(f0, g0, f0, g0, fs, SPEC11)
        assert val == pytest.approx(sol.delta, rel=1e-8)

    def test_linearity_in_f(self, grid2k):
        f0 = rational_density(grid2k, [1.0, 0.4], [1.0, -0.5])
        g0 = constant_density(grid2k, 0.5)
        fs = FunctionalSpec(N=0, a=np.array([[1.0]]))
        fa = constant_density(grid2k, 0.7)
        fb = rational_density(grid2k, [1.0], [1.0, -0.3])
        fab = DensityGrid(grid2k, fa.values + fb.values)
        zero = DensityGrid.zero(grid2k, 1)
        v_ab = mse_functional(f0, g0, fab, g0, fs, SPEC11)
        v_a = mse_functional(f0, g0, fa, g0, fs, SPEC11)
        v_b = mse_functional(f0, g0, fb, zero, fs, SPEC11)
        assert v_ab == pytest.approx(v_a + v_b, abs=1e-10 * max(1.0, v_ab))

    def test_zero_noise_kills_second_integral(self, grid2k):
        f0 = rational_density(grid2k, [1.0, 0.4], [1.0, -0.5])
        zero = DensityGrid.zero(grid2k, 1)
        fs = FunctionalSpec(N=0, a=np.array([[1.0]]))
        f_other = constant_density(grid2k, 0.9)
        # with g == 0 the value must be reproduced by the signal integral alone
        val = mse_functional(f0, zero, f_other, zero, fs, SPEC11)
        sol = solve_interpolation(SPEC11, f0, zero, fs)
        from gmi.classical import Problem, mse_of_characteristic

        assert val == pytest.approx(
            mse_of_characteristic(Problem(SPEC11, fs, grid2k), f_other, zero, sol.h), rel=1e-12)


class TestClassSpec:
    # every parameter each kind reads, written out independently of the module
    F_REQUIRED = {"fixed": ["f1"], "D0_1": ["P"], "D0_2": ["p"], "D0_3": ["p_k"],
                  "D0_4": ["B1", "p"], "D1delta_1": ["f1", "delta"],
                  "D1delta_2": ["f1", "delta_k"], "D1delta_3": ["f1", "B1", "delta"],
                  "D1delta_4": ["f1", "delta_ij"]}
    G_REQUIRED = {"fixed": ["g1"], "Deps_1": ["eps", "g1", "q"],
                  "Deps_2": ["eps", "g1", "q_k"], "Deps_3": ["eps", "g1", "B2", "q"],
                  "Deps_4": ["eps", "g1", "Q"], "DVU_1": ["V", "U", "Q"],
                  "DVU_2": ["V", "U", "q"], "DVU_3": ["V", "U", "q_k"],
                  "DVU_4": ["V", "U", "B2", "q"]}

    @pytest.mark.parametrize("kind,key", [(k, key) for k, keys in F_REQUIRED.items()
                                          for key in keys])
    def test_f_class_missing_parameter(self, kind, key):
        params = {name: 1.0 for name in self.F_REQUIRED[kind] if name != key}
        with pytest.raises(ValidationError, match=key):
            FClassSpec(kind, params)
        FClassSpec(kind, dict(params, **{key: 1.0}))

    @pytest.mark.parametrize("kind,key", [(k, key) for k, keys in G_REQUIRED.items()
                                          for key in keys])
    def test_g_class_missing_parameter(self, kind, key):
        params = {name: 1.0 for name in self.G_REQUIRED[kind] if name != key}
        with pytest.raises(ValidationError, match=key):
            GClassSpec(kind, params)
        GClassSpec(kind, dict(params, **{key: 1.0}))

    def test_unknown_kinds(self):
        with pytest.raises(ValidationError):
            FClassSpec("D2_1", {})
        with pytest.raises(ValidationError):
            GClassSpec("DVU_5", {})
        GClassSpec("zero")


class TestFeasibleStart:
    @pytest.mark.parametrize("fkind,fparams", [
        ("D0_1", {"P": [[1.2]]}),
        ("D0_2", {"p": 1.2}),
        ("D0_3", {"p_k": [1.2]}),
        ("D0_4", {"B1": [[2.0]], "p": 1.2}),
    ])
    def test_budget_classes(self, grid2k, fkind, fparams):
        cls = DensityClassSpec(FClassSpec(fkind, fparams), GClassSpec("zero"))
        ctx, (f, g) = feasible_pair(cls, grid2k)
        assert feasibility_report(ctx, f.values, g.values)["max_residual"] <= 1e-8

    @pytest.mark.parametrize("gkind", ["Deps_1", "Deps_2", "Deps_3", "Deps_4",
                                       "DVU_1", "DVU_2", "DVU_3", "DVU_4"])
    def test_noise_classes(self, grid2k, gkind):
        f1 = rational_density(grid2k, [1.0], [1.0, -0.4])
        g1 = constant_density(grid2k, 0.4)
        V = constant_density(grid2k, 0.2)
        U = constant_density(grid2k, 0.6)
        params = {
            "Deps_1": {"g1": g1, "eps": 0.5, "q": 0.5},
            "Deps_2": {"g1": g1, "eps": 0.5, "q_k": [0.5]},
            "Deps_3": {"g1": g1, "eps": 0.5, "B2": [[1.0]], "q": 0.5},
            "Deps_4": {"g1": g1, "eps": 0.5, "Q": [[0.5]]},
            "DVU_1": {"V": V, "U": U, "Q": [[0.35]]},
            "DVU_2": {"V": V, "U": U, "q": 0.35},
            "DVU_3": {"V": V, "U": U, "q_k": [0.35]},
            "DVU_4": {"V": V, "U": U, "B2": [[1.0]], "q": 0.35},
        }[gkind]
        cls = DensityClassSpec(FClassSpec("fixed", {"f1": f1}), GClassSpec(gkind, params))
        ctx, (f, g) = feasible_pair(cls, grid2k)
        assert feasibility_report(ctx, f.values, g.values)["max_residual"] <= 1e-8

    def test_class_parameter_validation(self, grid2k):
        V = constant_density(grid2k, 0.6)
        U = constant_density(grid2k, 0.2)  # upside down box
        cls = DensityClassSpec(
            FClassSpec("fixed", {"f1": constant_density(grid2k, 1.0)}),
            GClassSpec("DVU_2", {"V": V, "U": U, "q": 0.4}),
        )
        with pytest.raises(ValidationError):
            feasible_pair(cls, grid2k)
        bad_eps = DensityClassSpec(
            FClassSpec("fixed", {"f1": constant_density(grid2k, 1.0)}),
            GClassSpec("Deps_1", {"g1": constant_density(grid2k, 0.4), "eps": 1.5, "q": 0.5}),
        )
        with pytest.raises(ValidationError):
            feasible_pair(bad_eps, grid2k)
        with pytest.raises(ValidationError):
            feasible_pair(DensityClassSpec(
                FClassSpec("D1delta_2", {"f1": constant_density(grid2k, 1.0),
                                         "delta_k": [-0.1]}),
                GClassSpec("zero")), grid2k)

    def test_infeasible_budget_below_floor(self, grid2k):
        g1 = constant_density(grid2k, 1.0)
        cls = DensityClassSpec(
            FClassSpec("fixed", {"f1": constant_density(grid2k, 1.0)}),
            GClassSpec("Deps_1", {"g1": g1, "eps": 0.1, "q": 0.1}),
        )
        with pytest.raises(ValidationError):
            feasible_pair(cls, grid2k)


class TestSolveMinimax:
    def test_budget_class_reaches_analytic_value(self, grid2k, budget_class):
        fs = FunctionalSpec(N=0, a=np.array([[1.0]]))
        res = solve_minimax(budget_class, fs, SPEC11, grid2k,
                            MinimaxOptions(saddle_samples=100, seed=3))
        assert res.converged
        assert res.delta0 == pytest.approx(1.5, abs=1e-3)
        deltas = [t["delta"] for t in res.trace]
        assert all(b >= a - 1e-12 for a, b in zip(deltas, deltas[1:]))
        assert res.residual_report["f"]["relative_residual"] <= 1e-2
        assert res.residual_report["f"]["budget_residual"] <= 1e-8
        assert res.saddle_report["max_violation"] <= 1e-6 * res.delta0
        assert res.saddle_report["left_min_margin"] >= -1e-10

    def test_ascent_beats_feasible_start(self, grid2k, budget_class):
        fs = FunctionalSpec(N=1, a=np.array([[1.0], [0.5]]))
        _, (f0, g0) = feasible_pair(budget_class, grid2k)
        start = solve_interpolation(SPEC11, f0, g0, fs).delta
        res = solve_minimax(budget_class, fs, SPEC11, grid2k, FAST)
        assert res.delta0 >= start - 1e-10

    def test_singleton_box_class(self, grid2k):
        pinned = constant_density(grid2k, 0.4)
        f1 = rational_density(grid2k, [1.0], [1.0, -0.4])
        cls = DensityClassSpec(
            FClassSpec("fixed", {"f1": f1}),
            GClassSpec("DVU_2", {"V": pinned, "U": pinned, "q": 0.4}),
        )
        fs = FunctionalSpec(N=0, a=np.array([[1.0]]))
        res = solve_minimax(cls, fs, SPEC11, grid2k, FAST)
        classical = solve_interpolation(SPEC11, f1, pinned, fs)
        assert res.delta0 == pytest.approx(classical.delta, rel=1e-10)
        assert np.allclose(res.g0.values, pinned.values)
        assert res.residual_report["g"]["relative_residual"] <= 1e-6

    def test_ball_box_class_converges(self, grid2k, ball_box_class):
        fs = FunctionalSpec(N=0, a=np.array([[1.0]]))
        res = solve_minimax(ball_box_class, fs, SPEC11, grid2k,
                            MinimaxOptions(saddle_samples=100, seed=11))
        assert res.converged
        deltas = [t["delta"] for t in res.trace]
        assert all(b >= a - 1e-12 for a, b in zip(deltas, deltas[1:]))
        assert res.residual_report["worst_iterate_feasibility"] <= 1e-8
        assert res.residual_report["f"]["budget_residual"] <= 1e-8
        assert res.residual_report["g"]["budget_residual"] <= 1e-8
        assert res.saddle_report["max_violation"] <= 1e-6 * res.delta0
        # concavity certificate: the class maximum is within the final gap
        assert res.residual_report["ascent_gap"] <= 1e-3
        brute = two_atom_search(ball_box_class, fs, SPEC11, grid2k,
                                n_positions=48, rounds=2)
        assert brute["delta"] <= res.delta0 + 1e-3

    def test_symbols_are_sampled_once_per_run(self, grid2k, ball_box_class, monkeypatch):
        import gmi.classical
        import gmi.spectra

        calls = []
        original = gmi.spectra._chi_beta

        def counted(*args):
            calls.append(1)
            return original(*args)

        for module in (gmi.spectra, gmi.classical):
            monkeypatch.setattr(module, "_chi_beta", counted)
        fs = FunctionalSpec(N=0, a=np.array([[1.0]]))
        counts = []
        for max_iter in (2, 6):
            calls.clear()
            res = solve_minimax(ball_box_class, fs, SPEC11, grid2k,
                                MinimaxOptions(max_iter=max_iter, saddle_samples=2))
            assert len(res.trace) == max_iter
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_problem_is_built_once_per_run(self, grid2k, ball_box_class, monkeypatch):
        import gmi.classical
        import gmi.spectra

        calls = {name: count_calls(monkeypatch, owner, name) for owner, name in (
            (gmi.classical, "transform_b"), (gmi.classical, "coeffs_a_mu"),
            (gmi.spectra, "_chi_beta"))}
        fs = FunctionalSpec(N=0, a=np.array([[1.0]]))
        solve_minimax(ball_box_class, fs, SPEC11, grid2k,
                      MinimaxOptions(max_iter=2, saddle_samples=2))
        # symbols: the run's problem and the minimality check of the final solve
        assert {name: len(c) for name, c in calls.items()} == \
            {"transform_b": 1, "coeffs_a_mu": 1, "_chi_beta": 2}

    def test_scalar_steps_search_the_line_only_when_no_candidate_improves(
            self, grid1k, budget_class, monkeypatch):
        import gmi.minimax

        calls = {name: count_calls(monkeypatch, gmi.minimax, name)
                 for name in ("_line_search", "_delta_core")}
        fs = FunctionalSpec(N=0, a=np.array([[1.0]]))
        res = solve_minimax(budget_class, fs, SPEC11, grid1k, FAST)
        steps = [t["step"] for t in res.trace]
        assert steps and all(step.startswith("ee_") for step in steps)
        assert len(calls["_line_search"]) == 0
        # the start, then per step at most three candidates and the accepted pair
        assert len(calls["_delta_core"]) <= 4 * len(steps) + 1
        # with no tolerance the ascent runs until no candidate improves; that step searches the line
        res = solve_minimax(budget_class, fs, SPEC11, grid1k,
                            MinimaxOptions(tol=0.0, saddle_samples=0))
        assert res.trace[-1]["step"] == "stall" and len(calls["_line_search"]) == 1

    def test_matrix_steps_search_the_line_every_step(self, grid1k, monkeypatch):
        import gmi.minimax

        calls = count_calls(monkeypatch, gmi.minimax, "_line_search")
        cls = DensityClassSpec(FClassSpec("D0_2", {"p": 1.2}), GClassSpec(
            "fixed", {"g1": constant_density(grid1k, [[0.4, 0.1], [0.1, 0.3]])}))
        fs = FunctionalSpec(N=1, a=np.array([[1.0, 0.5], [0.3, -0.2]]))
        res = solve_minimax(cls, fs, SPEC11, grid1k, MinimaxOptions(max_iter=5, saddle_samples=0))
        assert len(res.trace) == 5 and all(t["step"] == "line" for t in res.trace)
        assert len(calls) == len(res.trace)

    def test_all_class_pairs_evaluable_scalar(self, grid2k):
        f1 = rational_density(grid2k, [1.0], [1.0, -0.4])
        g1 = constant_density(grid2k, 0.4)
        V = constant_density(grid2k, 0.2)
        U = constant_density(grid2k, 0.6)
        f_classes = [
            FClassSpec("D0_1", {"P": [[1.2]]}),
            FClassSpec("D0_2", {"p": 1.2}),
            FClassSpec("D0_3", {"p_k": [1.2]}),
            FClassSpec("D0_4", {"B1": [[2.0]], "p": 1.2}),
            FClassSpec("D1delta_1", {"f1": f1, "delta": 0.1}),
            FClassSpec("D1delta_2", {"f1": f1, "delta_k": [0.1]}),
            FClassSpec("D1delta_3", {"f1": f1, "B1": [[1.0]], "delta": 0.1}),
            FClassSpec("D1delta_4", {"f1": f1, "delta_ij": [[0.1]]}),
        ]
        g_classes = [
            GClassSpec("Deps_1", {"g1": g1, "eps": 0.5, "q": 0.5}),
            GClassSpec("Deps_2", {"g1": g1, "eps": 0.5, "q_k": [0.5]}),
            GClassSpec("Deps_3", {"g1": g1, "eps": 0.5, "B2": [[1.0]], "q": 0.5}),
            GClassSpec("Deps_4", {"g1": g1, "eps": 0.5, "Q": [[0.5]]}),
            GClassSpec("DVU_1", {"V": V, "U": U, "Q": [[0.35]]}),
            GClassSpec("DVU_2", {"V": V, "U": U, "q": 0.35}),
            GClassSpec("DVU_3", {"V": V, "U": U, "q_k": [0.35]}),
            GClassSpec("DVU_4", {"V": V, "U": U, "B2": [[1.0]], "q": 0.35}),
        ]
        fs = FunctionalSpec(N=0, a=np.array([[1.0]]))
        opts = MinimaxOptions(max_iter=4, saddle_samples=0)
        for fc, gc in zip(f_classes, g_classes):
            res = solve_minimax(DensityClassSpec(fc, gc), fs, SPEC11, grid2k, opts)
            assert np.isfinite(res.delta0) and res.delta0 > 0
            assert res.residual_report["worst_iterate_feasibility"] <= 1e-8


    def test_matrix_classes_evaluable(self, grid2k):
        # trace-type classes stay exact at T = 2; three ascent steps must run
        rng = np.random.default_rng(8)
        gmat = rng.standard_normal((2, 2))
        V = constant_density(grid2k, 0.05 * gmat @ gmat.T + 0.1 * np.eye(2))
        U = DensityGrid(grid2k, V.values + np.broadcast_to(
            0.4 * np.eye(2), V.values.shape), validate=False)
        cls = DensityClassSpec(
            FClassSpec("D0_2", {"p": 2.0}),
            GClassSpec("DVU_2", {"V": V, "U": U,
                                 "q": float(np.mean(np.trace(V.values, axis1=1, axis2=2).real))
                                 + 0.3}),
        )
        fs = FunctionalSpec(N=1, a=rng.standard_normal((2, 2)))
        res = solve_minimax(cls, fs, SPEC11, grid2k, MinimaxOptions(max_iter=3, saddle_samples=0))
        assert np.isfinite(res.delta0) and res.delta0 > 0
        assert res.residual_report["worst_iterate_feasibility"] <= 1e-8
        deltas = [t["delta"] for t in res.trace]
        assert all(b >= a - 1e-12 for a, b in zip(deltas, deltas[1:]))


class TestSaddle:
    def test_empty_report_does_not_pass(self, grid2k, budget_class):
        # nothing was checked, so there is no pass and no violation to report
        fs = FunctionalSpec(N=0, a=np.array([[1.0]]))
        res = solve_minimax(budget_class, fs, SPEC11, grid2k, FAST)
        assert saddle_check(res, n_samples=0) == {"n_samples": 0, "pass": False}

    def test_alternative_characteristics_never_beat_optimum(self, grid2k, budget_class):
        fs = FunctionalSpec(N=1, a=np.array([[1.0], [0.5]]))
        res = solve_minimax(budget_class, fs, SPEC11, grid2k, FAST)
        rep = saddle_check(res, n_samples=20, seed=9)
        assert rep["left_min_margin"] >= -1e-10

    def test_samples_are_checked_one_at_a_time(self):
        """The check holds a few (n, T, T) values at once, not a stack of samples."""
        grid, eye = FrequencyGrid(4096), np.eye(2)
        cls = DensityClassSpec(
            FClassSpec("D1delta_1", {"f1": constant_density(grid, eye), "delta": 0.1}),
            GClassSpec("DVU_2", {"V": constant_density(grid, 0.2 * eye),
                                 "U": constant_density(grid, 0.6 * eye), "q": 0.7}))
        res = solve_minimax(cls, TestHonestReports.A_T2, SPEC11, grid,
                            MinimaxOptions(max_iter=5, saddle_samples=0))
        saddle_check(res, 20)  # warm
        tracemalloc.start()
        try:
            saddle_check(res, 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * res.f0.values.nbytes


class TestBruteForce:
    def test_smooth_family_matches_budget_optimum(self, grid2k, budget_class):
        fs = FunctionalSpec(N=0, a=np.array([[1.0]]))
        res = solve_minimax(budget_class, fs, SPEC11, grid2k, FAST)
        brute = two_atom_search(budget_class, fs, SPEC11, grid2k, n_positions=32)
        assert abs(res.delta0 - brute["delta"]) <= 1e-3

    def test_budget_weight_positive(self, grid2k):
        w = budget_weight(SPEC11, grid2k)
        assert np.all(w > 0)


class TestHonestReports:
    """T = 2 runs whose flags used to claim more than was checked."""

    A_T2 = FunctionalSpec(N=0, a=np.array([[1.0, 0.5]]))

    def test_stall_with_a_large_gap_is_not_converged(self, grid2k):
        # the exact trace-budget vertex leaves a gap of 3.3 at delta0 = 0.906
        cls = DensityClassSpec(FClassSpec("D0_2", {"p": 1.5}), GClassSpec("zero"))
        res = solve_minimax(cls, self.A_T2, SPEC11, grid2k, FAST)
        assert len(res.trace) == 1 and res.trace[0]["step"] == "stall"
        assert res.delta0 == pytest.approx(0.9055915242667547, rel=1e-9)
        assert res.residual_report["ascent_gap"] == pytest.approx(3.3049, rel=1e-4)
        assert res.residual_report["approximate"] == []
        assert not res.converged

    def test_matrix_budget_and_box_vertices_are_approximate(self, grid2k):
        V = constant_density(grid2k, [[0.2, 0.05], [0.05, 0.15]])
        U = constant_density(grid2k, [[0.6, 0.1], [0.1, 0.5]])
        cls = DensityClassSpec(
            FClassSpec("D0_1", {"P": [[1.2, 0.3], [0.3, 0.8]]}),
            GClassSpec("DVU_1", {"V": V, "U": U, "Q": [[0.4, 0.075], [0.075, 0.325]]}),
        )
        res = solve_minimax(cls, self.A_T2, SPEC11, grid2k, FAST)
        assert res.residual_report["approximate"] == ["D0_1", "DVU_1"]
        assert not res.converged

    def test_saddle_without_an_admissible_sample_fails(self, grid1k):
        f1 = matrix_ma_density(grid1k, [[[1.0, 0.2], [0.0, 0.8]], [[0.3, 0.0], [0.1, 0.2]]])
        cls = DensityClassSpec(
            FClassSpec("D1delta_4", {"f1": f1, "delta_ij": [[0.1, 0.03], [0.03, 0.05]]}),
            GClassSpec("Deps_4", {"g1": constant_density(grid1k, [[0.4, 0.1], [0.1, 0.3]]),
                                  "eps": 0.5, "Q": [[0.5, 0.12], [0.12, 0.4]]}),
        )
        fs = FunctionalSpec(N=1, a=np.array([[1.0, 0.5], [0.3, -0.2]]))
        res = solve_minimax(cls, fs, SPEC11, grid1k,
                            MinimaxOptions(max_iter=3, saddle_samples=20, seed=1))
        rep = res.saddle_report
        assert rep["n_samples"] == 20 and rep["skipped_samples"] == 20
        assert rep["pass"] is False

    def test_trace_box_samples_are_admissible_at_t2(self, grid1k):
        # the trace budget sits off the box middle, where a blend never meets it
        V = constant_density(grid1k, [[0.2, 0.05], [0.05, 0.15]])
        U = DensityGrid(grid1k, V.values + 0.4 * np.eye(2), validate=False)
        cls = DensityClassSpec(FClassSpec("D0_2", {"p": 2.0}),
                               GClassSpec("DVU_2", {"V": V, "U": U, "q": 0.65}))
        fs = FunctionalSpec(N=1, a=np.array([[1.0, 0.5], [0.3, -0.2]]))
        res = solve_minimax(cls, fs, SPEC11, grid1k,
                            MinimaxOptions(max_iter=3, saddle_samples=5, seed=2))
        assert res.saddle_report["skipped_samples"] == 0

    def test_weighted_noise_floor_starts_feasibly_at_t2(self, grid1k):
        g1 = constant_density(grid1k, [[0.4, 0.1], [0.1, 0.3]])
        B = np.array([[2.0, 0.3], [0.3, 1.0]])
        q = 0.5 * float(np.trace(B @ g1.values[0]).real) + 0.3
        cls = DensityClassSpec(FClassSpec("fixed", {"f1": constant_density(grid1k, np.eye(2))}),
                               GClassSpec("Deps_3", {"g1": g1, "eps": 0.5, "B2": B, "q": q}))
        ctx, (f, g) = feasible_pair(cls, grid1k, dim=2)
        assert feasibility_report(ctx, f.values, g.values)["max_residual"] <= 1e-8


class TestScalarSolvers:
    """The sort-based waterfill and shift, and the early-stopping bisection,
    against the loops they replaced."""

    @staticmethod
    def _box(rng, n=64):
        lo = rng.uniform(0.0, 1.0, n)
        hi = lo + rng.uniform(0.0, 1.0, n)
        return lo, hi, float(rng.uniform(lo.mean(), hi.mean()))

    def test_waterfill_matches_the_greedy_loop(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            lo, hi, budget = self._box(rng)
            rate = rng.standard_normal(len(lo))
            ref, remaining = lo.copy(), budget * len(lo) - float(np.sum(lo))
            for j in np.argsort(-rate):
                take = min(hi[j] - lo[j], remaining)
                ref[j] += take
                remaining -= take
                if remaining <= 0:
                    break
            assert np.allclose(_waterfill_traces(rate, lo, hi, budget), ref, rtol=0, atol=1e-12)

    def test_shift_clip_matches_bisection(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            lo, hi, mean = self._box(rng)
            x = rng.uniform(-0.5, 2.0, len(lo))
            xc = np.clip(x, lo, hi)
            a, b = float(np.min(lo - xc)), float(np.max(hi - xc))
            for _ in range(200):
                mid = 0.5 * (a + b)
                if float(np.mean(np.clip(xc + mid, lo, hi))) < mean:
                    a = mid
                else:
                    b = mid
            got = _shift_clip(x, lo, hi, mean)
            assert np.allclose(got, np.clip(xc + 0.5 * (a + b), lo, hi), rtol=0, atol=1e-12)
            assert float(np.mean(got)) == pytest.approx(mean, rel=1e-12)

    @pytest.mark.parametrize("target", [1e-3, 0.7, 5.0, 1e4])
    def test_bisection_stops_where_the_full_loop_ends(self, target):
        shape = np.linspace(0.1, 3.0, 257)
        for fun in (lambda x: 1.0 / x, lambda x: float(np.mean(np.maximum(shape / x - 0.2, 0.0)))):
            lo, hi = 1e-12, 1e12
            for _ in range(200):
                mid = np.sqrt(lo * hi)
                if fun(mid) > target:
                    lo = mid
                else:
                    hi = mid
            assert _bisect_decreasing(fun, target, 1e-12, 1e12) == np.sqrt(lo * hi)


def _f_fill(shape, base):
    """The mean of the f-side ee fill at multiplier m, as _ee_candidate_f forms it."""
    return lambda m: float(np.mean(np.maximum(shape / m - base, 0.0)))


def _g_fill(shape, base, wb, lo, hi):
    """The mean of the g-side ee fill at multiplier m, as _ee_candidate_g forms it."""
    return lambda m: float(np.mean(np.clip((shape / m - base) / wb, lo, hi)))


def _plain_probes(fun, target, lo, hi):
    """The points at which the plain bisection calls fun."""
    probes = []
    bisect_decreasing_loop(lambda x: probes.append(x) or fun(x), target, lo, hi)
    return probes


class TestReplayedBisection:
    """_bisect_decreasing replays the plain geometric bisection bit for bit."""

    @staticmethod
    def _same(fun, target, lo, hi, iters=200):
        got = _bisect_decreasing(fun, target, lo, hi, iters)
        want = bisect_decreasing_loop(fun, target, lo, hi, iters)
        assert (got, type(got)) == (want, type(want))

    @staticmethod
    def _fills(rng, n=257):
        """f and g fills with tied shapes, zero-shape nodes and a zero-width box node."""
        shape = np.repeat(rng.uniform(0.0, 3.0, (n + 7) // 8), 8)[:n]
        shape[::5] = 0.0
        base = rng.uniform(0.0, 1.0, n)
        wb = rng.uniform(0.5, 2.0, n)
        lo = rng.uniform(0.0, 0.5, n)
        hi = lo + rng.uniform(0.0, 1.0, n)
        hi[::7] = lo[::7]
        return _f_fill(shape, base), _g_fill(shape, base, wb, lo, hi), lo, hi

    def test_equals_the_plain_loop_on_adversarial_fills(self):
        rng = np.random.default_rng(14)
        lo, hi = 1e-12, 1e12
        for _ in range(5):
            f, g, box_lo, box_hi = self._fills(rng)
            for fun in (f, g):
                probes = _plain_probes(fun, 0.4, lo, hi)
                targets = [0.4, 0.0,                        # a plateau of the f fill at 0
                           fun(probes[30]), fun(probes[-3]),  # fun(mid) == target exactly
                           fun(np.nextafter(lo, 1.0)), fun(np.nextafter(hi, 0.0)),  # roots at the ends
                           fun(lo) + 1.0, -1.0]              # no root in the bracket
                for target in targets:
                    self._same(fun, target, lo, hi)
                    self._same(fun, target, lo, hi, iters=7)
            for target in (float(np.mean(box_lo)), float(np.mean(box_hi))):  # saturated box
                self._same(g, target, lo, hi)

    @pytest.mark.parametrize("target", [1e-12, 1e-3, 0.7, 1.0, 5.0, 1e4, 1e12])
    def test_equals_the_plain_loop_on_the_reciprocal(self, target):
        self._same(lambda x: 1.0 / x, target, 1e-12, 1e12)
        self._same(lambda x: 1.0 / x, target, 0.25, 4.0)

    @pytest.mark.parametrize("target", [0.5, 0.7])
    def test_a_nan_reruns_the_plain_loop(self, target):
        """A NaN that the replay meets gives the plain loop's result: at a
        regula falsi probe, which the plain loop never makes, and at the first
        probe.  (A NaN is outside the precondition: one at a probe that the
        replay decides without calling fun goes unseen.)"""
        fill = _f_fill(np.linspace(0.0, 3.0, 129), 0.2)
        called = []
        _bisect_decreasing(lambda x: called.append(x) or fill(x), target, 1e-12, 1e12)
        pinning = [x for x in called if x not in _plain_probes(fill, target, 1e-12, 1e12)]
        for bad in (pinning[0], pinning[-1], called[0]):
            self._same(lambda x, bad=bad: float("nan") if x == bad else fill(x),
                       target, 1e-12, 1e12)

    def test_few_exact_passes_per_fill(self, grid1k, monkeypatch):
        """Budget-zero and ball-box runs at grid 1024 average at most 25 calls of fun per fill."""
        f1 = rational_density(grid1k, [1.0], [1.0, -0.4])
        box = {"V": constant_density(grid1k, 0.2), "U": constant_density(grid1k, 0.6), "q": 0.35}
        classes = [DensityClassSpec(FClassSpec("D0_2", {"p": 1.5}), GClassSpec("zero")),
                   DensityClassSpec(FClassSpec("D1delta_2", {"f1": f1, "delta_k": [0.1]}),
                                    GClassSpec("DVU_2", box))]
        counts = []
        original = minimax._bisect_decreasing

        def counting(fun, *args):
            counts[-1][0] += 1
            return original(lambda x: counts[-1].__setitem__(1, counts[-1][1] + 1) or fun(x), *args)

        monkeypatch.setattr(minimax, "_bisect_decreasing", counting)
        for cls in classes:
            counts.append([0, 0])
            solve_minimax(cls, FunctionalSpec(N=0, a=np.array([[1.0]])), SPEC11, grid1k, FAST)
        for fills, passes in counts:
            assert fills > 0 and passes / fills <= 25


@functools.cache
def _run_fills():
    """The (fill, scale) pairs of the ee candidates of a short ball-box run at grid 1024."""
    grid = GRID1K
    fills = []
    original = minimax._ee_fill

    def keep(fill, shape, *args):
        fills.append((fill, max(float(np.max(shape)), 1e-300)))
        return original(fill, shape, *args)

    cls = DensityClassSpec(
        FClassSpec("D1delta_2", {"f1": rational_density(grid, [1.0], [1.0, -0.4]),
                                 "delta_k": [0.1]}),
        GClassSpec("DVU_2", {"V": constant_density(grid, 0.2), "U": constant_density(grid, 0.6),
                             "q": 0.35}))
    minimax._ee_fill = keep
    try:
        solve_minimax(cls, FunctionalSpec(N=0, a=np.array([[1.0]])), SPEC11, grid,
                      MinimaxOptions(max_iter=2, saddle_samples=0))
    finally:
        minimax._ee_fill = original
    return fills


@settings(max_examples=60, deadline=None)
@given(index=st.integers(0, 3), exponent=st.floats(-14.0, 14.0), ulps=st.integers(1, 2 ** 40))
def test_ee_fills_never_rise_with_the_multiplier(index, exponent, ulps):
    """Both ee fills of a run: the computed mean fill at m2 > m1 is at most that at m1."""
    fills = _run_fills()
    assert {fill.__code__.co_freevars for fill, _ in fills} >= {("base", "shape"),
                                                              ("base", "hi", "lo", "shape", "wb")}
    fill, scale = fills[index % len(fills)]
    m1 = scale * 10.0 ** exponent
    for m2 in (m1 + ulps * np.spacing(m1), np.nextafter(m1, np.inf)):
        assert float(np.mean(fill(m2))) <= float(np.mean(fill(m1)))


class TestEeDivisor:
    """The ee fills divide by |chi|^2 = w |beta|^2; a problem where it is not positive and
    finite at every node makes no ee candidate, so its fills can never be NaN."""

    @staticmethod
    def _ball_box(grid):
        box = {"V": constant_density(grid, 0.2), "U": constant_density(grid, 0.6), "q": 0.35}
        return DensityClassSpec(
            FClassSpec("D1delta_2", {"f1": rational_density(grid, [1.0], [1.0, -0.4]),
                                     "delta_k": [0.1]}), GClassSpec("DVU_2", box))

    def test_a_zero_of_chi_makes_no_ee_candidate(self, grid1k, monkeypatch):
        import gmi.classical

        cls, fs, n = self._ball_box(grid1k), FunctionalSpec(N=0, a=np.array([[1.0]])), 1024
        g_vals, shape = np.full((n, 1, 1), 0.4 + 0j), np.linspace(0.5, 1.5, n)
        ctx = _Problem(cls, SPEC11, fs, grid1k)
        assert ctx.wb is not None
        assert minimax._ee_candidate_f(ctx, g_vals, shape) is not None
        assert minimax._ee_candidate_g(ctx, g_vals, shape) is not None
        chi_beta = gmi.classical._chi_beta

        def zeroed(*args):
            chi, beta = chi_beta(*args)
            chi[300] = 0.0
            return chi, beta

        monkeypatch.setattr(gmi.classical, "_chi_beta", zeroed)
        calls = count_calls(monkeypatch, minimax, "_bisect_decreasing")
        ctx = _Problem(cls, SPEC11, fs, grid1k)
        assert ctx.w[300] == 0.0 and ctx.wb is None
        assert minimax._ee_candidate_f(ctx, g_vals, shape) is None
        assert minimax._ee_candidate_g(ctx, g_vals, shape) is None
        assert calls == []

    def test_without_the_divisor_every_step_searches_the_line(self, grid1k, monkeypatch):
        init = _Problem.__init__

        def no_divisor(self, *args):
            init(self, *args)
            self.wb = None

        monkeypatch.setattr(_Problem, "__init__", no_divisor)
        calls = {name: count_calls(monkeypatch, minimax, name)
                 for name in ("_bisect_decreasing", "_line_search")}
        res = solve_minimax(self._ball_box(grid1k), FunctionalSpec(N=0, a=np.array([[1.0]])),
                            SPEC11, grid1k, MinimaxOptions(max_iter=3, saddle_samples=0))
        assert res.trace and all(t["step"] in ("line", "stall") for t in res.trace)
        assert calls["_bisect_decreasing"] == [] and len(calls["_line_search"]) == len(res.trace)

    def test_divisor_holds_on_every_shipped_config_and_seasonal_grid(self):
        import json
        from pathlib import Path

        from gmi.cli import _gm_spec

        cases = []
        for path in sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.json")):
            config = json.loads(path.read_text())
            cases.append((path.name, _gm_spec(config), config["problem"].get("grid", 4096)))
        cases += [(f"s={s}", GMIncrementSpec((s,), (1,), (1,)), 2 ** k)
                  for k in range(10, 17) for s in range(1, 25)]
        fs = FunctionalSpec(N=0, a=np.array([[1.0]]))
        missing = []
        for name, spec, n in cases:
            grid = FrequencyGrid(n)
            cls = DensityClassSpec(FClassSpec("fixed", {"f1": constant_density(grid, 1.0)}),
                                   GClassSpec("zero"))
            if _Problem(cls, spec, fs, grid).wb is None:
                missing.append((name, n))
        assert len(cases) == 5 + 7 * 24 and missing == []


class TestShiftClipTies:
    """The default (unstable) sort of _shift_clip gives the stable-sort result bit for bit."""

    @pytest.mark.parametrize("case", ["rounded", "symmetric", "flat_nodes"])
    def test_equals_the_stable_sort(self, case):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = 256
            lo = np.round(rng.uniform(0.0, 1.0, n), 1)
            hi = lo + np.round(rng.uniform(0.0, 1.0, n), 1)
            x = rng.uniform(-0.5, 2.0, n)
            if case == "rounded":
                x = np.round(x, 1)
            elif case == "symmetric":
                lo, hi, x = (0.5 * (v + v[::-1]) for v in (lo, hi, x))
            else:
                hi[::3] = lo[::3]
            mean = float(rng.uniform(lo.mean(), hi.mean()))
            want = shift_clip_stable(x, lo, hi, mean)
            assert np.array_equal(_shift_clip(x, lo, hi, mean), want)
