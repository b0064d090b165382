"""Pinned least favorable values for every class kind at T = 1 and T = 2.

Each f-kind runs against a zero and a fixed noise density, and each g-kind
against a fixed signal density, for five ascent steps on a 1024-node grid.
The values were recorded before the class table replaced the per-kind
code paths; delta0 must stay within 1e-9 relative and the number of ascent
steps must not change.

Each T = 1 case also runs to its stop (at most 500 steps): its delta0 is
pinned to 1e-12 relative and the kind of every step in order, so that no
change to the ascent can move the choice of a step unseen.

The saddle report of each five-step result, checked with 20 samples, is
pinned by its repr: every count, flag and float bit must stay.  The same
check with 7 samples and another seed must equal the per-sample reference
loop of tests/brute.py.

The reported h0 of a five-step result is, bit for bit, the h that the
ascent's gradient kernels form from the solved c at (f0, g0).
"""

import functools
import itertools

import numpy as np
import pytest

from gmi.classical import FunctionalSpec, _characteristic, _error_rows
from gmi.increments import GMIncrementSpec
from gmi.minimax import (DensityClassSpec, FClassSpec, GClassSpec, MinimaxOptions,
                         _delta_core, _gradient_kernels, saddle_check, solve_minimax)
from gmi.spectra import DensityGrid, DensityModel, FrequencyGrid

import brute

SPEC11 = GMIncrementSpec((1,), (1,), (1,))
GRID = FrequencyGrid(1024)
PINNED_OPTIONS = MinimaxOptions(max_iter=5, saddle_samples=0)
FULL_OPTIONS = MinimaxOptions(max_iter=500, saddle_samples=0)

#: case -> (delta0, number of ascent steps)
PINNED = {
    "T1-fixed-zero": (2.5443647210584053, 1),
    "T1-fixed-fixed": (4.159254089788544, 1),
    "T1-D0_1-zero": (3.272477532033444, 5),
    "T1-D0_1-fixed": (4.85722945475965, 5),
    "T1-D0_2-zero": (3.2724775320334447, 5),
    "T1-D0_2-fixed": (4.85722945475965, 5),
    "T1-D0_3-zero": (3.2724775320334447, 5),
    "T1-D0_3-fixed": (4.85722945475965, 5),
    "T1-D0_4-zero": (1.6362387660167224, 5),
    "T1-D0_4-fixed": (3.014722630073531, 5),
    "T1-D1delta_1-zero": (2.944815882571229, 5),
    "T1-D1delta_1-fixed": (4.524136159922469, 3),
    "T1-D1delta_2-zero": (2.944815882571229, 5),
    "T1-D1delta_2-fixed": (4.524136159922469, 3),
    "T1-D1delta_3-zero": (2.7607556504727127, 5),
    "T1-D1delta_3-fixed": (4.351284630096001, 3),
    "T1-D1delta_4-zero": (2.944815882571229, 5),
    "T1-D1delta_4-fixed": (4.524136159922469, 3),
    "T1-fixed-Deps_1": (4.7151485369008785, 5),
    "T1-fixed-Deps_2": (4.468517669310833, 5),
    "T1-fixed-Deps_3": (4.0575128456729015, 5),
    "T1-fixed-Deps_4": (4.468517669310833, 5),
    "T1-fixed-DVU_1": (4.0575128456729015, 5),
    "T1-fixed-DVU_2": (4.200773680873747, 5),
    "T1-fixed-DVU_3": (4.200773680873747, 5),
    "T1-fixed-DVU_4": (4.200773680873747, 5),
    "T2-fixed-zero": (1.7383316699791993, 1),
    "T2-fixed-fixed": (2.842380483218178, 1),
    "T2-D0_1-zero": (2.48958059560153, 1),
    "T2-D0_1-fixed": (3.2977079573891404, 1),
    "T2-D0_2-zero": (1.1796610399928802, 1),
    "T2-D0_2-fixed": (1.8447803147864377, 5),
    "T2-D0_3-zero": (1.3550582256913077, 1),
    "T2-D0_3-fixed": (2.0369535798336043, 5),
    "T2-D0_4-zero": (0.7864406933285868, 1),
    "T2-D0_4-fixed": (1.3719462981746364, 5),
    "T2-D1delta_1-zero": (1.7511547197389281, 5),
    "T2-D1delta_1-fixed": (2.879962312353671, 5),
    "T2-D1delta_2-zero": (1.7510702518805703, 5),
    "T2-D1delta_2-fixed": (2.8799999232252276, 5),
    "T2-D1delta_3-zero": (1.7508536289693404, 5),
    "T2-D1delta_3-fixed": (2.874776063403965, 5),
    "T2-D1delta_4-zero": (1.7510702518805703, 5),
    "T2-D1delta_4-fixed": (2.8799999232252276, 5),
    "T2-fixed-Deps_1": (3.74758215871279, 2),
    "T2-fixed-Deps_2": (2.9921221923140697, 2),
    "T2-fixed-Deps_4": (3.0376634777009524, 2),
    "T2-fixed-DVU_1": (2.8318117939985683, 5),
    "T2-fixed-DVU_2": (3.3041295459338427, 5),
    "T2-fixed-DVU_3": (2.8306693344564935, 1),
    "T2-fixed-DVU_4": (2.831811793998574, 5),
}

#: case -> saddle_report of the five-step result at 20 samples and seed 5:
#: (skipped samples, pass, max_violation, left_min_margin)
SADDLE_PINNED = {
    "T1-D0_1-fixed": (0, False, 0.0001162869605018102, 0.009854023757206676),
    "T1-D0_1-zero": (0, False, 3.9060137773549997e-05, 0.007862788626440409),
    "T1-D0_2-fixed": (0, False, 0.0001162869605018102, 0.009854023757206676),
    "T1-D0_2-zero": (0, False, 3.9060137773549997e-05, 0.007862788626440409),
    "T1-D0_3-fixed": (0, False, 0.0001162869605018102, 0.009854023757206676),
    "T1-D0_3-zero": (0, False, 3.9060137773549997e-05, 0.007862788626440409),
    "T1-D0_4-fixed": (0, False, 3.172606934409572e-05, 0.005426133398334088),
    "T1-D0_4-zero": (0, False, 1.9530068886774998e-05, 0.0039313943132202045),
    "T1-D1delta_1-fixed": (0, True, -0.04220180595555778, 0.011759639202368888),
    "T1-D1delta_1-zero": (0, True, -0.05736538862866203, 0.02529770019304456),
    "T1-D1delta_2-fixed": (0, True, -0.04220180595555778, 0.011759639202368888),
    "T1-D1delta_2-zero": (0, True, -0.05736538862866203, 0.02529770019304456),
    "T1-D1delta_3-fixed": (0, True, -0.04642110620956519, 0.015370465563028013),
    "T1-D1delta_3-zero": (0, True, -0.056021710407921255, 0.025793340178298152),
    "T1-D1delta_4-fixed": (0, True, -0.04220180595555778, 0.011759639202368888),
    "T1-D1delta_4-zero": (0, True, -0.05736538862866203, 0.02529770019304456),
    "T1-fixed-DVU_1": (0, True, -0.0002183914162898759, 0.01731773756273558),
    "T1-fixed-DVU_2": (0, True, -0.0004967929244532598, 0.015445357759393374),
    "T1-fixed-DVU_3": (0, True, -0.0004967929244532598, 0.015445357759393374),
    "T1-fixed-DVU_4": (0, True, -0.0004967929244532598, 0.015445357759393374),
    "T1-fixed-Deps_1": (0, False, 6.30884872876436e-06, 0.006794334563629434),
    "T1-fixed-Deps_2": (0, True, -5.826131422015379e-05, 0.010435547010589907),
    "T1-fixed-Deps_3": (0, True, -0.0002771095445952554, 0.01731773756273558),
    "T1-fixed-Deps_4": (0, True, -5.826131422015379e-05, 0.010435547010589907),
    "T1-fixed-fixed": (0, True, 0.0, 0.019773493419134702),
    "T1-fixed-zero": (0, True, 4.440892098500626e-16, 0.0376692059029069),
    "T2-D0_1-fixed": (0, False, 0.003126775952435157, 0.003775967865954577),
    "T2-D0_1-zero": (0, False, 0.0004336069308172874, 0.009434581349661908),
    "T2-D0_2-fixed": (0, False, 0.0024395705993891514, 0.05985794029299707),
    "T2-D0_2-zero": (0, False, 0.00020067916996713286, 0.007317315669576496),
    "T2-D0_3-fixed": (0, False, 0.0026018039246173963, 0.020132773510853408),
    "T2-D0_3-zero": (0, False, 0.00022414336284692915, 0.007452957132183302),
    "T2-D0_4-fixed": (0, False, 0.0023327549978648943, 0.0403427591207135),
    "T2-D0_4-zero": (0, False, 0.00013378611331127388, 0.004878210446384035),
    "T2-D1delta_1-fixed": (0, False, 0.0046666344925396785, 0.25876701534627955),
    "T2-D1delta_1-zero": (0, False, 0.003758840754006343, 0.07032260413413804),
    "T2-D1delta_2-fixed": (20, False, 0.0, 0.24837911567370696),
    "T2-D1delta_2-zero": (20, False, 0.0, 0.07356243173275567),
    "T2-D1delta_3-fixed": (0, False, 0.0014461689702423008, 0.19080248366078623),
    "T2-D1delta_3-zero": (0, False, 0.002898692729862873, 0.06998569723812897),
    "T2-D1delta_4-fixed": (20, False, 0.0, 0.24837911567370696),
    "T2-D1delta_4-zero": (20, False, 0.0, 0.07356243173275567),
    "T2-fixed-DVU_1": (0, True, -0.00012744026015454324, 0.0014567210001139586),
    "T2-fixed-DVU_2": (0, False, 0.00033763231472550004, 0.0047576120999131),
    "T2-fixed-DVU_3": (0, False, 0.00011730703703305423, 0.0014557328586586316),
    "T2-fixed-DVU_4": (0, False, 1.902247217300257e-05, 0.0014567210001144026),
    "T2-fixed-Deps_1": (20, False, 0.0, 0.08333349084738328),
    "T2-fixed-Deps_2": (0, False, 6.543037267370266e-05, 0.0022611043102394035),
    "T2-fixed-Deps_4": (18, False, 5.421272748007411e-05, 0.003563834734207738),
    "T2-fixed-fixed": (0, True, 8.881784197001252e-16, 0.0021894247093556807),
    "T2-fixed-zero": (0, True, 4.440892098500626e-16, 0.062195671037986955),
}
SADDLE_SAMPLES, SADDLE_SEED = 20, 5

#: T = 1 case run to its stop -> (delta0, step kinds as "kind*count" runs)
FULL_RUN = {
    "T1-D0_1-fixed": (4.857360822055676, "ee_f*10"),
    "T1-D0_1-zero": (3.2724980257998357, "ee_f*9"),
    "T1-D0_2-fixed": (4.857360822055676, "ee_f*10"),
    "T1-D0_2-zero": (3.2724980257998357, "ee_f*9"),
    "T1-D0_3-fixed": (4.857360822055676, "ee_f*10"),
    "T1-D0_3-zero": (3.2724980257998357, "ee_f*9"),
    "T1-D0_4-fixed": (3.014735547833531, "ee_f*8"),
    "T1-D0_4-zero": (1.6362490128999179, "ee_f*9"),
    "T1-D1delta_1-fixed": (4.524136159922469, "ee_f*3"),
    "T1-D1delta_1-zero": (2.944833511141729, "ee_f*9"),
    "T1-D1delta_2-fixed": (4.524136159922469, "ee_f*3"),
    "T1-D1delta_2-zero": (2.944833511141729, "ee_f*9"),
    "T1-D1delta_3-fixed": (4.351284630096001, "ee_f*3"),
    "T1-D1delta_3-zero": (2.7607732993719463, "ee_f*9"),
    "T1-D1delta_4-fixed": (4.524136159922469, "ee_f*3"),
    "T1-D1delta_4-zero": (2.944833511141729, "ee_f*9"),
    "T1-fixed-DVU_1": (4.057518045249675, "ee_g*8"),
    "T1-fixed-DVU_2": (4.200776566577253, "ee_g*8"),
    "T1-fixed-DVU_3": (4.200776566577253, "ee_g*8"),
    "T1-fixed-DVU_4": (4.200776566577253, "ee_g*8"),
    "T1-fixed-Deps_1": (4.715184227228587, "ee_g*10"),
    "T1-fixed-Deps_2": (4.468538083456441, "ee_g*9"),
    "T1-fixed-Deps_3": (4.057518045249675, "ee_g*8"),
    "T1-fixed-Deps_4": (4.468538083456441, "ee_g*9"),
    "T1-fixed-fixed": (4.159254089788544, "stall*1"),
    "T1-fixed-zero": (2.5443647210584053, "stall*1"),
}


def _constant(matrix):
    return DensityGrid.constant(GRID, np.atleast_2d(matrix))


def _classes(T):
    """Functional and per-kind class parameters for dimension T."""
    if T == 1:
        f1 = DensityModel("rational", {"numerator": [1.0], "denominator": [1.0, -0.4],
                                       "scale": 1.0}).evaluate(GRID)
        B = [[2.0]]
        g1, V, U = _constant(0.4), _constant(0.2), _constant(0.6)
        fspec = FunctionalSpec(N=1, a=np.array([[1.0], [0.5]]))
        P, pk, dk, dij = [[1.2]], [1.2], [0.1], [[0.1]]
        qk, Q, Q_box = [0.5], [[0.5]], [[0.35]]
    else:
        f1 = DensityModel("matrix_ma", {"coefficients": [
            [[1.0, 0.2], [0.0, 0.8]], [[0.3, 0.0], [0.1, 0.2]]]}).evaluate(GRID)
        B = [[2.0, 0.3], [0.3, 1.0]]
        g1 = _constant([[0.4, 0.1], [0.1, 0.3]])
        V = _constant([[0.2, 0.05], [0.05, 0.15]])
        U = _constant([[0.6, 0.1], [0.1, 0.5]])
        fspec = FunctionalSpec(N=1, a=np.array([[1.0, 0.5], [0.3, -0.2]]))
        P, pk, dk, dij = [[1.2, 0.3], [0.3, 0.8]], [0.7, 0.5], [0.1, 0.05], \
            [[0.1, 0.03], [0.03, 0.05]]
        qk, Q, Q_box = [0.5, 0.4], [[0.5, 0.12], [0.12, 0.4]], \
            [[0.4, 0.075], [0.075, 0.325]]
    Bm = np.array(B)
    tv, tu = np.trace(V.values[0]).real, np.trace(U.values[0]).real
    tbv, tbu = np.trace(Bm @ V.values[0]).real, np.trace(Bm @ U.values[0]).real
    f_kinds = {
        "fixed": {"f1": f1},
        "D0_1": {"P": P}, "D0_2": {"p": 1.2}, "D0_3": {"p_k": pk},
        "D0_4": {"B1": B, "p": 1.2},
        "D1delta_1": {"f1": f1, "delta": 0.1}, "D1delta_2": {"f1": f1, "delta_k": dk},
        "D1delta_3": {"f1": f1, "B1": B, "delta": 0.1},
        "D1delta_4": {"f1": f1, "delta_ij": dij},
    }
    g_kinds = {
        "Deps_1": {"g1": g1, "eps": 0.5, "q": 0.5 * T + 0.1},
        "Deps_2": {"g1": g1, "eps": 0.5, "q_k": qk},
        "Deps_3": {"g1": g1, "eps": 0.5, "B2": B, "q": tbv + 0.3},
        "Deps_4": {"g1": g1, "eps": 0.5, "Q": Q},
        "DVU_1": {"V": V, "U": U, "Q": Q_box},
        "DVU_2": {"V": V, "U": U, "q": 0.5 * (tv + tu)},
        "DVU_3": {"V": V, "U": U,
                  "q_k": list(0.5 * (np.diag(V.values[0]) + np.diag(U.values[0])).real)},
        "DVU_4": {"V": V, "U": U, "B2": B, "q": 0.5 * (tbv + tbu)},
    }
    return fspec, f_kinds, g_kinds, g1


def case(name):
    """(class spec, functional) of a case named T<dim>-<f-kind>-<g-kind>."""
    dim, kf, kg = name.split("-")
    fspec, f_kinds, g_kinds, g1 = _classes(int(dim[1:]))
    pg = g_kinds[kg] if kg in g_kinds else {"zero": {}, "fixed": {"g1": g1}}[kg]
    return DensityClassSpec(FClassSpec(kf, f_kinds[kf]), GClassSpec(kg, pg)), fspec


@functools.cache
def _pinned_run(name):
    cls, fspec = case(name)
    return solve_minimax(cls, fspec, SPEC11, GRID, PINNED_OPTIONS)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_delta0_and_steps(name):
    res = _pinned_run(name)
    delta0, steps = PINNED[name]
    assert res.delta0 == pytest.approx(delta0, rel=1e-9, abs=0)
    assert len(res.trace) == steps


@pytest.mark.parametrize("name", ["T1-D0_1-fixed", "T2-fixed-DVU_1"])
def test_h0_is_the_characteristic_the_ascent_forms(name):
    """The reported h0 is the h of the ascent's gradient kernels at (f0, g0), bit for bit:
    both form it from the solved c."""
    res = _pinned_run(name)
    ctx, g_vals = res.problem, res.g0.values
    _, blocks, sol = _delta_core(ctx, res.f0.values, g_vals)
    assert sol.c.tobytes() == res.solution.c.tobytes()
    rows = _gradient_kernels(ctx, g_vals, blocks, sol)
    assert [r.tobytes() for r in rows] == [r.tobytes() for r in _error_rows(ctx, res.h0)]
    h = _characteristic(ctx, g_vals, blocks.p_inv, res.solution.c)
    assert h.tobytes() == res.h0.tobytes()


@pytest.mark.parametrize("name", sorted(SADDLE_PINNED))
def test_pinned_saddle_report(name):
    skipped, passed, violation, margin = SADDLE_PINNED[name]
    expected = {"n_samples": SADDLE_SAMPLES, "skipped_samples": skipped, "pass": passed,
                "max_violation": violation, "left_min_margin": margin}
    assert repr(saddle_check(_pinned_run(name), SADDLE_SAMPLES, SADDLE_SEED)) == repr(expected)


@pytest.mark.parametrize("name", sorted(SADDLE_PINNED))
def test_saddle_report_equals_the_per_sample_loop(name):
    res = _pinned_run(name)
    assert repr(saddle_check(res, 7, 3)) == repr(brute.saddle_check_loop(res, 7, 3))


def _step_runs(trace) -> str:
    return " ".join(f"{kind}*{len(list(run))}"
                    for kind, run in itertools.groupby(e["step"] for e in trace))


@pytest.mark.parametrize("name", sorted(FULL_RUN))
def test_full_run_delta0_and_step_kinds(name):
    cls, fspec = case(name)
    res = solve_minimax(cls, fspec, SPEC11, GRID, FULL_OPTIONS)
    delta0, steps = FULL_RUN[name]
    assert res.delta0 == pytest.approx(delta0, rel=1e-12, abs=0)
    assert _step_runs(res.trace) == steps
