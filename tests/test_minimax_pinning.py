"""Pinned least favorable values for every class kind at T = 1 and T = 2.

Each f-kind runs against a zero and a fixed noise density, and each g-kind
against a fixed signal density, for five ascent steps on a 1024-node grid.
The values were recorded before the class table replaced the per-kind
code paths; delta0 must stay within 1e-9 relative and the number of ascent
steps must not change.

Each T = 1 case also runs to its stop (at most 500 steps): its delta0 is
pinned to 1e-12 relative and the kind of every step in order, so that no
change to the ascent can move the choice of a step unseen.
"""

import itertools

import numpy as np
import pytest

from gmi.classical import FunctionalSpec
from gmi.increments import GMIncrementSpec
from gmi.minimax import DensityClassSpec, FClassSpec, GClassSpec, MinimaxOptions, solve_minimax
from gmi.spectra import DensityGrid, DensityModel, FrequencyGrid

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


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_delta0_and_steps(name):
    cls, fspec = case(name)
    res = solve_minimax(cls, fspec, SPEC11, GRID, PINNED_OPTIONS)
    delta0, steps = PINNED[name]
    assert res.delta0 == pytest.approx(delta0, rel=1e-9, abs=0)
    assert len(res.trace) == steps


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
