import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmi.errors import DegenerateOperatorError, ValidationError
from gmi.increments import (
    FMIncrementSpec,
    GMIncrementSpec,
    SeasonalFactor,
    classify_stationarity,
    expand_operator,
    frequency_set,
    gegenbauer,
    gegenbauer_series,
    gm_series,
    inverse_series,
)


def gm_specs():
    return st.integers(1, 3).flatmap(
        lambda r: st.tuples(
            st.lists(st.integers(1, 12), min_size=r, max_size=r),
            st.lists(st.integers(1, 4), min_size=r, max_size=r),
            st.lists(st.integers(0, 3), min_size=r, max_size=r).filter(any),
        )
    ).map(lambda t: GMIncrementSpec(s=tuple(t[0]), mu=tuple(t[1]), d=tuple(t[2])))


def long_division(e, length):
    """Independent power-series inverse of the expansion polynomial."""
    out = [1]
    for k in range(1, length + 1):
        acc = 0
        for l in range(1, min(k, len(e) - 1) + 1):
            acc += e[l] * out[k - l]
        out.append(-acc)
    return out


class TestExpandOperator:
    def test_first_difference(self):
        assert expand_operator(GMIncrementSpec((1,), (1,), (1,))) == [1, -1]

    def test_squared_seasonal(self):
        spec = GMIncrementSpec((2,), (1,), (2,))
        assert expand_operator(spec) == [1, 0, -2, 0, 1]

    def test_two_factors(self):
        spec = GMIncrementSpec((2, 3), (1, 1), (1, 1))
        assert expand_operator(spec) == [1, 0, -1, -1, 0, 1]

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateOperatorError):
            GMIncrementSpec((2,), (1,), (0,))

    def test_negative_step_rejected(self):
        with pytest.raises(ValidationError):
            GMIncrementSpec((2,), (-1,), (1,))


class TestInverseSeries:
    def test_geometric(self):
        spec = GMIncrementSpec((1,), (1,), (1,))
        assert inverse_series(spec, 4) == [1, 1, 1, 1, 1]

    def test_order_two(self):
        spec = GMIncrementSpec((1,), (1,), (2,))
        assert inverse_series(spec, 4) == [1, 2, 3, 4, 5]

    def test_two_factors_matches_long_division(self):
        spec = GMIncrementSpec((2, 3), (1, 1), (1, 1))
        got = inverse_series(spec, 7)
        oracle = long_division(expand_operator(spec), 7)
        assert got == oracle == [1, 0, 1, 1, 1, 1, 2, 1]


@settings(max_examples=60, deadline=None)
@given(gm_specs())
def test_convolution_identity(spec):
    L = 64
    e = expand_operator(spec)
    d_mu = inverse_series(spec, L)
    for k in range(L + 1):
        acc = sum(e[l] * d_mu[k - l] for l in range(0, min(k, len(e) - 1) + 1))
        assert acc == (1 if k == 0 else 0)


@settings(max_examples=60, deadline=None)
@given(gm_specs())
def test_expansion_degree_and_sum(spec):
    e = expand_operator(spec)
    assert len(e) == spec.n_gamma() + 1
    assert e[0] == 1
    assert e[-1] == (-1) ** spec.total_order()
    assert int(np.sum(e)) == 0  # annihilates constants


class TestGegenbauer:
    @pytest.mark.parametrize("d,u", [(0.3, 0.5), (-0.4, -0.8), (1.7, 0.1), (-2.0, 0.9)])
    def test_low_orders(self, d, u):
        assert gegenbauer(d, u, 0) == pytest.approx(1.0)
        assert gegenbauer(d, u, 1) == pytest.approx(2 * d * u)
        assert gegenbauer(d, u, 2) == pytest.approx(2 * d * (d + 1) * u ** 2 - d)

    @pytest.mark.parametrize("d", [-0.45, -0.2, 0.2, 0.45])
    @pytest.mark.parametrize("u", [-0.9, -0.3, 0.0, 0.6, 0.9])
    def test_generating_function(self, d, u):
        z = 0.3
        partial = sum(gegenbauer(d, u, n) * z ** n for n in range(61))
        exact = (1 - 2 * u * z + z * z) ** (-d)
        assert partial == pytest.approx(exact, abs=1e-8)

    def test_matches_recurrence_stream(self):
        # the explicit alternating sum loses digits for large n; compare where
        # it is still accurate
        for d, u in [(0.25, 0.4), (-0.45, -0.7), (0.5, 1.0)]:
            stream = gegenbauer_series(d, u, 25)
            direct = [gegenbauer(d, u, n) for n in range(26)]
            assert np.allclose(stream, direct, rtol=1e-6, atol=1e-7)


class TestFrequencySet:
    def test_integrating_plus_two(self):
        spec = FMIncrementSpec(R0=1, D0=0.2, factors=(SeasonalFactor(2, 0, 0.15),))
        fset = frequency_set(spec)
        nus = [e.nu for e in fset.entries]
        assert nus == pytest.approx([0.0, math.pi])
        assert fset.entries[0].d_nu == pytest.approx(0.35)   # D0 + D1
        assert fset.entries[1].d_nu == pytest.approx(0.15)   # D1
        assert fset.entries[0].d_tilde == pytest.approx(0.175)
        assert fset.entries[0].contributors == (0, 1)

    def test_periods_two_three(self):
        spec = FMIncrementSpec(R0=0, D0=0.0,
                               factors=(SeasonalFactor(2, 0, 0.1), SeasonalFactor(3, 0, 0.2)))
        fset = frequency_set(spec)
        nus = [e.nu for e in fset.entries]
        assert nus == pytest.approx([0.0, 2 * math.pi / 3, math.pi])
        assert fset.entries[0].d_nu == pytest.approx(0.3)    # D1 + D2
        assert fset.entries[1].d_nu == pytest.approx(0.2)    # D2
        assert fset.entries[2].d_nu == pytest.approx(0.1)    # D1
        assert fset.entries[1].d_tilde == pytest.approx(0.2)  # interior, not halved

    def test_periods_two_four(self):
        spec = FMIncrementSpec(R0=0, D0=0.0,
                               factors=(SeasonalFactor(2, 0, 0.1), SeasonalFactor(4, 0, 0.2)))
        fset = frequency_set(spec)
        nus = [e.nu for e in fset.entries]
        assert nus == pytest.approx([0.0, math.pi / 2, math.pi])
        assert fset.entries[0].d_nu == pytest.approx(0.3)    # D1 + D2
        assert fset.entries[1].d_nu == pytest.approx(0.2)    # D2
        assert fset.entries[2].d_nu == pytest.approx(0.3)    # D1 + D2


class TestGmSeries:
    def test_simple_fractional_difference(self):
        spec = FMIncrementSpec(R0=0, D0=0.35, factors=())
        fset = frequency_set(spec)
        minus = gm_series(fset, "minus", 4)
        plus = gm_series(fset, "plus", 4)
        assert minus[0] == pytest.approx(1.0)
        assert minus[1] == pytest.approx(-0.35)
        assert plus[1] == pytest.approx(0.35)

    @pytest.mark.parametrize("factors,D0", [
        ((SeasonalFactor(2, 0, 0.2),), 0.2),
        ((SeasonalFactor(2, 0, 0.1), SeasonalFactor(3, 0, 0.2)), 0.0),
        ((SeasonalFactor(2, 0, 0.15), SeasonalFactor(4, 0, 0.2)), 0.0),
    ])
    def test_inverse_identity_with_tails(self, factors, D0):
        spec = FMIncrementSpec(R0=0, D0=D0, factors=factors)
        fset = frequency_set(spec)
        plus = gm_series(fset, "plus", 200)
        minus = gm_series(fset, "minus", 200)
        conv = np.convolve(plus, minus)
        assert conv[0] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(conv[1:21])) <= 1e-10

    def test_integer_orders_match_expansion(self):
        spec = FMIncrementSpec(R0=1, D0=0.0, factors=(SeasonalFactor(2, 0, 1.0),))
        # treat the orders as fractional and compare with the exact expansion
        fm_no_int = FMIncrementSpec(R0=0, D0=1.0, factors=(SeasonalFactor(2, 0, 1.0),))
        fset = frequency_set(fm_no_int)
        series = gm_series(fset, "minus", 8)
        gm = GMIncrementSpec((1, 2), (1, 1), (1, 1))
        e = np.zeros(9)
        e[: gm.n_gamma() + 1] = expand_operator(gm)
        assert np.allclose(series, e, atol=1e-10)


class TestClassify:
    def test_long_memory_case(self):
        spec = FMIncrementSpec(R0=0, D0=0.2, factors=(SeasonalFactor(2, 0, 0.2),))
        rep = classify_stationarity(spec)
        assert rep.stationary and rep.long_memory and not rep.invertible
        assert [p.d_nu for p in rep.per_nu] == pytest.approx([0.4, 0.2])

    def test_boundary_violation(self):
        spec = FMIncrementSpec(R0=0, D0=0.4, factors=(SeasonalFactor(2, 0, 0.2),))
        rep = classify_stationarity(spec)
        assert not rep.stationary

    def test_mixed_signs(self):
        spec = FMIncrementSpec(R0=0, D0=0.0,
                               factors=(SeasonalFactor(2, 0, -0.3), SeasonalFactor(3, 0, 0.1)))
        rep = classify_stationarity(spec)
        assert rep.stationary and rep.long_memory and not rep.invertible
        assert [p.d_nu for p in rep.per_nu] == pytest.approx([-0.2, 0.1, -0.3])
        assert rep.invertible_frequencies == pytest.approx([0.0, math.pi])

    def test_condition_strings(self):
        spec = FMIncrementSpec(R0=1, D0=0.1, factors=(SeasonalFactor(2, 0, 0.1),))
        rep = classify_stationarity(spec)
        assert rep.conditions == ("|D0+D1| < 1/2", "|D1| < 1/2")
