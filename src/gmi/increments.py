"""Coefficient algebra for multiplicative seasonal difference operators.

A multiple seasonal difference operator is a product of factors
(1 - B^{mu_i * s_i})^{d_i} acting on a sequence through the backshift B.
This module expands such operators into lag polynomials, inverts them as
power series, handles the fractional-order variant through Gegenbauer
coefficient streams, and classifies stationarity of the fractional part.

All functions are pure; integer-order expansions are exact (lists of
Python ints, without numpy), fractional streams are numpy double arrays.
"""

from __future__ import annotations

import math

from .errors import DegenerateOperatorError, ValidationError

#: default truncation length for fractional coefficient streams
DEFAULT_SERIES_LENGTH = 512


class GMIncrementSpec:
    """Integer-order multiple seasonal difference operator.

    Parameters
    ----------
    s : tuple of int
        Seasonal periods, one per factor, each >= 1.
    mu : tuple of int
        Steps, one per factor, each >= 1.  Negative steps are rejected.
    d : tuple of int
        Differencing orders, non-negative, at least one >= 1.
    """

    def __init__(self, s, mu, d):
        self.s = s = tuple(int(v) for v in s)
        self.mu = mu = tuple(int(v) for v in mu)
        self.d = d = tuple(int(v) for v in d)
        if not (len(s) == len(mu) == len(d)) or len(s) == 0:
            raise ValidationError("s, mu, d must be non-empty tuples of equal length")
        if any(v < 1 for v in s):
            raise ValidationError("seasonal periods must be >= 1")
        if any(v < 1 for v in mu):
            raise ValidationError("steps must be positive; negative steps are not supported")
        if any(v < 0 for v in d):
            raise ValidationError("differencing orders must be non-negative")
        if all(v == 0 for v in d):
            raise DegenerateOperatorError("all differencing orders are zero")

    def n_gamma(self) -> int:
        """Degree of the expanded operator polynomial."""
        return sum(m * p * k for m, p, k in zip(self.mu, self.s, self.d))

    def total_order(self) -> int:
        return sum(self.d)


class SeasonalFactor:
    """One fractional factor (1 - B^s)^(R + D) with integer R and real D."""

    def __init__(self, s: int, R: int, D: float):
        if s <= 1:
            raise ValidationError("seasonal factor periods must be > 1")
        if R < 0:
            raise ValidationError("integer order R must be non-negative")
        self.s, self.R, self.D = s, R, D


class FMIncrementSpec:
    """Fractional multiple difference operator with unit steps.

    The operator is (1 - B)^(R0 + D0) * prod_j (1 - B^{s_j})^(R_j + D_j)
    with strictly increasing periods 1 < s_1 < ... < s_r.
    """

    def __init__(self, R0: int, D0: float, factors):
        self.R0, self.D0 = R0, D0
        self.factors = factors = tuple(
            f if isinstance(f, SeasonalFactor) else SeasonalFactor(*f) for f in factors)
        if R0 < 0:
            raise ValidationError("R0 must be non-negative")
        periods = [f.s for f in factors]
        if any(b <= a for a, b in zip(periods, periods[1:])):
            raise ValidationError("seasonal periods must be strictly increasing")

    def has_integrating_factor(self) -> bool:
        return self.R0 != 0 or self.D0 != 0.0

    def integer_orders(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(periods, integer orders) of the R-part, integrating factor included."""
        s = [1] + [f.s for f in self.factors]
        R = [self.R0] + [f.R for f in self.factors]
        return tuple(s), tuple(R)


class FrequencyEntry:
    """A seasonal frequency with its accumulated fractional order.

    ``contributors`` holds the indices of the operator factors whose
    frequency set contains ``nu`` (0 denotes the integrating factor).
    """

    def __init__(self, nu: float, d_nu: float, d_tilde: float, contributors: tuple[int, ...]):
        self.nu, self.d_nu, self.d_tilde, self.contributors = nu, d_nu, d_tilde, contributors


class FrequencySet:
    def __init__(self, entries: tuple[FrequencyEntry, ...]):
        self.entries = entries


def _check_int64(coeffs: list[int]) -> list[int]:
    if any(abs(c) > 2 ** 63 - 1 for c in coeffs):
        raise ValidationError("integer coefficients exceed the int64 range")
    return coeffs


def expand_operator(spec: GMIncrementSpec) -> list[int]:
    """Expand prod_i (1 - x^{mu_i s_i})^{d_i} into exact lag coefficients.

    Returns
    -------
    n_gamma + 1 Python ints in the int64 range, with leading coefficient 1.
    """
    coeffs = [1] + [0] * spec.n_gamma()
    for s, mu, d in zip(spec.s, spec.mu, spec.d):
        step = mu * s
        for _ in range(d):  # times (1 - x^step), from the top down
            for k in range(len(coeffs) - 1, step - 1, -1):
                coeffs[k] -= coeffs[k - step]
    return _check_int64(coeffs)


def inverse_series(spec: GMIncrementSpec, length: int) -> list[int]:
    """Power-series coefficients of prod_i (1 - x^{mu_i s_i})^{-d_i}.

    Equivalently the coefficients of prod_i (sum_j x^{mu_i s_i j})^{d_i},
    truncated at degree ``length``: length + 1 Python ints in the int64 range.
    """
    if length < 0:
        raise ValidationError("length must be non-negative")
    out = [1] + [0] * length
    for s, mu, d in zip(spec.s, spec.mu, spec.d):
        step = mu * s
        for _ in range(d):  # over (1 - x^step): a running sum, from the bottom up
            for k in range(step, length + 1):
                out[k] += out[k - step]
    return _check_int64(out)


def gegenbauer(d: float, u: float, n: int) -> float:
    """Gegenbauer polynomial value C_n^{(d)}(u) by its explicit finite sum.

    The Gamma-function ratio in each term is evaluated as the rising
    product d (d+1) ... (d+n-k-1), defined for every real ``d`` including
    non-positive integers, so no pole handling is needed.

    Intended for moderate ``n`` (factorials are formed in double
    precision); long coefficient streams should use
    :func:`gegenbauer_series`.
    """
    if n < 0:
        raise ValidationError("polynomial index must be non-negative")
    total = 0.0
    for k in range(n // 2 + 1):
        rising = 1.0
        for t in range(n - k):
            rising *= d + t
        term = (-1.0) ** k * (2.0 * u) ** (n - 2 * k) * rising
        term /= math.factorial(k) * math.factorial(n - 2 * k)
        total += term
    return total


def gegenbauer_series(d: float, u: float, length: int) -> np.ndarray:
    """Coefficients of (1 - 2 u x + x^2)^{-d} up to degree ``length``.

    Uses the stable three-term recurrence; agrees with :func:`gegenbauer`
    term by term.
    """
    import numpy as np
    if length < 0:
        raise ValidationError("length must be non-negative")
    c = np.empty(length + 1)
    c[0] = 1.0
    if length >= 1:
        c[1] = 2.0 * d * u
    for n in range(2, length + 1):
        c[n] = (2.0 * u * (n + d - 1.0) * c[n - 1] - (n + 2.0 * d - 2.0) * c[n - 2]) / n
    return c


def frequency_set(spec: FMIncrementSpec) -> FrequencySet:
    """Seasonal frequencies of the fractional part with accumulated orders.

    Each factor with period s contributes the frequencies 2 pi k / s,
    k = 0 .. floor(s / 2); the orders D_j of all factors containing a
    frequency add up there.  The halved order is used at 0 and pi where
    the quadratic Gegenbauer factor degenerates to (1 -+ x)^2.
    A frequency is kept exactly, as nu / pi = m / L over the common denominator
    L, the least common multiple of the periods.
    """
    L = math.lcm(*(f.s for f in spec.factors))
    acc: dict[int, tuple[float, list[int]]] = {}

    def add(m: int, d_val: float, idx: int):
        cur = acc.get(m)
        if cur is None:
            acc[m] = (d_val, [idx])
        else:
            acc[m] = (cur[0] + d_val, cur[1] + [idx])

    if spec.has_integrating_factor():
        add(0, spec.D0, 0)
    for j, f in enumerate(spec.factors, start=1):
        for k in range(f.s // 2 + 1):
            add(2 * k * (L // f.s), f.D, j)

    entries = []
    for m in sorted(acc):
        d_nu, contributors = acc[m]
        nu = m / L * math.pi  # int / int rounds the exact quotient once
        endpoint = m == 0 or m == L
        d_tilde = d_nu / 2.0 if endpoint else d_nu
        entries.append(FrequencyEntry(nu, d_nu, d_tilde, tuple(contributors)))
    return FrequencySet(tuple(entries))


def gm_series(fset: FrequencySet, sign: str, length: int = DEFAULT_SERIES_LENGTH) -> np.ndarray:
    """Expansion coefficients of the fractional operator or its inverse.

    ``sign='plus'`` gives the coefficients of the inverse operator
    prod_nu (1 - 2 cos(nu) x + x^2)^{-Dtilde_nu}; ``sign='minus'`` gives
    the operator itself.  The per-frequency Gegenbauer streams are
    convolved and truncated at ``length``.
    """
    import numpy as np
    if sign not in ("plus", "minus"):
        raise ValidationError("sign must be 'plus' or 'minus'")
    if length < 0:
        raise ValidationError("length must be non-negative")
    out = np.zeros(length + 1)
    out[0] = 1.0
    for entry in fset.entries:
        order = entry.d_tilde if sign == "plus" else -entry.d_tilde
        if order == 0.0:
            continue
        stream = gegenbauer_series(order, math.cos(entry.nu), length)
        out = np.convolve(out, stream)[: length + 1]
    return out


class PerFrequencyFlags:
    def __init__(self, nu: float, d_nu: float, stationary: bool, long_memory: bool,
                 invertible: bool, contributors: tuple[int, ...]):
        self.nu, self.d_nu, self.contributors = nu, d_nu, contributors
        self.stationary, self.long_memory, self.invertible = stationary, long_memory, invertible

    @property
    def condition(self) -> str:
        """The stationarity condition at this frequency, e.g. ``|D0+D1| < 1/2``."""
        return "|" + "+".join(f"D{j}" for j in self.contributors) + "| < 1/2"


class StationarityReport:
    def __init__(self, stationary: bool, long_memory: bool, invertible: bool,
                 per_nu: tuple[PerFrequencyFlags, ...], conditions: tuple[str, ...],
                 invertible_frequencies: tuple[float, ...]):
        self.stationary, self.long_memory, self.invertible = stationary, long_memory, invertible
        self.per_nu, self.conditions = per_nu, conditions
        self.invertible_frequencies = invertible_frequencies


def classify_stationarity(spec: FMIncrementSpec) -> StationarityReport:
    """Stationarity / long-memory / invertibility from the frequency set.

    Stationary iff -1/2 < D_nu < 1/2 at every seasonal frequency;
    long memory iff 0 < D_nu < 1/2 at some frequency; invertible iff
    -1/2 < D_nu < 0 at every frequency (frequencies satisfying the
    invertibility window are also listed individually).
    """
    fset = frequency_set(spec)
    per_nu = [PerFrequencyFlags(e.nu, e.d_nu, -0.5 < e.d_nu < 0.5, 0.0 < e.d_nu < 0.5,
                                -0.5 < e.d_nu < 0.0, e.contributors) for e in fset.entries]
    return StationarityReport(
        stationary=all(p.stationary for p in per_nu),
        long_memory=any(p.long_memory for p in per_nu),
        invertible=all(p.invertible for p in per_nu),
        per_nu=tuple(per_nu),
        conditions=tuple(dict.fromkeys(p.condition for p in per_nu)),
        invertible_frequencies=tuple(p.nu for p in per_nu if p.invertible),
    )
