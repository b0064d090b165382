"""Correctness checks on the program's outputs.

Each check takes plain values and returns a list of problems; an empty list
means the output passed.  The references are either computed by the
benchmark itself, apart from the program (power-series inverses, operator
symbols, whitened closed forms, stationarity conditions), or are
properties the method must have (two error routes agree, window errors
decrease towards the exact error, a converged ascent has a small gap).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


def routes_agree(algebraic: float, spectral: float, rtol: float = 1e-6) -> list[str]:
    diff = abs(algebraic - spectral)
    if diff > rtol * max(abs(algebraic), abs(spectral)) and diff > 1e-12:
        return [f"MSE routes differ: algebraic {algebraic!r}, spectral {spectral!r}"]
    return []


def written_solution(doc: dict, delta: float, n_csv_lines: int, n_grid: int) -> list[str]:
    """solution.json carries the solved delta; the CSV has one row per node."""
    problems = []
    if doc.get("kind") != "interpolation_solution" or doc.get("delta") != delta:
        problems.append(f"solution.json delta {doc.get('delta')!r} is not {delta!r}")
    if n_csv_lines != n_grid + 1:
        problems.append(f"characteristic CSV has {n_csv_lines} lines, expected {n_grid + 1}")
    return problems


def operator_poly(s, mu, d) -> list[int]:
    """Exact coefficients of prod_i (1 - x^{mu_i s_i})^{d_i}."""
    coeffs = [1]
    for si, mi, di in zip(s, mu, d):
        step = si * mi
        for _ in range(di):
            out = coeffs + [0] * step
            for k, c in enumerate(coeffs):
                out[k + step] -= c
            coeffs = out
    return coeffs


def series_inverse(e: list[int], length: int) -> list[int]:
    """Power-series inverse of a polynomial with e[0] = 1, by long division."""
    out = [0] * (length + 1)
    out[0] = 1
    for k in range(1, length + 1):
        out[k] = -sum(e[j] * out[k - j] for j in range(1, min(k, len(e) - 1) + 1))
    return out


def differenced_weights(s, mu, d, a: np.ndarray) -> np.ndarray:
    """b(k) = sum_{m>=k} d_mu(m-k) a(m) with the benchmark's own inverse."""
    n = a.shape[0]
    inv = np.asarray(series_inverse(operator_poly(s, mu, d), n - 1), dtype=float)
    return np.stack([inv[: n - k] @ a[k:] for k in range(n)])


def whitened_symbol_ratio(s, mu, d, lam: np.ndarray) -> np.ndarray:
    """|beta(i lambda)|^2 / |chi(e^{-i lambda})|^2 from the operator definition."""
    out = np.ones_like(lam)
    for si, mi, di in zip(s, mu, d):
        chi2 = np.abs(1.0 - np.exp(-1j * lam * mi * si)) ** (2 * di)
        beta2 = np.ones_like(lam)
        for k in range(-(si // 2), si // 2 + 1):
            beta2 = beta2 * np.abs(lam - 2.0 * np.pi * k / si) ** (2 * di)
        out = out * beta2 / chi2
    return out


def whitened(delta: float, b: np.ndarray, rtol: float = 1e-8) -> list[str]:
    """With f = |beta|^2/|chi|^2 and g = 0 the error is ||b||^2."""
    expect = float(np.sum(b ** 2))
    if abs(delta - expect) > rtol * max(1.0, expect):
        return [f"whitened delta {delta!r} is not ||b||^2 = {expect!r}"]
    return []


def grid_pair(coarse: float, fine: float, rtol: float = 0.005) -> list[str]:
    if abs(coarse - fine) > rtol * abs(fine):
        return [f"grid doubling moved delta from {coarse!r} to {fine!r} (> {rtol:.1%})"]
    return []


def lift_matches(lifted: float, blocked: float, tol: float = 1e-10) -> list[str]:
    if abs(lifted - blocked) > tol * max(1.0, abs(blocked)):
        return [f"lifted delta {lifted!r} differs from hand-blocked {blocked!r}"]
    return []


def hand_blocked(a_scalar: np.ndarray, T: int) -> np.ndarray:
    """Vector weights of a scalar periodic functional, blocked by hand."""
    M = len(a_scalar) - 1
    a = np.zeros((M // T + 1, T))
    for k, value in enumerate(a_scalar):
        a[k // T, k % T] = value
    return a


def oracle_rows(rows: list, delta: float, gap_tol: float = 0.02) -> list[str]:
    """Window errors fall with L, stay above delta, and end within gap_tol."""
    problems = []
    values = [float(v) for _, v in rows]
    for (l1, v1), (l2, v2) in zip(rows, rows[1:]):
        if v2 > v1 + 1e-10:
            problems.append(f"window error rises from L={l1} to L={l2}")
    for L, v in rows:
        if v < delta - 1e-6:
            problems.append(f"window error {v!r} at L={L} is below delta {delta!r}")
    gap = abs(values[-1] - delta) / delta
    if gap > gap_tol:
        problems.append(f"final window gap {gap:.3e} exceeds {gap_tol:.0%}")
    return problems


def budget_zero(delta0: float, p: float, a0: float, tol: float = 1e-3) -> list[str]:
    """D0_2 x zero with one scalar weight: the least favorable error is p a0^2."""
    if abs(delta0 - p * a0 ** 2) > tol:
        return [f"delta0 {delta0!r} is not p a0^2 = {p * a0 ** 2!r}"]
    return []


def above_admissible(delta0: float, reference: float) -> list[str]:
    """The class maximum is at least the error of any admissible pair."""
    if delta0 < reference - 1e-6 * max(1.0, abs(reference)):
        return [f"delta0 {delta0!r} is below the admissible pair's error {reference!r}"]
    return []


def certificate(converged: bool, gap: float, tol: float = 1e-3) -> list[str]:
    if converged and not gap <= tol:
        return [f"reports converged with ascent gap {gap!r} > {tol}"]
    return []


def exit_code(code: int, expected: int) -> list[str]:
    if code != expected:
        return [f"exit code {code}, expected {expected}"]
    return []


def identical(first: dict, second: dict) -> list[str]:
    """Two runs of one command wrote the same files with the same bytes."""
    if first != second:
        differ = sorted(k for k in set(first) | set(second) if first.get(k) != second.get(k))
        return [f"artifacts differ between runs: {', '.join(differ)}"]
    return []


def _convolve_exact(x: list, y: list, n: int) -> list:
    return [sum(x[j] * y[k - j] for j in range(k + 1) if j < len(x) and k - j < len(y))
            for k in range(n)]


def coeffs_identity(doc: dict) -> list[str]:
    """Expansion times inverse series is 1 + 0 x + ... up to the dumped length."""
    problems = []
    n = int(doc["length"]) + 1
    if "expansion" in doc:
        prod = _convolve_exact(doc["expansion"], doc["inverse_series"], n)
        if prod != [1] + [0] * (n - 1):
            problems.append("expansion * inverse_series is not the identity")
    if "series_plus" in doc:
        prod = np.convolve(doc["series_plus"], doc["series_minus"])[:n]
        ident = np.zeros(n)
        ident[0] = 1.0
        if np.max(np.abs(prod - ident)) > 1e-9:
            problems.append("series_plus * series_minus is not the identity")
    return problems


def expected_conditions(increment: dict) -> dict[str, bool]:
    """Stationarity conditions of an 'fm' increment, derived from its orders.

    Each factor with period s acts at the frequencies 2 pi k / s,
    k = 0 .. s // 2; orders of factors sharing a frequency add up there, and
    the condition is that the sum lies strictly inside (-1/2, 1/2).
    """
    acc: dict[Fraction, list] = {}
    if increment.get("R0", 0) or increment.get("D0", 0.0):
        acc.setdefault(Fraction(0), [0.0, []])
        acc[Fraction(0)][0] += float(increment.get("D0", 0.0))
        acc[Fraction(0)][1].append(0)
    for j, factor in enumerate(increment.get("factors", []), start=1):
        s = int(factor["s"])
        for k in range(s // 2 + 1):
            entry = acc.setdefault(Fraction(2 * k, s), [0.0, []])
            entry[0] += float(factor.get("D", 0.0))
            entry[1].append(j)
    out: dict[str, bool] = {}
    for frac in sorted(acc):
        total, members = acc[frac]
        cond = "|" + "+".join(f"D{j}" for j in members) + "| < 1/2"
        out.setdefault(cond, abs(total) < 0.5)
    return out


def classify_matches(doc: dict, increment: dict) -> list[str]:
    got = {c["condition"]: c["satisfied"] for c in doc.get("conditions", [])}
    expect = expected_conditions(increment)
    problems = []
    if got != expect:
        problems.append(f"classify conditions {got} differ from {expect}")
    if doc.get("stationary") != all(expect.values()):
        problems.append("classify stationary flag contradicts its conditions")
    return problems
