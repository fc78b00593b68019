"""The Chebyshev proxy behind every real-axis zero search (`_chebyshev_roots`),
on synthetic functions and against the sign scan it replaced."""

import math

import numpy as np
import pytest

from schottky_zeta import new_eigenvalue_count, real_zeros, zeta
from schottky_zeta.congruence import rep_lambda_p0
from schottky_zeta.reps import direct_sum, trivial_rep
from schottky_zeta.zeta import (
    CHEB_START_N,
    CHEB_TAIL_TOL,
    ConvergenceError,
    _bisect_sign_change,
    _chebyshev_roots,
    _multiplicity_circle,
    zeta_det,
)


def test_simple_root_is_a_bracketed_sign_change():
    tol = 1e-10
    roots, nodes, tail = _chebyshev_roots(lambda x: (x - 0.3) * math.exp(x), 0.0, 1.0, tol)
    assert len(roots) == 1
    x, sign_change = roots[0]
    assert sign_change
    assert abs(x - 0.3) <= tol / 2
    assert nodes == CHEB_START_N + 1
    assert tail < CHEB_TAIL_TOL


def test_double_root_is_flagged_even():
    a = 0.4123
    roots, _, _ = _chebyshev_roots(lambda x: (x - a) ** 2 * math.exp(x), 0.0, 1.0, 1e-10)
    assert len(roots) == 1
    x, sign_change = roots[0]
    assert not sign_change
    assert abs(x - a) < 1e-6


@pytest.mark.parametrize("end", [0.2, 0.7])
def test_root_at_an_end(end):
    tol = 1e-9
    roots, _, _ = _chebyshev_roots(lambda x: (x - end) * (2.0 + x), 0.2, 0.7, tol)
    assert len(roots) == 1
    x, sign_change = roots[0]
    assert sign_change
    assert 0.2 <= x <= 0.7
    assert abs(x - end) <= tol / 2


def test_no_zero():
    roots, _, tail = _chebyshev_roots(lambda x: 2.0 + math.cos(5 * x), -1.0, 2.0, 1e-9)
    assert roots == []
    assert tail < CHEB_TAIL_TOL


def test_a_jump_never_converges():
    with pytest.raises(ConvergenceError):
        _chebyshev_roots(lambda x: 1.0 if x > 0.3 else -1.0, 0.0, 1.0, 1e-9)


def test_a_noise_floor_below_sqrt_eps_stops_the_doubling():
    # the 1e-11 ripple is far above CHEB_TAIL_TOL and never resolved: the tail stalls
    tol = 1e-9
    roots, nodes, tail = _chebyshev_roots(
        lambda x: (x - 0.3) * (x - 0.7) * (1 + 1e-11 * math.sin(1e5 * x)), 0.0, 1.0, tol)
    assert nodes <= 65
    assert CHEB_TAIL_TOL < tail < math.sqrt(np.finfo(float).eps)
    assert [sign_change for _, sign_change in roots] == [True, True]
    assert abs(roots[0][0] - 0.3) <= tol and abs(roots[1][0] - 0.7) <= tol


def test_a_stalled_tail_above_sqrt_eps_still_raises():
    # six roots 7e-4 apart, evaluated with cancellation: a tail near 1e-3
    with pytest.raises(ConvergenceError):
        _chebyshev_roots(lambda x: np.polyval(np.poly(1.25 + 7e-4 * np.arange(6)), x),
                         1.25, 1.262, 1e-9)


def test_every_node_is_evaluated_once_across_doublings():
    seen = []

    def f(x):
        seen.append(x)
        return 1.5 + math.cos(12 * x)

    lo, hi = -0.3, 0.8
    roots, nodes, _ = _chebyshev_roots(f, lo, hi, 1e-9)
    assert roots == []
    assert nodes > 2 * CHEB_START_N  # at least one doubling
    assert len(seen) == len(set(seen)) == nodes
    n = nodes - 1
    grid = {((1 - t) * lo + (1 + t) * hi) / 2
            for t in (math.sin(math.pi * (n - 2 * k) / (2 * n)) for k in range(n + 1))}
    assert set(seen) == grid


@pytest.mark.parametrize("tol", [0.0, -1e-6, math.nan])
def test_bad_tolerance_is_rejected_before_any_evaluation(tol):
    def unexpected(x):
        raise AssertionError("no evaluation may happen")

    with pytest.raises(ValueError):
        _chebyshev_roots(unexpected, 0.0, 1.0, tol)


# -- against the method it replaced -----------------------------------------------


def sign_scan_zeros(group, rep, lo, hi, tol, n_basis):
    """The former `real_zeros`: a 200-point sign scan with bisection, plus a
    60-step ternary search of |det| at every sign-preserving local minimum,
    each candidate graded on a circle of radius 5 tol."""
    def det(s):
        return zeta_det(group, s, rep, n_basis)

    xs = np.linspace(lo, hi, 200)
    vals = np.array([det(float(x)).real for x in xs])
    candidates = []
    for i in range(199):
        if vals[i] == 0.0:
            candidates.append(float(xs[i]))
        elif vals[i] * vals[i + 1] < 0:
            candidates.append(_bisect_sign_change(lambda x: det(x).real, float(xs[i]),
                                                  float(xs[i + 1]), vals[i], tol / 4))
    absvals = np.abs(vals)
    for i in range(1, 199):
        if absvals[i] < min(absvals[i - 1], absvals[i + 1]) and vals[i - 1] * vals[i + 1] > 0:
            a, b = float(xs[i - 1]), float(xs[i + 1])
            for _ in range(60):
                if b - a < tol / 4:
                    break
                m1, m2 = a + (b - a) / 3, b - (b - a) / 3
                if abs(det(m1)) < abs(det(m2)):
                    b = m2
                else:
                    a = m1
            if abs(det(0.5 * (a + b))) < math.sqrt(tol):
                candidates.append(0.5 * (a + b))
    zeros = []
    for x in sorted(candidates):
        if zeros and abs(x - zeros[-1][0]) < 5 * tol:
            continue
        mult = _multiplicity_circle(det, complex(x), 5 * tol)
        if mult >= 1:
            zeros.append((x, mult))
    return zeros


@pytest.mark.parametrize("case", ["trivial", "golden-zeros", "lambda_5^0", "trivial+trivial"])
def test_real_zeros_matches_the_sign_scan(g2, delta2, case):
    rep, lo, hi, tol, n_basis = {
        "trivial": (None, 0.05, 0.45, 1e-7, 16),
        "golden-zeros": (None, 0.1, 0.4, 1e-6, 12),
        "lambda_5^0": (rep_lambda_p0(g2, 5), 0.15, delta2, 1e-6, 16),
        # det squared: an even-order zero at delta, which only the dip search finds
        "trivial+trivial": (direct_sum(trivial_rep(g2), trivial_rep(g2)), 0.2, 0.35, 1e-6, 12),
    }[case]
    want = sign_scan_zeros(g2, rep, lo, hi, tol, n_basis)
    got = real_zeros(g2, rep, lo, hi, tol=tol, n_basis=n_basis).zeros
    assert [m for _, m in got] == [m for _, m in want]
    for (z, _), (x, _) in zip(got, want):
        assert z.imag == 0.0
        assert abs(z.real - x) <= tol
    if case.startswith("trivial"):
        assert len(got) == 1 and abs(got[0][0].real - delta2) <= tol
        assert got[0][1] == (2 if case == "trivial+trivial" else 1)


def test_new_eigenvalue_count_takes_at_most_33_determinants(g2, delta2, monkeypatch):
    calls = []
    real = zeta.zeta_det

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    monkeypatch.setattr(zeta, "zeta_det", counted)
    assert new_eigenvalue_count(g2, 7, 0.15, delta_value=delta2) == 0
    assert len(calls) <= 33  # the sign scan took 200
