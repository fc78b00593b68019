"""Acceptance suite: each test is one verification criterion with pinned
tolerances and prints a single pass/fail line.

The criteria cover: the trace identity for the induced representations, the
norm/congruence constraints for elements trivial mod q, determinant
factorizations, Euler product vs Fredholm determinant, consistency and
monotonicity of the limit-set dimension, the refinement property of zeros,
Hilbert-Schmidt norms by two methods, the summed prime diagnostic, scaling
laws of the partition sets, Kronecker symbol correctness, character-sum
bounds, and the Jensen zero-count bound.
"""

import math

import numpy as np
import pytest

from schottky_zeta import (
    char_sum,
    delta,
    euler_product,
    hs_norm_integral,
    hs_norm_matrix,
    hs_prime_sum,
    jensen_bound,
    kronecker,
    new_eigenvalue_count,
    real_zeros,
    refined_zeta,
    rep_lambda_p,
    rep_lambda_p0,
    surjective_mod_p,
    zeta_det,
)
from schottky_zeta.congruence import congruence_norm_check, trace_bruteforce, trace_formula
from schottky_zeta.reps import direct_sum, trivial_rep
from schottky_zeta.transfer import assemble_refined
from schottky_zeta.zeta import delta_bisection, delta_from_zeta


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def words6(g2):
    return [w for w in g2.words_up_to(6) if w]


@pytest.fixture(scope="module")
def matrices6(g2, words6):
    return {w: g2.word_matrix(w) for w in words6}


def test_criterion_01_trace_formula_equivalence(g2, words6, matrices6):
    primes = [p for p in range(5, 48)
              if all(p % q for q in range(2, int(math.isqrt(p)) + 1))]
    checked = 0
    mismatches = 0
    for p in primes:
        if not surjective_mod_p(g2, p):
            continue
        for w in words6:
            g = matrices6[w]
            if abs(g.trace()) <= 2:
                continue
            checked += 1
            if trace_formula(g2, g, p) != trace_bruteforce(g2, [g], p)[0]:
                mismatches += 1
    report(1, "trace-formula-equivalence", checked > 10000 and mismatches == 0,
           f"{mismatches} mismatches over {checked} word-prime pairs")


def test_criterion_02_norm_congruence_constraints(g2, words6, matrices6):
    from schottky_zeta.congruence import _is_pm_identity

    checked = 0
    failures = 0
    for q in (2, 3, 5):
        for w in words6:
            g = matrices6[w]
            if abs(g.trace()) <= 2 or not _is_pm_identity(g, q):
                continue
            checked += 1
            rep = congruence_norm_check(g, q)
            if not (rep.ok and rep.trace_congruent_pm2):
                failures += 1
    report(2, "norm-congruence-constraints", checked > 0 and failures == 0,
           f"{failures} failures over {checked} elements congruent to +-I")


def test_criterion_03_determinant_factorizations(g2, delta2):
    grid = np.linspace(delta2 + 0.2, delta2 + 1.0, 20)
    rep1 = trivial_rep(g2)
    worst = 0.0
    for s in grid:
        s = float(s)
        z1 = zeta_det(g2, s, rep1, n_basis=24)
        z11 = zeta_det(g2, s, direct_sum(rep1, rep1), n_basis=24)
        worst = max(worst, abs(z11 - z1 * z1) / abs(z11))
    for p in (5, 7, 11):
        lam = rep_lambda_p(g2, p)
        lam0 = rep_lambda_p0(g2, p)
        for s in grid:
            s = float(s)
            zp = zeta_det(g2, s, lam, n_basis=24)
            z = zeta_det(g2, s, None, n_basis=24)
            zp0 = zeta_det(g2, s, lam0, n_basis=24)
            worst = max(worst, abs(zp - z * zp0) / abs(zp))
    report(3, "determinant-factorizations", worst < 1e-6, f"worst relative gap {worst:.3e}")


def test_criterion_04_euler_fredholm_agreement(g2, delta2):
    s = delta2 + 1.0
    det = zeta_det(g2, s, None, n_basis=24)
    gaps = []
    for len_max in (4, 6, 8, 10, 12):
        ep = euler_product(g2, s, len_max=len_max, tail_tol=1e-6)
        gaps.append(abs(ep - det) / abs(det))
    monotone = all(
        gaps[i + 1] <= gaps[i] or (gaps[i] < 1e-12 and gaps[i + 1] < 1e-12)
        for i in range(len(gaps) - 1)
    )
    report(4, "euler-fredholm-agreement", gaps[-1] < 1e-6 and monotone,
           f"final gap {gaps[-1]:.3e}, gaps {['%.1e' % v for v in gaps]}")


def test_criterion_05_delta_consistency(g2, g3, g4):
    deltas = {}
    worst = 0.0
    for g in (g2, g3):
        d1 = delta_bisection(g, tol=1e-7)
        d2 = delta_from_zeta(g, tol=1e-7)
        worst = max(worst, abs(d1 - d2))
        deltas[g.label] = d1
    deltas[g4.label] = delta(g4, tol=1e-7)
    ordered = deltas["gamma_m:2"] < deltas["gamma_m:3"] < deltas["gamma_m:4"]
    report(5, "delta-consistency", worst < 1e-6 and ordered,
           f"method gap {worst:.2e}, deltas {[round(v, 6) for v in deltas.values()]}")


def test_criterion_06_refinement_property(g2, delta2):
    lo, hi = 0.5, delta2
    zeros = []
    if hi > lo:
        zeros = [z.real for z, _ in real_zeros(g2, None, lo, hi, tol=1e-7).zeros]
    worst = 0.0
    for tau in (2.0**-6, 2.0**-8):
        part = g2.partition(tau)
        for z in zeros:
            worst = max(worst, abs(refined_zeta(g2, part, z, None, n_basis=24)))
    detail = f"{len(zeros)} zeros in (0.5, delta], worst |zeta_tau| {worst:.2e}"
    if not zeros:
        detail = f"vacuous: delta = {delta2:.6f} <= 0.5, no zeros in (0.5, delta]"
    report(6, "refinement-property", worst < 1e-6, detail)


def test_criterion_07_hs_two_paths(g2):
    rep5 = rep_lambda_p0(g2, 5)
    worst = 0.0
    for tau in (2.0**-6, 2.0**-8):
        part = g2.partition(tau)
        for s in (0.8, 0.9, 0.9 + 0.5j):
            for rep in (None, rep5):
                integral = hs_norm_integral(g2, part, s, rep).value
                n = 24 if rep is None else 16
                fro = hs_norm_matrix(assemble_refined(g2, part, s, rep, n_basis=n)) ** 2
                worst = max(worst, abs(integral - fro) / fro)
    report(7, "hs-norm-two-paths", worst < 0.01, f"worst relative gap {worst:.3e}")


def test_criterion_08_prime_sum_two_paths(g2):
    rec = hs_prime_sum(g2, 2.0**-6, 0.9, 12.0)
    gap = abs(rec.direct - rec.decomposed) / abs(rec.direct)
    report(8, "prime-sum-two-paths", gap < 1e-6,
           f"relative gap {gap:.3e}, primes {list(rec.primes)}")


def test_criterion_09_scaling_law_bands(g2, delta2):
    count_band = []
    ups_max, ups_min, nrm_max, nrm_min = [], [], [], []
    for k in range(5, 15):
        tau = 2.0**-k
        part = g2.partition(tau)
        count_band.append(len(part.Y) * tau**delta2)
        ups = [g2.upsilon(w) / tau for w in part.Y]
        nrm = [g2.word_matrix(w).frobenius_norm() * math.sqrt(tau) for w in part.Y]
        ups_max.append(max(ups))
        ups_min.append(min(ups))
        nrm_max.append(max(nrm))
        nrm_min.append(min(nrm))
    bands = {
        "count": count_band, "ups_max": ups_max, "ups_min": ups_min,
        "nrm_max": nrm_max, "nrm_min": nrm_min,
    }
    ratios = {k: max(v) / min(v) for k, v in bands.items()}
    ok = all(r < 10.0 for r in ratios.values())
    report(9, "scaling-law-bands", ok,
           ", ".join(f"{k} x{r:.2f}" for k, r in ratios.items()))


def test_criterion_10_kronecker_correctness():
    mismatches = 0
    for p in range(3, 200, 2):
        if any(p % q == 0 for q in range(3, int(math.isqrt(p)) + 1, 2)):
            continue
        for d in range(-500, 501):
            expected = 0 if d % p == 0 else (1 if pow(d % p, (p - 1) // 2, p) == 1 else -1)
            if kronecker(d, p) != expected:
                mismatches += 1
    mult_failures = 0
    for a in range(-60, 61):
        if a == 0:
            continue
        for b in range(1, 61):
            for n in range(1, 61):
                if kronecker(a * b, n) != kronecker(a, n) * kronecker(b, n):
                    mult_failures += 1
    report(10, "kronecker-correctness", mismatches == 0 and mult_failures == 0,
           f"{mismatches} residue mismatches, {mult_failures} multiplicativity failures")


def test_criterion_11_character_sum_bounds():
    worst = 0.0
    for d in (5, 8, 13, 60):
        for x in (1e4, 1e5, 1e6):
            worst = max(worst, char_sum(d, x).bound_ratio)
    report(11, "character-sum-bounds", worst < 1.0, f"worst bound ratio {worst:.4f}")


def test_criterion_12_jensen_dominance(g2, delta2):
    tau = 2.0**-6
    sigmas = [f * delta2 for f in (0.6, 0.7, 0.8) if 0.5 < f * delta2 < delta2]
    failures = 0
    for p in (5, 7, 11):
        for sigma in sigmas:
            bound = jensen_bound(g2, p, sigma, tau, K=6.0, delta_value=delta2)
            count = new_eigenvalue_count(g2, p, sigma, delta_value=delta2)
            if bound < count:
                failures += 1
    detail = f"{failures} violations over {3 * len(sigmas)} (p, sigma) points"
    if not sigmas:
        detail = f"vacuous: no grid points of (0.6,0.7,0.8)*delta lie in (1/2, delta={delta2:.4f})"
    report(12, "jensen-dominance", failures == 0, detail)
