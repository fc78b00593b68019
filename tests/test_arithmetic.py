import math

import numpy as np
import pytest
import sympy

from schottky_zeta import (
    char_sum,
    gamma_m,
    hs_prime_sum,
    jensen_bound,
    kronecker,
    primes_between,
)
from schottky_zeta import arithmetic
from schottky_zeta.arithmetic import (
    MR_EXACT_BELOW,
    SieveCapError,
    divides,
    is_prime,
    kronecker_over_primes,
)
from schottky_zeta.cli import main
from schottky_zeta.congruence import SurjectivityError, _is_pm_identity
from schottky_zeta import congruence, transfer, zeta


def _legendre_bruteforce(d, p):
    # odd prime p: 0 if p | d, else quadratic residue test by Euler's criterion
    d = d % p
    if d == 0:
        return 0
    return 1 if pow(d, (p - 1) // 2, p) == 1 else -1


def test_kronecker_against_legendre():
    for p in (3, 5, 7, 11, 13, 97):
        for d in range(-30, 31):
            if d == 0:
                continue
            assert kronecker(d, p) == _legendre_bruteforce(d, p), (d, p)


def test_kronecker_bottom_one():
    for a in range(-20, 21):
        assert kronecker(a, 1) == 1


def test_kronecker_even_bottom():
    # (a/2) is 0 for even a, +1 for a = +-1 mod 8, -1 for a = +-3 mod 8
    assert kronecker(2, 2) == 0
    assert kronecker(7, 2) == 1
    assert kronecker(3, 2) == -1
    assert kronecker(5, 2) == -1
    assert kronecker(9, 2) == 1


def test_kronecker_multiplicative_bottom():
    for a in range(-15, 16):
        if a == 0:
            continue
        for m in range(1, 20):
            for n in range(1, 20):
                assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)


def test_kronecker_rejects_nonpositive_bottom():
    with pytest.raises(ValueError):
        kronecker(3, 0)
    with pytest.raises(ValueError):
        kronecker(3, -5)


def test_kronecker_over_primes_matches_one_symbol_per_prime():
    primes = primes_between(0, 5000)
    for d in [*range(-64, 0), *range(1, 65), 142 * 142 - 4, -(10**9 + 7), 2**40, 3**50 - 4]:
        assert kronecker_over_primes(d, primes).tolist() == [kronecker(d, p) for p in primes], d
    # the table of a period's symbols from 4|d| <= #primes on, one symbol per class below
    for count in (3, 19, 20, 21):
        assert kronecker_over_primes(5, primes[:count]).tolist() == [
            kronecker(5, p) for p in primes[:count]], count
    with pytest.raises(ValueError):
        kronecker_over_primes(0, primes)


def test_primes_between_matches_sympy():
    for lo, hi in ((0, 30), (10, 11), (5, 50), (100, 200), (9999, 10200)):
        assert primes_between(lo, hi) == list(sympy.primerange(lo + 1, hi + 1))


def test_primes_between_half_open():
    # interval is (lo, hi]: endpoints behave asymmetrically
    assert primes_between(5, 11) == [7, 11]
    assert primes_between(4.5, 11.5) == [5, 7, 11]
    assert primes_between(20, 22) == []


@pytest.mark.parametrize("lo, hi, primes", [
    (0, 2, [2]), (1, 3, [2, 3]), (-5, 10, [2, 3, 5, 7]), (1.5, 2, [2]), (2, 3, [3]),
])
def test_primes_between_at_the_bottom_of_the_sieve(lo, hi, primes):
    # the segment starts at max(floor(lo), 1) + 1 >= 2, so 1 is never in it
    assert primes_between(lo, hi) == primes


def test_primes_between_cap():
    with pytest.raises(SieveCapError):
        primes_between(0, 10**9)


def test_is_prime_matches_the_sieve():
    sieve = set(primes_between(0, 10**5))
    assert [n for n in range(10**5) if is_prime(n)] == sorted(sieve)
    # Carmichael 561 and the least strong pseudoprimes to the first 1, 2, 4 and 9 prime bases
    for n in (561, 2047, 1373653, 3215031751, 3825123056546413051):
        assert not is_prime(n), n
    assert is_prime(2**61 - 1) and not is_prime((2**31 - 1) * (10**9 + 7))
    with pytest.raises(ValueError):
        is_prime(MR_EXACT_BELOW)


def test_divides_matches_python_remainders():
    primes = np.array(primes_between(0, 2000) + [99999989], dtype=np.int64)
    for n in (0, 1, -6, 2 * 3 * 1999, -(99999989 * 2**70), 3**200 * 1993,
              2**62 * 1993 + 1993, 1999 * 99999989 * (10**40 + 7), 10**40 + 7):
        assert divides(n, primes).tolist() == [n % p == 0 for p in primes.tolist()], n


@pytest.mark.parametrize("x", [4, 5, 1e4, 3e4])
def test_char_sum_matches_a_per_prime_loop_bit_for_bit(x):
    primes = primes_between(x / 2, x)
    for d in (-3, -4, 2, 5, 8, 12, -60):
        total = unweighted = 0.0
        for p in primes:
            chi = kronecker(d, p)
            total += math.log(p) * chi
            unweighted += chi
        rec = char_sum(d, x)
        assert (rec.total, rec.unweighted, rec.prime_count) == (total, unweighted, len(primes)), d


def test_charsum_command_sieves_each_x_once(tmp_path, monkeypatch):
    bounds = []
    real = arithmetic._sieve

    def counted(lo, hi):
        bounds.append(hi)
        return real(lo, hi)

    monkeypatch.setattr(arithmetic, "_sieve", counted)
    assert main(["--out", str(tmp_path), "charsum", "--d", "5,8,13", "--x", "1e4,3e4,1e4"]) == 0
    assert sorted(bounds) == [1e4, 3e4]
    assert len((tmp_path / "charsum.csv").read_text().splitlines()) == 1 + 9


@pytest.mark.parametrize("m, tau, x", [(3, 2.0**-5, 4.0), (2, 2.0**-6, 60.0)])
def test_hs_off_diagonal_matches_a_per_prime_loop(m, tau, x):
    # reference: the trace formula prime by prime, p log p where the pair word is +-I mod p
    group = gamma_m(m)
    rec = hs_prime_sum(group, tau, 0.9, x, mode="decomposed")
    pair_total = transfer.pair_integrals(group, group.partition(tau), 0.9)
    off_diagonal, fallback = 0.0, 0
    for (wa, wb) in sorted(pair_total):
        if wa == wb:
            continue
        g = group.word_matrix(group.mirror(wa) + wb)
        tr_sum = 0.0
        for p in rec.primes:
            if _is_pm_identity(g, p):
                fallback += 1
                tr_sum += math.log(p) * p
            else:
                tr_sum += math.log(p) * kronecker(g.trace() ** 2 - 4, p)
        off_diagonal += tr_sum * pair_total[wa, wb].real
    assert rec.fallback_pairs == fallback
    assert rec.off_diagonal == pytest.approx(off_diagonal, rel=1e-12)


def test_char_sum_single_prime():
    # only prime in (5, 10] is 7 and (5/7) = -1
    rec = char_sum(5, 10.0)
    assert rec.prime_count == 1
    assert rec.total == pytest.approx(-math.log(7.0), rel=1e-15)
    assert rec.unweighted == -1.0
    assert rec.bound_ratio == pytest.approx(
        math.log(7.0) / (math.sqrt(10.0) * math.log(50.0) ** 2), rel=1e-14
    )


def test_char_sum_rejects_bad_input():
    with pytest.raises(ValueError):
        char_sum(0, 100.0)
    with pytest.raises(ValueError):
        char_sum(5, 2.0)


@pytest.mark.parametrize("x", [math.nan, math.inf])
def test_the_sieve_rejects_a_bound_that_is_not_finite(g2, x):
    message = f"sieve bound hi = {x} is not finite"
    with pytest.raises(ValueError, match=message):
        char_sum(5, x)
    with pytest.raises(ValueError, match=message):
        hs_prime_sum(g2, 2.0**-6, 0.9, x, mode="decomposed")
    with pytest.raises(ValueError, match=f"sieve bound lo = {-x} is not finite"):
        primes_between(-x, 100)


def test_hs_prime_sum_two_paths(g2):
    rec = hs_prime_sum(g2, 2.0**-6, 0.9, 12.0)
    assert rec.primes == (7, 11)
    assert rec.direct == pytest.approx(rec.decomposed, rel=1e-10)
    assert rec.decomposed == pytest.approx(rec.diagonal + rec.off_diagonal, rel=1e-12)


def test_hs_prime_sum_modes(g2):
    d = hs_prime_sum(g2, 2.0**-6, 0.9, 12.0, mode="direct")
    assert d.decomposed is None and d.direct is not None
    e = hs_prime_sum(g2, 2.0**-6, 0.9, 12.0, mode="decomposed")
    assert e.direct is None and e.decomposed == pytest.approx(d.direct, rel=1e-10)


@pytest.mark.parametrize("mode", ["Decomposed", "", "all", None])
def test_hs_prime_sum_rejects_an_unknown_mode_before_the_sieve(g2, monkeypatch, mode):
    def unexpected(*args, **kwargs):
        raise AssertionError("the sieve may not run")

    monkeypatch.setattr(zeta, "dyadic_primes", unexpected)
    with pytest.raises(ValueError, match="mode must be"):
        hs_prime_sum(g2, 2.0**-6, 0.9, 60.0, mode=mode)


def test_hs_prime_sum_rejects_nonsurjective():
    g1 = gamma_m(1)
    # gamma_m:1 reduces to a cyclic subgroup mod small primes in this range
    with pytest.raises(ValueError):
        hs_prime_sum(g1, 2.0**-6, 0.9, 4.0)


def test_hs_prime_sum_refuses_a_non_surjective_prime_before_any_pair_integral(monkeypatch):
    def unexpected(*args, **kwargs):
        raise AssertionError("pair integrals computed for a non-surjective prime")

    monkeypatch.setattr(zeta, "pair_integrals", unexpected)
    with pytest.raises(SurjectivityError, match="not surjective"):
        hs_prime_sum(gamma_m(1), 2.0**-6, 0.9, 60.0)


@pytest.mark.parametrize("s", [math.nan, complex(0.9, math.inf)])
def test_hs_prime_sum_refuses_a_non_finite_s_before_the_sieve(g2, monkeypatch, s):
    # at x = 1e7 the sieve and the certificates of its 316,066 primes came first
    def unexpected(*args, **kwargs):
        raise AssertionError("primes sieved for a non-finite s")

    monkeypatch.setattr(zeta, "dyadic_primes", unexpected)
    with pytest.raises(ValueError, match="s must be finite"):
        hs_prime_sum(g2, 2.0**-6, s, 1e7, mode="decomposed")


def test_hs_prime_sum_refuses_a_sum_past_float64(g2, monkeypatch):
    # finite pair integrals whose log-weighted prime sums overflow
    monkeypatch.setattr(zeta, "_trace_pair_sum", lambda rep, ints: 1e308)
    with pytest.raises(OverflowError, match=r"^the direct prime sum overflows float64 at s = 0.9$"):
        hs_prime_sum(g2, 2.0**-6, 0.9, 60.0, mode="direct")
    ints = transfer.pair_integrals(g2, g2.partition(2.0**-6), 0.9)
    scale = 1e307 / max(abs(v) for v in ints.values())
    monkeypatch.setattr(zeta, "pair_integrals", lambda *args: {k: scale * v for k, v in ints.items()})
    with pytest.raises(OverflowError, match=r"^the decomposed prime sum overflows float64 at s = 0.9$"):
        hs_prime_sum(g2, 2.0**-6, 0.9, 60.0, mode="decomposed")


def test_hs_prime_sum_decomposed_runs_no_primality_test(g2, monkeypatch):
    # the sieve's primes are certified as one array, never one is_prime at a time
    def no_is_prime(n):
        raise AssertionError(f"is_prime({n}) called")

    monkeypatch.setattr(congruence, "is_prime", no_is_prime)
    rec = hs_prime_sum(g2, 2.0**-6, 0.9, 1e5, mode="decomposed")
    assert len(rec.primes) == 4459
    assert rec.decomposed == 3579390.96006194


def test_hs_prime_sum_direct_mode_rejects_primes_past_the_cap(g2):
    with pytest.raises(ValueError, match=f"DIRECT_P_CAP={zeta.DIRECT_P_CAP}"):
        hs_prime_sum(g2, 2.0**-6, 0.9, 3000.0, mode="direct")


def test_jensen_bound_nonnegative(g2):
    b = jensen_bound(g2, 5, 0.2, 2.0**-5, n_basis=8, theta_samples=128, bound_tol=0.5)
    assert b >= 0.0


def test_jensen_bound_requires_sigma_below_delta(g2):
    with pytest.raises(ValueError):
        jensen_bound(g2, 5, 0.9, 2.0**-5, n_basis=8)
