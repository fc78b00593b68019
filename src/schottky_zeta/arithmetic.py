"""Kronecker symbols, primality, prime sieving and log-weighted character sums
over dyadic prime ranges. Pure number theory: nothing here depends on the
groups or the transfer operators."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SIEVE_CAP = 10**8
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# the least odd composite that is a strong pseudoprime to every base of
# MR_BASES (Sorenson and Webster, Math. Comp. 86, 2017)
MR_EXACT_BELOW = 318665857834031151167461


class SieveCapError(ValueError):
    pass


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a/n) for n >= 1, factor-free reciprocity algorithm."""
    if n < 1:
        raise ValueError("bottom argument must be a positive integer")
    result = 1
    while n % 2 == 0:
        if a % 2 == 0:
            return 0
        n //= 2
        if a % 8 in (3, 5):
            result = -result
    # Jacobi symbol for odd n
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test with the bases MR_BASES, exact for
    n < MR_EXACT_BELOW; larger n raise ValueError."""
    if n >= MR_EXACT_BELOW:
        raise ValueError(f"{n} is past the deterministic Miller-Rabin range {MR_EXACT_BELOW}")
    if n < 2:
        return False
    for q in MR_BASES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for q in MR_BASES:
        y = pow(q, d, n)
        if y in (1, n - 1):
            continue
        for _ in range(r - 1):
            y = y * y % n
            if y == n - 1:
                break
        else:
            return False
    return True


def kronecker_over_primes(d: int, primes: np.ndarray) -> np.ndarray:
    """(d/p) for each prime p of the int64 array `primes`, one symbol per
    residue class.

    On primes, (d/p) depends only on p mod 4|d| (Davenport, Multiplicative
    Number Theory, ch. 5): odd p by Jacobi reciprocity, and p = 2 is the one
    prime in its class. When the period is at most the number of primes, the
    symbols of all its residues form a table indexed by p mod 4|d|; otherwise
    each residue class present gets one symbol.
    """
    if d == 0:
        raise ValueError("top argument d must be nonzero")
    primes = np.asarray(primes, dtype=np.int64)
    period = 4 * abs(d)
    if period <= primes.size:
        # no prime is 0 mod 4|d|
        table = np.array([0] + [kronecker(d, r) for r in range(1, period)], dtype=np.int64)
        return table[primes % period]
    # a period past int64 exceeds every prime, which is then its own residue
    residues = primes % period if period < 2**63 else primes
    classes, where = np.unique(residues, return_inverse=True)
    return np.array([kronecker(d, r) for r in classes.tolist()], dtype=np.int64)[where]


def divides(n: int, primes: np.ndarray) -> np.ndarray:
    """Whether each prime (below 2^31) of the int64 array `primes` divides the
    integer n, by Horner's rule over 31-bit limbs of |n|, so that no
    intermediate leaves int64 however large n is."""
    n = abs(n)
    r = np.zeros_like(primes)
    for shift in range(31 * ((n.bit_length() - 1) // 31), -1, -31):
        r = ((r << 31) | ((n >> shift) & (2**31 - 1))) % primes
    return r == 0


def _sieve(lo: float, hi: float) -> np.ndarray:
    """Increasing int64 array of the primes in (lo, hi], segmented numpy sieve."""
    for name, bound in (("hi", hi), ("lo", lo)):
        if not math.isfinite(bound):
            raise ValueError(f"sieve bound {name} = {bound} is not finite")
    if hi > SIEVE_CAP:
        raise SieveCapError(f"sieve bound {hi} exceeds cap {SIEVE_CAP}")
    hi_i = math.floor(hi)
    lo_i = max(math.floor(lo), 1)
    if hi_i < 2 or hi_i <= lo_i - 1:
        return np.zeros(0, dtype=np.int64)
    root = math.isqrt(hi_i)
    base = np.ones(root + 1, dtype=bool)
    base[:2] = False
    for q in range(2, math.isqrt(root) + 1):
        if base[q]:
            base[q * q :: q] = False
    base_primes = np.nonzero(base)[0]

    seg = np.ones(hi_i - lo_i, dtype=bool)  # indices lo_i+1 .. hi_i
    start_val = lo_i + 1
    for q in base_primes:
        q = int(q)
        first = max(q * q, ((start_val + q - 1) // q) * q)
        if first > hi_i:
            continue
        seg[first - start_val :: q] = False
    primes = np.nonzero(seg)[0].astype(np.int64, copy=False) + start_val
    return primes[primes > lo]


def primes_between(lo: float, hi: float) -> list[int]:
    """Increasing list of primes in (lo, hi]."""
    return _sieve(lo, hi).tolist()


def dyadic_primes(x: float) -> tuple[np.ndarray, np.ndarray]:
    """The primes p ~ x, that is in (x/2, x], as an int64 array, and log p for
    each. The logs are math.log's: np.log misses it in the last bit on some
    primes (12 of the 168k primes at x = 5e6)."""
    primes = _sieve(x / 2, x)
    return primes, np.fromiter(map(math.log, primes.tolist()), dtype=float, count=primes.size)


def log_weighted_sum(logs: np.ndarray, values: np.ndarray) -> float:
    """The sum of log(p) * v(p) over the primes, added strictly left to right
    (np.cumsum), so it is bit for bit the sum of a loop over increasing p."""
    terms = logs * values
    return float(np.cumsum(terms)[-1]) if terms.size else 0.0


@dataclass(frozen=True)
class CharSumRecord:
    d: int
    x: float
    total: float            # sum over p ~ x of log(p) * (d/p)
    unweighted: float       # sum of (d/p) alone, kept for plotting
    bound_ratio: float      # |total| / (sqrt(x) log(|d| x)^2)
    prime_count: int


def char_sums(ds: list[int], x: float) -> list[CharSumRecord]:
    """`char_sum(d, x)` for each d of ds, from one sieve of the primes p ~ x."""
    for d in ds:
        if d == 0:
            raise ValueError("top argument d must be nonzero")
        if x < 4:
            raise ValueError("x must be >= 4")
    if not ds:
        return []
    primes, logs = dyadic_primes(x)
    records = []
    for d in ds:
        chi = kronecker_over_primes(d, primes)
        total = log_weighted_sum(logs, chi)
        denom = math.sqrt(x) * math.log(abs(d) * x) ** 2
        records.append(CharSumRecord(
            d=d, x=x, total=total, unweighted=float(chi.sum()),
            bound_ratio=abs(total) / denom, prime_count=len(primes),
        ))
    return records


def char_sum(d: int, x: float) -> CharSumRecord:
    return char_sums([d], x)[0]
