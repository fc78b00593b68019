"""Kronecker symbols, prime sieving and log-weighted character sums over dyadic
prime ranges. Pure number theory: nothing here depends on the groups or the
transfer operators."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SIEVE_CAP = 10**8


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


def primes_between(lo: float, hi: float) -> list[int]:
    """Increasing list of primes in (lo, hi], segmented numpy sieve."""
    if hi > SIEVE_CAP:
        raise SieveCapError(f"sieve bound {hi} exceeds cap {SIEVE_CAP}")
    hi_i = math.floor(hi)
    lo_i = max(math.floor(lo), 1)
    if hi_i < 2 or hi_i <= lo_i - 1:
        return []
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
    if start_val == 1:
        seg[0] = False
    primes = (np.nonzero(seg)[0] + start_val).tolist()
    return [p for p in primes if p > lo]


@dataclass(frozen=True)
class CharSumRecord:
    d: int
    x: float
    total: float            # sum over p ~ x of log(p) * (d/p)
    unweighted: float       # sum of (d/p) alone, kept for plotting
    bound_ratio: float      # |total| / (sqrt(x) log(|d| x)^2)
    prime_count: int


def char_sum(d: int, x: float) -> CharSumRecord:
    if d == 0:
        raise ValueError("top argument d must be nonzero")
    if x < 4:
        raise ValueError("x must be >= 4")
    primes = primes_between(x / 2, x)
    total = 0.0
    unweighted = 0.0
    for p in primes:
        chi = kronecker(d, p)
        total += math.log(p) * chi
        unweighted += chi
    denom = math.sqrt(x) * math.log(abs(d) * x) ** 2
    return CharSumRecord(
        d=d, x=x, total=total, unweighted=unweighted,
        bound_ratio=abs(total) / denom, prime_count=len(primes),
    )
