"""Reduction of the group modulo primes: projective-line permutation action,
the induced representation and its sum-zero part, and trace/norm identities."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arithmetic import divides, is_prime, kronecker_over_primes
from .reps import UnitaryRep
from .schottky import Moebius, SchottkyGroup

CLOSURE_CAP = 10**7  # elements the BFS fallback of closure_size may enumerate
DIRECT_P_CAP = 1000  # largest prime of a dense lambda_p, and so of the direct HS prime sum
# The trace witnesses of closure_size are searched among the reduced words of
# length <= WITNESS_LEN, stopping at the first length with more than
# WITNESS_WORDS words. For gamma_m:2 that is length 8; every prime
# 11 <= p < 2e7 is certified by length 5.
WITNESS_LEN = 8
WITNESS_WORDS = 10**4
LINE_BLOCK = 2**16  # entries of one block of images of `_line_images`


class SurjectivityError(ValueError):
    pass


def reduce_mod(g: Moebius, q: int) -> tuple[tuple[int, int], tuple[int, int]]:
    if q < 2:
        raise ValueError("modulus must be >= 2")
    return ((g.a % q, g.b % q), (g.c % q, g.d % q))


@lru_cache(maxsize=None)
def _closure_size(group: SchottkyGroup, p: int) -> int:
    """Size of the subgroup of SL_2(F_p), p prime, generated by the reduced
    generators, by a BFS over its elements: the fallback of `closure_size` and
    its oracle in the tests. Cached; it stops at the element past CLOSURE_CAP."""
    gens = [reduce_mod(group.generator(a), p) for a in group.alphabet]
    gens = [(g[0][0], g[0][1], g[1][0], g[1][1]) for g in gens]
    identity = (1, 0, 0, 1)
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for (a, b, c, d) in frontier:
            for (e, f, g2, h) in gens:
                prod = (
                    (a * e + b * g2) % p,
                    (a * f + b * h) % p,
                    (c * e + d * g2) % p,
                    (c * f + d * h) % p,
                )
                if prod not in seen:
                    seen.add(prod)
                    nxt.append(prod)
                    if len(seen) > CLOSURE_CAP:
                        raise SurjectivityError(f"closure mod {p} exceeds enumeration cap "
                                                f"{CLOSURE_CAP} after {len(seen)} elements")
        frontier = nxt
    return len(seen)


@lru_cache(maxsize=None)
def _word_traces(group: SchottkyGroup, n: int) -> tuple[int, ...]:
    """The distinct exact traces of the reduced words of length n."""
    return tuple(sorted({group.word_matrix(w).trace() for w in group.words_of_length(n)}))


def _witnessed(group: SchottkyGroup, primes: np.ndarray) -> np.ndarray:
    """Whether the short reduced words carry the three trace witnesses of
    `closure_size` at each prime of the int64 array `primes`: u = t^2 mod p is
    outside {0, 1, 2, 4} iff p does not divide t(t^2 - 1)(t^2 - 2)(t^2 - 4), and
    u^2 - 3u + 1 != 0 iff p does not divide t^4 - 3t^2 + 1."""
    found = np.zeros((3, primes.size), dtype=bool)  # split, non-split, order above 5
    todo = np.flatnonzero(primes >= 11)  # below 11 no witness exists (see closure_size)
    for n in range(1, WITNESS_LEN + 1):
        if not todo.size or group.word_count(n) > WITNESS_WORDS:
            break
        for t in _word_traces(group, n):
            t2 = t * t
            if not todo.size or t2 in (0, 1, 4):  # all certified, or u in {0, 1, 4} at every p
                continue
            q = primes[todo]
            usable = ~divides(t * (t2 - 1) * (t2 - 2) * (t2 - 4), q)
            chi = kronecker_over_primes(t2 - 4, q)
            found[:, todo] |= [usable & (chi == 1), usable & (chi == -1),
                               usable & ~divides(t2 * t2 - 3 * t2 + 1, q)]
            todo = todo[~found[:, todo].all(axis=0)]
    return found.all(axis=0)


@lru_cache(maxsize=None)
def closure_size(group: SchottkyGroup, p: int) -> int:
    """Size of the reduction of the group mod p, a subgroup H of SL_2(F_p).

    For a prime p >= 5, Dickson's list puts every proper subgroup of
    SL_2(F_p) inside a Borel subgroup, the normaliser of a split or of a
    non-split Cartan subgroup, or one of 2.A_4, 2.S_4, 2.A_5. Serre
    (Invent. Math. 15, 1972, sec. 2, Prop. 19) rules each out by the trace t
    of one element of H, with u = t^2 mod p not in {0, 1, 2, 4}:

    - t^2 - 4 a non-square mod p: the element lies in no Borel subgroup and
      in no split Cartan normaliser;
    - t^2 - 4 a non-zero square mod p: it lies in no non-split Cartan
      normaliser;
    - u^2 - 3u + 1 != 0 mod p: u = 4, 0, 1, 2 and the two roots of
      u^2 - 3u + 1 are the values of u on the elements of PSL_2(F_p) of
      order 1 or p, 2, 3, 4 and 5, so the element's image has order above 5
      and it lies in none of 2.A_4, 2.S_4, 2.A_5, whose images have no
      element of order above 5.

    When the exact traces of the short reduced words (length <= WITNESS_LEN,
    at most WITNESS_WORDS words per length) hold all three witnesses, H is
    all of SL_2(F_p) and this is p(p^2 - 1).
    Otherwise (p < 5; p = 5 or 7, where every square lies in {0, 1, 2, 4}, so
    no witness exists; a reduction not onto) it is the BFS size `_closure_size`,
    capped per element at CLOSURE_CAP. A composite p raises ValueError, as does
    p >= 2^31, past `divides`, where an onto BFS could only end at the cap.
    """
    if p >= 2 and not is_prime(p):
        raise ValueError(f"modulus {p} is not prime")
    if p >= 2**31:
        raise ValueError(f"modulus {p} is past the limit 2^31 of closure_size")
    if _witnessed(group, np.array([p]))[0]:
        return p * (p * p - 1)
    return _closure_size(group, p)


def surjective_mod_p(group: SchottkyGroup, p: int) -> bool:
    return closure_size(group, p) == p * (p * p - 1)


def surjective_primes(group: SchottkyGroup, primes: np.ndarray) -> np.ndarray:
    """`surjective_mod_p` at each prime of the int64 array `primes`, taken to be
    prime (sieve output): the trace witnesses over the whole array, then the
    BFS `_closure_size` at the primes they leave uncertified."""
    onto = _witnessed(group, primes)
    onto[~onto] = [_closure_size(group, p) == p * (p * p - 1) for p in primes[~onto].tolist()]
    return onto


@lru_cache(maxsize=16)
def _fermat_inverses(p: int) -> np.ndarray:
    """x^(p-2) mod p for x = 0, ..., p - 1, the inverse of x when p is prime,
    by square-and-multiply over one int64 array (p^2 < 2^62)."""
    base = np.arange(p, dtype=np.int64)
    inv = np.ones(p, dtype=np.int64)
    e = p - 2
    while e:
        if e & 1:
            inv = inv * base % p
        base = base * base % p
        e >>= 1
    inv.flags.writeable = False  # cached: every caller shares it
    return inv


def _line_images(gs, p: int):
    """The right action x -> x g of each element g of gs on P^1(F_p), with the
    line (1:x) indexed by x < p and (0:1) by p: yields the int64 arrays of the
    images, one row per element, in blocks of at most LINE_BLOCK entries.

    (u:v) g = (ua + vc : ub + vd), and the image of (1:x) is (b + xd)/(a + xc)
    where that denominator is non-zero, else (0:1). The entries are reduced
    mod p as exact integers first, since long words pass int64. p must be a prime below 2^31."""
    if not (2 <= p < 2**31 and is_prime(p)):
        raise ValueError(f"modulus must be a prime in [2, 2^31), got {p}")
    rows = np.array([(g.a, g.b, g.c, g.d) for g in gs], dtype=object).reshape(-1, 4)
    rows = (rows % p).astype(np.int64)
    inv = _fermat_inverses(p)
    x = np.arange(p + 1)
    u, v = (x < p).astype(np.int64), np.where(x < p, x, 1)  # (u:v) = (1:x), then (0:1)
    step = max(1, LINE_BLOCK // (p + 1))
    for lo in range(0, len(rows), step):
        a, b, c, d = rows[lo : lo + step, :, None].transpose(1, 0, 2)
        num = (b * u + d * v) % p
        den = (a * u + c * v) % p
        yield np.where(den == 0, p, num * inv[den] % p)


def coset_perm(g: Moebius, p: int) -> tuple[int, ...]:
    """Permutation of the projective line P^1(F_p) under the right action
    x -> x g, with the line (1:x) indexed by x < p and (0:1) by p: the one
    row of `_line_images`, which refuses a p that is not a prime below 2^31."""
    return tuple(next(_line_images([g], p))[0].tolist())


def trace_bruteforce(group: SchottkyGroup, gs, p: int) -> np.ndarray:
    """tr(lambda_p^0(g)) for each element g of the sequence gs, as (fixed
    lines of its coset permutation) - 1: an int64 array."""
    if not surjective_mod_p(group, p):
        raise SurjectivityError(f"reduction mod {p} is not surjective")
    x = np.arange(p + 1)
    fixed = [np.count_nonzero(images == x, axis=1) for images in _line_images(gs, p)]
    return np.concatenate([np.zeros(0, dtype=np.int64), *fixed]) - 1


def _is_pm_identity(g: Moebius, q: int) -> bool:
    (a, b), (c, d) = reduce_mod(g, q)
    return (b == 0 and c == 0) and ((a == 1 % q and d == 1 % q) or (a == q - 1 and d == q - 1))


def lambda_p0_traces(g: Moebius, primes: np.ndarray) -> np.ndarray:
    """tr(lambda_p^0(g)) for each prime p of the int64 array `primes`: p where
    g = +-I mod p, else the Kronecker symbol of the characteristic
    discriminant tr(g)^2 - 4, one symbol per residue class. A parabolic g
    (discriminant 0) has trace 0 wherever it is not +-I."""
    primes = np.asarray(primes, dtype=np.int64)
    # det g = 1, so for prime p, g = +-I mod p exactly when p | gcd(b, c, a - d)
    pm_identity = divides(math.gcd(g.b, g.c, g.a - g.d), primes)
    disc = g.trace() ** 2 - 4
    chi = kronecker_over_primes(disc, primes) if disc else np.zeros_like(primes)
    return np.where(pm_identity, primes, chi)


def trace_formula(group: SchottkyGroup, g: Moebius, p: int) -> int:
    """tr(lambda_p^0(g)) at one prime p (see `lambda_p0_traces`)."""
    if not surjective_mod_p(group, p):
        raise SurjectivityError(f"reduction mod {p} is not surjective")
    return int(lambda_p0_traces(g, np.array([p]))[0])


def _helmert_basis(w: np.ndarray) -> np.ndarray:
    """(n x (n-1)) orthonormal basis of the complement of the positive vector
    w in R^n: with S_j = w_1^2 + ... + w_j^2, column j - 1 is w_1, ..., w_j,
    then -S_j / w_{j+1}, then zeros, times w_{j+1} / sqrt(S_j S_{j+1}). Unit
    weights give the Helmert basis of the sum-zero subspace."""
    n = len(w)
    s = np.cumsum(w * w)
    h = np.triu(np.ones((n, n - 1))) * w[:, None] - np.eye(n, n - 1, -1) * (s[:-1] / w[1:])
    return h * (w[1:] / np.sqrt(s[:-1] * s[1:]))


def _negation(p: int) -> np.ndarray:
    """The permutation x -> -x of P^1(F_p), indexed as in `coset_perm`; it
    fixes 0 and (0:1)."""
    x = np.arange(p + 1)
    return np.where(x < p, -x % p, p)


def _parity_basis(p: int) -> tuple[np.ndarray, np.ndarray]:
    """A (p+1) x p orthonormal basis of the sum-zero functions on P^1(F_p):
    the even functions of x -> -x (a weighted Helmert basis over its orbits),
    then the odd ones (one per orbit {x, -x} of two points); and the parity,
    +1 or -1, of each column."""
    neg = _negation(p)
    x = np.arange(p + 1)
    lo = x[x <= neg]                        # one point of each orbit
    pairs = lo[lo < neg[lo]]                # the orbits of two points
    orbits = np.zeros((p + 1, lo.size))
    orbits[lo, np.arange(lo.size)] = orbits[neg[lo], np.arange(lo.size)] = 1.0
    w = np.sqrt(orbits.sum(axis=0))         # the constants, in the normalised orbit basis
    even = orbits / w @ _helmert_basis(w)
    odd = np.zeros((p + 1, pairs.size))
    odd[pairs, np.arange(pairs.size)] = math.sqrt(0.5)
    odd[neg[pairs], np.arange(pairs.size)] = -math.sqrt(0.5)
    return np.hstack([even, odd]), np.repeat([1.0, -1.0], [even.shape[1], odd.shape[1]])


def rep_lambda_p(group: SchottkyGroup, p: int) -> UnitaryRep:
    """The (p+1)-dimensional permutation representation on projective lines,
    with x -> -x as its intertwiner of z -> -z. Its images are dense, so a
    prime past DIRECT_P_CAP is refused before any is built."""
    if not surjective_mod_p(group, p):
        raise SurjectivityError(f"reduction mod {p} is not surjective")
    if p > DIRECT_P_CAP:
        raise ValueError(f"p={p} exceeds the dense lambda_p cap DIRECT_P_CAP={DIRECT_P_CAP}")
    # row i of f -> f(. g) is the delta at the index of x_i g
    eye = np.eye(p + 1)
    images = {a: eye[list(coset_perm(group.generator(a), p))] for a in group.alphabet}
    return UnitaryRep(dim=p + 1, images=images, label=f"lambda_{p}",
                      intertwiner=(_negation(p), np.ones(p + 1)))


def rep_lambda_p0(group: SchottkyGroup, p: int) -> UnitaryRep:
    """The p-dimensional sum-zero part, materialized in the basis of
    `_parity_basis`, where the intertwiner of z -> -z is diag(parity)."""
    full = rep_lambda_p(group, p)
    h, parity = _parity_basis(p)
    images = {a: h.T @ full.images[a] @ h for a in group.alphabet}
    return UnitaryRep(dim=p, images=images, label=f"lambda_{p}^0",
                      intertwiner=(np.arange(p), parity))


@dataclass(frozen=True)
class NormCheckReport:
    ok: bool
    q: int
    norm: float
    norm_bound: float
    trace_residue: int        # tr(g) mod q^2, in [0, q^2)
    trace_congruent_pm2: bool


def congruence_norm_check(g: Moebius, q: int) -> NormCheckReport:
    """For hyperbolic g = +-I mod q: checks ||g|| > q^2/3 and tr = +-2 mod q^2."""
    if abs(g.trace()) <= 2:
        raise ValueError(f"element with trace {g.trace()} is not hyperbolic")
    if not _is_pm_identity(g, q):
        raise ValueError(f"element is not +-identity mod {q}")
    bound = q * q / 3.0
    residue = g.trace() % (q * q)
    return NormCheckReport(
        ok=g.frobenius_norm() > bound,
        q=q,
        norm=g.frobenius_norm(),
        norm_bound=bound,
        trace_residue=residue,
        trace_congruent_pm2=residue in (2 % (q * q), (q * q) - 2),
    )
