"""Reduction of the group modulo primes: projective-line permutation action,
the induced representation and its sum-zero part, and trace/norm identities."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arithmetic import kronecker
from .reps import UnitaryRep
from .schottky import Moebius, SchottkyGroup

CLOSURE_CAP = 10**7


class SurjectivityError(ValueError):
    pass


def reduce_mod(g: Moebius, q: int) -> tuple[tuple[int, int], tuple[int, int]]:
    if q < 2:
        raise ValueError("modulus must be >= 2")
    return ((g.a % q, g.b % q), (g.c % q, g.d % q))


@lru_cache(maxsize=None)
def _closure_size(group: SchottkyGroup, p: int) -> int:
    """Size of the subgroup of SL_2(F_p) generated by the reduced generators.

    Cached: the surjectivity checks inside the trace functions would otherwise
    repeat a BFS over up to p(p^2-1) matrices on every call.
    """
    target = p * (p * p - 1)
    if target > CLOSURE_CAP:
        raise SurjectivityError(f"|SL_2(F_{p})| = {target} exceeds enumeration cap {CLOSURE_CAP}")
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
        frontier = nxt
        if len(seen) > target:
            raise SurjectivityError("closure exceeded the group order; p is not prime?")
    return len(seen)


def surjective_mod_p(group: SchottkyGroup, p: int) -> bool:
    return _closure_size(group, p) == p * (p * p - 1)


def coset_perm(g: Moebius, p: int) -> tuple[int, ...]:
    """Permutation of the projective line P^1(F_p) under the right action
    x -> x g, with the line (1:x) indexed by x < p and (0:1) by p.

    (1:x) g = (a + xc : b + xd), so the action is the Moebius map
    x -> (b + xd) / (a + xc) of g^T: a zero denominator gives p, and p maps
    to d/c."""
    (a, b), (c, d) = reduce_mod(g, p)
    x = np.arange(p + 1)
    num = np.where(x < p, b + x * d, d) % p
    den = np.where(x < p, a + x * c, c) % p
    inv = np.frompyfunc(pow, 3, 1)(den, p - 2, p).astype(np.int64)  # 1/den by Fermat
    return tuple(np.where(den == 0, p, num * inv % p).tolist())


def trace_bruteforce(group: SchottkyGroup, g: Moebius, p: int) -> int:
    """tr(lambda_p^0(g)) as (fixed lines of the coset permutation) - 1."""
    if not surjective_mod_p(group, p):
        raise SurjectivityError(f"reduction mod {p} is not surjective")
    return int(np.count_nonzero(np.array(coset_perm(g, p)) == np.arange(p + 1))) - 1


def _is_pm_identity(g: Moebius, q: int) -> bool:
    (a, b), (c, d) = reduce_mod(g, q)
    return (b == 0 and c == 0) and ((a == 1 % q and d == 1 % q) or (a == q - 1 and d == q - 1))


def trace_formula(group: SchottkyGroup, g: Moebius, p: int) -> int:
    """tr(lambda_p^0(g)): p at +-identity mod p, else the Kronecker symbol of
    the characteristic discriminant tr(g)^2 - 4 (computed exactly)."""
    if not surjective_mod_p(group, p):
        raise SurjectivityError(f"reduction mod {p} is not surjective")
    if _is_pm_identity(g, p):
        return p
    d = g.trace() ** 2 - 4
    return kronecker(d, p)


def _helmert_basis(n: int) -> np.ndarray:
    """(n x (n-1)) orthonormal basis of the sum-zero subspace of R^n: column
    j - 1 is j ones, then -j, then zeros, over sqrt(j (j + 1))."""
    j = np.arange(1, n)
    return (np.triu(np.ones((n, n - 1))) - np.eye(n, n - 1, -1) * j) / np.sqrt(j * (j + 1))


def rep_lambda_p(group: SchottkyGroup, p: int) -> UnitaryRep:
    """The (p+1)-dimensional permutation representation on projective lines."""
    if not surjective_mod_p(group, p):
        raise SurjectivityError(f"reduction mod {p} is not surjective")
    # row i of f -> f(. g) is the delta at the index of x_i g
    eye = np.eye(p + 1, dtype=complex)
    images = {a: eye[list(coset_perm(group.generator(a), p))] for a in group.alphabet}
    return UnitaryRep(dim=p + 1, images=images, label=f"lambda_{p}")


def rep_lambda_p0(group: SchottkyGroup, p: int) -> UnitaryRep:
    """The p-dimensional sum-zero part, materialized in a Helmert basis."""
    full = rep_lambda_p(group, p)
    h = _helmert_basis(p + 1)
    images = {a: (h.T @ full.images[a].real @ h).astype(complex) for a in group.alphabet}
    return UnitaryRep(dim=p, images=images, label=f"lambda_{p}^0")


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
