"""Reduction of the group modulo primes: projective-line permutation action,
the induced representation and its sum-zero part, and trace/norm identities."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arithmetic import kronecker
from .reps import UnitaryRep
from .schottky import Moebius, SchottkyGroup

CLOSURE_CAP = 10**7


class SurjectivityError(ValueError):
    pass


@dataclass(frozen=True)
class ProjLine:
    """The p+1 lines of F_p^2 with canonical representatives (1:x), (0:1)."""

    p: int
    points: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.points)


@lru_cache(maxsize=None)
def proj_line(p: int) -> ProjLine:
    points = tuple((1, x) for x in range(p)) + ((0, 1),)
    return ProjLine(p=p, points=points)


def reduce_mod(g: Moebius, q: int) -> tuple[tuple[int, int], tuple[int, int]]:
    if q < 2:
        raise ValueError("modulus must be >= 2")
    return ((g.a % q, g.b % q), (g.c % q, g.d % q))


def _normalize_line(v: tuple[int, int], p: int) -> tuple[int, int]:
    a, b = v[0] % p, v[1] % p
    if a != 0:
        return (1, b * pow(a, -1, p) % p)
    return (0, 1)


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
    """Permutation induced by the right action x -> x*g on projective lines."""
    lines = proj_line(p)
    (a, b), (c, d) = reduce_mod(g, p)
    index = {pt: i for i, pt in enumerate(lines.points)}
    perm = []
    for (u, v) in lines.points:
        img = _normalize_line((u * a + v * c, u * b + v * d), p)
        perm.append(index[img])
    return tuple(perm)


def trace_bruteforce(group: SchottkyGroup, g: Moebius, p: int) -> int:
    """tr(lambda_p^0(g)) as (fixed lines of the coset permutation) - 1."""
    if not surjective_mod_p(group, p):
        raise SurjectivityError(f"reduction mod {p} is not surjective")
    perm = coset_perm(g, p)
    fixed = sum(1 for i, j in enumerate(perm) if i == j)
    return fixed - 1


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
    """(n x (n-1)) orthonormal basis of the sum-zero subspace of R^n."""
    h = np.zeros((n, n - 1))
    for j in range(1, n):
        h[:j, j - 1] = 1.0
        h[j, j - 1] = -j
        h[:, j - 1] /= math.sqrt(j * (j + 1))
    return h


def _perm_matrix(perm: tuple[int, ...]) -> np.ndarray:
    """Matrix of f -> f(. g) in the delta basis: columns are permuted.

    With coset_perm(g)[i] = index of point_i * g, the operator sends
    delta_y to delta_{y g^{-1}}, so M[perm[i], i]... transposed action:
    M[i, perm[i]] = 1 gives (M f)_i = f_{perm(i)} = f(x_i g).
    """
    n = len(perm)
    mat = np.zeros((n, n))
    for i, j in enumerate(perm):
        mat[i, j] = 1.0
    return mat


def rep_lambda_p(group: SchottkyGroup, p: int) -> UnitaryRep:
    """The (p+1)-dimensional permutation representation on projective lines."""
    if not surjective_mod_p(group, p):
        raise SurjectivityError(f"reduction mod {p} is not surjective")
    images = {}
    for a in group.alphabet:
        perm = coset_perm(group.generator(a), p)
        images[a] = _perm_matrix(perm).astype(complex)
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
