"""Finite-rank transfer-operator matrices on vector-valued Bergman spaces.

Per disk D_b the orthonormal basis is e_k(z) = sqrt((k+1)/pi) r_b^{-1}
((z-c_b)/r_b)^k, k < N, so the Frobenius norm of the truncated matrix is the
Hilbert-Schmidt norm of the truncated operator. Entries are extracted by
sampling each summand on an interior circle and taking discrete Fourier
coefficients; uniform contraction makes this spectrally accurate.

Hilbert-Schmidt norms are also computed from Bergman-kernel integrals, per
representation and summed over primes p ~ x for lambda_p^0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arithmetic import kronecker, primes_between
from .congruence import _is_pm_identity, rep_lambda_p0, surjective_mod_p
from .reps import UnitaryRep, trivial_rep
from .schottky import Disk, Partition, SchottkyGroup, Word

DEFAULT_N = 16
MAX_N = 128
SAMPLING_RADIUS = 0.75
DEFAULT_RADIAL_ORDER = 24
DEFAULT_ANGULAR_ORDER = 48
HS_CONVERGENCE_TOL = 1e-6  # agreement required between the HS integral and its doubled-order rerun
DIRECT_P_CAP = 1000        # largest prime the materialized direct HS prime sum accepts


class QuadratureError(RuntimeError):
    """Raised when refinement fails to stabilize an integral."""


def bergman_kernel(disk: Disk, z: complex | np.ndarray, w: complex | np.ndarray):
    """Reproducing kernel of the Bergman space of one disk (area measure),
    elementwise on scalars or arrays."""
    r2 = disk.radius**2
    den = r2 - (z - disk.center) * (np.conjugate(w) - disk.center)
    if np.any(den == 0):
        raise ZeroDivisionError("Bergman kernel denominator vanishes on the boundary")
    return r2 / (math.pi * den**2)


def _moebius_power(group: SchottkyGroup, w: Word, zs: np.ndarray, s: complex):
    """Images g_w(z) and g_w'(z)^s (principal branch) at the points zs.

    Requires g_w'(z) off the cut (-inf, 0]; this holds on the Schottky disks
    for admissible words and is enforced at runtime.
    """
    g = group.word_matrix(w)
    den = float(g.c) * zs + float(g.d)
    deriv = 1.0 / den**2
    if np.any((deriv.imag == 0.0) & (deriv.real <= 0.0)):
        raise ValueError(f"derivative of word {w} on the branch cut")
    power = np.exp(s * (np.log(np.abs(deriv)) + 1j * np.angle(deriv)))
    return (float(g.a) * zs + float(g.b)) / den, power


@dataclass(frozen=True)
class TransferMatrix:
    """Block matrix of a (refined) twisted transfer operator truncation.

    Row/column index layout: (disk letter, basis index k, rep index v) packed
    as ((letter-1) * N + k) * dim_rho + v.
    """

    matrix: np.ndarray
    group: SchottkyGroup
    rep_dim: int
    n_basis: int

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def block(self, target: int, source: int) -> np.ndarray:
        n = self.n_basis * self.rep_dim
        return self.matrix[(target - 1) * n : target * n, (source - 1) * n : source * n]


def _word_coefficients(
    group: SchottkyGroup, w: Word, b: int, s: complex, n_basis: int
) -> np.ndarray:
    """N x N scalar coefficient matrix of f |-> g_w'(.)^s f(g_w .) from disk
    D_{w[0]} (source basis) into D_b (target basis)."""
    n_samp = 4 * n_basis
    theta = 2.0 * np.pi * np.arange(n_samp) / n_samp
    target = group.disk(b)
    source = group.disk(w[0])
    zs = target.center + SAMPLING_RADIUS * target.radius * np.exp(1j * theta)
    images, power = _moebius_power(group, w, zs, s)

    u = (images - source.center) / source.radius
    ks = np.arange(n_basis)
    source_scale = np.sqrt((ks + 1) / np.pi) / source.radius          # basis normalization
    target_scale = target.radius * np.sqrt(np.pi / (ks + 1))          # inverse normalization
    radial = SAMPLING_RADIUS ** ks

    # columns: operator applied to each source basis element, Taylor-expanded
    samples = power[:, None] * source_scale[None, :] * u[:, None] ** ks[None, :]
    coef = np.fft.fft(samples, axis=0)[:n_basis, :] / n_samp
    return (coef / radial[:, None]) * target_scale[:, None]


def assemble_pairs(
    group: SchottkyGroup,
    pairs: list[tuple[Word, int]],
    s: complex,
    rep: UnitaryRep | None = None,
    n_basis: int = DEFAULT_N,
) -> TransferMatrix:
    """Matrix of the operator summing g_w'(z)^s rho(g_w)^{-1} f(g_w z) over
    the given (word, target letter) pairs, acting on z in the target disk."""
    if n_basis < 1:
        raise ValueError("n_basis must be >= 1")
    if n_basis > MAX_N:
        raise ValueError(f"n_basis {n_basis} exceeds cap {MAX_N}")
    rep = rep if rep is not None else trivial_rep(group)
    d = rep.dim
    n = n_basis * d
    dim = 2 * group.m * n
    matrix = np.zeros((dim, dim), dtype=complex)
    for w, b in sorted(pairs):
        if not w:
            raise ValueError("transfer operator words must be nonempty")
        if w[-1] == group.bar(b):
            raise ValueError(f"word {w} cannot act on disk {b}: image leaves the disks")
        rho_inv = rep.inverse_image(w)
        coef = _word_coefficients(group, w, b, s, n_basis)
        block = np.kron(coef, rho_inv)
        r0 = (b - 1) * n
        c0 = (w[0] - 1) * n
        matrix[r0 : r0 + n, c0 : c0 + n] += block
    return TransferMatrix(matrix=matrix, group=group, rep_dim=d, n_basis=n_basis)


def assemble(
    group: SchottkyGroup,
    words: list[Word],
    s: complex,
    rep: UnitaryRep | None = None,
    n_basis: int = DEFAULT_N,
) -> TransferMatrix:
    """Each word acts on every admissible target disk (w -> b)."""
    pairs = [(w, b) for w in words for b in group.alphabet if not w or w[-1] != group.bar(b)]
    if any(not w for w in words):
        raise ValueError("transfer operator words must be nonempty")
    return assemble_pairs(group, pairs, s, rep, n_basis)


def assemble_standard(
    group: SchottkyGroup,
    s: complex,
    rep: UnitaryRep | None = None,
    n_basis: int = DEFAULT_N,
) -> TransferMatrix:
    return assemble(group, [(a,) for a in group.alphabet], s, rep, n_basis)


def assemble_refined(
    group: SchottkyGroup,
    partition: Partition,
    s: complex,
    rep: UnitaryRep | None = None,
    n_basis: int = DEFAULT_N,
) -> TransferMatrix:
    return assemble_pairs(group, partition.pairs, s, rep, n_basis)


def hs_norm_matrix(tm: TransferMatrix) -> float:
    """Frobenius norm of the truncation; oracle for the kernel-integral path."""
    return float(np.linalg.norm(tm.matrix))


# -- Hilbert-Schmidt norm via kernel integrals ---------------------------------


@dataclass(frozen=True)
class HSRecord:
    value: float
    tau: float
    s: complex
    rep_label: str
    radial_order: int
    angular_order: int
    pair_integrals: dict[tuple[int, Word, Word], complex] | None = None


def pair_integrals(
    group: SchottkyGroup,
    partition: Partition,
    s: complex,
    radial_order: int = DEFAULT_RADIAL_ORDER,
    angular_order: int = DEFAULT_ANGULAR_ORDER,
) -> dict[tuple[int, Word, Word], complex]:
    """The integrals I_{a,b}^{(b)} over each target disk, polar tensor rule.

    Pairs whose images land in different source disks are dropped (the
    Bergman kernel of a disjoint union vanishes across components).
    """
    if radial_order < 4:
        raise ValueError("radial quadrature order must be >= 4")
    nodes, weights = np.polynomial.legendre.leggauss(radial_order)
    out: dict[tuple[int, Word, Word], complex] = {}
    phis = 2.0 * np.pi * np.arange(angular_order) / angular_order
    for b in group.alphabet:
        disk = group.disk(b)
        rs = 0.5 * disk.radius * (nodes + 1.0)
        wr = 0.5 * disk.radius * weights * rs          # includes the polar Jacobian r
        wphi = 2.0 * np.pi / angular_order
        zgrid = disk.center + rs[:, None] * np.exp(1j * phis)[None, :]
        zflat = zgrid.ravel()
        warr = (wr[:, None] * np.full((1, angular_order), wphi)).ravel()

        arrows = sorted(w for w, t in partition.pairs if t == b)
        cache = {w: _moebius_power(group, w, zflat, s) for w in arrows}
        for wa in arrows:
            ia, pa = cache[wa]
            for wb in arrows:
                if wa[0] != wb[0]:
                    continue  # images in different disks: kernel vanishes
                ib, pb = cache[wb]
                kernel = bergman_kernel(group.disk(wa[0]), ia, ib)
                out[(b, wa, wb)] = complex(np.sum(pa * np.conjugate(pb) * kernel * warr))
    return out


def _trace_pair_sum(rep: UnitaryRep, terms) -> float:
    """Re sum of tr(rho(g_a)^{-1} rho(g_b)) I over the ((w_a, w_b), I) terms,
    in the order given; each trace is computed once."""
    traces: dict[tuple[Word, Word], complex] = {}
    acc = 0.0 + 0.0j
    for (wa, wb), val in terms:
        if (wa, wb) not in traces:
            traces[(wa, wb)] = complex(np.trace(rep.inverse_image(wa) @ rep.image(wb)))
        acc += traces[(wa, wb)] * val
    return acc.real


def hs_norm_integral(
    group: SchottkyGroup,
    partition: Partition,
    s: complex,
    rep: UnitaryRep | None = None,
    keep_pairs: bool = False,
) -> HSRecord:
    """||L||_HS^2 summed from tr(rho(g_a^{-1} g_b)) I_{a,b}^{(b)} pair terms.

    Returns the record with value = the squared Hilbert-Schmidt norm at twice
    the default quadrature orders, after checking it against the default orders.
    """
    rep = rep if rep is not None else trivial_rep(group)

    def total(q_r: int, q_a: int) -> tuple[float, dict]:
        ints = pair_integrals(group, partition, s, q_r, q_a)
        return _trace_pair_sum(rep, (((wa, wb), v) for (_, wa, wb), v in ints.items())), ints

    value, ints = total(DEFAULT_RADIAL_ORDER, DEFAULT_ANGULAR_ORDER)
    refined, _ = total(2 * DEFAULT_RADIAL_ORDER, 2 * DEFAULT_ANGULAR_ORDER)
    if abs(refined - value) > HS_CONVERGENCE_TOL * max(1.0, abs(refined)):
        raise QuadratureError(f"HS integral not converged: {value} vs {refined} at doubled order")
    value = refined
    if value < 0:
        raise QuadratureError(f"negative squared HS norm {value}")
    return HSRecord(
        value=value,
        tau=partition.tau,
        s=s,
        rep_label=rep.label,
        radial_order=DEFAULT_RADIAL_ORDER,
        angular_order=DEFAULT_ANGULAR_ORDER,
        pair_integrals=ints if keep_pairs else None,
    )


# -- summed Hilbert-Schmidt diagnostic over primes ---------------------------------


@dataclass(frozen=True)
class HSPrimeSumRecord:
    tau: float
    s: complex
    x: float
    primes: tuple[int, ...]
    direct: float | None           # sum of log(p) ||L_{tau,s,lambda_p^0}||_HS^2
    decomposed: float | None
    diagonal: float | None
    off_diagonal: float | None
    per_prime: dict[int, float] | None
    fallback_pairs: int = 0        # pairs where gamma = +-I mod p forced brute force


def hs_prime_sum(
    group: SchottkyGroup,
    tau: float,
    s: complex,
    x: float,
    mode: str = "both",
) -> HSPrimeSumRecord:
    """Two computation paths for sum over p ~ x of log(p) ||L_{tau,s,lambda_p^0}||^2_HS.

    direct: per-prime kernel-integral HS norms with the materialized sum-zero
    representation. decomposed: diagonal prime sum plus off-diagonal
    character sums via the fixed-line trace formula.
    """
    partition = group.partition(tau)
    primes = primes_between(x / 2, x)
    for p in primes:
        if not surjective_mod_p(group, p):
            raise ValueError(f"reduction mod {p} not surjective; prime sum undefined")
        if mode in ("direct", "both") and p > DIRECT_P_CAP:
            raise ValueError(f"p={p} exceeds the direct-mode cap {DIRECT_P_CAP}")

    ints = pair_integrals(group, partition, s)
    pair_words = sorted({(wa, wb) for (_, wa, wb) in ints})
    pair_total = {
        pw: sum(v for (b, wa, wb), v in ints.items() if (wa, wb) == pw) for pw in pair_words
    }

    direct = per_prime = None
    if mode in ("direct", "both"):
        per_prime = {
            p: _trace_pair_sum(rep_lambda_p0(group, p), pair_total.items()) for p in primes
        }
        direct = sum(math.log(p) * v for p, v in sorted(per_prime.items()))

    decomposed = diagonal = off_diagonal = None
    fallback = 0
    if mode in ("decomposed", "both"):
        prime_weight = sum(p * math.log(p) for p in primes)
        diagonal = prime_weight * sum(v.real for (wa, wb), v in pair_total.items() if wa == wb)
        off_diagonal = 0.0
        for (wa, wb), val in pair_total.items():
            if wa == wb:
                continue
            g = group.word_matrix(group.mirror(wa) + wb)
            disc = g.trace() ** 2 - 4
            tr_sum = 0.0
            for p in primes:
                if _is_pm_identity(g, p):
                    fallback += 1
                    tr_sum += math.log(p) * p
                else:
                    tr_sum += math.log(p) * kronecker(disc, p)
            off_diagonal += tr_sum * val.real
        decomposed = diagonal + off_diagonal

    return HSPrimeSumRecord(
        tau=tau, s=s, x=x, primes=tuple(primes),
        direct=direct, decomposed=decomposed,
        diagonal=diagonal, off_diagonal=off_diagonal,
        per_prime=per_prime, fallback_pairs=fallback,
    )
