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
import weakref
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


def _moebius_log(group: SchottkyGroup, w: Word, zs: np.ndarray):
    """Images g_w(z) and the principal logarithm of g_w'(z) at the points zs;
    g_w'(z)^s is exp(s * log).

    Requires g_w'(z) off the cut (-inf, 0]; this holds on the Schottky disks
    for admissible words and is enforced at runtime.
    """
    g = group.word_matrix(w)
    deriv = g.derivative(zs)
    if np.any((deriv.imag == 0.0) & (deriv.real <= 0.0)):
        raise ValueError(f"derivative of word {w} on the branch cut")
    return g.apply(zs), np.log(np.abs(deriv)) + 1j * np.angle(deriv)


@dataclass(frozen=True)
class TransferMatrix:
    """Block matrix of a (refined) twisted transfer operator truncation.

    Row/column index layout: (disk letter, basis index k, rep index v) packed
    as ((letter-1) * N + k) * dim_rho + v.
    """

    matrix: np.ndarray
    rep_dim: int
    n_basis: int

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def block(self, target: int, source: int) -> np.ndarray:
        n = self.n_basis * self.rep_dim
        return self.matrix[(target - 1) * n : target * n, (source - 1) * n : source * n]


class _OperatorPlan:
    """The s-independent data of the operator summing g_w'(z)^s rho(g_w)^{-1}
    f(g_w z) over sorted (word, target letter) pairs.

    Each pair adds to block (b, w[0]) the N x N coefficients of
    f |-> g_w'(.)^s f(g_w .) from the basis of D_{w[0]} into that of D_b,
    Kronecker times rho(g_w)^{-1}. Only the weight exp(s log g_w') at the
    sampling points depends on s.
    """

    def __init__(self, group: SchottkyGroup, pairs: tuple[tuple[Word, int], ...],
                 rep: UnitaryRep, n_basis: int):
        if n_basis < 1:
            raise ValueError("n_basis must be >= 1")
        if n_basis > MAX_N:
            raise ValueError(f"n_basis {n_basis} exceeds cap {MAX_N}")
        n_samp = 4 * n_basis
        circle = np.exp(1j * (2.0 * np.pi * np.arange(n_samp) / n_samp))
        ks = np.arange(n_basis)
        norm = np.sqrt((ks + 1) / np.pi)                 # basis normalization times r
        log_deriv, samples, scale = [], [], []
        self.rho_inv, self.blocks = [], []
        for w, b in pairs:
            if not w:
                raise ValueError("transfer operator words must be nonempty")
            if w[-1] == group.bar(b):
                raise ValueError(f"word {w} cannot act on disk {b}: image leaves the disks")
            target, source = group.disk(b), group.disk(w[0])
            zs = target.center + SAMPLING_RADIUS * target.radius * circle
            images, log_w = _moebius_log(group, w, zs)
            u = (images - source.center) / source.radius
            log_deriv.append(log_w)
            # columns: each source basis element, Taylor-expanded at the samples
            samples.append(norm / source.radius * u[:, None] ** ks)
            # inverse target normalization, radial factor and the 1/n of the DFT
            scale.append(target.radius / norm / SAMPLING_RADIUS**ks / n_samp)
            self.rho_inv.append(rep.inverse_image(w))
            self.blocks.append((b - 1, w[0] - 1))
        self.log_deriv = np.array(log_deriv).reshape(len(pairs), n_samp)
        self.samples = np.array(samples).reshape(len(pairs), n_samp, n_basis)
        self.scale = np.array(scale).reshape(len(pairs), n_basis, 1)
        self.layout = (2 * group.m, n_basis, rep.dim)  # (letter, k, v) of a row or a column

    def matrix(self, s: complex) -> np.ndarray:
        """A new matrix of the operator at s, laid out as in TransferMatrix."""
        n_basis = self.layout[1]
        power = np.exp(s * self.log_deriv)
        coef = np.fft.fft(power[:, :, None] * self.samples, axis=1)[:, :n_basis] * self.scale
        out = np.zeros(self.layout * 2, dtype=complex)
        for (b, a), c, rho in zip(self.blocks, coef, self.rho_inv):
            out[b, :, :, a] += c[:, None, :, None] * rho[None, :, None, :]
        dim = math.prod(self.layout)
        return out.reshape(dim, dim)


# rep -> group -> (sorted pairs, n_basis) -> plan; an entry lives as long as
# its rep and its group.
_PLANS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def assemble_pairs(
    group: SchottkyGroup,
    pairs: list[tuple[Word, int]],
    s: complex,
    rep: UnitaryRep | None = None,
    n_basis: int = DEFAULT_N,
) -> TransferMatrix:
    """Matrix of the operator summing g_w'(z)^s rho(g_w)^{-1} f(g_w z) over
    the given (word, target letter) pairs, acting on z in the target disk.

    The s-independent data is built on the first call for (group, pairs,
    rep, n_basis) and kept while rep and group live; each call returns a new
    matrix."""
    rep = rep if rep is not None else trivial_rep(group)
    plans = _PLANS.setdefault(rep, weakref.WeakKeyDictionary()).setdefault(group, {})
    key = (tuple(sorted(pairs)), n_basis)
    if key not in plans:
        plans[key] = _OperatorPlan(group, key[0], rep, n_basis)
    return TransferMatrix(matrix=plans[key].matrix(s), rep_dim=rep.dim, n_basis=n_basis)


def assemble_standard(
    group: SchottkyGroup,
    s: complex,
    rep: UnitaryRep | None = None,
    n_basis: int = DEFAULT_N,
) -> TransferMatrix:
    """The standard operator: each letter acting on every admissible target disk."""
    return assemble_pairs(group, group.standard_pairs, s, rep, n_basis)


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
        cache = {}
        for w in arrows:
            images, log_w = _moebius_log(group, w, zflat)
            cache[w] = images, np.exp(s * log_w)
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

    coarse, _ = total(DEFAULT_RADIAL_ORDER, DEFAULT_ANGULAR_ORDER)
    radial_order, angular_order = 2 * DEFAULT_RADIAL_ORDER, 2 * DEFAULT_ANGULAR_ORDER
    value, ints = total(radial_order, angular_order)
    if abs(value - coarse) > HS_CONVERGENCE_TOL * max(1.0, abs(value)):
        raise QuadratureError(f"HS integral not converged: {coarse} vs {value} at doubled order")
    if value < 0:
        raise QuadratureError(f"negative squared HS norm {value}")
    return HSRecord(
        value=value,
        tau=partition.tau,
        s=s,
        rep_label=rep.label,
        radial_order=radial_order,
        angular_order=angular_order,
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
