"""Finite-rank transfer-operator matrices on vector-valued Bergman spaces.

Per disk D_b the orthonormal basis is e_k(z) = sqrt((k+1)/pi) r_b^{-1}
((z-c_b)/r_b)^k, k < N, so the Frobenius norm of the truncated matrix is the
Hilbert-Schmidt norm of the truncated operator. Entries are extracted by
sampling each summand on the boundary circle of its target disk D_b and taking
discrete Fourier coefficients. g_w maps the closed D_b into the open D_{w[0]}
and has its pole in D_{bar(w[-1])} != D_b, so each summand is holomorphic on a
neighbourhood of the closed disk and this is spectrally accurate.

The same coefficients give the Hilbert-Schmidt pair integrals I_{a,b}: the
Bergman kernel of a disk is sum_k e_k(z) conj(e_k(w)), so the kernel integral
of two summands over their target disk is the Frobenius inner product of their
coefficient matrices (`pair_integrals`).
"""

from __future__ import annotations

import cmath
import functools
import weakref
from dataclasses import dataclass

import numpy as np

from .reps import UnitaryRep, trivial_rep
from .schottky import Partition, SchottkyGroup, Word

DEFAULT_N = 16
MAX_N = 128  # bounds each pair's N x 4N samples and the dense blocks
HS_CONVERGENCE_TOL = 1e-6  # agreement required between the HS norm at DEFAULT_N and at DEFAULT_N - 4


class ConvergenceError(RuntimeError):
    """An answer did not settle within its tolerance (here an HS norm; in `zeta` every search)."""


def _require_finite(name: str, value: complex) -> None:
    if not cmath.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


def _finite(name: str, compute, s: complex):
    """compute(), with float64 overflow ignored: the one refusal of an s-dependent
    value past float64's range, an OverflowError naming it and s."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = compute()
    if not np.isfinite(value).all():
        raise OverflowError(f"{name} overflows float64 at s = {s}")
    return value


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
    """A (refined) twisted transfer operator truncation, held as the blocks
    of `_OperatorPlan.blocks`, one signed contraction of the pairs: with the
    z -> -z symmetry the operators on the even and odd functions, stacked
    (2, h, h), and otherwise the whole operator alone (1, n, n), each in the
    plan's (letter, v, k) order. det(1 - L) is the product over the blocks,
    and `zeta` overwrites them while taking it.

    Row/column index layout of `matrix`: (disk letter, basis index k, rep
    index v) packed as ((letter-1) * N + k) * dim_rho + v.
    """

    blocks: np.ndarray
    plan: _OperatorPlan

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """The whole matrix, unfolded from the blocks."""
        return self.plan.unfold(self.blocks)


class _OperatorPlan:
    """The s-independent data of the operator summing g_w'(z)^s rho(g_w)^{-1}
    f(g_w z) over sorted (word, target letter) pairs.

    Each pair adds to block (b, w[0]) the N x N coefficients of
    f |-> g_w'(.)^s f(g_w .) from the basis of D_{w[0]} into that of D_b,
    Kronecker times rho(g_w)^{-1}. Only the weight exp(s log g_w') at the
    sampling points depends on s.

    The reflection J(z) = -z maps basis element k of D_a to (-1)^k times
    basis element k of D_sigma(a) (`SchottkyGroup.involution`). When the group
    has sigma, the pairs are closed under it and the rep carries its
    intertwiner V, the operator commutes with U = (sigma swap) (x)
    diag((-1)^k) (x) V (Borthwick and Weich, J. Spectral Theory 6, 2016).
    The letters a < sigma(a) come first, then their mirrors, and only the
    pairs whose target is one of the first are evaluated. In that order the
    operator is [[A, B], [T B T, T A T]], T is a signed permutation of one half,
    (T x)[i] = sign[i] x[perm[i]], built by `unfold` at its truncation from
    `mirror`, the rep's intertwiner, and the evaluated rows are [A | B T]; the
    blocks of the operator on the even and odd functions are A + B T and
    A - B T. Otherwise every letter is a representative, the one block is the
    whole matrix and `mirror` is None.

    `incidence` is that fold as data, sparse by letter block: pair i, the
    j-th of block (b, a) with a = w[0] or its representative, puts
    rho(g_w)^{-1} (times V in a mirror column) at (b, a, j), with weight -1
    in the odd block for a mirror column and +1 otherwise; `slots` names the
    pair in each slot, and empty slots weigh 0. Rows and columns run over
    (letter, rep index v, basis index k), so row (v, k) of block (b, a) is
    the incidence at (b, v, a) times its slots' coefficients of target k.

    `pairs` are the evaluated pairs, in sorted order, and `target_scale` their
    inverse target normalizations over target k, with the 1/n of the DFT.

    Each pair is sampled at 4N points of its target circle, and the plan
    serves every truncation n <= N (`coefficients`, `blocks`) with the n x n
    corners of its coefficients. The rep is validated (`UnitaryRep.validate`)
    before any sample is taken.
    """

    def __init__(self, group: SchottkyGroup, pairs: tuple[tuple[Word, int], ...],
                 rep: UnitaryRep, n_basis: int):
        for w, b in pairs:
            if not w:
                raise ValueError("transfer operator words must be nonempty")
            if w[-1] == group.bar(b):
                raise ValueError(f"word {w} cannot act on disk {b}: image leaves the disks")
        rep.validate(group)
        sigma = group.involution
        if sigma is not None and rep.intertwiner is not None and set(pairs) == {
                (tuple(sigma[a - 1] for a in w), sigma[b - 1]) for w, b in pairs}:
            v = rep.check_intertwiner(sigma)
            first = tuple(a for a in group.alphabet if a < sigma[a - 1])
            self.letters = first + tuple(sigma[a - 1] for a in first)
            self.mirror = rep.intertwiner
        else:
            first = self.letters = tuple(group.alphabet)
            self.mirror = None
        folds, n_first = (1 if self.mirror is None else 2), len(first)
        position = {a: i for i, a in enumerate(self.letters)}
        evaluated = [(w, b) for w, b in pairs if position[b] < n_first]
        n_samp = 4 * n_basis
        circle = np.exp(1j * (2.0 * np.pi * np.arange(n_samp) / n_samp))
        ks = np.arange(n_basis)
        norm = np.sqrt((ks + 1) / np.pi)                 # basis normalization times r
        log_deriv, samples, scale, weighted, place, filled = [], [], [], [], [], {}
        for w, b in evaluated:
            target, source = group.disk(b), group.disk(w[0])
            zs = target.center + target.radius * circle
            images, log_w = _moebius_log(group, w, zs)
            u = (images - source.center) / source.radius
            log_deriv.append(log_w)
            # rows: each source basis element at the samples, to be Taylor-expanded
            sample = norm[:, None] / source.radius * u ** ks[:, None]
            # inverse target normalization and the 1/n of the DFT
            scale.append(target.radius / norm / n_samp)
            rho, signs, a = rep.inverse_image(w), (1.0, 1.0), position[w[0]]
            if a >= n_first:
                # a column of a mirror letter, stored times T = diag((-1)^k) (x) V,
                # adds to A + B T and subtracts from A - B T
                sample, rho, signs, a = (-1.0) ** ks[:, None] * sample, rho @ v, (1.0, -1.0), a - n_first
            samples.append(sample)
            weighted.append(np.multiply.outer(signs[:folds], rho))
            filled[position[b], a] = filled.get((position[b], a), -1) + 1
            place.append((position[b], a, filled[position[b], a]))
        count, width = len(place), max(filled.values(), default=-1) + 1
        self.log_deriv = np.array(log_deriv).reshape(count, n_samp)
        self.samples = np.array(samples, complex).reshape(count, n_basis, n_samp)
        weighted = np.array(weighted).reshape(count, folds, rep.dim, rep.dim)
        rows, cols, ranks = np.array(place, int).reshape(count, 3).T
        self.incidence = np.zeros((folds, n_first, rep.dim, 1, n_first, rep.dim, width), weighted.dtype)
        self.incidence[:, rows, :, 0, cols, :, ranks] = weighted
        self.slots = np.zeros((n_first, n_first, width), int)
        self.slots[rows, cols, ranks] = np.arange(count)
        self.pairs = tuple(evaluated)
        self.target_scale = np.array(scale).reshape(count, n_basis)
        self.scale = self.target_scale.T[:, self.slots, None]

    def coefficients(self, s: complex, n: int) -> np.ndarray:
        """The evaluated pairs' Fourier coefficients at s, (pair, source k,
        target k) with k < n, before the target scale; a mirror column's are
        stored times T. One new array, filled chunk by chunk of pairs, at most
        2^20 samples of k < n weighted and transformed in one buffer, the first
        n outputs of each DFT kept; any past float64 raises OverflowError."""
        count, n_samp = self.log_deriv.shape
        step = max(1, 2**20 // (n * n_samp))
        out = np.empty((count, n, n), complex)
        buffer = np.empty((min(step, count), n, n_samp), complex)
        def fill() -> np.ndarray:
            for i in range(0, count, step):
                coef = buffer[:count - i]
                weight = np.exp(s * self.log_deriv[i:i + step])[:, None, :]
                np.multiply(weight, self.samples[i:i + step, :n], out=coef)
                # each DFT in place over the contiguous last axis
                out[i:i + step] = np.fft.fft(coef, out=coef)[:, :, :n]
            return out
        return _finite("a transfer-operator coefficient", fill, s)

    def blocks(self, s: complex, n: int) -> np.ndarray:
        """The blocks of the operator at s and truncation n, as in
        TransferMatrix, in one new array: the pairs' coefficients contracted
        with the incidence.

        At real s with real rep images (a real incidence) the operator is real:
        the generators are integer matrices, so g_w maps R to R with g_w' > 0
        there, and the disks are centred on R, so each summand is real on R and
        has real Taylor coefficients. The imaginary part of the DFT output is
        then rounding alone, and the blocks are its real part, real matrices.
        """
        folds, n_first, dim = self.incidence.shape[:3]
        coef = self.coefficients(s, n)
        if np.isrealobj(self.incidence) and complex(s).imag == 0:
            coef = coef.real
        coef = np.take(coef.transpose(2, 0, 1), self.slots, axis=1)  # (target k, b, a, slot, source k)
        coef *= self.scale[:n]
        out = np.empty((folds, n_first, dim, n, n_first, dim, n), np.result_type(coef, self.incidence))
        # batches (fold, b, v, target k, a), each contracting block (b, a)'s slots;
        # real weights contract a complex coef as its (real, imaginary) pairs
        coef = coef.view(self.incidence.dtype).transpose(1, 0, 2, 3, 4)[:, None]
        np.matmul(self.incidence, coef, out=out.view(self.incidence.dtype))
        return out.reshape(folds, n_first * dim * n, n_first * dim * n)

    def unfold(self, blocks: np.ndarray) -> np.ndarray:
        """`TransferMatrix.matrix` of the operator with these blocks, at the
        truncation their shape gives: A and B T are their half sum and half
        difference."""
        n_first, dim = self.incidence.shape[1:3]
        n = blocks.shape[-1] // (n_first * dim)
        full = blocks[0]
        if self.mirror is not None:
            a, bt = (blocks[0] + blocks[1]) / 2, (blocks[0] - blocks[1]) / 2
            half = np.arange(n_first * dim * n).reshape(n_first, dim, n)
            perm = half[:, self.mirror[0]].ravel()
            sign = np.broadcast_to(self.mirror[1][:, None] * (-1.0) ** np.arange(n), half.shape).ravel()
            full = np.block([[a, bt[:, perm] * sign],
                             [sign[:, None] * bt[perm], sign[:, None] * a[np.ix_(perm, perm)] * sign]])
        # (letter, k, v) in letter order, from (letter, v, k) in plan order
        index = (np.argsort(self.letters)[:, None, None] * dim + np.arange(dim)) * n
        index = (index + np.arange(n)[:, None]).ravel()
        return full[np.ix_(index, index)]


# rep -> group -> (sorted pairs, samples per circle) -> plan; an entry lives as
# long as its rep and its group.
_PLANS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _plan(group: SchottkyGroup, pairs, rep: UnitaryRep, n_basis: int) -> _OperatorPlan:
    """The plan of (group, pairs, rep) keyed by its sample grid, max(4N, 32)
    points (fewer alias below N = 8), built on first use: every N <= 8 is a
    corner of the N = 8 plan, bit for bit, and so a function of N alone."""
    if not 1 <= n_basis <= MAX_N:
        raise ValueError(f"n_basis must be in 1..{MAX_N}, got {n_basis}")
    plans = _PLANS.setdefault(rep, weakref.WeakKeyDictionary()).setdefault(group, {})
    key = (tuple(sorted(pairs)), max(4 * n_basis, 32))
    if key not in plans:
        plans[key] = _OperatorPlan(group, key[0], rep, key[1] // 4)
    return plans[key]


def assemble_pairs(
    group: SchottkyGroup,
    pairs: list[tuple[Word, int]],
    s: complex,
    rep: UnitaryRep | None = None,
    n_basis: int = DEFAULT_N,
) -> TransferMatrix:
    """Matrix of the operator summing g_w'(z)^s rho(g_w)^{-1} f(g_w z) over
    the given (word, target letter) pairs, acting on z in the target disk.

    The s-independent data is built on first use (`_plan`) and kept while rep
    and group live; each call returns a new matrix."""
    _require_finite("s", s)
    plan = _plan(group, pairs, rep if rep is not None else trivial_rep(group), n_basis)
    return TransferMatrix(plan.blocks(s, n_basis), plan)


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
    """Frobenius norm of the truncation, that of its blocks in an orthonormal
    basis of even and odd functions; oracle for the pair-integral path."""
    return float(np.linalg.norm(tm.blocks))


# -- Hilbert-Schmidt norm via pair integrals ------------------------------------


@dataclass(frozen=True)
class HSRecord:
    value: float
    tau: float
    s: complex
    rep_label: str
    n_basis: int


def pair_integrals(
    group: SchottkyGroup,
    partition: Partition,
    s: complex,
    n_basis: int = DEFAULT_N,
) -> dict[tuple[Word, Word], complex]:
    """The integrals I_{a,b} keyed by (w_a, w_b) in sorted order: the sum,
    over the target letters t that both pairs share, of <C_(a,t), C_(b,t)>_F,
    with C_(w,t) the N x N coefficients of f |-> g_w'(.)^s f(g_w .) from
    D_{w[0]} into D_t. That is the Bergman kernel of D_{w[0]} at (g_a z, g_b z)
    times g_a'^s conj(g_b'^s), integrated over D_t and truncated at N; it
    vanishes across source disks, so only pairs with w_a[0] = w_b[0] are kept.

    One Gram product per (target, source) letter of the trivial rep's plan.
    With the z -> -z symmetry the plan evaluates the representative targets
    alone, to a partial sum P, and I(a, b) = P(a, b) + P(sigma a, sigma b):
    C_(sigma w, sigma t) = T C_(w,t) T with T = diag((-1)^k), and a mirror
    column's coefficients, stored times T, have the same Gram entries.
    """
    return next(_pair_integrals(group, partition, s, n_basis, (n_basis,)))


def _pair_integrals(group: SchottkyGroup, partition: Partition, s: complex, n_basis: int, truncations):
    """`pair_integrals` at each n <= n_basis in truncations, from one plan's n x n corners."""
    _require_finite("s", s)
    plan = _plan(group, partition.pairs, trivial_rep(group), n_basis)
    coef = plan.coefficients(s, n_basis) * plan.target_scale[:, None, :n_basis]
    blocks: dict[tuple[int, int], list[int]] = {}
    for i, (w, t) in enumerate(plan.pairs):
        blocks.setdefault((t, w[0]), []).append(i)
    order = [index for _, index in sorted(blocks.items())]
    keys = [(plan.pairs[i][0], plan.pairs[j][0]) for index in order for i in index for j in index]
    image = {w: tuple(group.involution[a - 1] for a in w) for w, _ in plan.pairs} if plan.mirror else {}
    for n in truncations:
        rows = [coef[index, :n, :n].reshape(len(index), -1) for index in order]
        gram = _finite("a pair integral", lambda: np.concatenate([(r @ r.conj().T).ravel() for r in rows]), s)
        partial: dict[tuple[Word, Word], complex] = {}
        for key, val in zip(keys, gram.tolist()):
            partial[key] = partial.get(key, 0) + val
        mirrored = {(image[wa], image[wb]): val for (wa, wb), val in partial.items()} if image else {}
        yield {key: partial.get(key, 0) + mirrored.get(key, 0)
               for key in sorted(partial.keys() | mirrored.keys())}


def _trace_pair_sum(rep: UnitaryRep, ints: dict[tuple[Word, Word], complex]) -> float:
    """Re sum of tr(rho(g_a)^{-1} rho(g_b)) I_{a,b} over the pair integrals,
    in their order, with rho(g_a)^{-1} = rho(g_a)^*; one image per distinct word."""
    images = {w: rep.image(w) for w in dict.fromkeys(w for pair in ints for w in pair)}
    acc = 0.0 + 0.0j
    for (wa, wb), val in ints.items():
        acc += complex(np.vdot(images[wa], images[wb])) * val
    return acc.real


def hs_norm_integral(
    group: SchottkyGroup,
    partition: Partition,
    s: complex,
    rep: UnitaryRep | None = None,
) -> HSRecord:
    """||L||_HS^2 summed from tr(rho(g_a^{-1} g_b)) I_{a,b} pair terms, with
    I_{a,b} the coefficient Gram sums of `pair_integrals` at DEFAULT_N.
    ConvergenceError when that differs by more than HS_CONVERGENCE_TOL from the
    same sum over the leading (DEFAULT_N - 4)-square corners of the same
    coefficients: the gap estimates the truncation error at DEFAULT_N, and
    bounds it only if that error at least halves from DEFAULT_N - 4 on.
    """
    rep = rep if rep is not None else trivial_rep(group)
    value, coarse = (_trace_pair_sum(rep, ints) for ints in
                     _pair_integrals(group, partition, s, DEFAULT_N, (DEFAULT_N, DEFAULT_N - 4)))
    if not abs(value - coarse) <= HS_CONVERGENCE_TOL * max(1.0, abs(value)):
        raise ConvergenceError(
            f"HS norm not converged: {coarse} at N = {DEFAULT_N - 4} vs {value} at N = {DEFAULT_N}")
    if value < 0:
        raise ConvergenceError(f"negative squared HS norm {value}")
    return HSRecord(value=value, tau=partition.tau, s=s, rep_label=rep.label, n_basis=DEFAULT_N)
