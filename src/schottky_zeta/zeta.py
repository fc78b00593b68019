"""Selberg zeta functions via Fredholm determinants and Euler products,
zero location/counting, the limit-set dimension delta, the Jensen bound
on zero counts of the congruence twists, and the Hilbert-Schmidt prime sum."""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .arithmetic import dyadic_primes, log_weighted_sum
from .congruence import (SurjectivityError, lambda_p0_traces, rep_lambda_p0, surjective_mod_p,
                         surjective_primes)
from .reps import UnitaryRep, trivial_rep
from .schottky import Partition, SchottkyGroup, Word
from .transfer import DEFAULT_N, _trace_pair_sum, assemble_refined, assemble_standard, pair_integrals

DELTA_BRACKET = (1e-3, 0.999)      # search interval for delta
CHEB_START_N = 16                  # first Chebyshev proxy degree of a real-axis root search
CHEB_MAX_N = 256                   # largest proxy degree before ConvergenceError
CHEB_TAIL_TOL = 1e-13              # converged once the tail coefficients fall below this, relative
CHEB_DIP = 100.0                   # a |proxy| dip below this many tail bounds may hide a zero
RECT_SAMPLES_PER_EDGE = 16
RECT_MAX_REFINEMENTS = 6
BOUNDARY_FLOOR = 1e-13             # |det| at most this share of a contour's largest counts as a zero on it
CIRCLE_SAMPLES = 32
CIRCLE_MAX_REFINEMENTS = 5
JENSEN_MAX_DOUBLINGS = 3
TRUNCATION_GAP = 0.5               # largest |det at N - 4 - det at N| / |det at N| a zero search accepts
DIRECT_P_CAP = 1000                # largest prime the materialized direct HS prime sum accepts


class ConvergenceError(RuntimeError):
    pass


class SymmetryError(RuntimeError):
    """A real-axis search was given a rep whose transfer matrix is not real.

    The matrix is real at real s exactly when the rep's letter images are
    real, held as float64 (`UnitaryRep`); `real_zeros` raises this for any
    other rep before it takes a determinant, also for a rep written in a
    complex basis whose determinant is real."""


# -- primitive conjugacy classes ------------------------------------------------


@dataclass(frozen=True)
class PrimitiveClass:
    """One conjugacy class of primitive hyperbolic elements.

    The representative is the lexicographically minimal rotation of a
    cyclically reduced word; the geodesic length comes from the standard
    displacement identity l = 2 arccosh(|tr|/2).
    """

    word: Word
    trace: int
    length: float


def _lyndon_levels(group: SchottkyGroup, len_max: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """The primitive classes of each word length n = 1, ..., len_max, as the
    pair (words, traces): the (K, n) array of their representatives in
    lexicographic order and their K exact |traces|, int64 or, past 2^62,
    Python ints in an object array. See `primitive_classes`."""
    if len_max < 1:
        return []
    group.check_word_cap(len_max)
    letters = np.array(group.alphabet)
    bar = np.array([0] + [group.bar(a) for a in letters])  # indexed by letter
    gens = np.array([(g.a, g.b, g.c, g.d) for g in map(group.generator, letters)], dtype=object)
    gen_max = int(np.abs(gens).max())
    if gen_max < 2**62:
        gens = gens.astype(np.int64)
    # the prenecklaces of the current length: words, periods, matrices (a, b, c, d)
    words, periods, rows = letters[:, None], np.ones(letters.size, dtype=np.int64), gens
    levels = []
    for n in range(1, len_max + 1):
        if n > 1:
            first = words[np.arange(len(words)), n - 1 - periods]
            # every letter b >= first that does not cancel the last letter, in
            # (parent, b) order, which keeps the level lexicographic
            ok = (letters >= first[:, None]) & (letters != bar[words[:, -1]][:, None])
            parent, b = np.nonzero(ok)
            b = letters[b]
            periods = np.where(b == first[parent], periods[parent], n)
            words = np.hstack([words[parent], b[:, None]])
            # a product's entries are at most 2 max|entry| max|generator entry|
            if rows.dtype != object and 2 * int(np.abs(rows).max()) * gen_max >= 2**62:
                rows, gens = rows.astype(object), gens.astype(object)
            p, g = rows[parent], gens[b - 1]
            rows = np.stack([p[:, 0] * g[:, 0] + p[:, 1] * g[:, 2],
                             p[:, 0] * g[:, 1] + p[:, 1] * g[:, 3],
                             p[:, 2] * g[:, 0] + p[:, 3] * g[:, 2],
                             p[:, 2] * g[:, 1] + p[:, 3] * g[:, 3]], axis=1)
        lyndon = periods == n
        if n > 1:
            lyndon &= words[:, -1] != bar[words[:, 0]]
        traces = np.abs(rows[lyndon, 0] + rows[lyndon, 3])
        small = np.flatnonzero(traces <= 2)
        if small.size:
            w = tuple(words[lyndon][small[0]].tolist())
            raise ConvergenceError(f"non-hyperbolic class {w} with |trace| {traces[small[0]]}")
        levels.append((words[lyndon], traces))
    return levels


def _lengths(traces: np.ndarray) -> np.ndarray:
    """The geodesic lengths 2 arccosh(|tr| / 2), by math.acosh."""
    return np.array([2.0 * math.acosh(t / 2.0) for t in traces.tolist()], dtype=float)


def primitive_classes(group: SchottkyGroup, len_max: int) -> list[PrimitiveClass]:
    """One representative per primitive class, word length <= len_max, by
    length and then lexicographically: the cyclically reduced words that are
    Lyndon words, strictly below each of their nontrivial rotations (a power
    equals one of its rotations, so these are primitive).

    The FKM prenecklace step (Ruskey, Savage and Wang, J. Algorithms 13,
    1992), taken one length at a time over arrays, finds them: a prenecklace
    w of length n and period p extends by each letter b >= w[n - p] other
    than bar(w[-1]), keeping the period p when b equals that letter and
    taking n + 1 above it, and it is a Lyndon word when its period is its
    length. The children are listed in (parent, letter) order, so each length
    stays lexicographic. Each level multiplies its parents' exact matrices by
    one generator, in int64 until a level's entries could pass 2^62 and in
    Python integers from there on.
    """
    return [PrimitiveClass(word=tuple(w), trace=t, length=ell)
            for words, traces in _lyndon_levels(group, len_max)
            for w, t, ell in zip(words.tolist(), traces.tolist(), _lengths(traces).tolist())]


def euler_product(
    group: SchottkyGroup,
    s: complex,
    rep: UnitaryRep | None = None,
    len_max: int = 8,
    tail_tol: float = 1e-10,
) -> complex:
    """Truncated product over primitive classes; valid for Re s > delta.

    Raises ConvergenceError when the geometric tail estimate at len_max
    exceeds tail_tol.
    """
    rep = rep if rep is not None else trivial_rep(group)
    sigma = s.real
    levels = [(words, _lengths(traces)) for words, traces in _lyndon_levels(group, len_max)]
    if levels:
        ell_min = levels[0][1].min()
        q = (2 * group.m - 1) * math.exp(-sigma * ell_min)
        if q >= 1 or 2 * group.m * q ** (len_max + 1) / (1 - q) > tail_tol:
            raise ConvergenceError(
                f"Euler product tail not below {tail_tol} at len_max={len_max}, Re s={sigma}"
            )
    total = 1.0 + 0.0j
    eye = np.eye(rep.dim, dtype=complex)
    images = np.array([rep.images[a] for a in group.alphabet], dtype=complex)
    for words, lengths in levels:
        indices = words - 1
        rho = images[indices[:, 0]]  # the letter images, multiplied left to right
        for j in range(1, indices.shape[1]):
            rho = rho @ images[indices[:, j]]
        k = 0
        while True:
            f = np.exp(-(s + k) * lengths)
            keep = np.abs(f) >= 1e-16
            if not keep.any():
                break
            for factor in np.linalg.det(eye - rho[keep] * f[keep, None, None]).tolist():
                total *= factor
            k += 1
    return total


# -- Fredholm determinants ------------------------------------------------------


def _shifted_det(blocks: np.ndarray, shift: float) -> complex:
    """The product of det(shift - M) over the stacked blocks M of a
    TransferMatrix, in one determinant call; they are real where the operator
    is (see `_OperatorPlan.blocks`) and are left holding shift - M."""
    np.negative(blocks, out=blocks)
    diagonal = np.arange(blocks.shape[-1])
    blocks[:, diagonal, diagonal] += shift
    return np.prod(np.linalg.det(blocks))


def zeta_det(
    group: SchottkyGroup,
    s: complex,
    rep: UnitaryRep | None = None,
    n_basis: int = DEFAULT_N,
) -> complex:
    """det(1 - L_{s,rho}) of the truncated standard transfer operator."""
    return complex(_shifted_det(assemble_standard(group, s, rep, n_basis).blocks, 1.0))


def refined_zeta(
    group: SchottkyGroup,
    partition: Partition,
    s: complex,
    rep: UnitaryRep | None = None,
    n_basis: int = DEFAULT_N,
) -> complex:
    """det(1 - L_{tau,s,rho}^2) of the truncated refined transfer operator,
    the product of det(1 - L_b^2) over its blocks L_b.

    Where every block is small this is one trace, exact to rounding. With
    h_b^2 = ||L_b||_F^2 < 1, log det(1 - L_b^2) = -sum_k tr(L_b^{2k}) / k,
    |tr(A^k)| <= ||A||_1^k and ||L_b^2||_1 <= h_b^2 (Simon, Trace Ideals,
    ch. 3), so the terms past k = 1 move log det by at most
    h_b^4 / (2 (1 - h_b^2)). Where these bounds sum to at most machine epsilon,
    below an LU's own rounding, the value is exp(-sum_b tr(L_b^2)), O(n^2) for
    an n x n block. That holds on the right half of a Jensen circle, centred
    at delta + K. Elsewhere it is det(1 - L_b) det(1 + L_b), two stacked LUs.
    """
    blocks = assemble_refined(group, partition, s, rep, n_basis).blocks
    hs2 = [np.vdot(b, b).real for b in blocks]
    if all(h < 1 for h in hs2) and sum(h * h / (2 * (1 - h)) for h in hs2) <= np.finfo(float).eps:
        return complex(np.exp(-np.einsum("bij,bji->", blocks, blocks)))
    minus = _shifted_det(blocks, 1.0)
    return complex(minus * _shifted_det(blocks, 2.0))  # 2 - (1 - L_b) = 1 + L_b


def leading_eigenvalue(group: SchottkyGroup, s: float, n_basis: int = DEFAULT_N) -> float:
    """Spectral radius of L_s, from its even block alone: the Perron-Frobenius
    eigenfunction is positive, so it is even under z -> -z."""
    even = assemble_standard(group, s, None, n_basis).blocks[0]
    return float(np.max(np.abs(np.linalg.eigvals(even))))


# -- delta ----------------------------------------------------------------------


def _bisect_sign_change(f, a: float, b: float, fa: float, tol: float) -> float:
    """Midpoint of [a, b] after halving it until b - a <= tol, keeping a sign
    change of f inside; fa = f(a)."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    while b - a > tol:
        mid = 0.5 * (a + b)
        if not a < mid < b:
            raise ValueError(f"tolerance {tol} is below the float spacing near {mid}")
        fm = f(mid)
        if fa * fm <= 0:
            b = mid
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


def _chebyshev_roots(f, lo: float, hi: float, tol: float):
    """Real roots of f on [lo, hi] from one Chebyshev proxy p (Boyd, SIAM J.
    Numer. Anal. 40, 2002; Trefethen, Approximation Theory and Approximation
    Practice, 2013). p interpolates f at the n + 1 second-kind Chebyshev points
    (one FFT of the even extension); n doubles from CHEB_START_N, reusing every
    node, until the last n/8 coefficients are below CHEB_TAIL_TOL of the
    largest, or below sqrt(eps) of it without a fall over two doublings (f's
    own noise floor); their size bounds |f - p|. Real roots of p (colleague
    matrix), and ends where |p| is within CHEB_DIP bounds of zero, that f brackets at
    r +- max(tol / 4, bound / |p'(r)|) are bisected to width tol. A near-real
    conjugate pair (an even-order zero) dips |p| to within CHEB_DIP bounds at a
    root of p'; those dips and the unbracketed roots are even candidates.
    Elsewhere |p| > CHEB_DIP bounds: f has no zero.

    Returns (roots, n + 1, tail), roots the sorted (s, sign_change) pairs, one
    per cluster narrower than the proxy's resolution of an even-order zero."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    f = functools.cache(f)
    cheb = np.polynomial.chebyshev

    def at(x: float) -> float:
        return ((1 - x) * lo + (1 + x) * hi) / 2

    n, tails = CHEB_START_N, []
    while True:
        v = np.array([f(at(math.sin(math.pi * (n - 2 * k) / (2 * n)))) for k in range(n + 1)])
        c = np.fft.rfft(np.concatenate([v, v[-2:0:-1]])).real / n
        c[[0, n]] /= 2
        scale = np.max(np.abs(c))
        tail = float(np.max(np.abs(c[-max(2, n // 8):])) / scale) if scale else math.inf
        tails.append(tail)
        floor = len(tails) > 2 and tails[-3] <= tail < math.sqrt(np.finfo(float).eps)
        if tail < CHEB_TAIL_TOL or floor:
            break
        n *= 2
        if n > CHEB_MAX_N:
            raise ConvergenceError(f"Chebyshev tail {tail:.1e} at {n // 2 + 1} nodes")
    bound = scale * max(tail, n * np.finfo(float).eps)  # the DCT's own rounding at least
    c = cheb.chebtrim(c, bound)
    dc = cheb.chebder(c)
    near = CHEB_DIP * bound
    real, crit = ([x.real for x in map(complex, cheb.chebroots(q)) if x.imag == 0] for q in (c, dc))
    cands = [(at(x), 1) for x in crit if abs(x) <= 1 and abs(cheb.chebval(x, c)) <= near]
    for x in real + [end for end in (-1.0, 1.0) if abs(cheb.chebval(end, c)) <= near]:
        err = bound / max(abs(cheb.chebval(x, dc)), bound)
        if abs(x) > 1 + err:
            continue
        s, h = at(x), max(tol / 4, err * (hi - lo) / 2)
        a, b = max(lo, s - h), min(hi, s + h)
        if not a < b:
            raise ValueError(f"tolerance {tol} is below the float spacing near {s}")
        fa = f(a)
        odd = fa * f(b) <= 0
        # rank 0: a bracketed sign change, 1: a dip, 2: an unbracketed root
        cands.append((_bisect_sign_change(f, a, b, fa, tol), 0) if odd
                     else (min(max(s, lo), hi), 2))
    res = max(tol, (hi - lo) * math.sqrt(CHEB_DIP * bound / scale))
    roots: list[tuple[float, bool]] = []
    for s, rank in sorted(cands, key=lambda cand: (cand[1], cand[0])):
        if all(abs(s - t) >= (res if rank else tol) for t, _ in roots):
            roots.append((float(s), rank == 0))
    return sorted(roots), n + 1, tail


def delta_bisection(group: SchottkyGroup, tol: float = 1e-8, n_basis: int = DEFAULT_N) -> float:
    """Dimension of the limit set: the s with leading eigenvalue of L_s = 1."""
    lo, hi = DELTA_BRACKET

    def excess(s: float) -> float:
        return leading_eigenvalue(group, s, n_basis) - 1.0

    f_lo = excess(lo)
    if f_lo < 0 or excess(hi) > 0:
        raise ConvergenceError(f"bisection bracket {DELTA_BRACKET} does not straddle delta")
    return _bisect_sign_change(excess, lo, hi, f_lo, tol)


def delta_from_zeta(group: SchottkyGroup, tol: float = 1e-8, n_basis: int = DEFAULT_N) -> float:
    """Largest real zero of det(1 - L_s) in DELTA_BRACKET: the largest sign
    change that `_chebyshev_roots` brackets and bisects to width tol."""
    roots = _chebyshev_roots(lambda s: zeta_det(group, s, None, n_basis).real, *DELTA_BRACKET, tol)[0]
    odd = [x for x, sign_change in roots if sign_change]
    if not odd:
        raise ConvergenceError("no real determinant zero found in the bracket")
    return max(odd)


def delta_methods(
    group: SchottkyGroup, tol: float = 1e-8, n_basis: int = DEFAULT_N
) -> tuple[float, float]:
    """(eigenvalue bisection, largest determinant zero), which must agree to 10 tol."""
    d1 = delta_bisection(group, tol, n_basis)
    d2 = delta_from_zeta(group, tol, n_basis)
    if abs(d1 - d2) > 10 * tol:
        raise ConvergenceError(f"delta methods disagree: {d1} vs {d2} (tol {tol})")
    return d1, d2


def delta(group: SchottkyGroup, tol: float = 1e-8, n_basis: int = DEFAULT_N) -> float:
    """delta by eigenvalue bisection, checked by two determinants: det(1 - L_s)
    must change sign across [delta - tol, delta + tol], or ConvergenceError.
    The leading eigenvalue of L_s is simple and decreasing in real s, so no
    eigenvalue is 1 above delta and that zero is the largest real one."""
    d = delta_bisection(group, tol, n_basis)
    below, above = (zeta_det(group, s, None, n_basis).real for s in (d - tol, d + tol))
    if not below * above <= 0:
        raise ConvergenceError(f"det(1 - L_s) keeps its sign across delta = {d} +- {tol}: "
                               f"{below} and {above}")
    return d


# -- zero counting ---------------------------------------------------------------


@dataclass(frozen=True)
class ZeroReport:
    rep_label: str
    region: tuple[float, float] | tuple[complex, complex]
    zeros: list[tuple[complex, int]]
    n_basis: int
    tol: float
    proxy_nodes: int
    proxy_tail: float

    def total_count(self) -> int:
        return sum(mult for _, mult in self.zeros)

    def as_dict(self) -> dict:
        return {
            "rep": self.rep_label,
            "region": [str(r) for r in self.region],
            "zeros": [
                {"re_s": z.real, "im_s": z.imag, "multiplicity": m, "lambda": (z * (1 - z)).real}
                for z, m in self.zeros
            ],
            "n_basis": self.n_basis,
            "tol": self.tol,
            "proxy_nodes": self.proxy_nodes,
            "proxy_tail": self.proxy_tail,
        }


class BoundaryZeroError(RuntimeError):
    pass


def _winding_number(values, n: int, max_refinements: int) -> int:
    """Winding number about 0 of the closed contour whose n samples, in order,
    are values(n); n doubles until consecutive phase increments stay below
    pi/2. It evaluates nothing itself: values computes and caches the samples.
    Both callers sample det(1 - L_s), entire in s, so a negative count can only
    be aliasing and raises ConvergenceError."""
    for _ in range(max_refinements):
        phases = np.angle(np.array(values(n)))
        inc = np.diff(np.concatenate([phases, phases[:1]]))
        inc = (inc + np.pi) % (2 * np.pi) - np.pi
        if np.max(np.abs(inc)) < np.pi / 2:
            w = float(np.sum(inc) / (2 * np.pi))
            count = round(w)
            if abs(w - count) > 0.25:
                raise ConvergenceError(f"non-integral winding number {w}")
            if count < 0:
                raise ConvergenceError(f"negative winding number {count}: the samples alias")
            return count
        n *= 2
    raise ConvergenceError("winding number did not stabilize under refinement")


def _real_circle(f, center: float, radius: float):
    """values(n): f at the n points center + radius e^{2 pi i k/n}, k < n, of
    a circle centred on R. f is evaluated only on the closed upper half
    k <= n/2; point n - k is the conjugate of point k's value, which is f's
    value there wherever f is real on R (Schwarz reflection), as det(1 - L_s)
    is for a rep with float64 images. f is cached: the 2n-point circle
    repeats the n-point one bitwise at its even indices."""
    f = functools.cache(f)

    def values(n: int) -> list[complex]:
        half = [f(complex(center + radius * np.exp(2j * np.pi * t))) for t in np.arange(n // 2 + 1) / n]
        return half + [half[n - k].conjugate() for k in range(n // 2 + 1, n)]

    return values


def count_zeros_rect(
    group: SchottkyGroup,
    rep: UnitaryRep | None,
    rect: tuple[complex, complex],
    n_basis: int = DEFAULT_N,
) -> int:
    """Winding number of det(1 - L_s) along a rectangle boundary.

    rect = (lower-left, upper-right), finite, lower-left strictly left of and
    below upper-right. Sampling is refined adaptively until consecutive phase
    increments stay below pi/2. A sample whose |det| is at most BOUNDARY_FLOOR
    times the largest on the same contour raises BoundaryZeroError: the floor
    is relative, since near the zero of high order at s = 0 every |det| is tiny.
    """
    z0, z1 = map(complex, rect)
    if not (cmath.isfinite(z0) and cmath.isfinite(z1) and z0.real < z1.real and z0.imag < z1.imag):
        raise ValueError(f"need finite corners, lower-left below and left of upper-right, got {rect}")
    corners = [z0, complex(z1.real, z0.imag), z1, complex(z0.real, z1.imag)]

    f = functools.cache(functools.partial(zeta_det, group, rep=rep, n_basis=n_basis))

    def boundary(n_per_edge: int) -> list[complex]:
        ts = np.arange(n_per_edge) / n_per_edge
        values = [f(complex(a + t * (b - a)))
                  for a, b in zip(corners, corners[1:] + corners[:1]) for t in ts]
        mags = np.abs(values)
        if mags.min() <= BOUNDARY_FLOOR * mags.max():
            raise BoundaryZeroError("determinant vanishes on the rectangle boundary")
        return values

    return _winding_number(boundary, RECT_SAMPLES_PER_EDGE, RECT_MAX_REFINEMENTS)


def _zero_search(det, lo: float, hi: float, tol: float):
    """(zeros, proxy nodes, proxy tail) of det on [lo, hi]: the proxy's
    candidates, each confirmed on its half circle. See `real_zeros`."""
    roots, nodes, tail = _chebyshev_roots(lambda s: det(s).real, lo, hi, tol / 4)
    zeros: list[tuple[complex, int]] = []
    for x, _ in roots:
        if zeros and abs(x - zeros[-1][0].real) < 5 * tol:
            continue
        circle = _real_circle(det, x, 5 * tol)
        mult = _winding_number(circle, CIRCLE_SAMPLES, CIRCLE_MAX_REFINEMENTS)
        if mult >= 1:
            zeros.append((complex(x), mult))
    return zeros, nodes, tail


def real_zeros(
    group: SchottkyGroup,
    rep: UnitaryRep | None,
    lo: float,
    hi: float,
    tol: float = 1e-6,
    n_basis: int | None = DEFAULT_N,
) -> ZeroReport:
    """All real zeros of det(1 - L_{s,rho}) in [lo, hi] with multiplicity.

    A rep with complex images raises SymmetryError before any determinant.
    The candidates come from one Chebyshev proxy of the determinant on
    [lo, hi] (`_chebyshev_roots`): sign changes bisected to tol / 4, and
    even-order dips of the proxy. Each candidate is confirmed and graded by
    the argument principle on a circle of radius 5 * tol whose closed upper
    half alone is evaluated (`_real_circle`). The report carries the proxy's
    node count and final tail as its convergence evidence.

    n_basis=None chooses the truncation N by its N - 4 evidence: the search
    runs at N = 8, 12, ..., DEFAULT_N, and the first N is kept at which
    det(1 - L_s) at N - 4 is within TRUNCATION_GAP of its modulus at N at
    every point the search at N evaluated (proxy nodes, bisection midpoints,
    circle samples). There each sign and each phase increment of the search
    at N - 4 is the same as at N. Each (N, s) is evaluated once; the N - 4
    values at the shared proxy nodes come from the rung below. A gap still
    above TRUNCATION_GAP at DEFAULT_N raises ConvergenceError. The report's
    n_basis is the N kept. An explicit n_basis is used as given.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"need finite lo < hi, got lo={lo}, hi={hi}")
    if not 0 < tol < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    if rep is not None and any(np.iscomplexobj(u) for u in rep.images.values()):
        raise SymmetryError(f"{rep.label} has complex images: its transfer matrix is not real at real s")
    if n_basis is not None:
        zeros, nodes, tail = _zero_search(
            functools.partial(zeta_det, group, rep=rep, n_basis=n_basis), lo, hi, tol)
    else:
        values: dict[int, dict[complex, complex]] = {}  # det(1 - L_s) by N, then s

        def det_at(n: int):
            at_n = values.setdefault(n, {})

            def det(s):
                if s not in at_n:
                    at_n[s] = zeta_det(group, s, rep, n)
                return at_n[s]
            return det

        for n_basis in range(8, DEFAULT_N + 1, 4):
            zeros, nodes, tail = _zero_search(det_at(n_basis), lo, hi, tol)
            coarse = det_at(n_basis - 4)
            gaps = {s: abs(coarse(s) - v) / abs(v) if v else math.inf for s, v in values[n_basis].items()}
            worst = max(gaps, key=gaps.get)
            if gaps[worst] <= TRUNCATION_GAP:
                break
        else:
            raise ConvergenceError(
                f"det(1 - L_s) not converged in N: its relative gap from N = {DEFAULT_N - 4} to "
                f"N = {DEFAULT_N} is {gaps[worst]:.3g} at s = {worst}, above {TRUNCATION_GAP}")
    return ZeroReport(rep_label=rep.label if rep is not None else "trivial", region=(lo, hi),
                      zeros=zeros, n_basis=n_basis, tol=tol, proxy_nodes=nodes, proxy_tail=tail)


def new_eigenvalue_count(
    group: SchottkyGroup,
    p: int,
    sigma: float,
    tol: float = 1e-5,
    n_basis: int | None = None,
    delta_value: float | None = None,
) -> int:
    """Number of zeros of Z(., lambda_p^0) in [sigma, delta], with multiplicity.

    A prime whose reduction is not onto SL_2(F_p) raises SurjectivityError
    before delta is computed; sigma above delta counts 0 without a search.
    The search is `real_zeros` on [sigma, delta + 2 tol]. n_basis=None lets
    it choose N by its N - 4 evidence, and delta, when not supplied, is then
    computed at DEFAULT_N; an explicit n_basis is used for both.
    """
    if not math.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma}")
    if not surjective_mod_p(group, p):
        raise SurjectivityError(f"reduction mod {p} is not surjective; the induced-rep count is invalid")
    if delta_value is not None:
        d = delta_value
    else:
        d = delta(group, tol=min(tol, 1e-6), n_basis=DEFAULT_N if n_basis is None else n_basis)
    if sigma > d:
        return 0
    rep = rep_lambda_p0(group, p)
    report = real_zeros(group, rep, sigma, d + 2 * tol, tol=tol, n_basis=n_basis)
    return report.total_count()


def jensen_bound(
    group: SchottkyGroup,
    p: int,
    sigma: float,
    tau: float,
    K: float = 6.0,
    n_basis: int | None = None,
    delta_value: float | None = None,
    theta_samples: int = 512,
    bound_tol: float = 0.1,
) -> float:
    """Numerical Jensen upper bound for the zero count in [sigma, delta].

    Uses sigma_0 = delta + K, r_1 = sqrt((sigma_0-sigma)^2 + 1),
    r_2 = r_1 + 1/K, the trapezoid mean of log|zeta_tau| on the circle of
    radius r_2, and the actual -log|zeta_tau(sigma_0)| at the center. The
    circle's closed upper half alone is evaluated (`_real_circle`; lambda_p^0
    has real images, so zeta_tau is real on R). Zeros of zeta_tau near its left
    edge make the integrand spiky, so the sampling is doubled until the implied
    bound moves by less than bound_tol (measured in zeros, not relatively).

    n_basis=None chooses the truncation N by its N - 4 evidence: the implied
    bound on the first circle of theta_samples points is taken at N = 4, 8,
    ..., DEFAULT_N, and the first N >= 8 whose bound is within bound_tol of
    the bound at N - 4 is kept; the doubling then runs at that N on the same
    cached circle. A gap still above bound_tol at DEFAULT_N raises
    ConvergenceError. An explicit n_basis is used as given. delta, when not
    supplied, is computed at DEFAULT_N in the first case.
    """
    if theta_samples < 1:
        raise ValueError(f"theta_samples must be >= 1, got {theta_samples}")
    if not 0 < K < math.inf:
        raise ValueError(f"K must be positive and finite, got {K}")
    if not math.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma}")
    if not 0 < bound_tol < math.inf:
        raise ValueError(f"bound_tol must be positive and finite, got {bound_tol}")
    if not surjective_mod_p(group, p):
        raise SurjectivityError(f"reduction mod {p} is not surjective; the Jensen bound is undefined")
    if delta_value is not None:
        d = delta_value
    else:
        d = delta(group, tol=1e-6, n_basis=DEFAULT_N if n_basis is None else n_basis)
    if sigma >= d:
        raise ValueError(f"sigma={sigma} must lie below delta={d}")
    partition = group.partition(tau)
    rep = rep_lambda_p0(group, p)
    sigma0 = d + K
    r1 = math.sqrt((sigma0 - sigma) ** 2 + 1.0)
    r2 = r1 + 1.0 / K
    log_ratio = math.log(r2 / r1)

    def truncation(n_basis: int):
        """(log|zeta_tau(sigma_0)|, the circle mean of log|zeta_tau| on n points) at N = n_basis."""
        center_val = abs(refined_zeta(group, partition, sigma0, rep, n_basis))
        if center_val < 1e-12:
            raise ValueError("refined zeta nearly vanishes at the Jensen center")
        circle = _real_circle(lambda s: refined_zeta(group, partition, s, rep, n_basis), sigma0, r2)
        return math.log(center_val), lambda n: float(np.mean([math.log(abs(v)) for v in circle(n)]))

    if n_basis is not None:
        log_center, circle_mean = truncation(n_basis)
    else:
        bounds = []  # the implied bound on the first circle at N = 4, 8, ...
        for n_basis in range(4, DEFAULT_N + 1, 4):
            log_center, circle_mean = truncation(n_basis)
            bounds.append((circle_mean(theta_samples) - log_center) / log_ratio)
            if len(bounds) > 1 and abs(bounds[-1] - bounds[-2]) <= bound_tol:
                break
        else:
            raise ConvergenceError(
                f"Jensen bound not converged in N: it moves by {abs(bounds[-1] - bounds[-2]):.3g} "
                f"zeros from N = {DEFAULT_N - 4} to N = {DEFAULT_N}, above bound_tol={bound_tol}")

    n, val = theta_samples, circle_mean(theta_samples)
    for _ in range(JENSEN_MAX_DOUBLINGS):
        n, coarse, val = 2 * n, val, circle_mean(2 * n)
        if abs(val - coarse) <= bound_tol * log_ratio:
            break
    else:
        raise ConvergenceError("Jensen circle integral did not stabilize")

    bound = (val - log_center) / log_ratio
    return max(bound, 0.0)


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
    fallback_pairs: int = 0        # (pair, prime) terms where the pair word is +-I mod p


def hs_prime_sum(
    group: SchottkyGroup,
    tau: float,
    s: complex,
    x: float,
    mode: str = "both",
) -> HSPrimeSumRecord:
    """Two computation paths for sum over p ~ x of log(p) ||L_{tau,s,lambda_p^0}||^2_HS.

    direct: per-prime pair-integral HS norms with the materialized sum-zero
    representation. decomposed: diagonal prime sum plus off-diagonal
    character sums via the fixed-line trace formula. A prime p ~ x whose
    reduction is not onto SL_2(F_p) raises SurjectivityError before any pair
    integral.
    """
    if mode not in ("direct", "decomposed", "both"):
        raise ValueError(f"mode must be 'direct', 'decomposed' or 'both', got {mode!r}")
    partition = group.partition(tau)
    prime_array, logs = dyadic_primes(x)
    primes = prime_array.tolist()
    if not primes:
        raise ValueError(f"no prime p ~ x, in (x/2, x] = ({x / 2}, {x}]")
    if mode in ("direct", "both") and primes[-1] > DIRECT_P_CAP:
        raise ValueError(f"p={primes[-1]} exceeds the direct-mode cap DIRECT_P_CAP={DIRECT_P_CAP}")
    onto = surjective_primes(group, prime_array)
    if not onto.all():
        raise SurjectivityError(f"reduction mod {prime_array[~onto][0]} not surjective; prime sum undefined")

    ints = pair_integrals(group, partition, s)

    direct = None
    if mode in ("direct", "both"):
        direct = log_weighted_sum(logs, np.array(
            [_trace_pair_sum(rep_lambda_p0(group, p), ints) for p in primes]))

    decomposed = diagonal = off_diagonal = None
    fallback = 0
    if mode in ("decomposed", "both"):
        diagonal = log_weighted_sum(logs, prime_array) * sum(
            v.real for (wa, wb), v in ints.items() if wa == wb)
        off_diagonal = 0.0
        for (wa, wb), val in ints.items():
            if wa == wb:
                continue
            traces = lambda_p0_traces(
                group.word_matrix(wa).inverse() @ group.word_matrix(wb), prime_array)
            # a trace equal to p marks a prime where the pair word is +-I mod p
            fallback += int(np.count_nonzero(traces == prime_array))
            off_diagonal += log_weighted_sum(logs, traces) * val.real
        decomposed = diagonal + off_diagonal

    return HSPrimeSumRecord(
        tau=tau, s=s, x=x, primes=tuple(primes),
        direct=direct, decomposed=decomposed,
        diagonal=diagonal, off_diagonal=off_diagonal,
        fallback_pairs=fallback,
    )
