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
from .congruence import DIRECT_P_CAP, SurjectivityError, lambda_p0_traces, rep_lambda_p0, surjective_primes
from .reps import UnitaryRep, trivial_rep
from .schottky import Partition, SchottkyGroup, Word
from .transfer import (DEFAULT_N, ConvergenceError, _finite, _require_finite, _trace_pair_sum,
                       assemble_refined, assemble_standard, pair_integrals)

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
POWER_MAX_STEPS = 5000             # power iterations for one leading eigenvalue before ConvergenceError
ILLINOIS_MAX_RUN = 6               # moves of one bracket end in a row before Illinois steps bisect


class SymmetryError(RuntimeError):
    """A real-axis search was given a rep whose transfer matrix is not real.

    The matrix is real at real s exactly when the rep's letter images are
    real, held as float64 (`UnitaryRep`); `real_zeros` raises this for any
    other rep before it takes a determinant, also for a rep written in a
    complex basis whose determinant is real."""


def _positive(name: str, value: float) -> None:
    """Every refusal of a tolerance or scale outside (0, inf), NaN included."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


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

    A non-finite s, len_max < 1 or a tail_tol outside (0, inf) raises
    ValueError before any class is enumerated. Raises ConvergenceError when
    the geometric tail estimate at len_max exceeds tail_tol.
    """
    _require_finite("s", s)
    if len_max < 1:
        raise ValueError(f"len_max must be >= 1, got {len_max}")
    _positive("tail_tol", tail_tol)
    rep = rep if rep is not None else trivial_rep(group)
    sigma = s.real
    levels = [(words, _lengths(traces)) for words, traces in _lyndon_levels(group, len_max)]
    q = (2 * group.m - 1) * math.exp(-sigma * levels[0][1].min())
    if q >= 1 or 2 * group.m * q ** (len_max + 1) / (1 - q) > tail_tol:
        raise ConvergenceError(f"Euler product tail not below {tail_tol} at len_max={len_max}, Re s={sigma}")
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
    """det(1 - L_{s,rho}) of the truncated standard transfer operator; a
    value past float64's range raises OverflowError."""
    blocks = assemble_standard(group, s, rep, n_basis).blocks
    return complex(_finite("det(1 - L_s)", lambda: _shifted_det(blocks, 1.0), s))


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
    at delta + K. Elsewhere it is det(1 - L_b) det(1 + L_b), two stacked LUs;
    a product past float64's range raises OverflowError.
    """
    blocks = assemble_refined(group, partition, s, rep, n_basis).blocks
    hs2 = [np.vdot(b, b).real for b in blocks]
    if all(h < 1 for h in hs2) and sum(h * h / (2 * (1 - h)) for h in hs2) <= np.finfo(float).eps:
        return complex(np.exp(-np.einsum("bij,bji->", blocks, blocks)))
    # 2 - (1 - L_b) = 1 + L_b
    return complex(_finite("det(1 - L_tau^2)",
                           lambda: _shifted_det(blocks, 1.0) * _shifted_det(blocks, 2.0), s))


def leading_eigenvalue(group: SchottkyGroup, s: float, n_basis: int = DEFAULT_N) -> float:
    """Spectral radius of L_s at real s, by power iteration on its even block.

    At real s the leading eigenvalue of L_s is simple and strictly dominant,
    with a positive eigenfunction (McMullen, Amer. J. Math. 120, 1998;
    Jenkinson and Pollicott, Amer. J. Math. 124, 2002), which is even under
    z -> -z. From the constant functions (1 at k = 0 of each letter), y = B x,
    lambda = ||y||, x = y / lambda is iterated until successive lambda agree
    to a few ulps: O(n^2) a step and no dense eigensolver. A block with no
    dominant eigenvalue raises ConvergenceError after POWER_MAX_STEPS."""
    even = assemble_standard(group, s, None, n_basis).blocks[0]
    x = np.zeros(len(even))
    x[::n_basis] = 1.0
    lam = 0.0
    for _ in range(POWER_MAX_STEPS):
        y = even @ x
        prev, lam = lam, float(np.linalg.norm(y))
        if abs(lam - prev) <= 4 * np.finfo(float).eps * lam:
            return lam
        x = y / lam
    raise ConvergenceError(f"power iteration for the leading eigenvalue at s = {s} "
                           f"did not converge in {POWER_MAX_STEPS} steps")


# -- delta ----------------------------------------------------------------------


def _bisect_sign_change(f, a: float, b: float, fa: float, tol: float) -> float:
    """Midpoint of [a, b] after halving it until b - a <= tol, keeping a sign
    change of f inside; fa = f(a). Its callers refuse a tol outside (0, inf)."""
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
    _positive("tolerance", tol)
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


def _illinois(f, a: float, fa: float, b: float, fb: float, width: float) -> tuple[float, float]:
    """[a, b] with f(a) > 0 >= f(b), f decreasing, shrunk by Illinois steps
    until b - a <= width or no float lies strictly inside: regula falsi that
    halves the value kept at one end while the other end moves twice or more
    running (Dowell and Jarratt, BIT 11, 1971). A step is kept width / 4, and
    at least one float, from either end, so a root at an end costs one step;
    after ILLINOIS_MAX_RUN moves of one end in a row, steps bisect, so a
    stretch where f is 0 is halved, not crawled."""
    run = 0                         # +k: a moved the last k steps, -k: b did
    while b - a > width:
        x = b - fb * (b - a) / (fb - fa)
        x = min(max(x, a + width / 4, math.nextafter(a, b)), b - width / 4, math.nextafter(b, a))
        if abs(run) >= ILLINOIS_MAX_RUN or not a < x < b:
            x = 0.5 * (a + b)
            if not a < x < b:
                break
        fx = f(x)
        if fx > 0:
            a, fa = x, fx
            fb, run = (fb / 2, run + 1) if run > 0 else (fb, 1)
        else:
            b, fb = x, fx
            fa, run = (fa / 2, run - 1) if run < 0 else (fa, -1)
    return a, b


def delta_bisection(group: SchottkyGroup, tol: float = 1e-8, n_basis: int = DEFAULT_N) -> float:
    """Dimension of the limit set: the s where the leading eigenvalue of L_s
    is 1, as the midpoint of a bisection of DELTA_BRACKET to width tol.

    excess(s) = lambda_0(s) - 1 is decreasing in s. Illinois steps
    (`_illinois`) first shrink a bracket [a, b], excess(a) > 0 >= excess(b),
    to width tol / 4; the bisection then takes the sign of a midpoint outside
    (a, b) from the bracket and evaluates only those inside, so it returns the
    plain bisection's float from about half its eigenvalues."""
    _positive("tolerance", tol)
    lo, hi = DELTA_BRACKET

    def excess(s: float) -> float:
        return leading_eigenvalue(group, s, n_basis) - 1.0

    f_lo, f_hi = excess(lo), excess(hi)
    if not f_lo > 0 >= f_hi:
        raise ConvergenceError(f"bisection bracket {DELTA_BRACKET} does not straddle delta")
    a, b = _illinois(excess, lo, f_lo, hi, f_hi, tol / 4)
    return _bisect_sign_change(lambda s: 1.0 if s <= a else -1.0 if s >= b else excess(s),
                               lo, hi, f_lo, tol)


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
    """(`delta`, largest determinant zero), which must agree to 10 tol."""
    d1 = delta(group, tol, n_basis)
    d2 = delta_from_zeta(group, tol, n_basis)
    if abs(d1 - d2) > 10 * tol:
        raise ConvergenceError(f"delta methods disagree: {d1} vs {d2} (tol {tol})")
    return d1, d2


def delta(group: SchottkyGroup, tol: float = 1e-8, n_basis: int = DEFAULT_N) -> float:
    """delta by `delta_bisection` (the bisection of lambda_0(s) = 1, from
    power iterations inside an Illinois bracket), checked by two determinants:
    det(1 - L_s) must change sign across [delta - tol, delta + tol], or
    ConvergenceError. The leading eigenvalue of L_s is simple and decreasing
    in real s, so no eigenvalue is 1 above delta and that zero is the largest
    real one."""
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
            count = round(float(np.sum(inc) / (2 * np.pi)))
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
    n_basis: int | None = None,
) -> int:
    """Winding number of det(1 - L_s) along a rectangle boundary.

    rect = (lower-left, upper-right), finite, lower-left strictly left of and
    below upper-right. Sampling is refined adaptively until consecutive phase
    increments stay below pi/2. A sample whose |det| is at most BOUNDARY_FLOOR
    times the largest on the same contour raises BoundaryZeroError: the floor
    is relative, since near the zero of high order at s = 0 every |det| is tiny.
    N is chosen by `_det_ladder` from the boundary samples of the count at N.
    """
    z0, z1 = map(complex, rect)
    if not (cmath.isfinite(z0) and cmath.isfinite(z1) and z0.real < z1.real and z0.imag < z1.imag):
        raise ValueError(f"need finite corners, lower-left below and left of upper-right, got {rect}")
    corners = [z0, complex(z1.real, z0.imag), z1, complex(z0.real, z1.imag)]

    def boundary(det, n_per_edge: int) -> list[complex]:
        ts = np.arange(n_per_edge) / n_per_edge
        values = [det(complex(a + t * (b - a)))
                  for a, b in zip(corners, corners[1:] + corners[:1]) for t in ts]
        mags = np.abs(values)
        if mags.min() <= BOUNDARY_FLOOR * mags.max():
            raise BoundaryZeroError("determinant vanishes on the rectangle boundary")
        return values

    return _det_ladder(group, rep, lambda det: _winding_number(
        functools.partial(boundary, det), RECT_SAMPLES_PER_EDGE, RECT_MAX_REFINEMENTS), n_basis)[0]


def _choose_n(run, gap, tol: float, n_basis: int | None):
    """(run(N), N) at the truncation N chosen by N - 4 evidence. An explicit
    n_basis is N, and gap is not called; otherwise N is the first of 8, 12,
    ..., DEFAULT_N whose gap(N) = (size, message), taken after run(N), has
    size <= tol, else ConvergenceError(message) at DEFAULT_N. The truncation
    error falls geometrically in N, so the gap estimates (it does not bound)
    the error at N - 4 and overstates that at N."""
    if n_basis is not None:
        return run(n_basis), n_basis
    for n in range(8, DEFAULT_N + 1, 4):
        result = run(n)
        size, message = gap(n)
        if size <= tol:
            return result, n
    raise ConvergenceError(message)


def _det_ladder(group: SchottkyGroup, rep: UnitaryRep | None, run, n_basis: int | None):
    """(run(det), N), det(s) = det(1 - L_{s,rho}) at N, taken once per s and N.
    `_choose_n` picks N by the largest relative gap of det from N - 4 to N over
    every s run evaluated at N, within TRUNCATION_GAP: then each sign and phase
    increment at N - 4 is the one at N."""
    values: dict[int, dict[complex, complex]] = {}  # det(1 - L_s) by N, then s

    def det(n: int, s):
        at_n = values.setdefault(n, {})
        if s not in at_n:
            at_n[s] = zeta_det(group, s, rep, n)
        return at_n[s]

    def gap(n: int):
        gaps = {s: abs(det(n - 4, s) - v) / abs(v) if v else math.inf for s, v in values[n].items()}
        worst = max(gaps, key=gaps.get)
        return gaps[worst], (f"det(1 - L_s) not converged in N: its relative gap from N = {n - 4} "
                             f"to N = {n} is {gaps[worst]:.3g} at s = {worst}, above {TRUNCATION_GAP}")

    return _choose_n(lambda n: run(functools.partial(det, n)), gap, TRUNCATION_GAP, n_basis)


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
    n_basis: int | None = None,
) -> ZeroReport:
    """All real zeros of det(1 - L_{s,rho}) in [lo, hi] with multiplicity.

    A rep with complex images raises SymmetryError before any determinant.
    The candidates come from one Chebyshev proxy of the determinant on
    [lo, hi] (`_chebyshev_roots`): sign changes bisected to tol / 4, and
    even-order dips of the proxy. Each candidate is confirmed and graded by
    the argument principle on a circle of radius 5 * tol whose closed upper
    half alone is evaluated (`_real_circle`). The report carries the proxy's
    node count and final tail as its convergence evidence, and as n_basis the
    N that `_det_ladder` kept, by every point the search at N evaluated
    (proxy nodes, bisection midpoints, circle samples).
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"need finite lo < hi, got lo={lo}, hi={hi}")
    _positive("tolerance", tol)
    if rep is not None and any(np.iscomplexobj(u) for u in rep.images.values()):
        raise SymmetryError(f"{rep.label} has complex images: its transfer matrix is not real at real s")
    (zeros, nodes, tail), n_basis = _det_ladder(
        group, rep, lambda det: _zero_search(det, lo, hi, tol), n_basis)
    return ZeroReport(rep_label=rep.label if rep is not None else "trivial", region=(lo, hi),
                      zeros=zeros, n_basis=n_basis, tol=tol, proxy_nodes=nodes, proxy_tail=tail)


def _twist(group: SchottkyGroup, p: int, sigma: float, delta_tol: float, n_basis: int | None,
           delta_value: float | None) -> tuple[UnitaryRep, float]:
    """(lambda_p^0, delta) for a count or bound on [sigma, delta], sigma finite.
    The rep comes first, so a prime whose reduction is not onto SL_2(F_p)
    raises SurjectivityError before delta, which, when not supplied, is taken
    to delta_tol at n_basis, or at DEFAULT_N when N is chosen (n_basis None)."""
    if not math.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma}")
    rep = rep_lambda_p0(group, p)
    if delta_value is not None:
        return rep, delta_value
    return rep, delta(group, tol=delta_tol, n_basis=DEFAULT_N if n_basis is None else n_basis)


def new_eigenvalue_count(
    group: SchottkyGroup,
    p: int,
    sigma: float,
    tol: float = 1e-5,
    n_basis: int | None = None,
    delta_value: float | None = None,
) -> int:
    """Number of zeros of Z(., lambda_p^0) in [sigma, delta], with multiplicity.

    A tol outside (0, inf) raises ValueError before `_twist` builds the rep
    and delta. sigma above delta counts 0 without a search, but after the rep
    (0.2 ms at p = 7 and 1 ms at p = 97 on a Xeon, with the closure cached).
    The search is `real_zeros` on [sigma, delta + 2 tol] at n_basis, which
    None lets it choose; `_twist` says at which N delta is taken.
    """
    _positive("tolerance", tol)
    rep, d = _twist(group, p, sigma, min(tol, 1e-6), n_basis, delta_value)
    if sigma > d:
        return 0
    return real_zeros(group, rep, sigma, d + 2 * tol, tol=tol, n_basis=n_basis).total_count()


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

    N is chosen by `_choose_n` from how far the implied bound on the first
    circle of theta_samples points moves from N - 4 to N, within bound_tol;
    the doubling then runs at that N on the same cached circle. The rep and
    delta come from `_twist`, after the checks of the arguments and tau's
    partition; then a K whose annulus is empty in float64 raises ValueError."""
    if theta_samples < 1:
        raise ValueError(f"theta_samples must be >= 1, got {theta_samples}")
    _positive("K", K)
    _positive("bound_tol", bound_tol)
    partition = group.partition(tau)
    rep, d = _twist(group, p, sigma, 1e-6, n_basis, delta_value)
    if sigma >= d:
        raise ValueError(f"sigma={sigma} must lie below delta={d}")
    sigma0 = d + K
    r1 = math.hypot(sigma0 - sigma, 1.0)
    r2 = r1 + 1.0 / K
    if r2 == r1:
        raise ValueError(f"K={K} leaves the Jensen annulus empty in float64: r1 + 1/K == r1 = {r1}")
    log_ratio = math.log(r2 / r1)

    @functools.cache
    def truncation(n_basis: int):
        """bound(n), the implied bound from the circle mean of log|zeta_tau| on n points, at N = n_basis."""
        center_val = abs(refined_zeta(group, partition, sigma0, rep, n_basis))
        if center_val < 1e-12:
            raise ValueError("refined zeta nearly vanishes at the Jensen center")
        circle = _real_circle(lambda s: refined_zeta(group, partition, s, rep, n_basis), sigma0, r2)
        log_center = math.log(center_val)
        return lambda n: (float(np.mean([math.log(abs(v)) for v in circle(n)])) - log_center) / log_ratio

    def gap(n: int):
        move = abs(truncation(n)(theta_samples) - truncation(n - 4)(theta_samples))
        return move, (f"Jensen bound not converged in N: it moves by {move:.3g} zeros "
                      f"from N = {n - 4} to N = {n}, above bound_tol={bound_tol}")

    bound, _ = _choose_n(truncation, gap, bound_tol, n_basis)
    n, val = theta_samples, bound(theta_samples)
    for _ in range(JENSEN_MAX_DOUBLINGS):
        n, coarse, val = 2 * n, val, bound(2 * n)
        if abs(val - coarse) <= bound_tol:
            return max(val, 0.0)
    raise ConvergenceError("Jensen circle integral did not stabilize")


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
    character sums via the fixed-line trace formula. A non-finite s raises
    ValueError before the sieve, and a prime p ~ x whose reduction is not onto
    SL_2(F_p) raises SurjectivityError before any pair integral. A pair
    integral or a returned sum past float64's range raises OverflowError."""
    if mode not in ("direct", "decomposed", "both"):
        raise ValueError(f"mode must be 'direct', 'decomposed' or 'both', got {mode!r}")
    _require_finite("s", s)
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
        direct = _finite("the direct prime sum", lambda: log_weighted_sum(logs, np.array(
            [_trace_pair_sum(rep_lambda_p0(group, p), ints) for p in primes])), s)

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
        decomposed = _finite("the decomposed prime sum", lambda: diagonal + off_diagonal, s)

    return HSPrimeSumRecord(
        tau=tau, s=s, x=x, primes=tuple(primes),
        direct=direct, decomposed=decomposed,
        diagonal=diagonal, off_diagonal=off_diagonal,
        fallback_pairs=fallback,
    )
