"""Selberg zeta functions via Fredholm determinants and Euler products,
zero location/counting, the limit-set dimension delta, and the Jensen bound
on zero counts of the congruence twists."""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .congruence import rep_lambda_p0, surjective_mod_p
from .reps import UnitaryRep, trivial_rep
from .schottky import Partition, SchottkyGroup, Word
from .transfer import DEFAULT_N, assemble_refined, assemble_standard

DELTA_BRACKET = (1e-3, 0.999)      # search interval for delta
CHEB_START_N = 16                  # first Chebyshev proxy degree of a real-axis root search
CHEB_MAX_N = 256                   # largest proxy degree before ConvergenceError
CHEB_TAIL_TOL = 1e-13              # converged once the tail coefficients fall below this, relative
CHEB_DIP = 100.0                   # a |proxy| dip below this many tail bounds may hide a zero
IM_REL_TOL = 1e-8                  # allowed imaginary part of the determinant at real s
RECT_SAMPLES_PER_EDGE = 16
RECT_MAX_REFINEMENTS = 6
BOUNDARY_FLOOR = 1e-13             # |det| below this on a rectangle edge counts as a zero there
CIRCLE_SAMPLES = 32
CIRCLE_MAX_REFINEMENTS = 5
JENSEN_MAX_DOUBLINGS = 3


class ConvergenceError(RuntimeError):
    pass


class SymmetryError(RuntimeError):
    """Determinant failed to be numerically real on the real axis."""


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


def primitive_classes(group: SchottkyGroup, len_max: int) -> list[PrimitiveClass]:
    """One representative per primitive class, word length <= len_max: the
    cyclically reduced words below each of their nontrivial rotations (a power
    equals one of its rotations, so these are primitive)."""
    out = []
    for n in range(1, len_max + 1):
        for w in group.words_of_length(n):
            if (n > 1 and w[-1] == group.bar(w[0])) or any(w >= w[i:] + w[:i] for i in range(1, n)):
                continue
            tr = abs(group.word_matrix(w).trace())
            if tr <= 2:
                raise ConvergenceError(f"non-hyperbolic class {w} with |trace| {tr}")
            out.append(PrimitiveClass(word=w, trace=tr, length=2.0 * math.acosh(tr / 2.0)))
    return out


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
    classes = primitive_classes(group, len_max)
    if classes:
        ell_min = min(c.length for c in classes if len(c.word) == 1)
        q = (2 * group.m - 1) * math.exp(-sigma * ell_min)
        if q >= 1 or 2 * group.m * q ** (len_max + 1) / (1 - q) > tail_tol:
            raise ConvergenceError(
                f"Euler product tail not below {tail_tol} at len_max={len_max}, Re s={sigma}"
            )
    total = 1.0 + 0.0j
    eye = np.eye(rep.dim, dtype=complex)
    for cls in classes:
        rho = rep.image(cls.word)
        k = 0
        while True:
            f = cmath.exp(-(s + k) * cls.length)
            if abs(f) < 1e-16:
                break
            total *= complex(np.linalg.det(eye - rho * f)) if rep.dim > 1 else (1.0 - rho[0, 0] * f)
            k += 1
    return total


# -- Fredholm determinants ------------------------------------------------------


def zeta_det(
    group: SchottkyGroup,
    s: complex,
    rep: UnitaryRep | None = None,
    n_basis: int = DEFAULT_N,
) -> complex:
    """det(1 - L_{s,rho}) of the truncated standard transfer operator."""
    m = assemble_standard(group, s, rep, n_basis).matrix
    np.negative(m, out=m)
    np.fill_diagonal(m, 1.0 + m.diagonal())
    return complex(np.linalg.det(m))


def refined_zeta(
    group: SchottkyGroup,
    partition: Partition,
    s: complex,
    rep: UnitaryRep | None = None,
    n_basis: int = DEFAULT_N,
) -> complex:
    """det(1 - L_{tau,s,rho}^2) of the truncated refined transfer operator,
    factorised as det(1 - L) det(1 + L); both are formed in the matrix of L."""
    m = assemble_refined(group, partition, s, rep, n_basis).matrix
    diag = m.diagonal().copy()
    np.fill_diagonal(m, 1.0 + diag)
    plus = np.linalg.det(m)
    np.negative(m, out=m)
    np.fill_diagonal(m, 1.0 - diag)
    return complex(np.linalg.det(m) * plus)


def leading_eigenvalue(group: SchottkyGroup, s: float, n_basis: int = DEFAULT_N) -> float:
    tm = assemble_standard(group, s, None, n_basis)
    return float(np.max(np.abs(np.linalg.eigvals(tm.matrix))))


# -- delta ----------------------------------------------------------------------


def _bisect_sign_change(f, a: float, b: float, fa: float, tol: float) -> float:
    """Midpoint of [a, b] after halving it until b - a <= tol, keeping a sign
    change of f inside; fa = f(a)."""
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
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
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
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


def _real_det(group: SchottkyGroup, rep: UnitaryRep | None, n_basis: int, s: float) -> float:
    """det(1 - L_{s,rho}) at real s, which must be numerically real."""
    v = zeta_det(group, s, rep, n_basis)
    if abs(v.imag) > IM_REL_TOL * (1.0 + abs(v)):
        raise SymmetryError(f"determinant not numerically real at s={s}: {v}")
    return v.real


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
    real_det = functools.partial(_real_det, group, None, n_basis)
    roots = _chebyshev_roots(real_det, *DELTA_BRACKET, tol)[0]
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
    """delta by eigenvalue bisection, cross-checked against the zeta zero."""
    return delta_methods(group, tol, n_basis)[0]


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


def _winding_number(f, contour, n: int, max_refinements: int) -> int:
    """Winding number of f around the closed contour sampled at the n points
    contour(n); n doubles until consecutive phase increments stay below pi/2.
    Each point is evaluated once: contour(2n) repeats contour(n) bitwise at
    its even indices."""
    f = functools.cache(f)
    for _ in range(max_refinements):
        phases = np.angle(np.array([f(complex(z)) for z in contour(n)]))
        inc = np.diff(np.concatenate([phases, phases[:1]]))
        inc = (inc + np.pi) % (2 * np.pi) - np.pi
        if np.max(np.abs(inc)) < np.pi / 2:
            w = float(np.sum(inc) / (2 * np.pi))
            count = round(w)
            if abs(w - count) > 0.25:
                raise ConvergenceError(f"non-integral winding number {w}")
            return count
        n *= 2
    raise ConvergenceError("winding number did not stabilize under refinement")


def count_zeros_rect(
    group: SchottkyGroup,
    rep: UnitaryRep | None,
    rect: tuple[complex, complex],
    n_basis: int = DEFAULT_N,
) -> int:
    """Winding number of det(1 - L_s) along a rectangle boundary.

    rect = (lower-left, upper-right). Sampling is refined adaptively until
    consecutive phase increments stay below pi/2.
    """
    z0, z1 = rect
    corners = [z0, complex(z1.real, z0.imag), z1, complex(z0.real, z1.imag)]

    def boundary(n_per_edge: int) -> list[complex]:
        ts = np.arange(n_per_edge) / n_per_edge
        return [a + t * (b - a) for a, b in zip(corners, corners[1:] + corners[:1]) for t in ts]

    def f(s: complex) -> complex:
        v = zeta_det(group, s, rep, n_basis)
        if abs(v) < BOUNDARY_FLOOR:
            raise BoundaryZeroError("determinant vanishes on the rectangle boundary")
        return v

    return _winding_number(f, boundary, RECT_SAMPLES_PER_EDGE, RECT_MAX_REFINEMENTS)


def _multiplicity_circle(det, center: complex, radius: float) -> int:
    """Zeros of det inside the circle |s - center| = radius, with multiplicity."""
    def circle(n: int) -> list[complex]:
        return [center + radius * np.exp(1j * t) for t in 2 * np.pi * np.arange(n) / n]

    return _winding_number(det, circle, CIRCLE_SAMPLES, CIRCLE_MAX_REFINEMENTS)


def real_zeros(
    group: SchottkyGroup,
    rep: UnitaryRep | None,
    lo: float,
    hi: float,
    tol: float = 1e-6,
    n_basis: int = DEFAULT_N,
) -> ZeroReport:
    """All real zeros of det(1 - L_{s,rho}) in [lo, hi] with multiplicity.

    The candidates come from one Chebyshev proxy of the determinant on
    [lo, hi] (`_chebyshev_roots`): sign changes bisected to tol / 4, and
    even-order dips of the proxy. Each candidate is confirmed and graded by
    the argument principle on a circle of radius 5 * tol. The report carries
    the proxy's node count and final tail as its convergence evidence.
    """
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValueError(f"need finite lo < hi, got lo={lo}, hi={hi}")
    real_det = functools.partial(_real_det, group, rep, n_basis)
    roots, nodes, tail = _chebyshev_roots(real_det, lo, hi, tol / 4)
    det = functools.partial(zeta_det, group, rep=rep, n_basis=n_basis)
    zeros: list[tuple[complex, int]] = []
    for x, _ in roots:
        if zeros and abs(x - zeros[-1][0].real) < 5 * tol:
            continue
        mult = _multiplicity_circle(det, complex(x), 5 * tol)
        if mult >= 1:
            zeros.append((complex(x), mult))
    return ZeroReport(rep_label=rep.label if rep is not None else "trivial", region=(lo, hi),
                      zeros=zeros, n_basis=n_basis, tol=tol, proxy_nodes=nodes, proxy_tail=tail)


def new_eigenvalue_count(
    group: SchottkyGroup,
    p: int,
    sigma: float,
    tol: float = 1e-5,
    n_basis: int = DEFAULT_N,
    delta_value: float | None = None,
) -> int:
    """Number of zeros of Z(., lambda_p^0) in [sigma, delta], with multiplicity."""
    if not surjective_mod_p(group, p):
        raise ValueError(f"reduction mod {p} is not surjective; the induced-rep count is invalid")
    d = delta_value if delta_value is not None else delta(group, tol=min(tol, 1e-6), n_basis=n_basis)
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
    n_basis: int = DEFAULT_N,
    delta_value: float | None = None,
    theta_samples: int = 512,
    bound_tol: float = 0.1,
) -> float:
    """Numerical Jensen upper bound for the zero count in [sigma, delta].

    Uses sigma_0 = delta + K, r_1 = sqrt((sigma_0-sigma)^2 + 1),
    r_2 = r_1 + 1/K, the trapezoid mean of log|zeta_tau| on the circle of
    radius r_2, and the actual -log|zeta_tau(sigma_0)| at the center. Zeros of
    zeta_tau near the left edge of the circle make the integrand spiky, so the
    sampling is doubled until the implied bound moves by less than bound_tol
    (measured in zeros, not in relative terms).
    """
    if theta_samples < 1:
        raise ValueError(f"theta_samples must be >= 1, got {theta_samples}")
    if not K > 0:
        raise ValueError(f"K must be positive, got {K}")
    if not bound_tol > 0:
        raise ValueError(f"bound_tol must be positive, got {bound_tol}")
    d = delta_value if delta_value is not None else delta(group, tol=1e-6, n_basis=n_basis)
    if sigma >= d:
        raise ValueError(f"sigma={sigma} must lie below delta={d}")
    partition = group.partition(tau)
    rep = rep_lambda_p0(group, p)
    sigma0 = d + K
    r1 = math.sqrt((sigma0 - sigma) ** 2 + 1.0)
    r2 = r1 + 1.0 / K

    center_val = abs(refined_zeta(group, partition, sigma0, rep, n_basis))
    if center_val < 1e-12:
        raise ValueError("refined zeta nearly vanishes at the Jensen center")

    log_ratio = math.log(r2 / r1)

    @functools.cache
    def log_abs(s: complex) -> float:
        return math.log(abs(refined_zeta(group, partition, s, rep, n_basis)))

    # Gamma lies in SL2(Z), every disk is centred on R and lambda_p^0 has real
    # images, so L at conj(s) is the conjugate of L at s and |zeta_tau| agrees
    # at conjugate points: point n - k of the n-point circle mirrors point k,
    # and only the closed upper half k <= n/2 is evaluated. The 2n-point half
    # circle repeats the n-point one bitwise at its even indices.
    def circle_mean(n: int) -> float:
        half = [log_abs(complex(sigma0 + r2 * np.exp(2j * np.pi * t)))
                for t in np.arange(n // 2 + 1) / n]
        return float(np.mean([half[min(k, n - k)] for k in range(n)]))

    n, val = theta_samples, circle_mean(theta_samples)
    for _ in range(JENSEN_MAX_DOUBLINGS):
        n, coarse, val = 2 * n, val, circle_mean(2 * n)
        if abs(val - coarse) <= bound_tol * log_ratio:
            break
    else:
        raise RuntimeError("Jensen circle integral did not stabilize")

    bound = (val - math.log(center_val)) / log_ratio
    return max(bound, 0.0)
