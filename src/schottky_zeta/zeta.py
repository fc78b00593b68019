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
DELTA_GRID = 64                    # sign-scan points of the determinant for delta
ZEROS_GRID = 200                   # sign-scan points of real_zeros
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


def _cyclic_words(group: SchottkyGroup, n: int):
    for w in group.words_of_length(n):
        if n > 1 and w[-1] == group.bar(w[0]):
            continue
        if n == 1 or all(w <= w[i:] + w[:i] for i in range(1, n)):
            yield w


def _is_primitive(w: Word) -> bool:
    n = len(w)
    return all(not (n % d == 0 and w == w[:d] * (n // d)) for d in range(1, n))


def primitive_classes(group: SchottkyGroup, len_max: int) -> list[PrimitiveClass]:
    """One representative per primitive class, word length <= len_max."""
    out = []
    for n in range(1, len_max + 1):
        for w in _cyclic_words(group, n):
            if not _is_primitive(w):
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
    classes = primitive_classes(group, max(len_max, 1)) if len_max >= 1 else []
    if len_max >= 1:
        ell_min = min(c.length for c in classes if len(c.word) == 1)
        q = (2 * group.m - 1) * math.exp(-sigma * ell_min)
        if q >= 1 or 2 * group.m * q ** (len_max + 1) / (1 - q) > tail_tol:
            raise ConvergenceError(
                f"Euler product tail not below {tail_tol} at len_max={len_max}, Re s={sigma}"
            )
    total = 1.0 + 0.0j
    eye = np.eye(rep.dim, dtype=complex)
    for cls in classes:
        if len(cls.word) > len_max:
            continue
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
    """Largest real zero of det(1 - L_s), by sign scan plus bisection."""
    xs = np.linspace(DELTA_BRACKET[0], DELTA_BRACKET[1], DELTA_GRID)
    vals = [zeta_det(group, float(x), None, n_basis).real for x in xs]
    for i in range(DELTA_GRID - 2, -1, -1):
        if vals[i] == 0.0:
            return float(xs[i])
        if vals[i] * vals[i + 1] < 0:
            return _bisect_sign_change(
                lambda x: zeta_det(group, x, None, n_basis).real,
                float(xs[i]), float(xs[i + 1]), vals[i], tol,
            )
    raise ConvergenceError("no real determinant zero found in the bracket")


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
    tau: float | None = None

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
            "tau": self.tau,
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

    def boundary(n_per_edge: int) -> np.ndarray:
        pts = []
        for i in range(4):
            a, b = corners[i], corners[(i + 1) % 4]
            for t in np.arange(n_per_edge) / n_per_edge:
                pts.append(a + t * (b - a))
        return np.array(pts)

    def f(s: complex) -> complex:
        v = zeta_det(group, s, rep, n_basis)
        if abs(v) < BOUNDARY_FLOOR:
            raise BoundaryZeroError("determinant vanishes on the rectangle boundary")
        return v

    return _winding_number(f, boundary, RECT_SAMPLES_PER_EDGE, RECT_MAX_REFINEMENTS)


def _multiplicity_circle(
    group: SchottkyGroup,
    rep: UnitaryRep | None,
    center: complex,
    radius: float,
    n_basis: int,
) -> int:
    def circle(n: int) -> list[complex]:
        return [center + radius * np.exp(1j * t) for t in 2 * np.pi * np.arange(n) / n]

    return _winding_number(
        lambda s: zeta_det(group, s, rep, n_basis), circle, CIRCLE_SAMPLES, CIRCLE_MAX_REFINEMENTS
    )


def real_zeros(
    group: SchottkyGroup,
    rep: UnitaryRep | None,
    lo: float,
    hi: float,
    tol: float = 1e-6,
    n_basis: int = DEFAULT_N,
) -> ZeroReport:
    """All real zeros of det(1 - L_{s,rho}) in [lo, hi] with multiplicity.

    Sign changes are bisected; sign-preserving dips (even multiplicity) are
    picked up by minimizing |det| at interior local minima. Each candidate is
    confirmed and graded by the argument principle on a circle of radius
    5 * tol.
    """
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if not lo < hi:
        raise ValueError(f"need lo < hi, got lo={lo}, hi={hi}")
    rep_label = rep.label if rep is not None else "trivial"
    xs = np.linspace(lo, hi, ZEROS_GRID)
    vals = []
    for x in xs:
        v = zeta_det(group, float(x), rep, n_basis)
        if abs(v.imag) > IM_REL_TOL * (1.0 + abs(v)):
            raise SymmetryError(f"determinant not numerically real at s={x}: {v}")
        vals.append(v.real)
    vals = np.array(vals)

    candidates: list[float] = []
    for i in range(ZEROS_GRID - 1):
        if vals[i] == 0.0:
            candidates.append(float(xs[i]))
        elif vals[i] * vals[i + 1] < 0:
            candidates.append(_bisect_sign_change(
                lambda x: zeta_det(group, x, rep, n_basis).real,
                float(xs[i]), float(xs[i + 1]), vals[i], tol / 4,
            ))

    # interior local minima of |det| without a sign change: even-order zeros
    absvals = np.abs(vals)
    for i in range(1, ZEROS_GRID - 1):
        if absvals[i] < absvals[i - 1] and absvals[i] < absvals[i + 1] and vals[i - 1] * vals[i + 1] > 0:
            a, b = float(xs[i - 1]), float(xs[i + 1])
            for _ in range(60):
                if b - a < tol / 4:
                    break
                m1 = a + (b - a) / 3
                m2 = b - (b - a) / 3
                if abs(zeta_det(group, m1, rep, n_basis)) < abs(zeta_det(group, m2, rep, n_basis)):
                    b = m2
                else:
                    a = m1
            x_min = 0.5 * (a + b)
            if abs(zeta_det(group, x_min, rep, n_basis)) < math.sqrt(tol):
                candidates.append(x_min)

    zeros: list[tuple[complex, int]] = []
    for x in sorted(candidates):
        if zeros and abs(x - zeros[-1][0].real) < 5 * tol:
            continue
        mult = _multiplicity_circle(group, rep, complex(x), 5 * tol, n_basis)
        if mult >= 1:
            zeros.append((complex(x), mult))
    return ZeroReport(
        rep_label=rep_label, region=(lo, hi), zeros=zeros, n_basis=n_basis, tol=tol
    )


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

    n = theta_samples
    val = circle_mean(n)
    for _ in range(JENSEN_MAX_DOUBLINGS):
        refined = circle_mean(2 * n)
        if abs(refined - val) <= bound_tol * log_ratio:
            val = refined
            break
        n *= 2
        val = refined
    else:
        raise RuntimeError("Jensen circle integral did not stabilize")

    bound = (val - math.log(center_val)) / log_ratio
    return max(bound, 0.0)
