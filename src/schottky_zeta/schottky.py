"""Schottky group data: disks, exact integer generators, words and partitions.

All group-level arithmetic (matrix products, inverses, traces) is done with
Python's arbitrary-precision integers; floating point enters only when a
Moebius map or a derivative is evaluated at an analytic point.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

Word = tuple[int, ...]

EMPTY_WORD: Word = ()

#: Disk sentinel for the point at infinity on the Riemann sphere.
INF = complex("inf")

WORD_CAP = 10**6


class GroupValidationError(ValueError):
    """Raised when a raw group description violates the Schottky axioms."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


class PartitionError(ValueError):
    """Raised when a resolution parameter yields no valid partition."""


@dataclass(frozen=True)
class Disk:
    center: float
    radius: float

    def contains(self, z: complex) -> bool:
        return abs(z - self.center) < self.radius


@dataclass(frozen=True)
class Moebius:
    """Integer 2x2 matrix acting on the Riemann sphere by (az+b)/(cz+d)."""

    a: int
    b: int
    c: int
    d: int

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def trace(self) -> int:
        return self.a + self.d

    def frobenius_norm(self) -> float:
        return math.sqrt(float(self.a**2 + self.b**2 + self.c**2 + self.d**2))

    def __matmul__(self, other: "Moebius") -> "Moebius":
        return Moebius(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "Moebius":
        # valid because det = 1
        return Moebius(self.d, -self.b, -self.c, self.a)

    def _den(self, z, what: str):
        """c z + d, which must not vanish anywhere."""
        den = float(self.c) * z + float(self.d)
        if (den == 0).any() if isinstance(den, np.ndarray) else den == 0:
            raise ZeroDivisionError(f"{what} evaluated at pole of {self}")
        return den

    def apply(self, z):
        """Moebius image of a complex scalar or numpy array. A scalar is total
        on the sphere: infinity maps to a/c and the pole to INF. An array that
        contains the pole raises ZeroDivisionError."""
        array = isinstance(z, np.ndarray)
        if not array and cmath.isinf(z):
            return INF if self.c == 0 else float(self.a) / float(self.c)
        try:
            den = self._den(z, "image")
        except ZeroDivisionError:
            if array:
                raise
            return INF
        return (float(self.a) * z + float(self.b)) / den

    def derivative(self, z):
        """g'(z) = (c z + d)^-2 at a complex scalar or numpy array; the pole
        raises ZeroDivisionError."""
        den = self._den(z, "derivative")
        return 1.0 / (den * den)


IDENTITY = Moebius(1, 0, 0, 1)


@dataclass(frozen=True)
class SchottkyGroup:
    """Validated Schottky data: 2m disjoint disks and pairing isometries.

    Letters are 1..2m; ``bar(a)`` is the paired letter with
    gamma_bar(a) = gamma_a^(-1). Immutable after validation; all methods are
    pure functions of (group, arguments).
    """

    m: int
    disks: tuple[Disk, ...]
    generators: tuple[Moebius, ...]
    label: str = "custom"

    # -- alphabet ----------------------------------------------------------

    @property
    def alphabet(self) -> range:
        return range(1, 2 * self.m + 1)

    def bar(self, a: int) -> int:
        return a + self.m if a <= self.m else a - self.m

    def disk(self, a: int) -> Disk:
        return self.disks[a - 1]

    def generator(self, a: int) -> Moebius:
        return self.generators[a - 1]

    def test_point(self, a: int) -> float:
        # o_a is fixed as the disk center (maximally interior choice)
        return self.disk(a).center

    def successor(self, w: Word) -> int:
        """A letter b with w -> b: the last letter of w itself (bar(b) != b,
        so this is always admissible), or letter 1 for the empty word."""
        if not w:
            return 1
        return w[-1]

    # -- words -------------------------------------------------------------

    def is_reduced(self, w: Word) -> bool:
        return all(w[j] != self.bar(w[j + 1]) for j in range(len(w) - 1))

    def words_of_length(self, n: int) -> list[Word]:
        """All reduced words of length n, in lexicographic order; at most WORD_CAP."""
        if n < 0:
            raise ValueError(f"word length must be >= 0, got {n}")
        if n == 0:
            return [EMPTY_WORD]
        count = 2 * self.m * (2 * self.m - 1) ** (n - 1)
        if count > WORD_CAP:
            raise ValueError(f"{count} reduced words of length {n} exceed the word cap {WORD_CAP}")
        words: list[Word] = [(a,) for a in self.alphabet]
        for _ in range(n - 1):
            words = [w + (b,) for w in words for b in self.alphabet if b != self.bar(w[-1])]
        return words

    def words_up_to(self, n: int) -> list[Word]:
        longest = self.words_of_length(n)  # past the cap this raises before any work
        return [w for k in range(n) for w in self.words_of_length(k)] + longest

    def mirror(self, w: Word) -> Word:
        """The inverse word: letters barred and reversed, gamma_mirror = gamma^-1."""
        return tuple(self.bar(a) for a in reversed(w))

    def word_matrix(self, w: Word) -> Moebius:
        g = IDENTITY
        for a in w:
            g = g @ self.generator(a)
        return g

    # -- intervals and derivatives ------------------------------------------

    def interval(self, w: Word) -> tuple[float, float]:
        """Endpoints of I_w = D_w intersect R, with D_w = gamma_{w'}(D_{last})."""
        if not w:
            raise ValueError("the empty word has no interval")
        disk = self.disk(w[-1])
        g = self.word_matrix(w[:-1])
        x1 = g.apply(complex(disk.center - disk.radius))
        x2 = g.apply(complex(disk.center + disk.radius))
        lo, hi = sorted((x1.real, x2.real))
        return lo, hi

    def interval_length(self, w: Word) -> float:
        """Diameter of D_w; by convention |I_empty| = +inf."""
        if not w:
            return math.inf
        lo, hi = self.interval(w)
        return hi - lo

    def upsilon(self, w: Word) -> float:
        """|gamma_w'(o_w)| with o_w the center of the successor disk."""
        if not w:
            raise ValueError("upsilon is defined for nonempty words")
        b = self.successor(w)
        d = self.word_matrix(w).derivative(complex(self.test_point(b)))
        return abs(d)

    # -- partitions ----------------------------------------------------------

    @functools.cached_property
    def standard_pairs(self) -> tuple[tuple[Word, int], ...]:
        """Sorted (one-letter word, target letter) pairs of the standard
        transfer operator: each letter acting on every admissible target disk."""
        return tuple(sorted((w[:-1], w[-1]) for w in self.words_of_length(2)))

    def partition(self, tau: float) -> "Partition":
        """The partition Z(tau) = {w : |I_w| <= tau < |I_w'|}.

        Y collects the truncations w' of partition words; the refined transfer
        operator pairs each truncation with the dropped last letter as its
        target disk (see the pairs property).
        """
        if tau <= 0:
            raise PartitionError(f"tau must be positive, got {tau}")
        min_single = min(self.interval_length((a,)) for a in self.alphabet)
        if tau >= min_single:
            raise PartitionError(
                f"tau={tau} >= smallest single-letter interval {min_single}; "
                "Z(tau) would not lie in words of length >= 2"
            )
        Z: list[Word] = []
        stack: list[Word] = [(a,) for a in reversed(self.alphabet)]
        while stack:
            w = stack.pop()
            if self.interval_length(w) <= tau:
                Z.append(w)
                if len(Z) > WORD_CAP:
                    raise PartitionError(f"partition exceeds word cap {WORD_CAP}")
            else:
                for b in reversed(self.alphabet):
                    if b != self.bar(w[-1]):
                        stack.append(w + (b,))
        Z.sort()
        Y = sorted({w[:-1] for w in Z})
        return Partition(tau=tau, Z=Z, Y=Y)


@dataclass(frozen=True)
class Partition:
    tau: float
    Z: list[Word]
    Y: list[Word]

    @property
    def max_depth(self) -> int:
        return max(len(w) for w in self.Z)

    @property
    def pairs(self) -> list[tuple[Word, int]]:
        """(word, target letter) pairs of the refined transfer operator.

        Each partition word d contributes gamma_{d'} acting on functions on
        the disk of its last letter; the pairing is what makes eigenfunctions
        of the standard operator eigenfunctions of the refined one.
        """
        return [(w[:-1], w[-1]) for w in self.Z]

    def covers_exactly_once(self, group: SchottkyGroup, depth: int) -> bool:
        """Every reduced word of the given depth has exactly one prefix in Z."""
        zset = set(self.Z)
        if any(w[:k] in zset for w in zset for k in range(1, len(w))):
            return False  # nested elements would double-cover
        # depth-first walk; subtrees below a Z element are covered once
        stack: list[Word] = [(a,) for a in group.alphabet]
        while stack:
            w = stack.pop()
            if w in zset:
                continue
            if len(w) >= depth:
                return False  # reached target depth without meeting Z
            for b in group.alphabet:
                if b != group.bar(w[-1]):
                    stack.append(w + (b,))
        return self.max_depth <= depth


# -- validation ---------------------------------------------------------------

_BOUNDARY_SAMPLES = 16


def validate_group(spec: dict) -> SchottkyGroup:
    """Validate a raw group description (see the JSON schema in the README).

    Raises GroupValidationError carrying the full list of violations.
    """
    violations: list[str] = []
    m = int(spec["m"])
    raw_disks = spec["disks"]
    raw_gens = spec["generators"]
    if len(raw_disks) != 2 * m:
        raise GroupValidationError([f"expected {2*m} disks, got {len(raw_disks)}"])
    if len(raw_gens) != 2 * m:
        raise GroupValidationError([f"expected {2*m} generators, got {len(raw_gens)}"])
    if spec.get("pairing", "standard") != "standard":
        raise GroupValidationError(["only the standard letter pairing is supported"])

    disks = tuple(Disk(float(d["center"]), float(d["radius"])) for d in raw_disks)
    gens = tuple(Moebius(int(g[0][0]), int(g[0][1]), int(g[1][0]), int(g[1][1])) for g in raw_gens)

    for i, d in enumerate(disks):
        if d.radius <= 0:
            violations.append(f"disk {i+1} has nonpositive radius {d.radius}")
    for i, d1 in enumerate(disks):
        for j in range(i + 1, len(disks)):
            d2 = disks[j]
            if abs(d1.center - d2.center) <= d1.radius + d2.radius:
                violations.append(f"closed disks {i+1} and {j+1} intersect")
    for a in range(1, 2 * m + 1):
        if gens[a - 1].det() != 1:
            violations.append(f"generator {a} has determinant {gens[a-1].det()} != 1")
    group = SchottkyGroup(m=m, disks=disks, generators=gens, label=spec.get("label", "custom"))
    for a in group.alphabet:
        abar = group.bar(a)
        if gens[a - 1].det() == 1 and gens[abar - 1] != gens[a - 1].inverse():
            violations.append(f"generator {abar} is not the inverse of generator {a}")
    if violations:
        raise GroupValidationError(violations)

    # mapping condition gamma_a(C \ D_abar) = D_a, sampled on the boundary circle
    circle = np.exp(2j * np.pi * np.arange(_BOUNDARY_SAMPLES) / _BOUNDARY_SAMPLES)
    for a in group.alphabet:
        g = group.generator(a)
        src = group.disk(group.bar(a))
        dst = group.disk(a)
        img_inf = g.apply(INF)
        if img_inf == INF or not dst.contains(img_inf):
            violations.append(f"generator {a} does not map infinity into disk {a}")
            continue
        zs = src.center + src.radius * circle
        try:
            images = g.apply(zs)
        except ZeroDivisionError:  # a sample at the pole, which scalars map to INF
            images = np.array([g.apply(z) for z in zs.tolist()])
        off = ~(np.abs(np.abs(images - dst.center) - dst.radius) <= 1e-9 * dst.radius)
        if off.any():
            violations.append(
                f"generator {a} does not map the boundary of disk {group.bar(a)} "
                f"onto the boundary of disk {a} (sample {off.argmax()})"
            )
    if violations:
        raise GroupValidationError(violations)
    return group


def gamma_m(m: int) -> SchottkyGroup:
    """The explicit family with g_k = [[4k, 16k^2-1], [1, 4k]] and unit disks.

    Letter k (1 <= k <= m) owns the disk of radius 1 at +4k; letter m+k owns
    the disk at -4k and carries the inverse matrix.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    disks = []
    gens = []
    for k in range(1, m + 1):
        disks.append({"center": 4 * k, "radius": 1.0})
        gens.append([[4 * k, 16 * k * k - 1], [1, 4 * k]])
    for k in range(1, m + 1):
        disks.append({"center": -4 * k, "radius": 1.0})
        gens.append([[4 * k, -(16 * k * k - 1)], [-1, 4 * k]])
    return validate_group(
        {"m": m, "disks": disks, "generators": gens, "pairing": "standard", "label": f"gamma_m:{m}"}
    )


def named_group(name: str) -> SchottkyGroup:
    if name.startswith("gamma_m:"):
        return gamma_m(int(name.split(":", 1)[1]))
    raise ValueError(f"unknown named group {name!r}")


# -- distortion diagnostics ---------------------------------------------------


@dataclass(frozen=True)
class DistortionReport:
    """Observed extremes for the distortion laws; empirical constants only."""

    max_len: int
    taus: tuple[float, ...]
    delta_used: float
    deriv_ratio: tuple[float, float]       # |g_w'(z1)| / |g_w'(z2)|, z1, z2 in one disk
    ups_vs_deriv: tuple[float, float]      # |g_w'(z)| / Upsilon_w
    mirror_ratio: tuple[float, float]      # Upsilon_wbar / Upsilon_w
    product_ratio: tuple[float, float]     # Upsilon_wv / (Upsilon_w Upsilon_v)
    norm_sqrt_tau: tuple[float, float]     # ||g_a|| sqrt(tau), a in Y(tau)
    y_count_band: tuple[float, float]      # |Y(tau)| tau^delta
    contraction_exponent: float            # fitted theta with max |g_w'| ~ theta^|w|

    def as_dict(self) -> dict:
        return {
            "max_len": self.max_len,
            "taus": list(self.taus),
            "delta_used": self.delta_used,
            "deriv_ratio": list(self.deriv_ratio),
            "ups_vs_deriv": list(self.ups_vs_deriv),
            "mirror_ratio": list(self.mirror_ratio),
            "product_ratio": list(self.product_ratio),
            "norm_sqrt_tau": list(self.norm_sqrt_tau),
            "y_count_band": list(self.y_count_band),
            "contraction_exponent": self.contraction_exponent,
        }


def _extend(lo_hi: tuple[float, float], *vs: float) -> tuple[float, float]:
    return (min(lo_hi[0], *vs), max(lo_hi[1], *vs))


def distortion_report(
    group: SchottkyGroup,
    max_len: int,
    taus: list[float],
    delta_value: float,
) -> DistortionReport:
    """Empirical min/max of the distortion ratios over a word range."""
    inf0 = (math.inf, -math.inf)
    deriv_ratio = ups_vs_deriv = mirror_ratio = product_ratio = inf0
    norm_sqrt_tau = y_band = inf0
    max_deriv_by_len: dict[int, float] = {}

    words = [w for w in group.words_up_to(max_len) if w]
    ups = {w: group.upsilon(w) for w in words}
    for w in words:
        g = group.word_matrix(w)
        mirror_ratio = _extend(mirror_ratio, ups[group.mirror(w)] / ups[w])
        for b in group.alphabet:
            if w[-1] == group.bar(b):
                continue
            disk = group.disk(b)
            derivs = np.abs(g.derivative(disk.center + disk.radius * np.array([0, 0.5, -0.5, 0.5j])))
            lo, hi = float(derivs.min()), float(derivs.max())
            deriv_ratio = _extend(deriv_ratio, hi / lo, lo / hi)
            ups_vs_deriv = _extend(ups_vs_deriv, lo / ups[w], hi / ups[w])
            max_deriv_by_len[len(w)] = max(max_deriv_by_len.get(len(w), 0.0), hi)

    short = [w for w in group.words_up_to(min(max_len, 4)) if w]
    for w in short:
        for v in short:
            if w[-1] == group.bar(v[0]):
                continue
            product_ratio = _extend(product_ratio, group.upsilon(w + v) / (ups[w] * ups[v]))

    for tau in taus:
        part = group.partition(tau)
        y_band = _extend(y_band, len(part.Y) * tau**delta_value)
        for w in part.Y:
            norm_sqrt_tau = _extend(norm_sqrt_tau, group.word_matrix(w).frobenius_norm() * math.sqrt(tau))

    # geometric fit of the contraction rate from the per-length maxima
    lens = sorted(max_deriv_by_len)
    if len(lens) >= 2:
        n1, n2 = lens[0], lens[-1]
        theta = (max_deriv_by_len[n2] / max_deriv_by_len[n1]) ** (1.0 / (n2 - n1))
    else:
        theta = float("nan")

    return DistortionReport(
        max_len=max_len,
        taus=tuple(taus),
        delta_used=delta_value,
        deriv_ratio=deriv_ratio,
        ups_vs_deriv=ups_vs_deriv,
        mirror_ratio=mirror_ratio,
        product_ratio=product_ratio,
        norm_sqrt_tau=norm_sqrt_tau,
        y_count_band=y_band,
        contraction_exponent=theta,
    )
