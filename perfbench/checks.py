"""Output checks: pinned reference values plus invariants that hold for any seed.

`check(task, output)` returns the list of problems with one task's output;
an empty list means the output is correct. References were recorded from the
package at the commit that introduced this benchmark, with one BLAS thread.
Character sums are recomputed independently (own sieve, Euler's criterion).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

DELTA = 0.2748820650354028
DELTA_TOL = 1e-7
TRACE_WORDS_PER_PRIME = 160       # reduced words of length 1..4 over 4 letters, all hyperbolic
HS_PRIMES = [31, 37, 41, 43, 47, 53, 59]
HS_REL_TOL = 1e-9
JENSEN_REL_TOL = 1e-6
EULER_TOL = 1e-10
PRIME_COUNTS = {1e6: 36960, 5e6: 165441}

# Jensen bounds by sigma (p=5, tau=2^-6, K=2, 64 theta samples).
JENSEN_BOUNDS = {
    0.2: 110.692478227292,
    0.1925: 112.97326345462972,
    0.195: 112.20529936441747,
    0.1975: 111.44771749329372,
    0.2025: 109.93843962490489,
    0.205: 109.18584630810932,
    0.2075: 108.43490999732326,
}
# hs-sum direct-path values by s (tau=2^-6, x=60).
HS_VALUES = {
    0.9: 1.1320493887205498,
    0.8: 3.1939156149597276,
    0.85: 1.8996642898103446,
    0.95: 0.6757388516688465,
    1.0: 0.40394993536568474,
}
# charsum (sum, unweighted) by (d, x) for the seed-0 discriminants.
CHARSUM = {
    (5, 1e6): (-546.8980044566634, -42),
    (5, 5e6): (-2458.638439306449, -161),
    (8, 1e6): (512.0706275751915, 38),
    (8, 5e6): (-727.2028789458963, -47),
    (13, 1e6): (409.92857958753643, 30),
    (13, 5e6): (1821.5366603628922, 123),
    (60, 1e6): (-773.5718974856442, -58),
    (60, 5e6): (2463.5984363935504, 163),
}
EULER_AT = {1.2: 0.9795294067559174}


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


def _odd_primes_upto(n: int) -> np.ndarray:
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for q in range(2, math.isqrt(n) + 1):
        if sieve[q]:
            sieve[q * q :: q] = False
    sieve[2] = False
    return np.nonzero(sieve)[0].astype(np.int64)


@lru_cache(maxsize=None)
def _primes(x: float) -> np.ndarray:
    primes = _odd_primes_upto(math.floor(x))
    return primes[primes > x / 2]


@lru_cache(maxsize=None)
def _character_sums(d: int, x: float) -> tuple[float, int]:
    """(sum of log(p) (d/p), sum of (d/p)) over odd primes p in (x/2, x],
    with (d/p) = d^((p-1)/2) mod p by Euler's criterion."""
    p = _primes(x)
    base = np.mod(d, p)
    exp = (p - 1) // 2
    acc = np.ones_like(p)
    while exp.any():
        odd = (exp & 1).astype(bool)
        acc[odd] = acc[odd] * base[odd] % p[odd]
        base = base * base % p
        exp >>= 1
    chi = np.where(acc == 1, 1, np.where(acc == 0, 0, -1))
    return math.fsum(np.log(p) * chi), int(chi.sum())


def check_delta(task: dict, r: dict) -> list[str]:
    out = []
    if not abs(r["delta"] - DELTA) <= DELTA_TOL:
        out.append(f"delta {r['delta']!r} is not {DELTA} to {DELTA_TOL}")
    if not abs(r["bisection"] - r["zeta_zero"]) <= DELTA_TOL:
        out.append(f"methods disagree: {r['bisection']!r} vs {r['zeta_zero']!r}")
    if r["delta"] != r["bisection"]:
        out.append("delta is not the bisection value")
    return out


def check_np(task: dict, r: dict) -> list[str]:
    # Every sigma of the seed grid is >= 0.15, and [0.15, delta] holds no zero.
    if r["count"] != 0 or not isinstance(r["count"], int):
        return [f"new eigenvalue count {r['count']!r}, expected 0"]
    return []


def check_jensen(task: dict, r: dict) -> list[str]:
    bound = r["bound"]
    if not (isinstance(bound, float) and math.isfinite(bound) and bound >= 0):
        return [f"Jensen bound {bound!r} is not a finite non-negative number"]
    ref = JENSEN_BOUNDS.get(r["sigma"])
    if ref is None:
        return [f"no reference Jensen bound for sigma {r['sigma']!r}"]
    if not abs(bound - ref) <= JENSEN_REL_TOL * ref:
        return [f"Jensen bound {bound!r} is not {ref!r} to {JENSEN_REL_TOL} relative"]
    return []


def check_trace_check(task: dict, r: dict) -> list[str]:
    argv = task["argv"]
    pmin, pmax = int(argv[argv.index("--pmin") + 1]), int(argv[argv.index("--pmax") + 1])
    primes = [p for p in range(pmin, pmax + 1) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    out = []
    if r["primes"] != primes:
        out.append(f"primes {r['primes']} are not {primes}")
    if r["total_mismatches"] != 0:
        out.append(f"{r['total_mismatches']} trace mismatches")
    for row in r["per_prime"]:
        p = row["p"]
        if not row["surjective"] or row["closure_size"] != p * (p * p - 1):
            out.append(f"p={p}: closure {row['closure_size']}, expected |SL2(F_p)| = {p * (p * p - 1)}")
        if row["words_checked"] != TRACE_WORDS_PER_PRIME:
            out.append(f"p={p}: {row['words_checked']} words checked, expected {TRACE_WORDS_PER_PRIME}")
        if row["mismatches"] != 0:
            out.append(f"p={p}: {row['mismatches']} mismatches")
    if sum(row["mismatches"] for row in r["per_prime"]) != r["total_mismatches"]:
        out.append("total_mismatches is not the sum over primes")
    return out


def check_hs_sum(task: dict, r: dict) -> list[str]:
    direct, decomposed = r["direct"], r["decomposed"]
    out = []
    if r["primes"] != HS_PRIMES:
        out.append(f"primes {r['primes']} are not {HS_PRIMES}")
    if not (direct is not None and decomposed is not None and direct > 0):
        return out + [f"missing or non-positive sums: direct {direct!r}, decomposed {decomposed!r}"]
    if not _close(direct, decomposed, HS_REL_TOL):
        out.append(f"direct {direct!r} and decomposed {decomposed!r} differ beyond {HS_REL_TOL}")
    if not _close(r["diagonal"] + r["off_diagonal"], decomposed, 1e-12):
        out.append("diagonal + off-diagonal is not the decomposed sum")
    s = complex(r["s"]).real
    ref = HS_VALUES.get(s)
    if ref is None:
        out.append(f"no reference hs-sum value for s {s!r}")
    elif not _close(direct, ref, HS_REL_TOL):
        out.append(f"direct sum {direct!r} is not {ref!r} to {HS_REL_TOL}")
    return out


def check_charsum(task: dict, r: dict) -> list[str]:
    argv = task["argv"]
    ds = [int(t) for t in argv[argv.index("--d") + 1].split(",")]
    xs = [float(t) for t in argv[argv.index("--x") + 1].split(",")]
    records = r["records"]
    out = []
    keys = [(rec["d"], rec["x"]) for rec in records]
    if keys != sorted((d, x) for d in ds for x in xs):
        return [f"records {keys} do not cover every (d, x) once, in order"]
    for rec in records:
        d, x = rec["d"], rec["x"]
        where = f"d={d}, x={x:g}"
        if rec["prime_count"] != PRIME_COUNTS[x]:
            out.append(f"{where}: {rec['prime_count']} primes, expected {PRIME_COUNTS[x]}")
        total, unweighted = _character_sums(d, x)
        if rec["unweighted"] != unweighted:
            out.append(f"{where}: unweighted sum {rec['unweighted']!r}, recomputed {unweighted}")
        if not abs(rec["sum"] - total) <= 1e-12 * x:
            out.append(f"{where}: sum {rec['sum']!r}, recomputed {total!r}")
        ratio = abs(rec["sum"]) / (math.sqrt(x) * math.log(abs(d) * x) ** 2)
        if not _close(rec["bound_ratio"], ratio, 1e-12):
            out.append(f"{where}: bound ratio {rec['bound_ratio']!r}, recomputed {ratio!r}")
        ref = CHARSUM.get((d, x))
        if ref is not None and (rec["sum"], rec["unweighted"]) != ref:
            out.append(f"{where}: ({rec['sum']!r}, {rec['unweighted']!r}) is not the pinned {ref}")
    return out


def check_euler(task: dict, r: dict) -> list[str]:
    euler = complex(*r["euler"])
    det = complex(*r["zeta_det"])
    out = []
    if not abs(euler - det) < EULER_TOL:
        out.append(f"|euler - zeta_det| = {abs(euler - det):.3g} at s={task['s']}, limit {EULER_TOL}")
    if euler.imag != 0.0:
        out.append(f"Euler product {euler} is not real at real s")
    ref = EULER_AT.get(task["s"])
    if ref is not None and not _close(euler.real, ref, 1e-12):
        out.append(f"Euler product {euler.real!r} is not {ref!r}")
    return out


CHECKS = {
    "delta": check_delta,
    "np": check_np,
    "jensen": check_jensen,
    "trace_check": check_trace_check,
    "hs_sum": check_hs_sum,
    "charsum": check_charsum,
    "euler": check_euler,
}


def check(task: dict, output: dict) -> list[str]:
    try:
        return CHECKS[task["name"]](task, output)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]
