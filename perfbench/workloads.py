"""The benchmark's workloads: which tasks each runs, and the inputs a seed picks.

Seed 0 gives the reference inputs, whose outputs `checks.py` pins. Any other
seed draws evaluation inputs from fixed grids chosen so that the amount of
work stays the same: every `np` sigma below makes 200 `zeta_det` calls and
every Jensen sigma makes 193 `refined_zeta` calls at the seed code, and the
charsum discriminants are drawn from strata around the reference values,
because the cost of a Kronecker symbol grows with the size of its top entry.
"""

from __future__ import annotations

import math
import random

GROUP = "gamma_m:2"
N_BASIS = 16
TAU = 2.0**-6

NP_P = 7
NP_SIGMAS = (0.15, 0.16, 0.17, 0.18, 0.19, 0.2, 0.21, 0.22, 0.23, 0.24, 0.25)
JENSEN_P = 5
JENSEN_SIGMAS = (0.2, 0.1925, 0.195, 0.1975, 0.2025, 0.205, 0.2075)
HS_S = (0.9, 0.8, 0.85, 0.95, 1.0)
CHARSUM_D = (5, 8, 13, 60)
CHARSUM_STRATA = ((3, 7), (6, 10), (11, 17), (52, 68))
CHARSUM_X = (1e6, 5e6)
EULER_S = 1.2
EULER_S_RANGE = (1.1, 1.5)
EULER_LEN = 10
TRACE_MAX_LEN = 4
TRACE_PRIMES = (5, 47)

WORKLOADS = {
    "standard-twisted": (
        "Where LU det and assembly dominate: delta, then np on the standard operator "
        "twisted to matrix dimension 448, with almost no partition, closure or Kronecker work."
    ),
    "refined-jensen": (
        "The same transfer and zeta layers used the other way: Jensen bound with 24 "
        "partition words, dimension 320, complex s and the M @ M squaring."
    ),
    "exact-arith": (
        "Exact integer work with almost no determinants (closure BFS, projective-line "
        "action, sieve, Kronecker, word enumeration): transfer or zeta changes must not move it."
    ),
}


def _non_square(d: int) -> bool:
    return math.isqrt(d) ** 2 != d


def _fmt(x: float) -> str:
    return repr(float(x))


def tasks(workload: str, seed: int) -> list[dict]:
    """The ordered tasks of one pass. A task is a CLI argv or a library call."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(seed)
    pick = (lambda grid: grid[0]) if seed == 0 else rng.choice

    if workload == "standard-twisted":
        sigma = pick(NP_SIGMAS)
        return [
            {"name": "delta", "argv": ["delta", "--group", GROUP, "--tol", "1e-8"]},
            {"name": "np", "argv": ["np", "--group", GROUP, "--p", str(NP_P),
                                    "--sigma", _fmt(sigma)]},
        ]

    if workload == "refined-jensen":
        sigma = pick(JENSEN_SIGMAS)
        return [
            {"name": "jensen", "argv": ["jensen", "--group", GROUP, "--p", str(JENSEN_P),
                                        "--sigma", _fmt(sigma), "--tau", _fmt(TAU),
                                        "--K", "2", "--theta-samples", "64"]},
        ]

    hs_s = pick(HS_S)
    if seed == 0:
        ds = CHARSUM_D
        euler_s = EULER_S
    else:
        ds = []
        for lo, hi in CHARSUM_STRATA:
            choices = [d for d in range(lo, hi + 1) if _non_square(d) and d not in ds]
            ds.append(rng.choice(choices))
        euler_s = round(rng.uniform(*EULER_S_RANGE), 6)
    return [
        {"name": "trace_check", "argv": ["trace-check", "--group", GROUP,
                                         "--max-len", str(TRACE_MAX_LEN),
                                         "--pmin", str(TRACE_PRIMES[0]),
                                         "--pmax", str(TRACE_PRIMES[1])]},
        {"name": "hs_sum", "argv": ["hs-sum", "--group", GROUP, "--tau", _fmt(TAU),
                                    "--s", _fmt(hs_s), "--x", "60"]},
        {"name": "charsum", "argv": ["charsum", "--d", ",".join(map(str, ds)),
                                     "--x", ",".join(_fmt(x) for x in CHARSUM_X)]},
        {"name": "euler", "library": "euler_product", "group": GROUP,
         "s": euler_s, "len_max": EULER_LEN},
    ]


def sizes(workload: str) -> dict:
    """Resolved problem sizes of a workload; they do not depend on the seed."""
    letters = 4  # gamma_m:2 has 2m = 4 disks
    if workload == "standard-twisted":
        return {"group": GROUP, "n_basis": N_BASIS, "np_p": NP_P,
                "np_rep_dim": NP_P, "np_matrix_dim": letters * N_BASIS * NP_P,
                "delta_matrix_dim": letters * N_BASIS, "np_grid": 200}
    if workload == "refined-jensen":
        return {"group": GROUP, "n_basis": N_BASIS, "p": JENSEN_P, "rep_dim": JENSEN_P,
                "matrix_dim": letters * N_BASIS * JENSEN_P, "tau": TAU,
                "partition_words": 24, "K": 2, "theta_samples": 64}
    return {"group": GROUP, "trace_max_len": TRACE_MAX_LEN,
            "trace_primes": list(TRACE_PRIMES), "hs_tau": TAU, "hs_x": 60,
            "charsum_x": list(CHARSUM_X), "charsum_d_count": len(CHARSUM_D),
            "euler_len_max": EULER_LEN}
