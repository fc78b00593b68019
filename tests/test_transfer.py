import gc
import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from schottky_zeta import gamma_m, hs_norm_integral, hs_norm_matrix, zeta_det
from schottky_zeta.congruence import rep_lambda_p0
from schottky_zeta.reps import UnitaryRep, trivial_rep
from schottky_zeta.schottky import Moebius, SchottkyGroup, validate_group
from schottky_zeta import transfer, zeta
from schottky_zeta.transfer import (
    DEFAULT_N,
    _moebius_log,
    _OperatorPlan,
    assemble_pairs,
    assemble_refined,
    assemble_standard,
    pair_integrals,
)
from schottky_zeta.zeta import leading_eigenvalue


def _polar_grid(disk, n_r=60, n_phi=120):
    nodes, weights = np.polynomial.legendre.leggauss(n_r)
    rs = 0.5 * disk.radius * (nodes + 1.0)
    wr = 0.5 * disk.radius * weights * rs
    phis = 2.0 * np.pi * np.arange(n_phi) / n_phi
    z = disk.center + rs[:, None] * np.exp(1j * phis)[None, :]
    w = wr[:, None] * np.full((1, n_phi), 2.0 * np.pi / n_phi)
    return z.ravel(), w.ravel()


def _bergman_kernel(disk, z, w):
    """Reproducing kernel of the Bergman space of one disk (area measure),
    elementwise."""
    r2 = disk.radius**2
    return r2 / (np.pi * (r2 - (z - disk.center) * (np.conjugate(w) - disk.center)) ** 2)


def _polar_pair_integrals(group, partition, s, n_r=24, n_phi=48):
    """Oracle for pair_integrals, independent of the boundary DFT: on each
    target disk, the polar Gauss-Legendre x trapezoid rule of
    g_a'^s conj(g_b'^s) K(g_a z, g_b z), K the Bergman kernel of D_{w_a[0]},
    for every two words of one target and one source letter."""
    out = {}
    for b in group.alphabet:
        z, wt = _polar_grid(group.disk(b), n_r, n_phi)
        words = sorted(w for w, t in partition.pairs if t == b)
        at = {}
        for w in words:
            g = group.word_matrix(w)
            at[w] = g.apply(z), g.derivative(z) ** s
        for wa in words:
            for wb in words:
                if wa[0] == wb[0]:
                    (za, pa), (zb, pb) = at[wa], at[wb]
                    kernel = _bergman_kernel(group.disk(wa[0]), za, zb)
                    out[wa, wb] = out.get((wa, wb), 0) + complex(np.sum(pa * np.conj(pb) * kernel * wt))
    return dict(sorted(out.items()))


def _translate(group, b):
    """group conjugated by z -> z + b, which moves every disk by b, so that
    z -> -z is no symmetry of it."""
    shift = Moebius(1, b, 0, 1)
    generators = [shift @ g @ shift.inverse() for g in group.generators]
    return validate_group({
        "m": group.m,
        "disks": [{"center": disk.center + b, "radius": disk.radius} for disk in group.disks],
        "generators": [[[h.a, h.b], [h.c, h.d]] for h in generators],
        "label": f"{group.label}+{b}",
    })


def _basis(disk, k, z):
    return math.sqrt((k + 1) / math.pi) / disk.radius * ((z - disk.center) / disk.radius) ** k


def test_basis_orthonormal(g2):
    disk = g2.disk(1)
    z, w = _polar_grid(disk)
    for j in range(4):
        for k in range(4):
            val = np.sum(_basis(disk, j, z) * np.conjugate(_basis(disk, k, z)) * w)
            assert val == pytest.approx(1.0 if j == k else 0.0, abs=1e-10)


def test_bergman_kernel_reproduces(g2):
    # reproducing property against the polynomial w -> w^2 on one disk
    disk = g2.disk(2)
    z0 = disk.center + 0.3 * disk.radius + 0.2j * disk.radius
    w, wt = _polar_grid(disk)
    val = np.sum(np.array([_bergman_kernel(disk, z0, x) for x in w]) * w**2 * wt)
    assert val == pytest.approx(z0**2, rel=1e-10)


def test_standard_block_structure(g2):
    tm = assemble_standard(g2, 0.9, n_basis=6)
    for b in g2.alphabet:
        # the block from disk bar(b) into disk b must vanish: no admissible word
        src = g2.bar(b)
        assert np.all(tm.matrix[(b - 1) * 6 : b * 6, (src - 1) * 6 : src * 6] == 0.0)


def test_word_set_iteration_identity(g2):
    # summing over all length-2 words reproduces the operator square
    s = 0.7 + 0.3j
    one = assemble_standard(g2, s, n_basis=16).matrix
    pairs = [(w, b) for w in g2.words_of_length(2) for b in g2.alphabet if w[-1] != g2.bar(b)]
    two = assemble_pairs(g2, pairs, s, n_basis=16).matrix
    assert np.linalg.norm(two - one @ one) < 1e-12 * np.linalg.norm(two)


def test_refined_operator_keeps_leading_eigenfunction(g2, delta2, part2_64):
    tm = assemble_refined(g2, part2_64, delta2, n_basis=24)
    eigs = np.linalg.eigvals(tm.matrix)
    assert np.min(np.abs(eigs - 1.0)) < 1e-7


def test_assemble_pairs_rejects_inadmissible(g2):
    with pytest.raises(ValueError):
        assemble_pairs(g2, [((1,), 3)], 0.9)
    with pytest.raises(ValueError):
        assemble_pairs(g2, [((), 1)], 0.9)


def test_n_basis_bounds(g2):
    with pytest.raises(ValueError):
        assemble_standard(g2, 0.9, n_basis=0)
    with pytest.raises(ValueError):
        assemble_standard(g2, 0.9, n_basis=1000)


def test_truncation_converged(g2):
    # entries decay geometrically: N=16 and N=24 agree on the top eigenvalue
    e16 = np.max(np.abs(np.linalg.eigvals(assemble_standard(g2, 0.5, n_basis=16).matrix)))
    e24 = np.max(np.abs(np.linalg.eigvals(assemble_standard(g2, 0.5, n_basis=24).matrix)))
    assert e16 == pytest.approx(e24, rel=1e-12)


@pytest.mark.parametrize("m", range(1, 9))
def test_boundary_samples_stay_in_the_domain(m):
    # each summand is sampled on the boundary of its target disk D_b: g_w must
    # map it into the open source disk D_{w[0]}, with g_w' off the branch cut
    group = gamma_m(m)
    circle = np.exp(2j * np.pi * np.arange(64) / 64)
    for pairs in (group.standard_pairs, group.partition(2.0**-6).pairs,
                  group.partition(2.0**-8).pairs):
        for w, b in pairs:
            target, source = group.disk(b), group.disk(w[0])
            images, _ = _moebius_log(group, w, target.center + target.radius * circle)
            assert np.all(np.abs(images - source.center) < source.radius), (m, w, b)


@pytest.mark.parametrize("m", [2, 8])
def test_high_n_rows_are_not_rounding(m):
    # the Taylor coefficients are taken on the disk boundary, so no row of high
    # k is rescaled: every quantity holds its N = 32 value up to MAX_N = 128
    group = gamma_m(m)
    hs32 = hs_norm_matrix(assemble_standard(group, 0.9, n_basis=32))
    assert hs_norm_matrix(assemble_standard(group, 0.9, n_basis=128)) == pytest.approx(
        hs32, rel=1e-13, abs=0)
    det32 = zeta_det(group, 0.3 + 0.5j, n_basis=32)
    eig32 = leading_eigenvalue(group, 0.5, n_basis=32)
    for n in (16, 64, 128):
        assert abs(zeta_det(group, 0.3 + 0.5j, n_basis=n) - det32) <= 1e-13 * abs(det32), n
        assert leading_eigenvalue(group, 0.5, n_basis=n) == pytest.approx(eig32, rel=1e-13, abs=0)


def test_pair_integrals_cross_disk_dropped(g2, part2_64):
    ints = pair_integrals(g2, part2_64, 0.9)
    targets = {}
    for w, b in part2_64.pairs:
        targets.setdefault(w, set()).add(b)
    for (wa, wb) in ints:
        assert wa[0] == wb[0]
        shared = targets[wa] & targets[wb]
        assert shared and all(wa[-1] != g2.bar(b) and wb[-1] != g2.bar(b) for b in shared)


@pytest.mark.parametrize("s", [0.9, 0.85, 0.9 + 0.2j, 0.3 + 2j])
@pytest.mark.parametrize("group_name, tau", [("gamma_m:2", 2.0**-5), ("gamma_m:2", 2.0**-6),
                                             ("gamma_m:2", 2.0**-8), ("gamma_m:3", 2.0**-5),
                                             ("no involution", 2.0**-6)])
def test_pair_integrals_match_the_polar_quadrature(group_name, tau, s):
    group = {"gamma_m:2": gamma_m(2), "gamma_m:3": gamma_m(3),
             "no involution": _translate(gamma_m(2), 1)}[group_name]
    assert (group.involution is None) == (group_name == "no involution")
    partition = group.partition(tau)
    got, want = pair_integrals(group, partition, s), _polar_pair_integrals(group, partition, s)
    assert list(got) == list(want)
    err = max(abs(got[key] - want[key]) for key in want)
    assert err <= 1e-13 * max(map(abs, want.values()))


@pytest.mark.parametrize("m", [2, 3])
def test_pair_integrals_are_invariant_under_the_involution(m):
    # the mirror targets enter as P(sigma a, sigma b) beside P(a, b)
    group = gamma_m(m)
    sigma = group.involution
    for s in (0.9, 0.3 + 2j):
        ints = pair_integrals(group, group.partition(2.0**-6), s)
        for (wa, wb), val in ints.items():
            assert ints[tuple(sigma[a - 1] for a in wa), tuple(sigma[a - 1] for a in wb)] == val


def test_hs_two_paths_agree(g2, part2_64):
    rec = hs_norm_integral(g2, part2_64, 0.9)
    fro = hs_norm_matrix(assemble_refined(g2, part2_64, 0.9, n_basis=24)) ** 2
    assert rec.value == pytest.approx(fro, rel=1e-10)


def test_hs_rep_dimension_scaling(g2, part2_64):
    # for the trivial rep the d-fold direct sum multiplies the squared norm by d
    from schottky_zeta.reps import direct_sum

    rep1 = trivial_rep(g2)
    rep2 = direct_sum(rep1, rep1)
    v1 = hs_norm_integral(g2, part2_64, 0.9, rep1).value
    v2 = hs_norm_integral(g2, part2_64, 0.9, rep2).value
    assert v2 == pytest.approx(2.0 * v1, rel=1e-12)


def test_hs_quadrature_error(g2, part2_64):
    with pytest.raises(ValueError):
        pair_integrals(g2, part2_64, 0.9, n_basis=0)


def test_hs_norm_integral_names_both_truncations_when_they_disagree(g2, part2_64, monkeypatch):
    # with no tolerance left, any gap between N - 4 and N is a refusal, and the
    # error is the one ConvergenceError that zeta raises too
    monkeypatch.setattr(transfer, "HS_CONVERGENCE_TOL", 0.0)
    with pytest.raises(transfer.ConvergenceError,
                       match=rf"HS norm not converged: .* at N = {DEFAULT_N - 4} vs .* at N = {DEFAULT_N}$"):
        hs_norm_integral(g2, part2_64, 0.9)
    assert zeta.ConvergenceError is transfer.ConvergenceError


def test_hs_norm_integral_refuses_a_non_finite_norm(g2, part2_64, monkeypatch):
    # the N - 4 comparison fails closed: a NaN on either side is never converged
    monkeypatch.setattr(transfer, "_trace_pair_sum", lambda rep, ints: math.nan)
    with pytest.raises(transfer.ConvergenceError, match="HS norm not converged: nan"):
        hs_norm_integral(g2, part2_64, 0.9)


def test_pair_integrals_and_hs_norm_refuse_an_s_past_float64(g2):
    # the coefficients at s = -50 are finite, and their Gram products are not
    part = g2.partition(2**-5)
    with pytest.raises(OverflowError, match=r"^a pair integral overflows float64 at s = -50$"):
        pair_integrals(g2, part, -50)
    with pytest.raises(OverflowError, match=r"^a pair integral overflows float64 at s = -50$"):
        hs_norm_integral(g2, part, -50)


@pytest.mark.parametrize("s", [-125.15, 0.5 + 2000j])
def test_coefficients_past_float64_are_refused_where_they_start(g2, s):
    # at -125.15 every weight g_w'(z)^s is finite and a DFT of the weighted
    # samples is not; at 0.5 + 2000i the weights themselves overflow
    message = f"a transfer-operator coefficient overflows float64 at s = {s}"
    with pytest.raises(OverflowError, match=f"^{re.escape(message)}$"):
        zeta_det(g2, s)
    plan = transfer._plan(g2, g2.standard_pairs, trivial_rep(g2), DEFAULT_N)
    with np.errstate(over="ignore"):
        assert np.isfinite(np.exp(s * plan.log_deriv)).all() == (s == -125.15)


def test_trace_pair_sum_matches_the_trace_of_each_product(g2, part2_64):
    # tr(rho(g_a)^* rho(g_b)) is taken as one inner product; the trace of the
    # dense product is the reference, within the rounding of the sum
    ints = pair_integrals(g2, part2_64, 0.9)
    real = rep_lambda_p0(g2, 11)
    phased = UnitaryRep(dim=real.dim, label="phased", images={
        a: u * np.exp(0.3j if a <= g2.m else -0.3j) for a, u in real.images.items()})
    for rep in (real, phased):
        terms = [np.trace(rep.image(wa).conj().T @ rep.image(wb)) * v for (wa, wb), v in ints.items()]
        tolerance = 64 * np.finfo(float).eps * sum(abs(term) for term in terms)
        assert abs(transfer._trace_pair_sum(rep, ints) - sum(terms).real) <= tolerance


def test_hs_record_metadata(g2, part2_64):
    rec = hs_norm_integral(g2, part2_64, 0.8)
    assert rec.tau == part2_64.tau
    assert rec.rep_label == "trivial"
    assert len(pair_integrals(g2, part2_64, 0.8)) > 0
    # the truncation that produced value, checked against DEFAULT_N - 4
    assert rec.n_basis == DEFAULT_N


def _per_pair_matrix(group, pairs, s, rep, n_basis):
    """Oracle: each pair's N x N Fourier coefficients, then np.kron with
    rho(g_w)^{-1} added into its block."""
    n = n_basis * rep.dim
    out = np.zeros((2 * group.m * n,) * 2, dtype=complex)
    n_samp = max(4 * n_basis, 32)
    theta = 2.0 * np.pi * np.arange(n_samp) / n_samp
    ks = np.arange(n_basis)
    for w, b in sorted(pairs):
        target, source = group.disk(b), group.disk(w[0])
        zs = target.center + target.radius * np.exp(1j * theta)
        g = group.word_matrix(w)
        den = float(g.c) * zs + float(g.d)
        u = ((float(g.a) * zs + float(g.b)) / den - source.center) / source.radius
        power = (1.0 / den**2) ** s                          # principal branch
        samples = power[:, None] * np.sqrt((ks + 1) / np.pi) / source.radius * u[:, None] ** ks
        coef = np.fft.fft(samples, axis=0)[:n_basis] / n_samp
        coef *= (target.radius * np.sqrt(np.pi / (ks + 1)))[:, None]
        out[(b - 1) * n : b * n, (w[0] - 1) * n : w[0] * n] += np.kron(coef, rep.inverse_image(w))
    return out


@pytest.mark.parametrize("s", [0.9, 0.7 + 0.3j])
@pytest.mark.parametrize("rep_name", ["trivial", "lambda_5^0"])
@pytest.mark.parametrize("operator", ["standard", "refined"])
def test_assemble_pairs_matches_per_pair_kron(g2, part2_64, s, rep_name, operator):
    rep = trivial_rep(g2) if rep_name == "trivial" else rep_lambda_p0(g2, 5)
    if operator == "standard":
        pairs = [(w[:-1], w[-1]) for w in g2.words_of_length(2)]
    else:
        pairs = part2_64.pairs
    got = assemble_pairs(g2, pairs, s, rep, n_basis=8).matrix
    want = _per_pair_matrix(g2, pairs, s, rep, 8)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n_basis", [4, 6])
def test_a_small_basis_is_the_corner_of_a_larger_one(g2, n_basis):
    # at least 32 boundary samples at every N: 4N samples alias below N = 8
    rep = rep_lambda_p0(g2, 47)

    def blocks(n):
        tm = assemble_standard(g2, 0.3, rep, n)
        folds, n_first, dim = tm.plan.incidence.shape[:3]
        return tm.blocks.reshape(folds, n_first, dim, n, n_first, dim, n)

    assert np.array_equal(blocks(n_basis), blocks(8)[:, :, :, :n_basis, :, :, :n_basis])


@pytest.mark.parametrize("truncations, count", [((4, 6, 8), 1), ((12, 16), 2), ((4, 6, 8, 12, 16), 3)])
def test_every_small_basis_shares_the_plan_of_its_sample_grid(truncations, count):
    # every N <= 8 samples the same 32 points; each larger N samples 4N
    group = gamma_m(2)
    rep = rep_lambda_p0(group, 5)
    for n in truncations:
        zeta_det(group, 0.9, rep, n_basis=n)
    standard = tuple(sorted(group.standard_pairs))
    assert sum(pairs == standard for pairs, _ in transfer._PLANS[rep][group]) == count


def test_results_do_not_depend_on_the_plans_built_before():
    def at_16(group, rep):
        dets = [zeta_det(group, s, rep, n_basis=16) for s in (0.9, 0.6 + 0.4j)]
        return dets, pair_integrals(group, group.partition(2.0**-6), 0.9 + 0.1j, n_basis=16)

    fresh = gamma_m(2)
    want = at_16(fresh, rep_lambda_p0(fresh, 5))
    used = gamma_m(2)
    rep = rep_lambda_p0(used, 5)
    zeta_det(used, 0.9, rep, n_basis=20)
    pair_integrals(used, used.partition(2.0**-6), 0.9 + 0.1j, n_basis=20)
    assert at_16(used, rep) == want


@pytest.mark.parametrize("n_basis", [4, 6])
@pytest.mark.parametrize("rep_name", ["trivial", "lambda_5^0"])
def test_a_corner_of_the_shared_plan_unfolds_to_the_per_pair_matrix(g2, n_basis, rep_name):
    rep = trivial_rep(g2) if rep_name == "trivial" else rep_lambda_p0(g2, 5)
    assemble_standard(g2, 0.7 + 0.3j, rep, n_basis=8)  # the plan a basis of 4 or 6 reads
    got = assemble_standard(g2, 0.7 + 0.3j, rep, n_basis).matrix
    want = _per_pair_matrix(g2, g2.standard_pairs, 0.7 + 0.3j, rep, n_basis)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n_basis", [0, -1, transfer.MAX_N + 1])
def test_a_truncation_outside_the_cap_is_refused_whatever_its_grid(g2, part2_64, n_basis):
    # 0 and -1 fall on the grid of the N = 8 plan, which is already built
    pair_integrals(g2, part2_64, 0.9, n_basis=8)
    assemble_standard(g2, 0.9, n_basis=8)
    with pytest.raises(ValueError, match="n_basis must be in"):
        pair_integrals(g2, part2_64, 0.9, n_basis=n_basis)
    with pytest.raises(ValueError, match="n_basis must be in"):
        assemble_standard(g2, 0.9, n_basis=n_basis)


def _whole_coefficients(plan, s, n):
    """Reference for `_OperatorPlan.coefficients`: one DFT of every pair's samples at once."""
    coef = np.exp(s * plan.log_deriv)[:, None, :] * plan.samples[:, :n]
    return np.fft.fft(coef, out=coef)[:, :, :n]


def test_coefficients_are_taken_in_chunks_of_pairs():
    group = gamma_m(8)
    plan = _OperatorPlan(group, tuple(sorted(group.standard_pairs)), trivial_rep(group), 64)
    assert plan.samples.size > 2**20  # more than one chunk

    def traced_blocks():
        tracemalloc.start()
        try:
            return plan.blocks(0.9, 64), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    chunked, chunked_peak = traced_blocks()
    plan.coefficients = lambda s, n: _whole_coefficients(plan, s, n)
    whole, whole_peak = traced_blocks()
    assert np.array_equal(chunked, whole)
    assert chunked_peak < whole_peak


@pytest.mark.parametrize("image, violation", [
    (2.0, "image of letter 1 is not unitary"),
    (1j, "image of letter 3 is not the adjoint of letter 1"),
], ids=["scaled", "not-adjoint"])
def test_a_rep_that_is_not_unitary_is_refused_before_any_coefficient(g2, monkeypatch, image, violation):
    def unexpected(*args, **kwargs):
        raise AssertionError("coefficients computed for an invalid rep")

    monkeypatch.setattr(transfer, "_moebius_log", unexpected)
    rep = UnitaryRep(dim=1, images={a: np.full((1, 1), image) for a in g2.alphabet}, label="bad")
    with pytest.raises(ValueError, match=violation):
        zeta_det(g2, 0.9, rep, n_basis=4)


def test_operator_data_is_built_once_per_rep(g2, monkeypatch):
    calls = {"inverse_image": 0, "word_matrix": 0}

    def count(cls, name):
        real = getattr(cls, name)

        def counted(self, *args):
            calls[name] += 1
            return real(self, *args)

        monkeypatch.setattr(cls, name, counted)

    count(UnitaryRep, "inverse_image")
    count(SchottkyGroup, "word_matrix")
    rep = rep_lambda_p0(g2, 5)
    first = zeta_det(g2, 0.9, rep, n_basis=8)
    # 6 of the 12 standard pairs have a target among the representative
    # letters 1 and 2; the other 6 are their mirrors under z -> -z
    assert calls == {"inverse_image": 6, "word_matrix": 6}
    zeta_det(g2, 0.6 + 0.4j, rep, n_basis=8)
    assert zeta_det(g2, 0.9, rep, n_basis=8) == first
    assert calls == {"inverse_image": 6, "word_matrix": 6}


def test_no_pairs_make_the_zero_operator(g2):
    for s in (0.5, 0.5 + 0.5j):
        tm = assemble_pairs(g2, [], s, n_basis=4)
        assert tm.matrix.shape == (16, 16) and not tm.matrix.any()


def test_assemble_pairs_returns_a_new_matrix(g2, part2_64):
    one = assemble_pairs(g2, part2_64.pairs, 0.8, n_basis=6).matrix
    two = assemble_pairs(g2, part2_64.pairs, 0.8, n_basis=6).matrix
    kept = two.copy()
    one[:] = 7.0
    assert np.array_equal(two, kept)
    assert np.array_equal(assemble_pairs(g2, part2_64.pairs, 0.8, n_basis=6).matrix, kept)


def test_operator_data_does_not_outlive_its_rep_or_group(g2):
    rep = rep_lambda_p0(g2, 5)
    zeta_det(g2, 0.9, rep, n_basis=8)
    group = gamma_m(2)
    zeta_det(group, 0.9, n_basis=8)  # through the trivial rep memoised for group
    refs = [weakref.ref(rep), weakref.ref(group)]
    del rep, group
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


@pytest.mark.parametrize("rep_name", ["trivial", "lambda_5^0"])
@pytest.mark.parametrize("operator", ["standard", "refined"])
def test_operator_at_conjugate_s_is_the_conjugate(g2, part2_64, rep_name, operator):
    # the symmetry the Jensen circle mirror relies on: real group, disks and rep
    rep = trivial_rep(g2) if rep_name == "trivial" else rep_lambda_p0(g2, 5)
    pairs = g2.standard_pairs if operator == "standard" else part2_64.pairs
    s = 0.8 + 0.5j
    at_s = assemble_pairs(g2, pairs, s, rep, n_basis=8).matrix
    at_conj = assemble_pairs(g2, pairs, s.conjugate(), rep, n_basis=8).matrix
    assert np.max(np.abs(at_conj - at_s.conj())) <= 1e-13 * np.max(np.abs(at_s))


@pytest.mark.parametrize("p", [5, 7])
def test_lambda_p0_images_are_real(g2, p):
    rep = rep_lambda_p0(g2, p)
    for a in g2.alphabet:
        assert np.all(rep.images[a].imag == 0.0)


def test_standard_pairs_are_enumerated_once(monkeypatch):
    group = gamma_m(2)
    calls = []
    real = SchottkyGroup.words_of_length

    def counted(self, n):
        calls.append(n)
        return real(self, n)

    monkeypatch.setattr(SchottkyGroup, "words_of_length", counted)
    pairs = group.standard_pairs
    assert pairs == tuple(sorted((w[:-1], w[-1]) for w in real(group, 2)))
    assemble_standard(group, 0.9, n_basis=4)
    assemble_standard(group, 0.7 + 0.2j, n_basis=4)
    assert group.standard_pairs is pairs
    assert calls == [2]
