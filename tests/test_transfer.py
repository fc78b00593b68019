import math

import numpy as np
import pytest

from schottky_zeta import hs_norm_integral, hs_norm_matrix
from schottky_zeta.reps import trivial_rep
from schottky_zeta.transfer import (
    QuadratureError,
    assemble_pairs,
    assemble_refined,
    assemble_standard,
    bergman_kernel,
    pair_integrals,
)


def _polar_grid(disk, n_r=60, n_phi=120):
    nodes, weights = np.polynomial.legendre.leggauss(n_r)
    rs = 0.5 * disk.radius * (nodes + 1.0)
    wr = 0.5 * disk.radius * weights * rs
    phis = 2.0 * np.pi * np.arange(n_phi) / n_phi
    z = disk.center + rs[:, None] * np.exp(1j * phis)[None, :]
    w = wr[:, None] * np.full((1, n_phi), 2.0 * np.pi / n_phi)
    return z.ravel(), w.ravel()


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
    val = np.sum(np.array([bergman_kernel(disk, z0, x) for x in w]) * w**2 * wt)
    assert val == pytest.approx(z0**2, rel=1e-10)


def test_standard_block_structure(g2):
    tm = assemble_standard(g2, 0.9, n_basis=6)
    for b in g2.alphabet:
        # the block from disk bar(b) into disk b must vanish: no admissible word
        src = g2.bar(b)
        assert np.all(tm.block(b, src) == 0.0)


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


def test_pair_integrals_cross_disk_dropped(g2, part2_64):
    ints = pair_integrals(g2, part2_64, 0.9)
    for (b, wa, wb) in ints:
        assert wa[0] == wb[0]
        assert wa[-1] != g2.bar(b) and wb[-1] != g2.bar(b)


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
        pair_integrals(g2, part2_64, 0.9, radial_order=2)


def test_hs_record_metadata(g2, part2_64):
    rec = hs_norm_integral(g2, part2_64, 0.8, keep_pairs=True)
    assert rec.tau == part2_64.tau
    assert rec.rep_label == "trivial"
    assert rec.pair_integrals is not None and len(rec.pair_integrals) > 0
    # the orders that produced value: twice the defaults of pair_integrals
    assert (rec.radial_order, rec.angular_order) == (48, 96)
