import numpy as np
import pytest

from schottky_zeta import (
    congruence_norm_check,
    coset_perm,
    kronecker,
    reduce_mod,
    rep_lambda_p,
    rep_lambda_p0,
    surjective_mod_p,
    trace_bruteforce,
    trace_formula,
)
from schottky_zeta.arithmetic import primes_between
from schottky_zeta.congruence import SurjectivityError, _helmert_basis
from schottky_zeta.schottky import Moebius


def coset_perm_reference(g, p):
    """The right action x -> x g on canonical line representatives (1:x),
    (0:1), each image normalised by its own modular inverse and looked up."""
    (a, b), (c, d) = reduce_mod(g, p)
    points = [(1, x) for x in range(p)] + [(0, 1)]
    index = {pt: i for i, pt in enumerate(points)}

    def normalize(u, v):
        u, v = u % p, v % p
        return (1, v * pow(u, -1, p) % p) if u else (0, 1)

    return tuple(index[normalize(u * a + v * c, u * b + v * d)] for u, v in points)


def test_coset_perm_matches_the_reference_on_words(g2):
    words = g2.words_up_to(3)
    for p in primes_between(4, 60):
        for w in words:
            g = g2.word_matrix(w)
            assert coset_perm(g, p) == coset_perm_reference(g, p), (p, w)


@pytest.mark.parametrize("p", [5, 7, 13])
def test_coset_perm_matches_the_reference_at_infinity(p):
    # a = 0 mod p sends the line (1:0) to (0:1); c = 0 mod p fixes (0:1)
    for g in (Moebius(p, -1, 1, 0), Moebius(2 * p, 1, -1, 0), Moebius(0, -1, 1, 3),
              Moebius(1, 2, p, 2 * p + 1), Moebius(-1, 3, 0, -1), Moebius(1, 0, 0, 1)):
        assert g.det() == 1
        assert coset_perm(g, p) == coset_perm_reference(g, p), (p, g)


def test_reduce_mod(g2):
    assert reduce_mod(g2.generator(1), 5) == ((4, 0), (1, 4))
    with pytest.raises(ValueError):
        reduce_mod(g2.generator(1), 1)


def test_coset_perm_is_permutation(g2):
    for p in (5, 7):
        for a in g2.alphabet:
            perm = coset_perm(g2.generator(a), p)
            assert sorted(perm) == list(range(p + 1))


def test_coset_perm_identity():
    assert coset_perm(Moebius(1, 0, 0, 1), 7) == tuple(range(8))


def test_coset_perm_homomorphism(g2):
    p = 7
    pa = coset_perm(g2.generator(1), p)
    pb = coset_perm(g2.generator(2), p)
    pab = coset_perm(g2.word_matrix((1, 2)), p)
    # right action: x -> x g1 g2 applies g1 first
    composed = tuple(pb[pa[i]] for i in range(p + 1))
    assert pab == composed


def test_surjectivity(g2):
    assert surjective_mod_p(g2, 5)
    assert surjective_mod_p(g2, 7)
    assert not surjective_mod_p(g2, 2)


def test_trace_formula_vs_bruteforce_sample(g2):
    for p in (5, 7, 13):
        for w in [(1,), (2,), (1, 2), (2, 1), (1, 2, 1), (3, 2, 1)]:
            g = g2.word_matrix(w)
            assert trace_formula(g2, g, p) == trace_bruteforce(g2, g, p)


def test_trace_formula_kronecker_value(g2):
    g = g2.word_matrix((1, 2))  # trace 142
    disc = 142 * 142 - 4
    assert trace_formula(g2, g, 13) == kronecker(disc, 13)


def test_trace_formula_at_identity_congruence(g2):
    # gamma_1^2 is congruent to the identity mod 2, so the value is p there
    g = g2.generator(1) @ g2.generator(1)
    assert g.a % 2 == 1 and g.b % 2 == 0 and g.c % 2 == 0 and g.d % 2 == 1
    # mod 2 is not surjective for this group, use a surjective prime instead
    assert trace_formula(g2, g2.word_matrix(()), 5) == 5


def test_trace_formula_requires_surjectivity(g2):
    with pytest.raises(SurjectivityError):
        trace_formula(g2, g2.generator(1), 2)


def test_helmert_basis_orthonormal():
    for n in (4, 8):
        h = _helmert_basis(n)
        assert np.allclose(h.T @ h, np.eye(n - 1), atol=1e-14)
        assert np.allclose(h.sum(axis=0), 0.0, atol=1e-14)


def test_rep_lambda_p_unitary(g2):
    rep = rep_lambda_p(g2, 5)
    rep.validate(g2)
    rep0 = rep_lambda_p0(g2, 5)
    rep0.validate(g2)
    assert rep.dim == 6 and rep0.dim == 5


def test_rep_lambda_p_multiplicative(g2):
    rep = rep_lambda_p0(g2, 7)
    w1, w2 = (1, 2), (2, 3)
    assert np.allclose(rep.image(w1 + w2), rep.image(w1) @ rep.image(w2), atol=1e-12)


def test_character_decomposition(g2):
    # tr lambda_p = 1 + tr lambda_p^0 on every word
    rep = rep_lambda_p(g2, 5)
    rep0 = rep_lambda_p0(g2, 5)
    for w in [(1,), (1, 2), (2, 1, 4)]:
        t_full = complex(np.trace(rep.image(w)))
        t_zero = complex(np.trace(rep0.image(w)))
        assert t_full == pytest.approx(1.0 + t_zero, abs=1e-12)


def test_rep_trace_matches_formula(g2):
    rep0 = rep_lambda_p0(g2, 11)
    for w in [(1,), (1, 2), (1, 2, 1)]:
        t = complex(np.trace(rep0.image(w)))
        assert t.real == pytest.approx(trace_formula(g2, g2.word_matrix(w), 11), abs=1e-10)
        assert abs(t.imag) < 1e-12


def test_congruence_norm_check(g2):
    g = g2.generator(1) @ g2.generator(1)  # [[31,120],[8,31]], identity mod 2
    report = congruence_norm_check(g, 2)
    assert report.ok
    assert report.norm > 4.0 / 3.0
    assert report.trace_residue == 62 % 4 == 2
    assert report.trace_congruent_pm2


def test_congruence_norm_check_rejects(g2):
    with pytest.raises(ValueError):
        congruence_norm_check(Moebius(1, 1, 0, 1), 2)  # parabolic
    with pytest.raises(ValueError):
        congruence_norm_check(g2.generator(1), 3)  # not +-I mod 3
