import numpy as np
import pytest

from schottky_zeta import (
    closure_size,
    congruence,
    congruence_norm_check,
    coset_perm,
    gamma_m,
    kronecker,
    lambda_p0_traces,
    reduce_mod,
    rep_lambda_p,
    rep_lambda_p0,
    surjective_mod_p,
    trace_bruteforce,
    trace_formula,
)
from schottky_zeta.arithmetic import primes_between
from schottky_zeta.congruence import (
    WITNESS_LEN,
    WITNESS_WORDS,
    SurjectivityError,
    _closure_size,
    _helmert_basis,
    _witnessed,
    _word_traces,
    surjective_primes,
)
from schottky_zeta.schottky import Moebius


def has_witnesses_reference(group, p):
    """The trace witnesses of `closure_size` at one prime p >= 11, u = t^2 mod p
    reduced and t^2 - 4 classified by Euler's criterion."""
    if p < 11:
        return False
    split = non_split = not_exceptional = False
    for n in range(1, WITNESS_LEN + 1):
        if group.word_count(n) > WITNESS_WORDS:
            break
        for t in _word_traces(group, n):
            u = t * t % p
            if u in (0, 1, 2, 4):
                continue
            if pow(t * t - 4, (p - 1) // 2, p) == 1:
                split = True
            else:
                non_split = True
            not_exceptional = not_exceptional or (u * u - 3 * u + 1) % p != 0
            if split and non_split and not_exceptional:
                return True
    return False


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


@pytest.mark.parametrize("p", [4, 9, 15, 143])
def test_coset_perm_refuses_a_composite_modulus(g2, monkeypatch, p):
    # mod 4 the first generator of gamma_m(2) once gave (4, 3, 0, 3, 0), no permutation
    def unexpected(*args):
        raise AssertionError("inverses taken mod a composite")

    monkeypatch.setattr(congruence, "_fermat_inverses", unexpected)
    with pytest.raises(ValueError, match=rf"modulus must be a prime in \[2, 2\^31\), got {p}$"):
        coset_perm(g2.generator(1), p)


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


@pytest.mark.parametrize("m", [2, 3, 4])
def test_trace_witnesses_agree_with_the_bfs(m):
    group = gamma_m(m)
    primes = primes_between(1, 60)
    witnessed = _witnessed(group, np.array(primes)).tolist()
    for p, certified in zip(primes, witnessed):
        if certified:
            assert _closure_size(group, p) == p * (p * p - 1), (m, p)
        assert closure_size(group, p) == _closure_size(group, p), (m, p)
    # every prime from 11 on is certified by traces alone
    assert [p for p, certified in zip(primes, witnessed) if not certified] == [2, 3, 5, 7]
    assert surjective_primes(group, np.array(primes)).tolist() == [
        surjective_mod_p(group, p) for p in primes]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 8])
def test_witnessed_matches_the_scalar_euler_criterion(m):
    group = gamma_m(m)
    primes = primes_between(1, 4000)
    assert _witnessed(group, np.array(primes)).tolist() == [
        has_witnesses_reference(group, p) for p in primes]


def test_a_prime_without_witnesses_up_to_length_4_is_certified_by_length_5(g2):
    # at p = 699469 every word of length <= 4 has t^2 - 4 a square or u in {0, 1, 2, 4};
    # the BFS fallback would enumerate past CLOSURE_CAP elements and raise
    p = 699469
    assert closure_size(g2, p) == p * (p * p - 1)
    traces = {g2.word_matrix(w).trace() for w in g2.words_up_to(4) if w}
    non_split = [t for t in traces
                 if t * t % p not in (0, 1, 2, 4) and pow(t * t - 4, (p - 1) // 2, p) == p - 1]
    assert non_split == []


def test_a_cyclic_group_and_p_below_5_go_to_the_bfs():
    cases = [(1, p) for p in primes_between(1, 60)] + [(m, p) for m in (2, 3, 4) for p in (2, 3)]
    for m, p in cases:
        group = gamma_m(m)
        assert not _witnessed(group, np.array([p]))[0], (m, p)
        assert closure_size(group, p) == _closure_size(group, p), (m, p)
    non_surjective = [(m, p) for m, p in cases if not surjective_mod_p(gamma_m(m), p)]
    # gamma_m:3 and gamma_m:4 do reduce onto SL_2(F_3)
    assert non_surjective == [(m, p) for m, p in cases if m <= 2 or p == 2]


def _order_mod(g, p):
    """The order of the integer 2x2 matrix g, given by rows, mod p: by powering."""
    x, n = tuple(tuple(v % p for v in row) for row in g), 1
    while x != ((1, 0), (0, 1)):
        x = tuple(tuple((r[0] * g[0][j] + r[1] * g[1][j]) % p for j in range(2)) for r in x)
        n += 1
    return n


def test_a_cyclic_reduction_is_not_onto_at_any_prime():
    # the BFS counts the elements it enumerates, not |SL_2(F_p)|, against
    # CLOSURE_CAP: gamma_m(1) reduces to the cyclic group <g_1 mod p> at every p
    group = gamma_m(1)
    assert group.generator(1) == Moebius(4, 15, 1, 4)
    for p in primes_between(222, 2000):
        size = closure_size(group, p)
        assert size == _order_mod(((4, 15), (1, 4)), p), p
        assert p * (p * p - 1) % size == 0, p
        assert not surjective_mod_p(group, p), p
    assert not surjective_primes(group, np.array(primes_between(222, 2000))).any()


def test_the_bfs_refuses_a_closure_past_its_cap(g2, monkeypatch):
    # |SL_2(F_7)| = 336; the uncached BFS stops at the first element past the cap
    monkeypatch.setattr(congruence, "CLOSURE_CAP", 100)
    with pytest.raises(SurjectivityError, match="exceeds enumeration cap 100 after 101 elements"):
        _closure_size.__wrapped__(g2, 7)


def test_a_prime_past_2_31_is_refused_before_any_closure(g2, monkeypatch):
    # divides cannot test the witnesses there, and an onto reduction has over
    # 10^27 elements, so the BFS could only end at its cap; a cap of 100 keeps
    # a regression fast
    calls = []
    monkeypatch.setattr(congruence, "CLOSURE_CAP", 100)
    monkeypatch.setattr(congruence, "_closure_size", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="past the limit 2\\^31"):
        closure_size(g2, 2147483659)
    assert calls == []


def test_a_composite_modulus_past_the_cap_is_refused_up_front(g2):
    with pytest.raises(ValueError, match="not prime"):
        closure_size(g2, 1000)


@pytest.mark.parametrize("p", [4, 9, 143, 209])
def test_a_composite_modulus_is_refused_before_any_closure(g2, p):
    # |SL_2(Z/143)| = 2.9M and |SL_2(Z/209)| = 9.0M: the elements a closure BFS would enumerate
    bfs_runs = _closure_size.cache_info().misses
    with pytest.raises(ValueError, match=f"modulus {p} is not prime"):
        closure_size(g2, p)
    assert _closure_size.cache_info().misses == bfs_runs


def test_lambda_p0_traces_count_fixed_lines(g2):
    # every prime below 60, 2 and 3 included, whether or not the reduction is surjective
    primes = primes_between(1, 60)
    elements = [g2.word_matrix(w) for w in g2.words_up_to(3)] + [Moebius(1, 1, 0, 1)]
    assert elements[0] == Moebius(1, 0, 0, 1)
    for g in elements:
        fixed_lines = [int(np.count_nonzero(np.array(coset_perm(g, p)) == np.arange(p + 1)))
                       for p in primes]
        got = lambda_p0_traces(g, np.array(primes, dtype=np.int64)).tolist()
        assert got == [f - 1 for f in fixed_lines], g


def test_equal_groups_share_a_cache_entry():
    one, two = gamma_m(2), gamma_m(2)
    assert one is not two and one == two
    closure_size.cache_clear()
    closure_size(one, 11)
    closure_size(two, 11)
    assert (closure_size.cache_info().hits, closure_size.cache_info().misses) == (1, 1)


def test_trace_formula_vs_bruteforce_sample(g2):
    for p in (5, 7, 13):
        for w in [(1,), (2,), (1, 2), (2, 1), (1, 2, 1), (3, 2, 1)]:
            g = g2.word_matrix(w)
            assert trace_formula(g2, g, p) == trace_bruteforce(g2, [g], p)[0]


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
        h = _helmert_basis(np.ones(n))
        assert np.allclose(h.T @ h, np.eye(n - 1), atol=1e-14)
        assert np.allclose(h.sum(axis=0), 0.0, atol=1e-14)
        # weighted: the complement of w, as for the orbits of x -> -x
        w = np.sqrt(np.arange(1, n + 1) % 2 + 1.0)
        h = _helmert_basis(w)
        assert np.allclose(h.T @ h, np.eye(n - 1), atol=1e-14)
        assert np.allclose(w @ h, 0.0, atol=1e-14)


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
