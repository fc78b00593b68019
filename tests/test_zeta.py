import cmath
import functools
import math
import types

import numpy as np
import pytest

from schottky_zeta import (
    count_zeros_rect,
    delta,
    euler_product,
    gamma_m,
    jensen_bound,
    new_eigenvalue_count,
    primitive_classes,
    real_zeros,
    refined_zeta,
    zeta,
    zeta_det,
)
from schottky_zeta.congruence import SurjectivityError, rep_lambda_p0
from schottky_zeta.reps import direct_sum, trivial_rep
from schottky_zeta.schottky import PartitionError, SchottkyGroup, validate_group
from schottky_zeta.transfer import DEFAULT_N, assemble_refined, assemble_standard
from schottky_zeta.zeta import (
    DELTA_BRACKET,
    BoundaryZeroError,
    ConvergenceError,
    _bisect_sign_change,
    _winding_number,
    delta_bisection,
    delta_from_zeta,
    leading_eigenvalue,
)


def test_primitive_classes_length_one(g2):
    classes = primitive_classes(g2, 1)
    assert len(classes) == 4
    # trace of g_1 is 8: length 2 arccosh(4)
    lengths = sorted(c.length for c in classes)
    assert lengths[0] == pytest.approx(2.0 * math.acosh(4.0), rel=1e-14)
    assert lengths[1] == pytest.approx(2.0 * math.acosh(4.0), rel=1e-14)


def test_primitive_classes_are_cyclic_minimal(g2):
    for c in primitive_classes(g2, 4):
        n = len(c.word)
        for i in range(1, n):
            assert c.word <= c.word[i:] + c.word[:i]
        # representative words exclude powers
        for d in range(1, n):
            if n % d == 0:
                assert c.word != c.word[:d] * (n // d)


def test_class_trace_word_12(g2):
    # gamma_1 gamma_2 has trace 47 + 95 = 142
    cl = [c for c in primitive_classes(g2, 2) if c.word == (1, 2)]
    assert len(cl) == 1
    assert cl[0].trace == 142
    assert cl[0].length == pytest.approx(2.0 * math.acosh(71.0), rel=1e-14)


def test_inverse_class_counted_separately(g2):
    words = {c.word for c in primitive_classes(g2, 2)}
    # the inverse word (4,3) appears through its minimal rotation (3,4)
    assert (1, 2) in words and (3, 4) in words


def rotation_filter_classes(group, len_max):
    """Reference: every reduced word, kept when cyclically reduced and below
    each of its nontrivial rotations."""
    out = []
    for n in range(1, len_max + 1):
        for w in group.words_of_length(n):
            if (n > 1 and w[-1] == group.bar(w[0])) or any(w >= w[i:] + w[:i] for i in range(1, n)):
                continue
            tr = abs(group.word_matrix(w).trace())
            out.append((w, tr, 2.0 * math.acosh(tr / 2.0)))
    return out


def as_tuples(classes):
    return [(c.word, c.trace, c.length) for c in classes]


@pytest.fixture(scope="module")
def classes2_12(g2):
    return primitive_classes(g2, 12)


@pytest.mark.parametrize("m, len_max", [(1, 12), (2, 8), (3, 6), (4, 5)])
def test_primitive_classes_match_the_rotation_filter(m, len_max):
    group = gamma_m(m)
    assert as_tuples(primitive_classes(group, len_max)) == rotation_filter_classes(group, len_max)


def test_primitive_classes_are_exact_past_int64():
    # g = [[a, a^2 - 1], [1, a]] with a = 2^21: length-3 traces reach about (2a)^3 = 2^66,
    # so int64 products would wrap
    a = (2**21, 2**21 + 8)
    group = validate_group({
        "m": 2, "label": "large",
        "disks": [{"center": c, "radius": 1.0} for c in (*a, -a[0], -a[1])],
        "generators": [[[x, x * x - 1], [1, x]] for x in a]
                      + [[[x, -(x * x - 1)], [-1, x]] for x in a],
    })
    classes = primitive_classes(group, 3)
    assert max(c.trace for c in classes) > 2**63
    assert [c.trace for c in classes] == [abs(group.word_matrix(c.word).trace()) for c in classes]
    assert as_tuples(classes) == rotation_filter_classes(group, 3)


def test_primitive_classes_match_the_rotation_filter_at_length_12(g2, classes2_12):
    assert len(classes2_12) == 69708
    assert as_tuples(classes2_12) == rotation_filter_classes(g2, 12)


def test_primitive_class_counts_are_necklace_counts(g2, classes2_12):
    # primitive cyclically reduced classes of length n: (1/n) sum_{d | n} mu(n/d) tr(T^d),
    # T the non-backtracking matrix on letters (T[a, b] = 1 unless b = bar(a))
    letters = list(g2.alphabet)
    t = np.array([[int(b != g2.bar(a)) for b in letters] for a in letters], dtype=np.int64)

    def mobius(n):
        out, q = 1, 2
        while q * q <= n:
            if n % q == 0:
                n //= q
                if n % q == 0:
                    return 0
                out = -out
            q += 1
        return -out if n > 1 else out

    counts = [0] * 13
    for c in classes2_12:
        counts[len(c.word)] += 1
    for n in range(1, 13):
        necklaces = sum(mobius(n // d) * int(np.trace(np.linalg.matrix_power(t, d)))
                        for d in range(1, n + 1) if n % d == 0)
        assert counts[n] * n == necklaces, n


def test_primitive_classes_check_the_word_cap_before_any_word(g2, monkeypatch):
    def no_generator(self, a):
        raise AssertionError("a word was built")

    monkeypatch.setattr(SchottkyGroup, "generator", no_generator)
    with pytest.raises(ValueError, match="word cap"):
        primitive_classes(g2, 13)


@pytest.mark.parametrize("s", [1.3, 1.2 + 0.7j])
def test_euler_product_matches_a_per_class_loop(g2, s):
    rep = rep_lambda_p0(g2, 5)
    total = 1.0 + 0.0j
    eye = np.eye(rep.dim)
    for c in primitive_classes(g2, 8):
        rho = rep.image(c.word)
        k = 0
        while abs(f := cmath.exp(-(s + k) * c.length)) >= 1e-16:
            total *= complex(np.linalg.det(eye - rho * f))
            k += 1
    assert euler_product(g2, s, rep, len_max=8) == pytest.approx(total, rel=1e-13)


def test_euler_product_matches_determinant(g2, delta2):
    s = delta2 + 1.0
    ep = euler_product(g2, s, len_max=10)
    det = zeta_det(g2, s, n_basis=24)
    assert abs(ep - det) / abs(det) < 1e-8


def test_euler_product_tail_guard(g2):
    with pytest.raises(ConvergenceError):
        euler_product(g2, 0.05, len_max=4)


@pytest.mark.parametrize("kwargs, message", [
    ({"s": math.nan}, "s must be finite"),
    ({"s": math.inf}, "s must be finite"),
    ({"s": complex(1.2, math.nan)}, "s must be finite"),
    ({"len_max": 0}, "len_max must be >= 1, got 0"),
    ({"len_max": -3}, "len_max must be >= 1, got -3"),
    ({"tail_tol": math.nan}, "tail_tol must be positive and finite, got nan"),
    ({"tail_tol": math.inf}, "tail_tol must be positive and finite, got inf"),
    ({"tail_tol": 0.0}, "tail_tol must be positive and finite, got 0.0"),
], ids=["s-nan", "s-inf", "s-nan-imag", "len-max-0", "len-max-negative",
        "tail-tol-nan", "tail-tol-inf", "tail-tol-0"])
def test_euler_product_refuses_bad_input_before_any_class(g2, monkeypatch, kwargs, message):
    # each of these once returned 1+0j or skipped the tail check
    def unexpected(*args, **kwargs):
        raise AssertionError("primitive classes enumerated")

    monkeypatch.setattr(zeta, "_lyndon_levels", unexpected)
    with pytest.raises(ValueError, match=message):
        euler_product(g2, **{"s": 1.3, **kwargs})


def test_determinant_real_on_real_axis(g2):
    v = zeta_det(g2, 0.7)
    assert abs(v.imag) < 1e-12 * abs(v)


def test_delta_methods_agree(g2):
    d1 = delta_bisection(g2, tol=1e-8)
    d2 = delta_from_zeta(g2, tol=1e-8)
    assert d1 == pytest.approx(d2, abs=1e-6)


def test_delta_leading_eigenvalue_is_one(g2, delta2):
    assert leading_eigenvalue(g2, delta2) == pytest.approx(1.0, abs=1e-7)


def test_delta_is_the_bisection_checked_by_two_determinants(g2, monkeypatch):
    calls = []
    real = zeta.zeta_det

    def counted(group, s, rep=None, n_basis=DEFAULT_N):
        calls.append((s, rep, n_basis))
        return real(group, s, rep, n_basis)

    monkeypatch.setattr(zeta, "zeta_det", counted)
    d = delta(g2, tol=1e-8)
    assert d == delta_bisection(g2, tol=1e-8)
    assert calls == [(d - 1e-8, None, DEFAULT_N), (d + 1e-8, None, DEFAULT_N)]


def test_delta_raises_without_a_determinant_sign_change(g2, monkeypatch):
    real = zeta.zeta_det
    monkeypatch.setattr(zeta, "zeta_det", lambda *args: abs(real(*args)))
    with pytest.raises(ConvergenceError, match=r"keeps its sign across delta = 0\.2748.* and "):
        delta(g2, tol=1e-8)


def _eigvals_delta(group, n_basis):
    """delta to a given tol as the plain bisection of DELTA_BRACKET on the
    spectral radius of the even block by a dense eigensolver, one evaluation
    per midpoint; raises ConvergenceError where the bracket does not hold
    delta. Bisections to finer tols share the midpoints of coarser ones."""
    @functools.cache
    def excess(s):
        even = assemble_standard(group, s, None, n_basis).blocks[0]
        return float(np.max(np.abs(np.linalg.eigvals(even)))) - 1.0

    lo, hi = DELTA_BRACKET

    def at(tol):
        if not excess(lo) > 0 >= excess(hi):
            raise ConvergenceError("bracket does not straddle delta")
        return _bisect_sign_change(excess, lo, hi, excess(lo), tol)

    return at


def _shifted(group):
    """group conjugated by z -> z + 1: the same delta, and no involution for
    the z -> -z symmetry, so its transfer operator is one block."""
    def conj(g):
        m = np.array([[1, 1], [0, 1]]) @ np.array([[g.a, g.b], [g.c, g.d]]) @ np.array([[1, -1], [0, 1]])
        return m.tolist()

    return validate_group({
        "m": group.m,
        "disks": [{"center": disk.center + 1, "radius": disk.radius} for disk in group.disks],
        "generators": [conj(g) for g in group.generators],
        "label": f"{group.label}+1",
    })


@pytest.mark.parametrize("n_basis", [8, 12, 16])
@pytest.mark.parametrize("m, shifted", [(1, False), (2, False), (3, False), (4, False), (8, False),
                                        (2, True)])
def test_delta_bisection_is_the_plain_eigenvalue_bisection(m, shifted, n_basis):
    # bit for bit, by float.hex; below tol ~ 1e-14 both sides' signs next to
    # delta are rounding and may differ. gamma_m:1 is cyclic, delta = 0 lies
    # below the bracket, so both sides raise.
    group = _shifted(gamma_m(m)) if shifted else gamma_m(m)
    assert (group.involution is None) == shifted
    want = _eigvals_delta(group, n_basis)
    for tol in (1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
        if m == 1:
            for f in (want, lambda tol: delta_bisection(group, tol, n_basis)):
                with pytest.raises(ConvergenceError, match="straddle"):
                    f(tol)
        else:
            assert delta_bisection(group, tol, n_basis).hex() == want(tol).hex(), tol


@pytest.mark.parametrize("n_basis", [1, 2, 4, 8, 16, 32])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 8])
def test_leading_eigenvalue_is_the_spectral_radius(m, n_basis):
    group = gamma_m(m)
    for s in np.linspace(1e-3, 0.999, 23):
        even = assemble_standard(group, float(s), None, n_basis).blocks[0]
        want = float(np.max(np.abs(np.linalg.eigvals(even))))
        assert leading_eigenvalue(group, float(s), n_basis) == pytest.approx(want, rel=1e-13, abs=0), s


def test_leading_eigenvalue_without_a_dominant_eigenvalue_raises(g2, monkeypatch):
    # eigenvalues 1 and -1 in a non-normal block: ||B x|| / ||x|| alternates
    block = np.array([[[1.0, 1.0], [0.0, -1.0]]])
    monkeypatch.setattr(zeta, "assemble_standard", lambda *args: types.SimpleNamespace(blocks=block))
    with pytest.raises(ConvergenceError, match=r"leading eigenvalue at s = 0\.5 did not converge"):
        leading_eigenvalue(g2, 0.5, n_basis=1)


def _count_eigenvalues(monkeypatch):
    calls = []
    real = zeta.leading_eigenvalue

    def counted(group, s, n_basis=DEFAULT_N):
        calls.append(s)
        return real(group, s, n_basis)

    monkeypatch.setattr(zeta, "leading_eigenvalue", counted)
    return calls


@pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan, math.inf])
def test_delta_rejects_a_bad_tolerance_before_any_eigenvalue(g2, monkeypatch, tol):
    calls = _count_eigenvalues(monkeypatch)
    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        delta_bisection(g2, tol)
    assert calls == []


def test_delta_below_the_float_spacing_raises_after_few_eigenvalues(g2, monkeypatch):
    calls = _count_eigenvalues(monkeypatch)
    with pytest.raises(ValueError, match=r"tolerance 1e-300 is below the float spacing near 0\.27488"):
        delta_bisection(g2, 1e-300)
    assert len(calls) <= 16


@pytest.mark.parametrize("m, tol, most", [(2, 1e-8, 12), (8, 1e-6, 14)])
def test_delta_takes_few_eigenvalues(monkeypatch, m, tol, most):
    # the plain bisection takes 29 and 22
    calls = _count_eigenvalues(monkeypatch)
    d = delta_bisection(gamma_m(m), tol)
    assert len(calls) <= most
    assert d == {2: 0.2748820650354028, 8: 0.5314401941299438}[m]


def test_delta_and_jensen_need_no_dense_eigensolver(g2, monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("numpy.linalg.eigvals called")

    monkeypatch.setattr(np.linalg, "eigvals", refused)
    assert delta(g2, tol=1e-8) == 0.2748820650354028
    assert jensen_bound(g2, 5, 0.2, 2**-6, K=2, theta_samples=64) >= 0


def test_real_zeros_find_delta(g2, delta2):
    report = real_zeros(g2, None, 0.05, 0.45, tol=1e-7)
    assert len(report.zeros) == 1
    z, mult = report.zeros[0]
    assert z.real == pytest.approx(delta2, abs=1e-6)
    assert mult == 1


def test_rect_count_around_delta(g2, delta2):
    rect = (complex(delta2 - 0.05, -0.05), complex(delta2 + 0.05, 0.05))
    assert count_zeros_rect(g2, None, rect) == 1


@pytest.mark.parametrize("rect", [
    (0.2 + 0.5j, 0.35 - 0.5j),      # upper-left, lower-right: wound backwards
    (0.35 + 0.5j, 0.2 - 0.5j),      # upper-right, lower-left
    (0.2 - 0.5j, 0.2 + 0.5j),       # no width
    (0.2 + 0.1j, 0.35 + 0.1j),      # no height
    (0.2, 0.2),
    (complex(math.nan, -0.5), 0.35 + 0.5j),
    (0.2 - 0.5j, complex(math.inf, 0.5)),
])
def test_rect_count_rejects_bad_corners_before_any_determinant(g2, monkeypatch, rect):
    def unexpected(*args, **kwargs):
        raise AssertionError("no determinant may be evaluated")

    monkeypatch.setattr(zeta, "zeta_det", unexpected)
    with pytest.raises(ValueError):
        count_zeros_rect(g2, None, rect)


def test_rect_count_near_the_zero_at_zero(g2):
    # every |det| on this contour is below 1e-15, next to the zero of high order at s = 0
    assert count_zeros_rect(g2, rep_lambda_p0(g2, 5), (2e-5 - 1e-5j, 6e-5 + 1e-5j)) == 0


@pytest.mark.parametrize("p, rect, count", [
    (5, (0.0 + 2.5j, 0.4 + 5j), 26),
    (None, (-0.5 + 2.5j, 0.4 + 5j), 11),
    (None, (-0.5 + 0.1j, 0.4 + 2.5j), 6),
], ids=["lambda_5^0", "trivial-upper", "trivial-lower"])
def test_rect_count_at_the_chosen_n(g2, p, rect, count):
    assert count_zeros_rect(g2, None if p is None else rep_lambda_p0(g2, p), rect) == count


def test_rect_count_names_the_n_gap_it_cannot_close(g2, monkeypatch):
    # the box counts 11 at the chosen N (above); no N closes a gap of 0
    monkeypatch.setattr(zeta, "TRUNCATION_GAP", 0.0)
    with pytest.raises(ConvergenceError, match=rf"relative gap from N = 12 to N = {DEFAULT_N} is "):
        count_zeros_rect(g2, None, (-0.5 + 2.5j, 0.4 + 5j))


def test_rect_count_refuses_a_zero_sample_on_the_contour(g2, delta2, monkeypatch):
    rect = (complex(delta2 - 0.05, -0.05), complex(delta2 + 0.05, 0.05))
    real = zeta.zeta_det

    def patched(group, s, *args, **kwargs):
        return 0j if s == rect[0] else real(group, s, *args, **kwargs)

    monkeypatch.setattr(zeta, "zeta_det", patched)
    with pytest.raises(BoundaryZeroError, match="determinant vanishes on the rectangle boundary"):
        count_zeros_rect(g2, None, rect)


def test_refined_zeta_vanishes_at_zeros(g2, delta2, part2_64):
    # zeros of det(1 - L_s) are zeros of the refined zeta
    assert abs(refined_zeta(g2, part2_64, delta2, n_basis=24)) < 1e-6
    part = g2.partition(2.0**-8)
    assert abs(refined_zeta(g2, part, delta2, n_basis=24)) < 1e-6


def test_refined_zeta_matches_squared_operator(g2, part2_64):
    # oracle: det(1 - M @ M) of the assembled refined matrix
    rep = rep_lambda_p0(g2, 5)
    for s in (0.9, 0.8 + 0.5j):
        m = assemble_refined(g2, part2_64, s, rep, n_basis=8).matrix
        square = complex(np.linalg.det(np.eye(m.shape[0]) - m @ m))
        assert refined_zeta(g2, part2_64, s, rep, n_basis=8) == pytest.approx(square, rel=1e-12)


def _count_lu(monkeypatch):
    """A list that grows by one per np.linalg.det call from now on."""
    calls = []
    real = np.linalg.det

    def counted(a):
        calls.append(a.shape)
        return real(a)

    monkeypatch.setattr(np.linalg, "det", counted)
    return calls


def _lu_product(blocks):
    eye = np.eye(blocks.shape[-1])
    return complex(np.prod(np.linalg.det(eye - blocks)) * np.prod(np.linalg.det(eye + blocks)))


def _jensen_circle(d, sigma=0.2, K=2.0):
    sigma0 = d + K
    return sigma0, math.sqrt((sigma0 - sigma) ** 2 + 1.0) + 1.0 / K


def test_refined_zeta_matches_the_lu_product_on_the_jensen_circle(g2, delta2, part2_64, monkeypatch):
    # the upper half of the 128-point circle of jensen_bound(g2, 5, 0.2, 2^-6, K=2)
    rep = rep_lambda_p0(g2, 5)
    sigma0, r2 = _jensen_circle(delta2)
    calls = _count_lu(monkeypatch)
    fast = 0
    for k in range(65):
        s = sigma0 + r2 * cmath.exp(2j * math.pi * k / 128)
        before = len(calls)
        got = refined_zeta(g2, part2_64, s, rep)
        lu = len(calls) > before
        want = _lu_product(assemble_refined(g2, part2_64, s, rep).blocks)
        fast += not lu
        # on the left, where |zeta_tau| reaches 5e67, the reference's own order of
        # rounding (1 + L_b from L_b, not from 1 - L_b) moves it by up to 2.6e-14
        assert abs(got - want) <= (5e-14 if lu else 1e-14) * abs(want), (k, s)
    assert fast > 65 // 2


def test_jensen_bound_takes_most_of_the_circle_without_lu(g2, delta2, monkeypatch):
    seen = []
    real = zeta.refined_zeta

    def counted(group, partition, s, *args):
        seen.append(s)
        return real(group, partition, s, *args)

    monkeypatch.setattr(zeta, "refined_zeta", counted)
    calls = _count_lu(monkeypatch)
    jensen_bound(g2, 5, 0.2, 2.0**-6, K=2.0, n_basis=DEFAULT_N, delta_value=delta2, theta_samples=64)
    assert len(seen) == 66
    # an evaluation through LU is two stacked determinants, det(1 - L_b) and det(1 + L_b)
    assert len(calls) % 2 == 0
    assert len(calls) // 2 < 66 / 2


def test_refined_zeta_takes_the_circle_left_end_through_lu(g2, delta2, part2_64, monkeypatch):
    rep = rep_lambda_p0(g2, 5)
    sigma0, r2 = _jensen_circle(delta2)
    calls = _count_lu(monkeypatch)
    refined_zeta(g2, part2_64, sigma0 - r2, rep)
    assert len(calls) == 2
    refined_zeta(g2, part2_64, sigma0 + r2, rep)  # the right end takes the trace
    assert len(calls) == 2


@pytest.mark.parametrize("s, through_lu", [(2.0 + 1.0j, False), (0.9 + 0.5j, True)])
def test_refined_zeta_matches_a_30_digit_determinant(g2, part2_64, monkeypatch, s, through_lu):
    # oracle: det(1 - L_b^2) of the same double blocks, squared and factored by LU in 30 digits
    mpmath = pytest.importorskip("mpmath")
    blocks = assemble_refined(g2, part2_64, s, None, n_basis=8).blocks
    with mpmath.workdps(30):
        want = mpmath.mpf(1)
        for block in blocks:
            m = mpmath.matrix(block.tolist())
            want *= mpmath.det(mpmath.eye(block.shape[-1]) - m * m)
        want = complex(want)
    calls = _count_lu(monkeypatch)
    got = refined_zeta(g2, part2_64, s, None, n_basis=8)
    assert bool(calls) == through_lu
    # zeta - 1 is 1.3e-8 at s = 2 + i, so dropping tr(L_b^2) would show
    assert abs(want - 1) > 1e-9
    assert abs(got - want) <= 1e-13 * abs(want)


def test_jensen_bound_evaluates_each_point_once(g2, delta2, monkeypatch):
    seen = []
    real = zeta.refined_zeta

    def counted(group, partition, s, *args):
        seen.append(s)
        return real(group, partition, s, *args)

    monkeypatch.setattr(zeta, "refined_zeta", counted)
    jensen_bound(g2, 5, 0.2, 2.0**-5, K=2.0, n_basis=8, delta_value=delta2,
                 theta_samples=64, bound_tol=0.5)
    assert len(seen) == len(set(seen))
    # the center and the closed upper half of the doubled circle, which converged
    assert len(seen) == 1 + 65
    assert all(s.imag >= 0 for s in seen)


@pytest.mark.parametrize("theta_samples", [64, 7])
def test_jensen_bound_matches_the_full_circle(g2, delta2, theta_samples):
    # oracle: every point of the circle evaluated, the same doubling rule
    tau, K, bound_tol = 2.0**-5, 2.0, 1.0  # theta_samples 7 doubles three times
    partition = g2.partition(tau)
    rep = rep_lambda_p0(g2, 5)
    sigma0 = delta2 + K
    r1 = math.sqrt((sigma0 - 0.2) ** 2 + 1.0)
    r2 = r1 + 1.0 / K
    log_ratio = math.log(r2 / r1)

    def circle_mean(n):
        points = sigma0 + r2 * np.exp(2j * np.pi * np.arange(n) / n)
        return np.mean([math.log(abs(refined_zeta(g2, partition, s, rep, 8))) for s in points])

    n = theta_samples
    val = circle_mean(n)
    for _ in range(3):
        refined = circle_mean(2 * n)
        if abs(refined - val) <= bound_tol * log_ratio:
            break
        n, val = 2 * n, refined
    else:
        pytest.fail("the full circle did not converge")
    want = (refined - math.log(abs(refined_zeta(g2, partition, sigma0, rep, 8)))) / log_ratio
    got = jensen_bound(g2, 5, 0.2, tau, K=K, n_basis=8, delta_value=delta2,
                       theta_samples=theta_samples, bound_tol=bound_tol)
    assert want > 0
    assert got == pytest.approx(want, rel=1e-12)


def test_jensen_bound_raises_convergence_error_when_the_doublings_run_out(g2, delta2):
    with pytest.raises(ConvergenceError, match="Jensen circle integral did not stabilize"):
        jensen_bound(g2, 5, 0.2, 2.0**-5, K=2.0, n_basis=8, delta_value=delta2,
                     theta_samples=8, bound_tol=1e-300)


def test_jensen_bound_names_an_overflow_of_the_refined_determinant(g2):
    # log|zeta_tau| reaches about 960 on this circle, past float64's largest log, 709.8:
    # the run stops at the first such s, with no RuntimeWarning, instead of blaming N
    with pytest.raises(OverflowError, match=r"overflows float64 at s = \(-0\.9"):
        jensen_bound(g2, 11, 0.2, 2.0**-5, K=1.0, theta_samples=64)


def _count_by_basis(monkeypatch, shift=None, sigma0=None, log_ratio=None):
    """A dict from N to the points refined_zeta is evaluated at with n_basis = N. With
    shift, off-centre values at N are scaled by exp(shift[N] log_ratio), which moves the
    implied Jensen bound at N by exactly shift[N] zeros."""
    seen = {}
    real = zeta.refined_zeta

    def counted(group, partition, s, rep, n_basis):
        seen.setdefault(n_basis, []).append(s)
        value = real(group, partition, s, rep, n_basis)
        if shift and s != sigma0:
            value *= math.exp(shift[n_basis] * log_ratio)
        return value

    monkeypatch.setattr(zeta, "refined_zeta", counted)
    return seen


def test_jensen_bound_takes_n_from_the_n_minus_4_gap(g2, delta2, monkeypatch):
    # the refined-jensen input: N = 4 and N = 8 agree on the first circle to 5e-4 zeros
    seen = _count_by_basis(monkeypatch)
    jensen_bound(g2, 5, 0.2, 2.0**-6, K=2.0, delta_value=delta2, theta_samples=64)
    sigma0 = delta2 + 2.0
    assert sorted(seen) == [4, 8]
    # N = 4: the centre and the closed upper half of the 64-point circle
    assert seen[4][0] == sigma0 and len(set(seen[4][1:])) == 33
    # N = 8: the same, then the doubled circle's 32 new points, where it converged
    assert seen[8][0] == sigma0 and len(set(seen[8][1:])) == 65
    assert seen[8][1:34] == seen[4][1:]
    assert all(s.imag >= 0 for s in seen[4] + seen[8])


@pytest.mark.parametrize("sigma", [0.1925, 0.2, 0.2075])
def test_jensen_bound_by_default_agrees_with_the_default_n(g2, delta2, sigma):
    args = (g2, 5, sigma, 2.0**-6)
    chosen = jensen_bound(*args, K=2.0, delta_value=delta2, theta_samples=64)
    fixed = jensen_bound(*args, K=2.0, n_basis=DEFAULT_N, delta_value=delta2, theta_samples=64)
    assert chosen == pytest.approx(fixed, rel=1e-9)


def test_jensen_bound_at_an_explicit_n_evaluates_that_n_alone(g2, monkeypatch):
    seen = _count_by_basis(monkeypatch)
    bound = jensen_bound(g2, 5, 0.2, 2.0**-6, K=2.0, theta_samples=64, n_basis=DEFAULT_N)
    assert sorted(seen) == [DEFAULT_N]
    # the bound before N was chosen, bit for bit on the machine that recorded it
    assert bound == pytest.approx(110.69247822729196, rel=1e-15)


def _jensen_log_ratio(d, K=2.0):
    sigma0, r2 = _jensen_circle(d, K=K)
    return sigma0, math.log(r2 / (r2 - 1.0 / K))


def test_jensen_bound_climbs_while_the_n_minus_4_gap_exceeds_bound_tol(g2, delta2, monkeypatch):
    # bound_tol 0.1: the gap is 0.3 from N = 4 to 8, then 0.05 from 8 to 12
    shift = {4: 0.0, 8: 0.3, 12: 0.35, 16: 0.36}
    sigma0, log_ratio = _jensen_log_ratio(delta2)
    want = jensen_bound(g2, 5, 0.2, 2.0**-6, K=2.0, n_basis=12, delta_value=delta2, theta_samples=64)
    seen = _count_by_basis(monkeypatch, shift, sigma0, log_ratio)
    got = jensen_bound(g2, 5, 0.2, 2.0**-6, K=2.0, delta_value=delta2, theta_samples=64)
    assert sorted(seen) == [4, 8, 12]
    assert len(seen[4]) == len(seen[8]) == 1 + 33 and len(seen[12]) == 1 + 65
    assert got == pytest.approx(want + 0.35, rel=1e-12)


def test_jensen_bound_raises_when_the_default_n_misses_bound_tol(g2, delta2, monkeypatch):
    shift = {4: 0.0, 8: 0.3, 12: 0.6, 16: 0.9}
    sigma0, log_ratio = _jensen_log_ratio(delta2)
    seen = _count_by_basis(monkeypatch, shift, sigma0, log_ratio)
    with pytest.raises(ConvergenceError, match=r"moves by 0\.3 zeros from N = 12 to N = 16"):
        jensen_bound(g2, 5, 0.2, 2.0**-6, K=2.0, delta_value=delta2, theta_samples=64)
    # no doubling: each rung saw the centre and the first circle only
    assert sorted(seen) == [4, 8, 12, 16]
    assert all(len(points) == 1 + 33 for points in seen.values())


def test_jensen_bound_rejects_empty_circle_before_any_determinant(g2, monkeypatch):
    def unexpected(*args, **kwargs):
        raise AssertionError("no determinant may be evaluated")

    monkeypatch.setattr(zeta, "refined_zeta", unexpected)
    monkeypatch.setattr(zeta, "delta", unexpected)
    for n in (0, -4):
        with pytest.raises(ValueError):
            jensen_bound(g2, 5, 0.2, 2.0**-6, theta_samples=n)
    for K in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            jensen_bound(g2, 5, 0.2, 2.0**-6, K=K)
    for bound_tol in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            jensen_bound(g2, 5, 0.2, 2.0**-6, bound_tol=bound_tol)


@pytest.mark.parametrize("tau", [math.nan, 0.0, -1.0, math.inf])
def test_jensen_bound_refuses_a_bad_tau_before_the_rep_and_delta(g2, monkeypatch, tau):
    def unexpected(*args, **kwargs):
        raise AssertionError("rep or delta built for a bad tau")

    monkeypatch.setattr(zeta, "rep_lambda_p0", unexpected)
    monkeypatch.setattr(zeta, "delta", unexpected)
    with pytest.raises(PartitionError, match=f"tau={tau} >=|tau must be positive, got {tau}"):
        jensen_bound(g2, 5, 0.2, tau, K=2)


def test_jensen_bound_refuses_a_non_surjective_prime_before_delta(monkeypatch):
    # gamma_m(1) reduces to a cyclic group mod 5; delta must not be computed
    def unexpected(*args, **kwargs):
        raise AssertionError("delta computed for a non-surjective prime")

    monkeypatch.setattr(zeta, "delta", unexpected)
    with pytest.raises(SurjectivityError, match="not surjective"):
        jensen_bound(gamma_m(1), 5, 0.1, 2.0**-4, K=2)


def test_jensen_bound_takes_delta_at_its_own_n_basis(g2, monkeypatch):
    # one spelling of delta's truncation: n_basis=0 reaches delta as 0 and is
    # refused at its first transfer matrix, not after a delta at DEFAULT_N
    real_delta = zeta.delta

    def at_zero_only(group, tol, n_basis):
        if n_basis != 0:
            raise AssertionError(f"delta taken at N = {n_basis}")
        return real_delta(group, tol, n_basis)

    monkeypatch.setattr(zeta, "delta", at_zero_only)
    with pytest.raises(ValueError, match="n_basis must be in 1..128"):
        jensen_bound(g2, 5, 0.2, 2.0**-6, n_basis=0)


def test_real_zeros_rejects_an_empty_range_before_any_determinant(g2, monkeypatch):
    def unexpected(*args, **kwargs):
        raise AssertionError("no determinant may be evaluated")

    monkeypatch.setattr(zeta, "zeta_det", unexpected)
    for lo, hi in ((0.4, 0.1), (0.3, 0.3), (math.nan, 0.4), (0.1, math.inf), (-math.inf, 0.4)):
        with pytest.raises(ValueError):
            real_zeros(g2, None, lo, hi)


def test_direct_sum_zeta_factorizes(g2):
    rep = trivial_rep(g2)
    both = direct_sum(rep, rep)
    for s in (0.8, 1.1 + 0.4j):
        z1 = zeta_det(g2, s, rep, n_basis=16)
        z2 = zeta_det(g2, s, both, n_basis=16)
        assert z2 == pytest.approx(z1 * z1, rel=1e-10)


def test_zero_report_serialization(g2, delta2):
    report = real_zeros(g2, None, 0.1, 0.4, tol=1e-6)
    d = report.as_dict()
    assert d["zeros"][0]["re_s"] == pytest.approx(delta2, abs=1e-5)
    lam = delta2 * (1 - delta2)
    assert d["zeros"][0]["lambda"] == pytest.approx(lam, abs=1e-5)


def test_new_eigenvalue_count_runs(g2, delta2):
    n = new_eigenvalue_count(g2, 5, 0.15, delta_value=delta2)
    assert n == 0


def test_new_eigenvalue_count_rejects_bad_modulus(g2):
    with pytest.raises(ValueError):
        new_eigenvalue_count(g2, 9, 0.2)
    # both generators reduce to the same involution mod 2
    with pytest.raises(ValueError):
        new_eigenvalue_count(g2, 2, 0.2)


def test_new_eigenvalue_count_refuses_a_non_surjective_prime_before_delta(monkeypatch):
    # gamma_m(1) reduces to a cyclic group mod 5; delta must not be computed
    def unexpected(*args, **kwargs):
        raise AssertionError("delta computed for a non-surjective prime")

    monkeypatch.setattr(zeta, "delta", unexpected)
    with pytest.raises(SurjectivityError, match="not surjective"):
        new_eigenvalue_count(gamma_m(1), 5, 0.1)


@pytest.mark.parametrize("tol", [math.inf, 0.0, -1e-5, math.nan])
def test_new_eigenvalue_count_refuses_a_bad_tol_before_surjectivity_and_delta(g2, tol, monkeypatch):
    # sigma = 0.3 lies above delta, where the count would return 0 before real_zeros saw tol
    def unexpected(*args, **kwargs):
        raise AssertionError("surjectivity or delta computed for a bad tolerance")

    monkeypatch.setattr(zeta, "rep_lambda_p0", unexpected)
    monkeypatch.setattr(zeta, "delta", unexpected)
    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        new_eigenvalue_count(g2, 7, 0.3, tol=tol)


def test_new_eigenvalue_count_above_delta_is_zero_without_a_search(g2, delta2, monkeypatch):
    def unexpected(*args, **kwargs):
        raise AssertionError("no zero search above delta")

    monkeypatch.setattr(zeta, "real_zeros", unexpected)
    assert new_eigenvalue_count(g2, 5, delta2 + 0.01, delta_value=delta2) == 0


def _circle_around(zero):
    """values(n) of the unit circle for z |-> z - zero, and the sample counts asked for."""
    asked = []

    def values(n):
        asked.append(n)
        return list(np.exp(2j * np.pi * np.arange(n) / n) - zero)

    return values, asked


def test_winding_number_refines_near_a_zero_on_the_contour():
    # at 8 samples the phase of z - 0.98 jumps by nearly pi across z = 1
    values, asked = _circle_around(0.98)
    assert _winding_number(values, 8, 6) == 1
    assert asked[0] == 8 and asked == [8 * 2**k for k in range(len(asked))] and len(asked) > 1
    values, asked = _circle_around(1.02)
    assert _winding_number(values, 8, 6) == 0


def test_winding_number_refuses_a_contour_that_does_not_resolve():
    values, asked = _circle_around(0.98)
    with pytest.raises(ConvergenceError, match="did not stabilize"):
        _winding_number(values, 8, 2)
    assert asked == [8, 16]


@pytest.mark.parametrize("turns", [1, 3])
def test_winding_number_refuses_a_negative_count(turns):
    # a contour that turns clockwise cannot come from samples of an entire function
    def values(n):
        return list(np.exp(-2j * np.pi * turns * np.arange(n) / n))

    with pytest.raises(ConvergenceError, match=f"negative winding number -{turns}"):
        _winding_number(values, 8, 6)


def test_real_zeros_confirms_one_zero_per_cluster_of_candidates(g2, delta2, monkeypatch):
    # two sign changes 2 tol apart: the second is inside the first's circle of
    # radius 5 tol and is not confirmed a second time
    tol = 1e-6
    monkeypatch.setattr(zeta, "_chebyshev_roots",
                        lambda f, lo, hi, tol4: ([(delta2, True), (delta2 + 2 * tol, True)], 17, 0.0))
    report = real_zeros(g2, None, 0.1, 0.4, tol=tol)
    assert report.zeros == [(complex(delta2), 1)]


def test_delta_increases_with_m(g2, g3):
    d2 = delta(g2, tol=1e-6)
    d3 = delta(g3, tol=1e-6)
    assert d2 < d3
