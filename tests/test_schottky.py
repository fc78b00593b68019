import math

import numpy as np
import pytest

from schottky_zeta import (
    GroupValidationError,
    PartitionError,
    distortion_report,
    gamma_m,
    named_group,
    validate_group,
)
from schottky_zeta.schottky import INF, Moebius


def test_gamma_m_generators(g2):
    assert g2.m == 2
    assert g2.generator(1) == Moebius(4, 15, 1, 4)
    assert g2.generator(2) == Moebius(8, 63, 1, 8)
    assert g2.generator(3) == Moebius(4, -15, -1, 4)
    assert g2.generator(4) == Moebius(8, -63, -1, 8)
    for a in g2.alphabet:
        assert g2.generator(a).det() == 1
        assert g2.generator(g2.bar(a)) == g2.generator(a).inverse()


def test_bar_involution(g3):
    for a in g3.alphabet:
        assert g3.bar(g3.bar(a)) == a
        assert g3.bar(a) != a


def test_named_group():
    g = named_group("gamma_m:2")
    assert g.label == "gamma_m:2"
    with pytest.raises(ValueError):
        named_group("nonsense")


def test_word_matrix_product(g2):
    # hand-computed product of the first two generators
    assert g2.word_matrix((1, 2)) == Moebius(47, 372, 12, 95)
    assert g2.word_matrix(()) == Moebius(1, 0, 0, 1)


def test_mirror_is_inverse_word(g2):
    for w in [(1,), (1, 2), (2, 1, 4), (3, 3, 2, 1)]:
        assert g2.word_matrix(g2.mirror(w)) == g2.word_matrix(w).inverse()


def test_word_counts(g2):
    # 2m(2m-1)^(n-1) reduced words of length n
    for n in range(1, 5):
        assert len(g2.words_of_length(n)) == 4 * 3 ** (n - 1)
    for w in g2.words_of_length(3):
        assert g2.is_reduced(w)
    assert not g2.is_reduced((1, 3))


def test_negative_word_length_rejected(g2):
    with pytest.raises(ValueError):
        g2.words_of_length(-1)


def test_word_cap_is_checked_before_any_word_is_built(g2):
    for n in (13, 40):
        with pytest.raises(ValueError, match="word cap"):
            g2.words_of_length(n)
        with pytest.raises(ValueError, match="word cap"):
            g2.words_up_to(n)


def test_interval_single_letter(g2):
    lo, hi = g2.interval((1,))
    assert (lo, hi) == (3.0, 5.0)
    assert g2.interval_length(()) == math.inf


def test_interval_length_two_letters(g2):
    # gamma_1 maps [3, 5] to [27/7, 35/9], length 2/63
    assert g2.interval_length((1, 1)) == pytest.approx(2.0 / 63.0, rel=1e-14)


def test_interval_nesting(g2):
    for w in g2.words_of_length(3):
        lo, hi = g2.interval(w)
        plo, phi = g2.interval(w[:-1])
        assert plo < lo < hi < phi


def test_upsilon_single_letter(g2):
    # successor of (1,) is the letter itself, o = 4, derivative 1/(4+4)^2
    assert g2.upsilon((1,)) == pytest.approx(1.0 / 64.0, rel=1e-14)


def test_partition_basic(g2, part2_64):
    assert part2_64.covers_exactly_once(g2, part2_64.max_depth)
    assert all(len(w) >= 2 for w in part2_64.Z)
    for w in part2_64.Z:
        assert g2.interval_length(w) <= part2_64.tau < g2.interval_length(w[:-1])
    assert set(part2_64.Y) == {w[:-1] for w in part2_64.Z}
    assert len(part2_64.pairs) == len(part2_64.Z)


def test_partition_rejects_large_tau(g2):
    with pytest.raises(PartitionError):
        g2.partition(2.0)
    with pytest.raises(PartitionError):
        g2.partition(-0.5)


def test_validation_catches_overlap():
    spec = {
        "m": 1,
        "disks": [{"center": 0.0, "radius": 2.0}, {"center": 1.0, "radius": 2.0}],
        "generators": [[[4, 15], [1, 4]], [[4, -15], [-1, 4]]],
    }
    with pytest.raises(GroupValidationError) as exc:
        validate_group(spec)
    assert any("intersect" in v for v in exc.value.violations)


def test_validation_catches_bad_determinant():
    spec = {
        "m": 1,
        "disks": [{"center": 4.0, "radius": 1.0}, {"center": -4.0, "radius": 1.0}],
        "generators": [[[4, 15], [1, 5]], [[5, -15], [-1, 4]]],
    }
    with pytest.raises(GroupValidationError) as exc:
        validate_group(spec)
    assert any("determinant" in v for v in exc.value.violations)


def test_validation_catches_bad_pairing():
    spec = {
        "m": 1,
        "disks": [{"center": 4.0, "radius": 1.0}, {"center": -4.0, "radius": 1.0}],
        "generators": [[[4, 15], [1, 4]], [[8, -63], [-1, 8]]],
    }
    with pytest.raises(GroupValidationError) as exc:
        validate_group(spec)
    assert any("inverse" in v for v in exc.value.violations)


def test_validation_catches_bad_mapping():
    # valid matrices and pairing, but the disks do not match the isometry
    spec = {
        "m": 1,
        "disks": [{"center": 8.0, "radius": 1.0}, {"center": -8.0, "radius": 1.0}],
        "generators": [[[4, 15], [1, 4]], [[4, -15], [-1, 4]]],
    }
    with pytest.raises(GroupValidationError):
        validate_group(spec)


def test_validation_reports_a_boundary_sample_at_the_pole():
    # generator 1 has its pole at -4, sample 0 of disk 2's boundary
    spec = {
        "m": 1,
        "disks": [{"center": 4.0, "radius": 1.0}, {"center": -5.0, "radius": 1.0}],
        "generators": [[[4, 15], [1, 4]], [[4, -15], [-1, 4]]],
    }
    with pytest.raises(GroupValidationError) as exc:
        validate_group(spec)
    assert exc.value.violations == [
        "generator 1 does not map the boundary of disk 2 onto the boundary of disk 1 (sample 0)",
        "generator 2 does not map infinity into disk 2",
    ]


def test_array_moebius_matches_scalar_calls(g2):
    ring = np.exp(2j * np.pi * np.arange(8) / 8)
    offsets = np.concatenate([[0.0], 0.5 * ring, 0.9 * ring])
    for w in g2.words_up_to(3):
        g = g2.word_matrix(w)
        for b in g2.alphabet:
            if w and w[-1] == g2.bar(b):
                continue
            zs = g2.disk(b).center + g2.disk(b).radius * offsets
            for method in (g.apply, g.derivative):
                want = [method(z) for z in zs.tolist()]
                np.testing.assert_allclose(method(zs), want, rtol=1e-15, atol=0.0)


def test_a_pole_is_inf_for_a_scalar_and_raises_in_an_array():
    g = Moebius(2, 1, 1, 1)  # pole at -1
    assert g.apply(-1 + 0j) == INF
    assert g.apply(INF) == 2.0
    with pytest.raises(ZeroDivisionError):
        g.derivative(-1 + 0j)
    zs = np.array([0.0, -1.0, 2.0], dtype=complex)
    for method in (g.apply, g.derivative):
        with pytest.raises(ZeroDivisionError):
            method(zs)
        assert np.all(np.isfinite(method(np.delete(zs, 1))))


def test_distortion_report_finite(g2, delta2):
    rep = distortion_report(g2, max_len=4, taus=[2.0**-6, 2.0**-8], delta_value=delta2)
    d = rep.as_dict()
    for key in ("deriv_ratio", "ups_vs_deriv", "mirror_ratio", "product_ratio",
                "norm_sqrt_tau", "y_count_band"):
        lo, hi = d[key]
        assert 0.0 < lo <= hi < math.inf
    assert 0.0 < rep.contraction_exponent < 1.0


def test_gamma_m_family_validates():
    for m in (1, 2, 3, 5):
        g = gamma_m(m)
        assert len(g.disks) == 2 * m
