import math
from fractions import Fraction

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


def test_gamma_m_needs_a_letter():
    with pytest.raises(ValueError, match="m must be >= 1"):
        gamma_m(0)


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
    with pytest.raises(PartitionError):
        g2.partition(math.nan)


def _exact_interval_length(group, w):
    disk = group.disk(w[-1])
    g = group.word_matrix(w[:-1])
    x, y = Fraction(disk.center - disk.radius), Fraction(disk.center + disk.radius)
    return abs((g.a * x + g.b) / (g.c * x + g.d) - (g.a * y + g.b) / (g.c * y + g.d))


def test_partition_at_small_tau_matches_exact_lengths(g2):
    # |I_w| near 1e-13 is far below the float spacing of endpoints near 4
    tau = 1e-13
    part = g2.partition(tau)
    assert len(part.Z) == 34136
    for w in part.Z:
        assert _exact_interval_length(g2, w) <= tau, w
    for w in part.Y:
        assert _exact_interval_length(g2, w) > tau, w


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
    # generator 1 has its pole at -4, the right end of disk 2's real diameter
    spec = {
        "m": 1,
        "disks": [{"center": 4.0, "radius": 1.0}, {"center": -5.0, "radius": 1.0}],
        "generators": [[[4, 15], [1, 4]], [[4, -15], [-1, 4]]],
    }
    with pytest.raises(GroupValidationError) as exc:
        validate_group(spec)
    assert exc.value.violations == [
        "generator 1 does not map the boundary of disk 2 onto the boundary of disk 1",
        "generator 2 does not map infinity into disk 2",
    ]


@pytest.mark.parametrize("spacing", [4, 8, 1000])
@pytest.mark.parametrize("a", [1_100_000, 1_500_000, 2**21])
def test_validation_is_exact_for_large_entries(a, spacing):
    # g = [[x, x^2 - 1], [1, x]] maps the circle |z + x| = 1 onto |z - x| = 1 exactly,
    # but in floating point the images of boundary points lose the unit disk
    xs = (a, a + spacing)
    spec = {
        "m": 2,
        "disks": [{"center": c, "radius": 1.0} for c in (*xs, -xs[0], -xs[1])],
        "generators": [[[x, x * x - 1], [1, x]] for x in xs]
                      + [[[x, -(x * x - 1)], [-1, x]] for x in xs],
    }
    group = validate_group(spec)
    assert group.generator(3) == group.generator(1).inverse()
    spec["disks"][0]["radius"] = 1.0 + 2e-9
    spec["disks"][2]["radius"] = 1.0 + 2e-9
    with pytest.raises(GroupValidationError, match="boundary of disk 3 onto the boundary of disk 1"):
        validate_group(spec)


@pytest.mark.parametrize("key", ["m", "disks", "generators"])
def test_validation_names_a_missing_key(key):
    spec = {"m": 1, "disks": [{"center": 4.0, "radius": 1.0}, {"center": -4.0, "radius": 1.0}],
            "generators": [[[4, 15], [1, 4]], [[4, -15], [-1, 4]]]}
    del spec[key]
    with pytest.raises(GroupValidationError, match=f"missing the key '{key}'"):
        validate_group(spec)


@pytest.mark.parametrize("m", [0, -1])
def test_validation_rejects_a_group_without_generators(m):
    # as gamma_m(0) does: m = 0 would pass the disk and generator counts with empty lists
    with pytest.raises(GroupValidationError) as exc:
        validate_group({"m": m, "disks": [], "generators": []})
    assert exc.value.violations == [f"m must be >= 1, got {m}"]


@pytest.mark.parametrize("change, violation", [
    ({"disks": [{"center": 4.0, "radius": 1.0}]}, "expected 2 disks, got 1"),
    ({"generators": [[[4, 15], [1, 4]]] * 3}, "expected 2 generators, got 3"),
    ({"pairing": "custom"}, "only the standard letter pairing is supported"),
], ids=["disk-count", "generator-count", "pairing"])
def test_validation_refuses_the_wrong_shape(change, violation):
    spec = {"m": 1, "disks": [{"center": 4.0, "radius": 1.0}, {"center": -4.0, "radius": 1.0}],
            "generators": [[[4, 15], [1, 4]], [[4, -15], [-1, 4]]], **change}
    with pytest.raises(GroupValidationError) as exc:
        validate_group(spec)
    assert exc.value.violations == [violation]


@pytest.mark.parametrize("field", ["center", "radius"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_validation_rejects_a_disk_that_is_not_finite(field, value):
    spec = {"m": 1, "disks": [{"center": 4.0, "radius": 1.0}, {"center": -4.0, "radius": 1.0}],
            "generators": [[[4, 15], [1, 4]], [[4, -15], [-1, 4]]]}
    spec["disks"][0][field] = value
    with pytest.raises(GroupValidationError) as exc:
        validate_group(spec)
    assert exc.value.violations[0] == "disk 1 has a center or radius that is not finite"


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


@pytest.mark.parametrize("value", [1.5, 4.7, math.nan, math.inf, True, "4"])
@pytest.mark.parametrize("where", ["m", "generator"])
def test_validation_rejects_an_entry_that_is_not_an_integer(where, value):
    # int() would read 1.5 as 1 and 4.7 as 4, and [[4.7, 15], [1, 4]] as gamma_m:1's generator
    spec = {"m": 1, "disks": [{"center": 4.0, "radius": 1.0}, {"center": -4.0, "radius": 1.0}],
            "generators": [[[4, 15], [1, 4]], [[4, -15], [-1, 4]]]}
    if where == "m":
        spec["m"] = value
        want = f"m must be an integer, got {value!r}"
    else:
        spec["generators"][1][0][1] = value
        want = f"generator 2 entry (1, 2) must be an integer, got {value!r}"
    with pytest.raises(GroupValidationError) as exc:
        validate_group(spec)
    assert exc.value.violations == [want]


def test_validation_accepts_integral_floats():
    spec = {"m": 1.0, "disks": [{"center": 4.0, "radius": 1.0}, {"center": -4.0, "radius": 1.0}],
            "generators": [[[4.0, 15.0], [1.0, 4.0]], [[4, -15], [-1, 4.0]]]}
    group = validate_group(spec)
    assert group.m == 1 and type(group.m) is int
    assert group.generators == gamma_m(1).generators
    assert all(type(x) is int for g in group.generators for x in (g.a, g.b, g.c, g.d))
