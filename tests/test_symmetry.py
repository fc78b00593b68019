"""The z -> -z symmetry of the transfer operators: the letter involution of
the group, the intertwiners of the reps, the operator's commutation with U,
and the half-size blocks the determinants and the leading eigenvalue use."""

import dataclasses

import numpy as np
import pytest

from schottky_zeta import gamma_m, real_zeros, refined_zeta, zeta, zeta_det
from schottky_zeta.congruence import _negation, _parity_basis, rep_lambda_p, rep_lambda_p0
from schottky_zeta.reps import UnitaryRep, direct_sum, trivial_rep
from schottky_zeta.schottky import validate_group
from schottky_zeta.transfer import _moebius_log, assemble_pairs, assemble_standard
from schottky_zeta.zeta import SymmetryError, leading_eigenvalue

TAU = 2.0**-6
DELTA_8 = 0.5314401941  # delta(gamma_m(8)) to 1e-6


def _conjugate(group, p):
    """group conjugated by the Moebius map p, an integer matrix of det 1 that
    fixes infinity (z -> z + b), which moves every disk by b."""
    (a, b), (c, d) = p
    assert (a, c, d) == (1, 0, 1)

    def conj(g):
        m = np.array([[1, b], [0, 1]]) @ np.array([[g.a, g.b], [g.c, g.d]]) @ np.array([[1, -b], [0, 1]])
        return m.tolist()

    return validate_group({
        "m": group.m,
        "disks": [{"center": disk.center + b, "radius": disk.radius} for disk in group.disks],
        "generators": [conj(g) for g in group.generators],
        "label": f"{group.label}+{b}",
    })


def _unreduced(rep):
    """The same rep without its intertwiner: its operators are assembled
    pair by pair as one block."""
    return dataclasses.replace(rep, intertwiner=None)


def _mirror_operator(group, rep, n_basis):
    """U = (sigma swap) (x) diag((-1)^k) (x) V in the layout of
    TransferMatrix.matrix, as (perm, sign): (U x)[i] = sign[i] x[perm[i]]."""
    perm_v, sign_v = rep.intertwiner
    index = np.arange(2 * group.m * n_basis * rep.dim).reshape(2 * group.m, n_basis, rep.dim)
    sigma = np.array(group.involution) - 1
    perm = index[sigma][:, :, perm_v]
    sign = (-1.0) ** np.arange(n_basis)[:, None] * sign_v
    return perm.ravel(), np.broadcast_to(sign, index.shape).ravel()


def _reps(group, p):
    return {"trivial": trivial_rep(group), "lambda_p": rep_lambda_p(group, p),
            "lambda_p0": rep_lambda_p0(group, p)}


def test_gamma_m_involution_is_bar():
    for m in (1, 2, 3, 8):
        group = gamma_m(m)
        assert group.involution == tuple(group.bar(a) for a in group.alphabet)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("p", [5, 7, 11])
def test_operator_commutes_with_the_reflection(m, p):
    group = gamma_m(m)
    operators = {"standard": group.standard_pairs, "refined": group.partition(TAU).pairs}
    # gamma_m:1 is cyclic, so its reduction mod p is not onto and lambda_p is undefined
    reps = _reps(group, p).values() if m > 1 else [trivial_rep(group)]
    for rep in reps:
        perm, sign = _mirror_operator(group, rep, 8)
        for pairs in operators.values():
            for s in (0.3, 0.2 + 0.7j):
                full = assemble_pairs(group, pairs, s, _unreduced(rep), n_basis=8).matrix
                # U L U^-1 = L, U a signed permutation
                assert np.max(np.abs(sign[:, None] * full[np.ix_(perm, perm)] * sign - full)) <= 1e-14
                # the reduced assembly, rebuilt by sign flips, is the same operator
                tm = assemble_pairs(group, pairs, s, rep, n_basis=8)
                assert len(tm.blocks) == 2
                assert np.max(np.abs(tm.matrix - full)) <= 1e-14


@pytest.mark.parametrize("p", [2, 5, 7, 11])
def test_parity_basis_is_orthonormal_sum_zero_and_split(p):
    h, parity = _parity_basis(p)
    assert h.shape == (p + 1, p)
    assert np.allclose(h.T @ h, np.eye(p), atol=1e-14)
    assert np.allclose(h.sum(axis=0), 0.0, atol=1e-14)
    # each column is an even or an odd function of x -> -x, the even ones first
    assert np.array_equal(h[_negation(p)], h * parity)
    even = (p + 1) // 2 if p > 2 else p
    assert parity.tolist() == [1.0] * even + [-1.0] * (p - even)


def test_a_conjugated_group_has_no_involution_and_the_same_zeta(g2, part2_64):
    shifted = _conjugate(g2, ((1, 1), (0, 1)))
    assert [d.center for d in shifted.disks] == [5.0, 9.0, -3.0, -7.0]
    assert shifted.involution is None
    assert shifted.partition(TAU).Z == part2_64.Z
    for name, p, s in (("trivial", 5, 0.3), ("trivial", 5, 0.2 + 0.7j), ("lambda_p0", 5, 0.3),
                       ("lambda_p0", 7, 0.25 + 0.4j), ("lambda_p", 7, 0.3),
                       ("lambda_p", 7, 0.25 + 0.4j)):
        rep, one_block = _reps(g2, p)[name], _reps(shifted, p)[name]
        assert len(assemble_standard(shifted, s, one_block, n_basis=8).blocks) == 1
        assert len(assemble_standard(g2, s, rep, n_basis=8).blocks) == 2
        want = zeta_det(shifted, s, one_block)
        assert abs(zeta_det(g2, s, rep) - want) <= 1e-12 * abs(want)
        want = refined_zeta(shifted, shifted.partition(TAU), s, one_block, n_basis=8)
        assert abs(refined_zeta(g2, part2_64, s, rep, n_basis=8) - want) <= 1e-12 * abs(want)
    for s in (0.2, 0.6):
        assert leading_eigenvalue(g2, s) == pytest.approx(leading_eigenvalue(shifted, s), rel=1e-12)


def test_blocks_are_the_matrix_in_an_even_and_odd_basis(g2):
    # two half-size blocks with the involution, the whole matrix without it;
    # the change of basis is orthogonal, so the Frobenius norm is kept
    shifted = _conjugate(g2, ((1, 1), (0, 1)))
    for group, count in ((g2, 2), (shifted, 1)):
        rep = rep_lambda_p0(group, 5)
        n = 2 * group.m * 8 * rep.dim
        for s in (0.3, 0.3 + 0.5j):
            tm = assemble_standard(group, s, rep, n_basis=8)
            assert tm.blocks.shape == (count, n // count, n // count)
            assert np.isrealobj(tm.blocks) == (s == 0.3)
            want = np.linalg.norm(tm.matrix)
            assert np.linalg.norm(tm.blocks) == pytest.approx(want, rel=1e-14)


def test_letters_are_reordered_when_the_involution_is_not_bar():
    # g_1 pairs the disks at -10 and 4; J g_1 J = g_2 pairs those at 10 and -4,
    # so sigma = (1 2)(3 4): letters 1 and 3 come first, then 2 and 4
    g1 = [[4, 39], [1, 10]]
    spec = {"m": 2, "generators": [g1, [[4, -39], [-1, 10]], [[10, -39], [-1, 4]], [[10, 39], [1, 4]]],
            "disks": [{"center": c, "radius": 1.0} for c in (4, -4, -10, 10)]}
    group = validate_group(spec)
    assert group.involution == (2, 1, 4, 3)
    shifted = _conjugate(group, ((1, 1), (0, 1)))
    assert shifted.involution is None
    rep = rep_lambda_p0(group, 5)
    for s in (0.4, 0.3 + 0.5j):
        tm = assemble_standard(group, s, rep, n_basis=8)
        assert tm.plan.letters == (1, 3, 2, 4)
        full = assemble_standard(group, s, _unreduced(rep), n_basis=8).matrix
        assert np.max(np.abs(tm.matrix - full)) <= 1e-14
        want = zeta_det(shifted, s, rep_lambda_p0(shifted, 5))
        assert abs(zeta_det(group, s, rep) - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("m, s", [(2, 0.2), (2, None), (2, 0.6), (8, 0.2), (8, DELTA_8), (8, 0.6)])
def test_leading_eigenvalue_lies_in_the_even_block(m, s, delta2):
    group = gamma_m(m)
    s = delta2 if s is None else s
    full = assemble_standard(group, s, _unreduced(trivial_rep(group))).matrix
    want = float(np.max(np.abs(np.linalg.eigvals(full))))
    assert leading_eigenvalue(group, s) == pytest.approx(want, rel=1e-12)


def _phase_rep(group, phase):
    """The 1-dim unitary rep sending letters 1..m to e^{i phase}: it has no
    intertwiner for z -> -z, since sigma(a) = bar(a) gets the conjugate."""
    images = {a: np.array([[np.exp(1j * phase if a <= group.m else -1j * phase)]])
              for a in group.alphabet}
    return UnitaryRep(dim=1, images=images, label=f"phase {phase}")


def test_a_complex_rep_raises_symmetry_error_on_the_real_axis(g2):
    rep = _phase_rep(g2, 0.3)
    rep.validate(g2)
    assert not np.isreal(zeta_det(g2, 0.3, rep))
    with pytest.raises(SymmetryError):
        real_zeros(g2, rep, 0.1, 0.4)


def test_a_complex_rep_raises_symmetry_error_before_any_determinant(g2, monkeypatch):
    def no_determinant(*args, **kwargs):
        raise AssertionError("zeta_det called")

    monkeypatch.setattr(zeta, "zeta_det", no_determinant)
    for rep in (_phase_rep(g2, 0.3), _swap_phase_rep(g2, 0.3)):
        with pytest.raises(SymmetryError):
            real_zeros(g2, rep, 0.1, 0.4)


def test_real_reps_hold_float64_images_and_complex_reps_complex128(g2):
    reps = {**_reps(g2, 5), "direct_sum": direct_sum(trivial_rep(g2), rep_lambda_p0(g2, 5)),
            "phase": _phase_rep(g2, 0.3), "swap phase": _swap_phase_rep(g2, 0.3)}
    for name, rep in reps.items():
        dtype = np.complex128 if "phase" in name else np.float64
        assert {u.dtype for u in rep.images.values()} == {np.dtype(dtype)}, name
        assert rep.image((1, 2)).dtype == dtype


def test_an_integer_permutation_rep_is_held_in_float64(g2):
    # an integer incidence would read the float coefficients through a view
    floats = rep_lambda_p(g2, 5)
    ints = {a: u.astype(int) for a, u in floats.images.items()}
    given = dict(ints)
    rep = UnitaryRep(dim=6, images=ints, label="lambda_5 in integers", intertwiner=floats.intertwiner)
    assert {u.dtype for u in rep.images.values()} == {np.dtype(np.float64)}
    # the caller's dict holds the same integer arrays, with the same entries
    assert all(ints[a] is given[a] and ints[a].dtype == int for a in g2.alphabet)
    assert all(np.array_equal(ints[a], floats.images[a]) for a in g2.alphabet)
    for s in (0.3, 0.2 + 0.7j):
        assert zeta_det(g2, s, rep) == zeta_det(g2, s, floats)


def test_a_wrong_intertwiner_is_rejected_when_the_plan_is_built(g2):
    identity = (np.zeros(1, dtype=int), np.ones(1))
    bad = dataclasses.replace(_phase_rep(g2, 0.3), intertwiner=identity)
    with pytest.raises(ValueError, match="intertwiner"):
        zeta_det(g2, 0.3, bad)
    bad = dataclasses.replace(rep_lambda_p(g2, 5), intertwiner=(np.arange(6), np.ones(6)))
    with pytest.raises(ValueError, match="intertwiner"):
        assemble_standard(g2, 0.3, bad)


@pytest.mark.parametrize("p, n_basis", [(None, 128), (5, 128), (47, 8)])
def test_real_s_drops_only_rounding_from_a_real_image_operator(g2, part2_64, p, n_basis):
    # s + 1e-300j keeps the same operator to rounding but the complex path:
    # rows with their imaginary part and a complex LU
    rep = trivial_rep(g2) if p is None else rep_lambda_p0(g2, p)
    for s in (0.05, 0.9):
        real, kept = zeta_det(g2, s, rep, n_basis), zeta_det(g2, s + 1e-300j, rep, n_basis)
        assert real.imag == 0
        assert abs(real - kept) <= 1e-12 * abs(real)
        real = refined_zeta(g2, part2_64, s, rep, n_basis)
        kept = refined_zeta(g2, part2_64, s + 1e-300j, rep, n_basis)
        assert real.imag == 0
        assert abs(real - kept) <= 1e-12 * abs(real)


def test_real_zeros_accepts_lambda_p0_at_a_large_prime(g2):
    # no zero of Z(s, lambda_47^0) in [0.15, 0.3], and no SymmetryError
    report = real_zeros(g2, rep_lambda_p0(g2, 47), 0.15, 0.3, n_basis=4)
    assert report.zeros == []


def _swap_phase_rep(group, phase):
    """A 2-dim rep with complex images and an intertwiner for z -> -z: letters
    1..m act by diag(e^{i phase}, e^{-i phase}), their inverses by the
    conjugate, and V swaps the two coordinates."""
    images = {}
    for a in group.alphabet:
        turn = phase if a <= group.m else -phase
        images[a] = np.diag(np.exp([1j * turn, -1j * turn]))
    return UnitaryRep(dim=2, images=images, label=f"swap phase {phase}",
                      intertwiner=(np.array([1, 0]), np.ones(2)))


def _coefficients(group, w, b, s, n_basis):
    """The N x N Fourier coefficients (target k, source k) of
    f |-> g_w'(.)^s f(g_w .) from the basis of D_{w[0]} into that of D_b."""
    target, source = group.disk(b), group.disk(w[0])
    n_samp = max(4 * n_basis, 32)
    ks = np.arange(n_basis)
    zs = target.center + target.radius * np.exp(2j * np.pi * np.arange(n_samp) / n_samp)
    images, log_w = _moebius_log(group, w, zs)
    u = (images - source.center) / source.radius
    samples = np.exp(s * log_w)[:, None] * np.sqrt((ks + 1) / np.pi) / source.radius * u[:, None] ** ks
    coef = np.fft.fft(samples, axis=0)[:n_basis] / n_samp
    return coef * (target.radius * np.sqrt(np.pi / (ks + 1)))[:, None]


def _scatter_and_fold(group, pairs, s, rep, n_basis):
    """Reference for `_OperatorPlan.blocks`: each evaluated pair's
    coefficients, Kronecker times rho(g_w)^{-1}, added by its own numpy call
    into zeroed rows [A | B T] of the representative letters, then folded in
    place into the blocks A + B T and A - B T; without the symmetry the rows
    are the whole matrix. Rows and columns run over (letter, k, v), the
    letters in the plan's order."""
    sigma = group.involution
    if sigma is not None and rep.intertwiner is not None and set(pairs) == {
            (tuple(sigma[a - 1] for a in w), sigma[b - 1]) for w, b in pairs}:
        first = tuple(a for a in group.alphabet if a < sigma[a - 1])
        letters = first + tuple(sigma[a - 1] for a in first)
        perm, sign = rep.intertwiner
        v = sign[:, None] * np.eye(rep.dim)[perm]
    else:
        first = letters = tuple(group.alphabet)
    real = complex(s).imag == 0 and not any(u.imag.any() for u in rep.images.values())
    position = {a: i for i, a in enumerate(letters)}
    parity = (-1.0) ** np.arange(n_basis)
    out = np.zeros((len(first), n_basis, rep.dim, len(letters), n_basis, rep.dim),
                   dtype=float if real else complex)
    for w, b in sorted(pairs):
        if position[b] >= len(first):
            continue
        c, rho = _coefficients(group, w, b, s, n_basis), rep.inverse_image(w)
        if position[w[0]] >= len(first):
            c, rho = c * parity, rho @ v  # a column of a mirror letter, stored times T
        if real:
            c, rho = c.real, rho.real
        out[position[b], :, :, position[w[0]]] += c[:, None, :, None] * rho[None, :, None, :]
    h = len(first) * n_basis * rep.dim
    rows = out.reshape(h, len(letters) * n_basis * rep.dim)
    if len(letters) == len(first):
        return rows[None]
    a, bt = rows[:, :h], rows[:, h:]
    a += bt
    bt *= -2.0
    bt += a
    return rows.reshape(h, 2, h).transpose(1, 0, 2)


@pytest.mark.parametrize("rep_name", ["trivial", "lambda_p0", "lambda_p", "direct_sum", "complex"])
@pytest.mark.parametrize("group_name", ["gamma_m:2", "gamma_m:8", "no involution"])
def test_blocks_match_the_per_pair_scatter_and_fold(group_name, rep_name):
    group = {"gamma_m:2": gamma_m(2), "gamma_m:8": gamma_m(8),
             "no involution": _conjugate(gamma_m(2), ((1, 1), (0, 1)))}[group_name]
    rep = {"trivial": lambda: trivial_rep(group),
           "lambda_p0": lambda: rep_lambda_p0(group, 5),
           "lambda_p": lambda: rep_lambda_p(group, 5),
           "direct_sum": lambda: direct_sum(trivial_rep(group), _unreduced(rep_lambda_p0(group, 5))),
           "complex": lambda: _swap_phase_rep(group, 0.3)}[rep_name]()
    tau = 2.0**-3 if group.m == 8 else TAU
    n_basis = 6
    folds = 2 if group.involution is not None and rep.intertwiner is not None else 1
    for pairs in (group.standard_pairs, group.partition(tau).pairs):
        for s in (0.4, 0.3 + 0.7j):
            blocks = assemble_pairs(group, pairs, s, rep, n_basis).blocks
            assert len(blocks) == folds
            assert np.isrealobj(blocks) == (s == 0.4 and rep_name != "complex")
            # the plan's rows and columns run over (letter, v, k)
            letters = len(blocks[0]) // (n_basis * rep.dim)
            got = blocks.reshape(folds, letters, rep.dim, n_basis, letters, rep.dim, n_basis)
            got = got.transpose(0, 1, 3, 2, 4, 6, 5).reshape(blocks.shape)
            want = _scatter_and_fold(group, pairs, s, rep, n_basis)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_each_pair_fills_one_slot_of_its_letter_block():
    # the contraction runs over the slots of each letter block, not over
    # every pair for every block, so the slots stay close to the pair count
    group = gamma_m(8)
    for rep in (trivial_rep(group), rep_lambda_p0(group, 5)):
        for pairs in (group.standard_pairs, group.partition(TAU).pairs):
            plan = assemble_pairs(group, pairs, 0.4, rep, 4).plan
            count = len(plan.log_deriv)
            filled = np.any(plan.incidence != 0, axis=(0, 2, 3, 5))
            assert sorted(plan.slots[filled]) == list(range(count))
            assert plan.slots.size < 1.5 * count
