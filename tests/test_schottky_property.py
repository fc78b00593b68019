"""Property tests of the group layer: the Moebius algebra on random SL2(Z)
elements, and the exact cover of the partition Z(tau) on gamma_m(1..3)."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from schottky_zeta import gamma_m  # noqa: E402
from schottky_zeta.schottky import IDENTITY, Moebius  # noqa: E402

# SL2(Z) generators: the shears by +-1 and the rotation S = [[0, -1], [1, 0]]
STEPS = (Moebius(1, 1, 0, 1), Moebius(1, -1, 0, 1), Moebius(1, 0, 1, 1), Moebius(1, 0, -1, 1),
         Moebius(0, -1, 1, 0))


@st.composite
def sl2z(draw):
    """A product of at most 12 generator steps, so entries stay below about 1e3."""
    g = IDENTITY
    for i in draw(st.lists(st.integers(0, len(STEPS) - 1), max_size=12)):
        g = g @ STEPS[i]
    return g


# the upper half plane: a real Moebius map has its pole on R, so none of these is one
upper = st.builds(complex, st.floats(-5.0, 5.0), st.floats(0.25, 5.0))


def close(x, y):
    return abs(x - y) <= 1e-9 * max(abs(x), abs(y), 1e-300)


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(g=sl2z(), h=sl2z(), z=upper)
def test_moebius_composition_and_chain_rule(g, h, z):
    assert g.det() == 1 and h.det() == 1
    assert close((g @ h).apply(z), g.apply(h.apply(z)))
    assert close((g @ h).derivative(z), g.derivative(h.apply(z)) * h.derivative(z))
    assert g @ g.inverse() in (IDENTITY, Moebius(-1, 0, 0, -1))
    assert g.inverse() @ g in (IDENTITY, Moebius(-1, 0, 0, -1))


@hypothesis.settings(max_examples=50, deadline=None, derandomize=True, database=None)
@hypothesis.given(g=sl2z(), zs=st.lists(upper, min_size=1, max_size=8))
def test_moebius_arrays_match_scalars(g, zs):
    array = np.array(zs)
    assert g.apply(array).tolist() == [g.apply(z) for z in zs]
    assert g.derivative(array).tolist() == [g.derivative(z) for z in zs]


@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(m=st.integers(1, 3), k=st.floats(3.0, 9.0))
def test_partition_is_an_exact_cover(m, k):
    group, tau = gamma_m(m), 2.0**-k
    part = group.partition(tau)
    zset = set(part.Z)
    assert len(zset) == len(part.Z)
    # no word of Z is a prefix of another
    assert not any(w[:j] in zset for w in part.Z for j in range(1, len(w)))
    # every reduced word of length max_depth has exactly one prefix in Z
    for w in group.words_of_length(part.max_depth):
        assert sum(w[:j] in zset for j in range(1, len(w) + 1)) == 1, w
    # Y is exactly the set of truncations of Z, sorted
    assert part.Y == sorted({w[:-1] for w in part.Z})
    assert all(group.is_reduced(w) for w in part.Z)
    assert all(group.interval_length(w) <= tau < group.interval_length(w[:-1]) for w in part.Z)
