"""Property test of the character formula: for random reduced words g and
primes p, the fixed lines of g on P^1(F_p), less one, counted by the batched
projective-line kernel, equal tr lambda_p^0(g) from the Kronecker symbol."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from schottky_zeta import congruence, gamma_m, primes_between  # noqa: E402
from schottky_zeta.congruence import lambda_p0_traces, trace_bruteforce  # noqa: E402

PRIMES = primes_between(10, 599)


@st.composite
def reduced_words(draw, m):
    """A list of reduced words of length <= 8 over the 2m letters of gamma_m(m):
    each letter after the first is one of the 2m - 1 that do not cancel it."""
    group = gamma_m(m)
    words = []
    for choices in draw(st.lists(st.lists(st.integers(0, 2 * m - 1), max_size=8),
                                 min_size=1, max_size=30)):
        w = []
        for c in choices:
            allowed = [b for b in group.alphabet if not w or b != group.bar(w[-1])]
            w.append(allowed[c % len(allowed)])
        words.append(tuple(w))
    return words


@st.composite
def cases(draw):
    m = draw(st.integers(1, 3))
    return m, draw(reduced_words(m)), draw(st.sampled_from(PRIMES))


# every reduced word of length <= 7 at p = 593: 5828 rows of 594 lines, several row blocks
@hypothesis.example(case=(2, gamma_m(2).words_up_to(7), 593))
@hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
@hypothesis.given(case=cases())
def test_fixed_lines_give_the_trace_formula(case):
    m, words, p = case
    group = gamma_m(m)
    gs = [group.word_matrix(w) for w in words]
    expected = [int(lambda_p0_traces(g, np.array([p]))[0]) for g in gs]
    blocks = list(congruence._line_images(gs, p))
    assert all(images.size <= max(congruence.LINE_BLOCK, p + 1) for images in blocks)
    x = np.arange(p + 1)
    fixed = np.concatenate([np.count_nonzero(images == x, axis=1) for images in blocks])
    assert (fixed - 1).tolist() == expected
    if m > 1:  # gamma_m:1 is cyclic mod p, and trace_bruteforce refuses it
        assert trace_bruteforce(group, gs, p).tolist() == expected
