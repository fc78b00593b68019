"""Property test of the Chebyshev proxy: every simple root of a random
polynomial times a positive entire factor is found as a bracketed sign
change to within tol / 2, and no sign change is reported elsewhere."""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from schottky_zeta.zeta import _chebyshev_roots  # noqa: E402


@hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    unit_roots=st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                        min_size=1, max_size=5, unique=True),
    lo=st.floats(-2.0, 2.0),
    width=st.floats(0.01, 3.0),
    growth=st.floats(-3.0, 3.0),
)
def test_every_simple_root_is_found_within_its_error(unit_roots, lo, width, growth):
    hi = lo + width
    roots = sorted(lo + width * u for u in unit_roots)
    hypothesis.assume(all(lo < r < hi for r in roots))
    hypothesis.assume(all(b - a >= 0.02 * width for a, b in zip(roots, roots[1:])))
    tol = 1e-9 * width

    def f(x):
        return math.exp(growth * x) * math.prod(x - r for r in roots)

    found, _, _ = _chebyshev_roots(f, lo, hi, tol)
    # even candidates, which the caller certifies, may come in addition
    sign_changes = [x for x, sign_change in found if sign_change]
    assert len(sign_changes) == len(roots)
    for x, r in zip(sign_changes, roots):
        assert abs(x - r) <= tol / 2 * (1 + 1e-6)
