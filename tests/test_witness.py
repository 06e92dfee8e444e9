"""The linear-time witness search gives what one substitution per parameter gives.

``oracles.greedy_param_assignment`` restates the search as a full
``subs_params`` pass per parameter; both must agree on the assignment and on
the reduced polynomial, denominator and printed form included.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from doubled_algebroids.generic import _greedy_param_assignment
from doubled_algebroids.poly import PolyExpr

VARIABLES = [PolyExpr.coord(1), PolyExpr.coord(2), PolyExpr.dual(1)]

TERMS = st.lists(
    st.tuples(
        st.integers(-3, 3),
        st.lists(st.integers(0, len(VARIABLES) - 1), max_size=2),
        st.lists(st.integers(1, 4), max_size=3),
    ),
    max_size=8,
)


def build(terms, den, common):
    """The sum of the terms over ``den``, times the parameters in ``common``
    (so every monomial holds them and setting one to 1 can merge terms)."""
    total = PolyExpr.zero()
    for coeff, coords, params in terms:
        term = PolyExpr.const(coeff)
        for k in coords:
            term = term * VARIABLES[k]
        for pidx in params:
            term = term * PolyExpr.param(pidx)
        total = total + term
    for pidx in common:
        total = total * PolyExpr.param(pidx)
    return total.scaled(Fraction(1, den))


@settings(derandomize=True, max_examples=500, deadline=None)
@given(
    terms=TERMS, den=st.sampled_from([1, 2, 3, 6]), common=st.lists(st.integers(1, 4), max_size=2)
)
# no parameters: returned as it is, denominator kept
@example(terms=[(1, [0], []), (3, [], [])], den=2, common=[])
# p1*x1 + p1^2*x1 merges to 2*x1 at p1 = 1
@example(terms=[(1, [0], []), (1, [0], [1])], den=3, common=[1])
# p1*x1 - p1^2*x1 cancels at p1 = 1, and p2 is set to 1 on the zero polynomial
@example(terms=[(1, [0], [2]), (-1, [0], [1, 2])], den=1, common=[1])
def test_greedy_matches_one_substitution_per_parameter(terms, den, common):
    poly = build(terms, den, common)
    expected, expected_reduced = oracles.greedy_param_assignment(poly)
    assignment, reduced = _greedy_param_assignment(poly)
    assert assignment == expected
    assert str(reduced) == str(expected_reduced)
    assert (reduced.terms, reduced.den) == (expected_reduced.terms, expected_reduced.den)
