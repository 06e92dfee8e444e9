import random
from fractions import Fraction

import pytest

from doubled_algebroids.poly import (
    DoubledIndex,
    ExprError,
    PolyExpr,
    Var,
    eta_pairing,
    parse_expr,
)

D1 = DoubledIndex("x", 1)
D1T = DoubledIndex("xt", 1)


def rand_poly(rng, dim=2, params=3, max_terms=5, max_deg=3, allow_fraction=True):
    vars_ = [Var("x", m) for m in range(1, dim + 1)] + [Var("xt", m) for m in range(1, dim + 1)]
    vars_ += [Var("p", i) for i in range(1, params + 1)]
    total = PolyExpr.zero()
    for _ in range(rng.randrange(max_terms + 1)):
        coeff = rng.randrange(-4, 5)
        if allow_fraction and rng.random() < 0.3:
            coeff = Fraction(coeff, rng.choice([2, 3, 4]))
        term = PolyExpr.const(coeff)
        for _ in range(rng.randrange(max_deg + 1)):
            term = term * PolyExpr.variable(rng.choice(vars_))
        total = total + term
    return total


# -- parsing -------------------------------------------------------------


def test_parse_zero():
    assert parse_expr("0", 3).is_zero()


def test_parse_mixed_terms():
    p = parse_expr("x1*xt1 - 1/2", 1)
    assert p == PolyExpr.coord(1) * PolyExpr.dual(1) - PolyExpr.const(Fraction(1, 2))


def test_parse_binomial_square():
    p = parse_expr("(x1+xt2)^2", 2)
    x1, xt2 = PolyExpr.coord(1), PolyExpr.dual(2)
    assert p == x1 * x1 + (x1 * xt2).scaled(2) + xt2 * xt2


def test_parse_parameters_and_rationals():
    p = parse_expr("3/4*p2*x1 - p1^2", 2, params=2)
    expected = (PolyExpr.param(2) * PolyExpr.coord(1)).scaled(Fraction(3, 4)) - (
        PolyExpr.param(1) * PolyExpr.param(1)
    )
    assert p == expected


def test_parse_unary_minus_and_nesting():
    assert parse_expr("-x1 + (2 - (x1 - 1))", 1) == PolyExpr.const(3) - PolyExpr.coord(1).scaled(2)


def test_parse_nesting_depth_limit():
    assert parse_expr("(" * 100 + "x1" + ")" * 100, 1) == PolyExpr.coord(1)
    with pytest.raises(ExprError, match="nested deeper than 100") as err:
        parse_expr("(" * 101 + "x1" + ")" * 101, 1)
    assert err.value.position == 100


def test_parse_syntax_error_position():
    with pytest.raises(ExprError) as err:
        parse_expr("x1 + * 2", 1)
    assert err.value.position == 5


def test_parse_index_out_of_range():
    with pytest.raises(ExprError, match="out of range"):
        parse_expr("x0", 2)
    with pytest.raises(ExprError, match="out of range"):
        parse_expr("x3", 2)
    with pytest.raises(ExprError, match="parameter index"):
        parse_expr("p1", 2, params=0)


def test_parse_negative_exponent():
    with pytest.raises(ExprError, match="negative exponent"):
        parse_expr("x1^-2", 1)


def test_parse_rejects_zero_denominator_and_trailing():
    with pytest.raises(ExprError, match="zero denominator"):
        parse_expr("1/0", 1)
    with pytest.raises(ExprError, match="trailing"):
        parse_expr("x1 x1", 1)


def test_parse_power_degree_guard():
    with pytest.raises(ExprError, match="total degree"):
        parse_expr("x1^5000", 1)


def test_roundtrip_fixed_point():
    rng = random.Random(7)
    for _ in range(60):
        p = rand_poly(rng)
        text = str(p)
        again = parse_expr(text, 2, params=3)
        assert again == p
        assert str(again) == text


# -- ring laws ------------------------------------------------------------


def test_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(40):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a - a == PolyExpr.zero()
        assert a * PolyExpr.one() == a
        assert a * PolyExpr.zero() == PolyExpr.zero()


def test_pow_matches_repeated_multiplication():
    rng = random.Random(3)
    for _ in range(10):
        a = rand_poly(rng, max_terms=3, max_deg=2)
        assert a ** 3 == a * a * a
        assert a ** 0 == PolyExpr.one()


def test_canonical_equality_across_construction_orders():
    x1, xt1 = PolyExpr.coord(1), PolyExpr.dual(1)
    left = (x1 + xt1) * (x1 - xt1)
    right = x1 * x1 - xt1 * xt1
    assert left == right
    assert hash(left) == hash(right)


# -- calculus --------------------------------------------------------------


def test_partial_monomial_rule():
    f = PolyExpr.coord(1) * PolyExpr.dual(1)
    assert f.partial(D1) == PolyExpr.dual(1)
    assert f.partial(D1T) == PolyExpr.coord(1)


def test_partial_kills_constants_and_parameters():
    c = PolyExpr.const(Fraction(5, 3)) + PolyExpr.param(2) * PolyExpr.param(2)
    for index in (D1, D1T, DoubledIndex("x", 4)):
        assert c.partial(index).is_zero()


def test_mixed_partials_commute():
    f = parse_expr("x1^2*xt2", 2)
    assert f.partial(D1).partial(DoubledIndex("xt", 2)) == f.partial(DoubledIndex("xt", 2)).partial(D1)
    rng = random.Random(23)
    indices = [DoubledIndex(k, m) for k in ("x", "xt") for m in (1, 2)]
    for _ in range(20):
        g = rand_poly(rng)
        for a in indices:
            for b in indices:
                assert g.partial(a).partial(b) == g.partial(b).partial(a)


def test_partial_is_a_derivation():
    rng = random.Random(5)
    for _ in range(20):
        f, g = rand_poly(rng), rand_poly(rng)
        for index in (D1, DoubledIndex("xt", 2)):
            assert (f * g).partial(index) == f.partial(index) * g + f * g.partial(index)


# -- gradient pairing -------------------------------------------------------


def test_eta_pairing_conjugate_pair():
    assert eta_pairing(PolyExpr.coord(1), PolyExpr.dual(1)) == PolyExpr.one()


def test_eta_pairing_unpaired_directions():
    assert eta_pairing(PolyExpr.coord(1), PolyExpr.coord(2)).is_zero()


def test_eta_pairing_quadratic_example():
    # hand expansion: f = x1*xt1 pairs with itself to
    # dx(f) * dxt(f) + dxt(f) * dx(f) = xt1*x1 + x1*xt1 = 2*x1*xt1
    f = PolyExpr.coord(1) * PolyExpr.dual(1)
    assert eta_pairing(f, f) == (PolyExpr.coord(1) * PolyExpr.dual(1)).scaled(2)


def test_eta_pairing_symmetric():
    rng = random.Random(13)
    for _ in range(20):
        f, g = rand_poly(rng), rand_poly(rng)
        assert eta_pairing(f, g) == eta_pairing(g, f)


# -- substitution ------------------------------------------------------------


def test_subs_params_and_coords():
    p = parse_expr("p1*x1 + p2*xt1 + 2", 1, params=2)
    q = p.subs_params({1: 1, 2: 0})
    assert q == PolyExpr.coord(1) + PolyExpr.const(2)
    r = q.subs_coords({Var("x", 1): 3})
    assert r.as_rational() == 5


def test_subs_coords_partial_substitution():
    p = parse_expr("x1*xt1^2", 1)
    q = p.subs_coords({Var("xt", 1): Fraction(1, 2)})
    assert q == PolyExpr.coord(1).scaled(Fraction(1, 4))


@pytest.mark.xfail(
    strict=True,
    reason="subs_params and subs_coords read the numerators and drop the shared "
    "denominator, so FAIL witnesses print a wrong value (golden-mini's C2 reads 1, "
    "not 1/2); mending it changes recorded reports, so it waits for their re-record",
)
def test_subs_keeps_the_shared_denominator():
    half = Fraction(1, 2)
    p = (PolyExpr.param(1) + PolyExpr.coord(1) * PolyExpr.param(2)).scaled(half)
    assert p.subs_params({1: 0}) == (PolyExpr.coord(1) * PolyExpr.param(2)).scaled(half)
    assert p.subs_coords({Var("x", 1): 1}) == (PolyExpr.param(1) + PolyExpr.param(2)).scaled(half)


def test_doubled_index_flat_roundtrip():
    for dim in (1, 2, 3):
        for m in range(1, 2 * dim + 1):
            idx = DoubledIndex.from_flat(m, dim)
            assert idx.flat(dim) == m
            assert idx.swapped().swapped() == idx
    with pytest.raises(ValueError):
        DoubledIndex.from_flat(0, 2)
    with pytest.raises(ValueError):
        DoubledIndex.from_flat(5, 2)
