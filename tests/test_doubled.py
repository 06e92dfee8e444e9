import random
from fractions import Fraction

import pytest

import oracles
from doubled_algebroids.algebroid import E, ESTAR, FrameAlgebroid, VectorField
from doubled_algebroids.axioms import _generic_section
from doubled_algebroids.generic import _Allocator, _generic_poly
from doubled_algebroids.doubled import (
    Admissibility,
    DoubledRealization,
    DoubledSection,
    FluxTensor,
    RealizationError,
    D_op,
    c_bracket,
    flux_contraction,
    pairing,
    pi_map,
    poisson_bracket,
    rho_V,
    rho_V_matrix,
    twisted_c_bracket,
)
from doubled_algebroids.poly import PolyExpr, Var, eta_pairing, parse_expr

ZERO = PolyExpr.zero()
ONE = PolyExpr.one()
HALF = Fraction(1, 2)


def flat(dim, **kw):
    return DoubledRealization.flat(dim, **kw)


def sec(dim, xs=(), xis=()):
    X = [ZERO] * dim
    xi = [ZERO] * dim
    for i, p in xs:
        X[i - 1] = p
    for i, p in xis:
        xi[i - 1] = p
    return DoubledSection.from_parts(tuple(X), tuple(xi))


def rand_section(rng, dim, deg=2):
    def poly():
        p = ZERO
        for _ in range(rng.randrange(4)):
            term = PolyExpr.const(Fraction(rng.randrange(-3, 4), rng.choice([1, 1, 2])))
            for _ in range(rng.randrange(deg + 1)):
                kind = rng.choice(["x", "xt"])
                term = term * PolyExpr.variable(Var(kind, rng.randrange(1, dim + 1)))
            p = p + term
        return p

    return DoubledSection.from_parts(
        tuple(poly() for _ in range(dim)), tuple(poly() for _ in range(dim))
    )


# -- pairings ------------------------------------------------------------------


def test_pairing_single_cross_term():
    e1 = sec(2, xs=[(1, ONE)])
    e2 = sec(2, xis=[(1, ONE)])
    assert pairing("+", e1, e2).as_rational() == HALF


def test_pairing_minus_vanishes_on_diagonal():
    rng = random.Random(3)
    for _ in range(10):
        e = rand_section(rng, 2)
        assert pairing("-", e, e).is_zero()


def test_pairing_minus_example():
    e1 = sec(1, xs=[(1, PolyExpr.dual(1))])
    e2 = sec(1, xis=[(1, ONE)])
    assert pairing("-", e1, e2) == PolyExpr.dual(1).scaled(Fraction(-1, 2))


def test_pairing_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        pairing("+", sec(1, xs=[(1, ONE)]), sec(2, xs=[(1, ONE)]))


# -- anchor and gradient section -------------------------------------------------


def test_rho_v_identity_blocks():
    R = flat(2)
    e = sec(2, xs=[(1, ONE)], xis=[(1, ONE)])
    out = rho_V(R, e)
    assert [str(c) for c in out] == ["1", "0", "1", "0"]


def test_rho_v_zero_dual_anchor_kills_forms():
    R = DoubledRealization(FrameAlgebroid.coordinate(E, 2), FrameAlgebroid.zero_anchor(ESTAR, 2))
    e = sec(2, xis=[(1, PolyExpr.coord(1)), (2, ONE)])
    assert all(c.is_zero() for c in rho_V(R, e))


def test_rho_v_matches_block_matrix():
    rng = random.Random(5)
    R = flat(2)
    mat = rho_V_matrix(R)
    for _ in range(6):
        e = rand_section(rng, 2)
        comps = e.doubled_components()
        direct = rho_V(R, e)
        viamat = [
            sum((mat[m][n] * comps[n] for n in range(4)), ZERO) for m in range(4)
        ]
        assert list(direct) == viamat


def test_gradient_section_flat_example():
    R = flat(2)
    out = D_op(R, PolyExpr.coord(1))
    assert all(c.is_zero() for c in out.X.comps)
    assert [str(c) for c in out.xi.comps] == ["1", "0"]
    assert D_op(R, PolyExpr.const(7)).is_zero()


def test_gradient_section_defining_property_generic():
    for R in (flat(2), DoubledRealization(FrameAlgebroid.coordinate(E, 2), FrameAlgebroid.zero_anchor(ESTAR, 2))):
        alloc = _Allocator(1)
        f = _generic_poly(2, 2, None, alloc)
        e = _generic_section(R, 2, alloc)
        lhs = pairing("+", D_op(R, f), e)
        rhs = (R.E.rho_dot(e.X, f) + R.Estar.rho_dot(e.xi, f)).scaled(HALF)
        assert lhs == rhs


# -- the skew bracket --------------------------------------------------------------


def test_bracket_of_constant_frames_vanishes():
    R = flat(2)
    assert c_bracket(R, sec(2, xs=[(1, ONE)]), sec(2, xs=[(2, ONE)])).is_zero()


def test_bracket_mixed_example():
    R = flat(1)
    e1 = sec(1, xs=[(1, PolyExpr.dual(1))])
    e2 = sec(1, xis=[(1, ONE)])
    out = c_bracket(R, e1, e2)
    assert str(out.X.comps[0]) == "-1/2"
    assert out.xi.comps[0].is_zero()


def test_bracket_antisymmetry():
    rng = random.Random(7)
    R = flat(2)
    for _ in range(8):
        e1, e2 = rand_section(rng, 2), rand_section(rng, 2)
        flipped = c_bracket(R, e2, e1)
        assert c_bracket(R, e1, e2) == -flipped
    alloc = _Allocator(1)
    g1, g2 = _generic_section(R, 2, alloc), _generic_section(R, 2, alloc)
    assert c_bracket(R, g1, g2) == -c_bracket(R, g2, g1)


def test_bracket_agrees_with_flat_oracle():
    rng = random.Random(11)
    for dim in (1, 2):
        R = flat(dim)
        for _ in range(12):
            e1, e2 = rand_section(rng, dim), rand_section(rng, dim)
            got = c_bracket(R, e1, e2)
            ox, oxi = oracles.c_bracket_flat(
                (e1.X.comps, e1.xi.comps), (e2.X.comps, e2.xi.comps), dim
            )
            assert list(got.X.comps) == ox
            assert list(got.xi.comps) == oxi


def test_bracket_reduces_to_courant_on_one_leaf():
    # restricting every input to the x leaf leaves exactly the classical
    # bracket of vector fields and one-forms
    R = flat(2, constraint=Admissibility.x_only(2))
    alloc = _Allocator(1)
    e1 = _generic_section(R, 2, alloc)
    e2 = _generic_section(R, 2, alloc)
    got = c_bracket(R, e1, e2)
    ox, oxi = oracles.courant_bracket_flat(
        (e1.X.comps, e1.xi.comps), (e2.X.comps, e2.xi.comps), 2
    )
    assert list(got.X.comps) == ox
    assert list(got.xi.comps) == oxi


def test_leibniz_expansion_by_pure_type():
    # the four pure-type product rules that pin the sign conventions of the
    # mixed derivative actions, each with its half-gradient correction
    R = flat(2)
    alloc = _Allocator(1)
    a = _generic_section(R, 2, alloc)
    b = _generic_section(R, 2, alloc)
    f = _generic_poly(2, 2, None, alloc)
    zero = VectorField.zero(E, 2)
    zero_star = VectorField.zero(ESTAR, 2)
    X1 = DoubledSection(a.X, zero_star)
    X2 = DoubledSection(b.X, zero_star)
    xi1 = DoubledSection(zero, a.xi)
    xi2 = DoubledSection(zero, b.xi)

    def check(e1, e2, anchored, correction):
        lhs = c_bracket(R, e1, e2.scaled(f))
        rhs = c_bracket(R, e1, e2).scaled(f) + e2.scaled(anchored) - D_op(R, f).scaled(correction)
        assert lhs == rhs

    rho_x1 = R.E.rho_dot(a.X, f)
    rho_xi1 = R.Estar.rho_dot(a.xi, f)
    check(X1, X2, rho_x1, ZERO)
    check(X1, xi2, rho_x1, pairing("+", X1, xi2))
    check(xi1, X2, rho_xi1, pairing("+", xi1, X2))
    check(xi1, xi2, rho_xi1, ZERO)


# -- flux twist ---------------------------------------------------------------------


def test_twist_zero_flux_is_plain_bracket():
    R = flat(2)
    F = FluxTensor(2, {})
    rng = random.Random(13)
    for _ in range(5):
        e1, e2 = rand_section(rng, 2), rand_section(rng, 2)
        assert twisted_c_bracket(R, F, e1, e2) == c_bracket(R, e1, e2)


def test_twist_contraction_constant_sections():
    F = FluxTensor.h_type(3, {(1, 2, 3): PolyExpr.const(5)})
    e1 = sec(3, xs=[(1, ONE)])
    e2 = sec(3, xs=[(2, ONE)])
    out = flux_contraction(F, e1, e2)
    assert [str(c) for c in out.xi.comps] == ["0", "0", "5"]
    assert all(c.is_zero() for c in out.X.comps)


def test_twist_contraction_agrees_with_oracle():
    rng = random.Random(17)
    for _ in range(10):
        dim = rng.choice([1, 2])
        entries = {}
        for _ in range(rng.randrange(1, 5)):
            key = tuple(rng.randrange(1, 2 * dim + 1) for _ in range(3))
            entries.setdefault(key, PolyExpr.const(rng.randrange(-3, 4)))
        F = FluxTensor(dim, entries)
        e1, e2 = rand_section(rng, dim), rand_section(rng, dim)
        got = flux_contraction(F, e1, e2)
        ox, oxi = oracles.flux_contraction_flat(
            F.entries, (e1.X.comps, e1.xi.comps), (e2.X.comps, e2.xi.comps), dim
        )
        assert list(got.X.comps) == ox
        assert list(got.xi.comps) == oxi


def test_twisted_bracket_antisymmetric_for_h_type():
    R = flat(3)
    F = FluxTensor.h_type(3, {(1, 2, 3): PolyExpr.coord(1)})
    rng = random.Random(19)
    for _ in range(5):
        e1, e2 = rand_section(rng, 3, deg=1), rand_section(rng, 3, deg=1)
        assert twisted_c_bracket(R, F, e1, e2) == -twisted_c_bracket(R, F, e2, e1)


def test_h_type_requires_distinct_indices():
    with pytest.raises(ValueError, match="distinct"):
        FluxTensor.h_type(2, {(1, 1, 2): ONE})
    with pytest.raises(ValueError, match="out of range"):
        FluxTensor(1, {(3, 1, 1): ONE})


# -- Poisson structure -----------------------------------------------------------------


def test_poisson_flat_bracket_value():
    R = flat(1)
    assert poisson_bracket(R, PolyExpr.dual(1), PolyExpr.coord(1)).as_rational() == 1


def test_poisson_antisymmetry_defect_is_gradient_pairing():
    R = flat(2)
    rng = random.Random(23)
    for _ in range(8):
        f = rand_section(rng, 2).X.comps[0]
        g = rand_section(rng, 2).xi.comps[0]
        defect = poisson_bracket(R, g, f) + poisson_bracket(R, f, g)
        assert defect == eta_pairing(f, g)


def test_poisson_vanishes_without_dual_anchor():
    R = DoubledRealization(FrameAlgebroid.coordinate(E, 2), FrameAlgebroid.zero_anchor(ESTAR, 2))
    alloc = _Allocator(1)
    f = _generic_poly(2, 2, None, alloc)
    g = _generic_poly(2, 2, None, alloc)
    assert poisson_bracket(R, g, f).is_zero()


def test_pi_map_flat_shape():
    R = flat(1)
    pi = pi_map(R)
    assert [[str(c) for c in row] for row in pi] == [["0", "1"], ["0", "0"]]


# -- admissibility ----------------------------------------------------------------------


def test_section_constructor_enforces_mask():
    R = flat(2, constraint=Admissibility.x_only(2))
    good = R.section((PolyExpr.coord(1), ZERO), (ZERO, PolyExpr.coord(2)))
    assert good.X.comps[0] == PolyExpr.coord(1)
    with pytest.raises(RealizationError, match="admissibility"):
        R.section((PolyExpr.dual(1), ZERO), (ZERO, ZERO))


def test_admissibility_mask_parsing():
    adm = Admissibility.from_names(["x1", "xt2"], 2)
    assert adm.allows(parse_expr("x1^2*xt2", 2))
    assert not adm.allows(parse_expr("x2", 2))
    with pytest.raises(RealizationError, match="out of range"):
        Admissibility.from_names(["x3"], 2)
    with pytest.raises(RealizationError, match="not a coordinate"):
        Admissibility.from_names(["p1"], 2)


def test_realization_rejects_invalid_algebroid():
    rows = [[ONE, ZERO], [ZERO, PolyExpr.coord(1)], [ZERO, ZERO], [ZERO, ZERO]]
    bad = FrameAlgebroid(E, 2, rows)
    with pytest.raises(RealizationError, match="anchor-homomorphism"):
        DoubledRealization(bad, FrameAlgebroid.coordinate(ESTAR, 2))


def test_realization_dimension_checks():
    with pytest.raises(RealizationError, match="dimensions"):
        DoubledRealization(FrameAlgebroid.coordinate(E, 2), FrameAlgebroid.coordinate(ESTAR, 1))
    with pytest.raises(RealizationError, match="side"):
        DoubledRealization(FrameAlgebroid.coordinate(ESTAR, 2), FrameAlgebroid.coordinate(ESTAR, 2))
