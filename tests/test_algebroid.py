import itertools
import random

import pytest

from doubled_algebroids import algebroid
from doubled_algebroids.algebroid import (
    E,
    ESTAR,
    FormField,
    FrameAlgebroid,
    ParaComplexStructure,
    SideError,
    ValidationReport,
    VectorField,
    _generic_vector,
    _lie_algebroid_residuals,
    _probe_vectors,
    algebroid_bracket,
    d_differential,
    interior_product,
    lie_derivative,
    nijenhuis,
    schouten,
    tangent_bracket,
    validate_lie_algebroid,
)
from doubled_algebroids.doubled import DoubledRealization
from doubled_algebroids.generic import _Allocator, _generic_poly, witness
from doubled_algebroids.poly import PolyExpr, parse_expr

ZERO = PolyExpr.zero()
ONE = PolyExpr.one()


def coord(dim, side=E):
    return FrameAlgebroid.coordinate(side, dim)


def vec(side, *comps):
    return VectorField(side, tuple(comps))


def rand_vector(rng, A, deg=2):
    def poly():
        p = ZERO
        for _ in range(rng.randrange(4)):
            term = PolyExpr.const(rng.randrange(-3, 4))
            for _ in range(rng.randrange(deg + 1)):
                kind = rng.choice(["x", "xt"])
                term = term * parse_expr(f"{kind}{rng.randrange(1, A.dim + 1)}", A.dim)
            p = p + term
        return p

    return VectorField(A.side, tuple(poly() for _ in range(A.dim)))


def rand_form(rng, A, degree):
    comps = {}
    for idx in itertools.combinations(range(1, A.dim + 1), degree):
        if rng.random() < 0.8:
            comps[idx] = parse_expr(
                f"{rng.randrange(-2, 3)} + {rng.randrange(0, 3)}*x1*xt{A.dim}", A.dim
            )
    return FormField(E if A.side == E else ESTAR, degree, comps, dim=A.dim)


# -- validation -------------------------------------------------------------


def test_validate_coordinate_algebroid():
    report = validate_lie_algebroid(coord(2), degree=2)
    assert report.ok


def test_validate_heisenberg_constants():
    # two-step nilpotent: bracket of the first two frames is the third
    A = FrameAlgebroid.zero_anchor(E, 3, {(1, 2, 3): ONE})
    report = validate_lie_algebroid(A, degree=2)
    assert report.ok


def test_validate_zero_anchor_linear_structure_function():
    # vanishing anchor with one linear structure function: every Jacobi
    # product collapses, so this is a genuine algebroid
    A = FrameAlgebroid.zero_anchor(E, 3, {(1, 2, 3): PolyExpr.coord(1)})
    report = validate_lie_algebroid(A, degree=2)
    assert report.ok


def test_validate_reports_jacobi_failure_with_witness():
    # The probes never bracket three distinct frames, so this Jacobi failure
    # is found on generic data; the anchor defect is found by a probe.  Both
    # phases give the witness shape of the axiom checks.
    jacobi = FrameAlgebroid.zero_anchor(E, 3, {(1, 2, 1): ONE, (2, 3, 2): ONE})
    anchor = FrameAlgebroid(E, 2, [[ONE, ZERO], [ZERO, PolyExpr.coord(1)], [ZERO, ZERO], [ZERO, ZERO]])
    for A, failed, f in ((jacobi, "jacobi", "0"), (anchor, "anchor-homomorphism", "x1*xt1")):
        report = validate_lie_algebroid(A, degree=1)
        assert not report.ok
        assert report.failed == failed
        assert set(report.witness) == {"inputs", "component", "point", "value"}
        assert report.witness["component"].startswith(failed)
        assert set(report.witness["inputs"]) == {"X", "Y", "Z", "f"}
        assert report.witness["inputs"]["f"] == f


def test_validate_reports_anchor_homomorphism_failure():
    rows = [[ONE, ZERO], [ZERO, PolyExpr.coord(1)], [ZERO, ZERO], [ZERO, ZERO]]
    A = FrameAlgebroid(E, 2, rows)
    report = validate_lie_algebroid(A, degree=1)
    assert not report.ok
    assert report.failed == "anchor-homomorphism"


def test_structure_function_canonicalisation():
    A = FrameAlgebroid.zero_anchor(E, 2, {(2, 1, 1): ONE})
    assert A.structure_const(1, 2, 1) == -ONE
    assert A.structure_const(2, 1, 1) == ONE
    with pytest.raises(ValueError, match="repeated"):
        FrameAlgebroid.zero_anchor(E, 2, {(1, 1, 2): ONE})
    with pytest.raises(ValueError, match="conflicting"):
        FrameAlgebroid.zero_anchor(E, 2, {(1, 2, 1): ONE, (2, 1, 1): ONE})


# -- bracket ----------------------------------------------------------------


def test_bracket_constant_frames_vanish():
    A = coord(2)
    assert algebroid_bracket(A, VectorField.basis(E, 2, 1), VectorField.basis(E, 2, 2)).is_zero()


def test_bracket_coordinate_example():
    A = coord(1)
    X = vec(E, PolyExpr.coord(1))
    Y = vec(E, ONE)
    assert algebroid_bracket(A, X, Y) == vec(E, PolyExpr.const(-1))


def test_bracket_heisenberg_structure_term():
    A = FrameAlgebroid.zero_anchor(E, 3, {(1, 2, 3): ONE})
    out = algebroid_bracket(A, VectorField.basis(E, 3, 1), VectorField.basis(E, 3, 2))
    assert out == VectorField.basis(E, 3, 3)


def test_bracket_antisymmetry_random():
    rng = random.Random(2)
    A = coord(2)
    for _ in range(10):
        X, Y = rand_vector(rng, A), rand_vector(rng, A)
        assert algebroid_bracket(A, X, Y) == -algebroid_bracket(A, Y, X)


def test_bracket_side_mismatch():
    A = coord(2)
    with pytest.raises(SideError):
        algebroid_bracket(A, VectorField.basis(ESTAR, 2, 1), VectorField.basis(ESTAR, 2, 2))


# -- differential -------------------------------------------------------------


def test_differential_of_function_is_gradient_row():
    A = coord(2)
    df = d_differential(A, FormField.scalar(E, PolyExpr.coord(1), 2))
    assert df.component((1,)) == ONE
    assert df.component((2,)).is_zero()


def test_differential_squares_to_zero():
    A = coord(2)
    f = parse_expr("x1^2*xt2", 2)
    ddf = d_differential(A, d_differential(A, FormField.scalar(E, f, 2)))
    assert ddf.is_zero()


def test_dual_differential_of_dual_coordinate():
    A = FrameAlgebroid.coordinate(ESTAR, 2)
    df = d_differential(A, FormField.scalar(ESTAR, PolyExpr.dual(1), 2))
    assert df.component((1,)) == ONE
    assert df.component((2,)).is_zero()


def test_differential_degree_cap():
    A = coord(4)
    top = FormField(E, 4, {(1, 2, 3, 4): ONE}, dim=4)
    with pytest.raises(ValueError, match="degree"):
        d_differential(A, top)


def test_differential_with_structure_functions_squares_to_zero():
    A = FrameAlgebroid.zero_anchor(E, 3, {(1, 2, 3): ONE})
    rng = random.Random(8)
    for degree in (0, 1, 2):
        omega = rand_form(rng, A, degree)
        dd = d_differential(A, d_differential(A, omega))
        assert dd.is_zero()


def affine_action_algebroid():
    # non-constant anchor with the matching structure function:
    # rho(e1) = d/dx1, rho(e2) = x1 d/dx1, bracket of the frames = e1
    rows = [
        (ONE, PolyExpr.coord(1)),
        (ZERO, ZERO),
        (ZERO, ZERO),
        (ZERO, ZERO),
    ]
    return FrameAlgebroid(E, 2, rows, {(1, 2, 1): ONE})


def test_affine_action_algebroid_validates():
    assert validate_lie_algebroid(affine_action_algebroid(), degree=2).ok


def probes_first_validation(A, degree):
    """``validate_lie_algebroid`` restated probes first: every probe triple,
    then generic data of ``degree``."""
    probes = _probe_vectors(A)
    f = PolyExpr.coord(1) * PolyExpr.dual(1)
    for X, Y, Z in itertools.product(probes[:4], probes, probes[:3]):
        inputs = {"X": X, "Y": Y, "Z": Z, "f": f}
        found = witness(_lie_algebroid_residuals(A, **inputs), inputs)
        if found is not None:
            break
    else:
        alloc = _Allocator(1)
        X, Y, Z = (_generic_vector(A, degree, alloc) for _ in range(3))
        inputs = {"X": X, "Y": Y, "Z": Z, "f": _generic_poly(A.dim, degree, None, alloc)}
        found = witness(_lie_algebroid_residuals(A, **inputs), inputs)
    if found is None:
        return ValidationReport(ok=True, degree=degree)
    record = found[0]
    failed = record["component"].split("[")[0]
    return ValidationReport(ok=False, failed=failed, witness=record, degree=degree)


VALIDATION_CASES = {
    "coordinate": lambda: coord(2),
    "heisenberg": lambda: FrameAlgebroid.zero_anchor(E, 3, {(1, 2, 3): ONE}),
    "affine-action": affine_action_algebroid,
    "jacobi-failing": lambda: FrameAlgebroid.zero_anchor(E, 3, {(1, 2, 1): ONE, (2, 3, 2): ONE}),
    "anchor-failing": lambda: FrameAlgebroid(
        E, 2, [[ONE, ZERO], [ZERO, PolyExpr.coord(1)], [ZERO, ZERO], [ZERO, ZERO]]
    ),
}


@pytest.mark.parametrize("degree", [0, 1, 2])
@pytest.mark.parametrize("case", sorted(VALIDATION_CASES))
def test_validation_reports_what_probing_first_reports(case, degree):
    expected = probes_first_validation(VALIDATION_CASES[case](), degree)
    assert validate_lie_algebroid(VALIDATION_CASES[case](), degree=degree) == expected
    assert expected.ok == (case not in ("jacobi-failing", "anchor-failing"))


def test_a_valid_algebroid_is_never_probed(monkeypatch):
    def untouchable(A):
        raise AssertionError("a valid algebroid was probed")

    monkeypatch.setattr(algebroid, "_probe_vectors", untouchable)
    for make in (VALIDATION_CASES[case] for case in ("coordinate", "heisenberg", "affine-action")):
        for degree in (1, 2):
            assert validate_lie_algebroid(make(), degree=degree).ok
    R = DoubledRealization.flat(3)
    assert R.E.validation.ok and R.Estar.validation.ok


def test_differential_squares_to_zero_generic_forms():
    # generic parameter-coefficient forms on validated algebroids with
    # constant, vanishing, and coordinate-dependent anchors
    fixtures = [
        coord(2),
        FrameAlgebroid.zero_anchor(E, 3, {(1, 2, 3): ONE}),
        affine_action_algebroid(),
    ]
    for A in fixtures:
        alloc = _Allocator(1)
        for degree in (0, 1, 2):
            comps = {
                idx: _generic_poly(A.dim, 2, None, alloc)
                for idx in itertools.combinations(range(1, A.dim + 1), degree)
            }
            omega = FormField(E, degree, comps, dim=A.dim)
            assert d_differential(A, d_differential(A, omega)).is_zero()


# -- interior product ----------------------------------------------------------


def test_interior_first_slot():
    two_form = FormField(E, 2, {(1, 2): ONE}, dim=2)
    out = interior_product(VectorField.basis(E, 2, 1), two_form)
    assert out.component((2,)) == ONE
    assert out.component((1,)).is_zero()


def test_interior_anticommutes():
    rng = random.Random(4)
    A = coord(3)
    omega = rand_form(rng, A, 2)
    v, w = VectorField.basis(E, 3, 1), VectorField.basis(E, 3, 2)
    left = interior_product(v, interior_product(w, omega)).as_scalar()
    right = interior_product(w, interior_product(v, omega)).as_scalar()
    assert (left + right).is_zero()


def test_interior_nilpotent():
    rng = random.Random(9)
    A = coord(3)
    omega = rand_form(rng, A, 2)
    v = rand_vector(rng, A)
    assert interior_product(v, interior_product(v, omega)).as_scalar().is_zero()


def test_interior_pairs_with_gradient():
    rng = random.Random(6)
    A = coord(2)
    for _ in range(10):
        X = rand_vector(rng, A)
        f = parse_expr("x1*xt2 + 2*x2", 2)
        df = d_differential(A, FormField.scalar(E, f, 2))
        assert interior_product(X, df).as_scalar() == A.rho_dot(X, f)


def test_interior_degree_zero_rejected():
    with pytest.raises(ValueError, match="degree-0"):
        interior_product(VectorField.basis(E, 2, 1), FormField.scalar(E, ONE, 2))


# -- Lie derivative -------------------------------------------------------------


def test_lie_derivative_on_functions():
    from doubled_algebroids.poly import DoubledIndex

    A = coord(2)
    f = parse_expr("x1^2 + xt2*x2", 2)
    out = lie_derivative(A, VectorField.basis(E, 2, 1), FormField.scalar(E, f, 2))
    assert out.as_scalar() == f.partial(DoubledIndex("x", 1))


def test_mixed_lie_derivative_flat_example():
    # constant dual frame acting on xt1 * e_1 gives the first frame vector
    Astar = FrameAlgebroid.coordinate(ESTAR, 2)
    xi = VectorField.basis(ESTAR, 2, 1)
    X = VectorField(E, (PolyExpr.dual(1), ZERO))
    out = lie_derivative(Astar, xi, X.as_form()).as_vector_field()
    assert out == VectorField.basis(E, 2, 1)


def test_lie_derivative_commutes_with_differential():
    rng = random.Random(17)
    A = coord(2)
    for degree in (0, 1):
        omega = rand_form(rng, A, degree)
        v = rand_vector(rng, A)
        left = lie_derivative(A, v, d_differential(A, omega))
        right = d_differential(A, lie_derivative(A, v, omega))
        assert left == right


# -- Schouten action -------------------------------------------------------------


def test_schouten_degree_one_is_bracket():
    rng = random.Random(12)
    A = coord(2)
    for _ in range(8):
        v, w = rand_vector(rng, A), rand_vector(rng, A)
        assert schouten(A, v, w.as_form()).as_vector_field() == algebroid_bracket(A, v, w)


def test_schouten_bivector_example():
    A = coord(2)
    W = FormField(ESTAR, 2, {(1, 2): PolyExpr.coord(1)}, dim=2)
    out = schouten(A, VectorField.basis(E, 2, 1), W)
    assert out.component((1, 2)) == ONE


def test_schouten_derivation_property():
    rng = random.Random(14)
    A = coord(2)
    for _ in range(8):
        X, Y = rand_vector(rng, A), rand_vector(rng, A)
        f = parse_expr("x1 + x2*xt1", 2)
        lhs = schouten(A, X, Y.scaled(f).as_form()).as_vector_field()
        rhs = algebroid_bracket(A, X, Y).scaled(f) + Y.scaled(A.rho_dot(X, f))
        assert lhs == rhs


def test_schouten_degree_cap():
    A = coord(3)
    W = FormField(ESTAR, 3, {(1, 2, 3): ONE}, dim=3)
    with pytest.raises(ValueError, match="degree"):
        schouten(A, VectorField.basis(E, 3, 1), W)


# -- para-complex structure -------------------------------------------------------


def _diag_k(dim):
    rows = []
    for a in range(2 * dim):
        row = [ZERO] * (2 * dim)
        row[a] = ONE if a < dim else PolyExpr.const(-1)
        rows.append(tuple(row))
    return ParaComplexStructure(tuple(rows))


def test_nijenhuis_constant_structure_vanishes():
    K = _diag_k(2)
    rng = random.Random(19)
    A = coord(2)
    for _ in range(6):
        X = tuple(rand_vector(rng, A).comps + rand_vector(rng, A).comps)
        Y = tuple(rand_vector(rng, A).comps + rand_vector(rng, A).comps)
        out = nijenhuis(K, X, Y)
        assert all(c.is_zero() for c in out)


def test_nijenhuis_antisymmetric():
    K = _diag_k(1)
    X = (PolyExpr.coord(1), PolyExpr.dual(1))
    Y = (PolyExpr.dual(1) * PolyExpr.dual(1), ONE)
    nxy = nijenhuis(K, X, Y)
    nyx = nijenhuis(K, Y, X)
    assert all((a + b).is_zero() for a, b in zip(nxy, nyx))
    nxx = nijenhuis(K, X, X)
    assert all(c.is_zero() for c in nxx)


def test_nijenhuis_rejects_non_involution():
    K = ParaComplexStructure(((ONE, ONE), (ZERO, ONE)))
    with pytest.raises(ValueError, match="identity"):
        nijenhuis(K, (ONE, ZERO), (ZERO, ONE))


def test_tangent_bracket_matches_commutator_of_derivations():
    rng = random.Random(21)
    dim = 2
    f = parse_expr("x1*xt2 + x2^2", 2)
    from doubled_algebroids.poly import DoubledIndex

    for _ in range(6):
        u = tuple(
            parse_expr(f"({rng.randrange(-2, 3)})*x1 + ({rng.randrange(-2, 3)})*xt2", 2)
            for _ in range(4)
        )
        v = tuple(
            parse_expr(f"({rng.randrange(-2, 3)})*x2 + ({rng.randrange(-2, 3)})*xt1", 2)
            for _ in range(4)
        )
        w = tangent_bracket(u, v, dim)

        def apply(field, g):
            total = PolyExpr.zero()
            for m in range(1, 2 * dim + 1):
                total = total + field[m - 1] * g.partial(DoubledIndex.from_flat(m, dim))
            return total

        assert apply(w, f) == apply(u, apply(v, f)) - apply(v, apply(u, f))


# -- form storage ------------------------------------------------------------------


def test_formfield_antisymmetric_storage():
    omega = FormField(E, 2, {(2, 1): ONE}, dim=2)
    assert omega.component((1, 2)) == -ONE
    assert omega.component((1, 1)).is_zero()
    with pytest.raises(ValueError, match="duplicate"):
        FormField(E, 2, {(1, 2): ONE, (2, 1): ONE}, dim=2)


def test_formfield_degree_bounds():
    with pytest.raises(ValueError, match="degree"):
        FormField(E, 5, {}, dim=5)
    scalar = FormField.scalar(E, PolyExpr.coord(1), 2)
    assert scalar.as_scalar() == PolyExpr.coord(1)
    with pytest.raises(ValueError, match="degree-1"):
        scalar.as_vector_field()
