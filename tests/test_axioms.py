import random
from dataclasses import replace

import pytest

import oracles
from doubled_algebroids import axioms
from doubled_algebroids.algebroid import (
    E,
    ESTAR,
    FormField,
    FrameAlgebroid,
    d_differential,
)
from doubled_algebroids.axioms import (
    CHECKS,
    FAIL,
    PASS,
    RESIDUALS,
    SKIPPED,
    GenericSectionFamily,
    _decide,
    _generic_section,
    check_anchor_antisymmetry,
    check_axiom,
    check_bianchi,
    check_derivation_condition,
    check_strong_constraint,
    check_twist_conditions,
    classify,
    compute_J1_J2,
    generic_functions,
    generic_sections,
    jacobiator,
    parameter_count,
    quadratic_lie_algebra_check,
    t_scalar,
)
from doubled_algebroids.doubled import (
    Admissibility,
    DoubledRealization,
    DoubledSection,
    FluxTensor,
    D_op,
    c_bracket,
    pairing,
)
from doubled_algebroids.generic import _Allocator
from doubled_algebroids.poly import KIND_X, DoubledIndex, PolyExpr, Var, poly_sum

ZERO = PolyExpr.zero()
ONE = PolyExpr.one()
FAM = GenericSectionFamily(degree=2, count=3)


def flat(dim, **kw):
    return DoubledRealization.flat(dim, **kw)


def dual_zero(dim, constraint=None):
    return DoubledRealization(
        FrameAlgebroid.coordinate(E, dim),
        FrameAlgebroid.zero_anchor(ESTAR, dim),
        constraint=constraint,
    )


def sec(dim, xs=(), xis=()):
    X = [ZERO] * dim
    xi = [ZERO] * dim
    for i, p in xs:
        X[i - 1] = p
    for i, p in xis:
        xi[i - 1] = p
    return DoubledSection.from_parts(tuple(X), tuple(xi))


# -- Jacobi anomaly ------------------------------------------------------------


def test_jacobiator_constant_sections_vanish():
    R = flat(2)
    e1, e2 = sec(2, xs=[(1, ONE)]), sec(2, xs=[(2, ONE)])
    e3 = sec(2, xis=[(1, ONE)])
    assert jacobiator(R, e1, e2, e3).is_zero()
    assert t_scalar(R, e1, e2, e3).is_zero()


def test_jacobiator_anomaly_frozen_value():
    # frozen by hand expansion of all eight bracket terms
    R = flat(1)
    e1 = sec(1, xs=[(1, PolyExpr.dual(1))])
    e2 = sec(1, xis=[(1, PolyExpr.coord(1))])
    e3 = sec(1, xs=[(1, ONE)])
    resid = jacobiator(R, e1, e2, e3) - D_op(R, t_scalar(R, e1, e2, e3))
    assert str(resid.X.comps[0]) == "1/2"
    assert resid.xi.comps[0].is_zero()


def test_jacobiator_matches_anomaly_potential_on_one_leaf():
    R = flat(2, constraint=Admissibility.x_only(2))
    alloc = _Allocator(1)
    e1, e2, e3 = (_generic_section(R, 2, alloc) for _ in range(3))
    resid = jacobiator(R, e1, e2, e3) - D_op(R, t_scalar(R, e1, e2, e3))
    assert resid.is_zero()


def test_obstruction_sections_vanish_on_one_leaf_and_trivial_dual():
    for R in (flat(2, constraint=Admissibility.x_only(2)), dual_zero(2)):
        alloc = _Allocator(1)
        e1, e2, e3 = (_generic_section(R, 2, alloc) for _ in range(3))
        j1, j2 = compute_J1_J2(R, e1, e2, e3)
        assert j1.is_zero()
        assert j2.is_zero()


def test_decomposition_identity_generic_small():
    R = flat(1)
    alloc = _Allocator(1)
    e1, e2, e3 = (_generic_section(R, 2, alloc) for _ in range(3))
    resid = jacobiator(R, e1, e2, e3) - D_op(R, t_scalar(R, e1, e2, e3))
    for a, b, c in ((e1, e2, e3), (e2, e3, e1), (e3, e1, e2)):
        j1, j2 = compute_J1_J2(R, a, b, c)
        resid = resid + j1 + j2
    assert resid.is_zero()


def test_obstructions_match_flat_oracle():
    rng = random.Random(31)
    for dim in (1, 2):
        R = flat(dim)
        for _ in range(6):
            secs = []
            for _ in range(3):
                alloc_vals = [
                    PolyExpr.const(rng.randrange(-2, 3)) * PolyExpr.variable(
                        Var(rng.choice(["x", "xt"]), rng.randrange(1, dim + 1))
                    )
                    for _ in range(2 * dim)
                ]
                secs.append(
                    DoubledSection.from_parts(tuple(alloc_vals[:dim]), tuple(alloc_vals[dim:]))
                )
            e1, e2, e3 = secs
            j1, j2 = compute_J1_J2(R, e1, e2, e3)
            o1x, o1xi = oracles.j1_flat(
                (e1.X.comps, e1.xi.comps), (e2.X.comps, e2.xi.comps), (e3.X.comps, e3.xi.comps), dim
            )
            o2x, o2xi = oracles.j2_flat(
                (e1.X.comps, e1.xi.comps), (e2.X.comps, e2.xi.comps), (e3.X.comps, e3.xi.comps), dim
            )
            assert list(j1.X.comps) == o1x and list(j1.xi.comps) == o1xi
            assert list(j2.X.comps) == o2x and list(j2.xi.comps) == o2xi


# -- axiom checks ----------------------------------------------------------------


def test_axiom_checks_flat_unrestricted():
    R = flat(2)
    assert check_axiom(R, "C3", FAM).status == PASS
    assert check_axiom(R, "C5", FAM).status == PASS
    c4 = check_axiom(R, "C4", FAM)
    assert c4.status == FAIL
    assert c4.witness["inputs"] == {"f": "x1", "g": "xt1"}
    assert c4.witness["value"] == "1"
    assert c4.residual == "1"


def test_axiom_aliases_v1_v2():
    R = flat(1)
    v1 = check_axiom(R, "V1", FAM)
    v2 = check_axiom(R, "V2", FAM)
    assert v1.check_id == "V1" and v1.status == PASS
    assert v2.check_id == "V2" and v2.status == PASS


def test_axiom_checks_one_leaf_all_pass():
    R = flat(1, constraint=Admissibility.x_only(1))
    for axiom in ("C1", "C2", "C3", "C4", "C5"):
        assert check_axiom(R, axiom, FAM).status == PASS


def test_axiom_checks_trivial_dual_anchor():
    R = dual_zero(2)
    for axiom in ("C1", "C2", "C4"):
        assert check_axiom(R, axiom, FAM).status == PASS


def test_axiom_unknown_id():
    with pytest.raises(ValueError, match="unknown axiom"):
        check_axiom(flat(1), "C9", FAM)


def test_axiom_needs_enough_sections():
    with pytest.raises(ValueError, match="sections"):
        check_axiom(flat(1), "C1", GenericSectionFamily(degree=1, count=2))


def test_section_counts_come_from_the_residual_slots():
    sections = {check_id: check.sections for check_id, check in CHECKS.items() if check.sections}
    assert sections == {"classify": 3, "V1": 2, "V2": 3, "C1": 3, "C2": 2, "C3": 2, "C5": 3}


@pytest.mark.parametrize("dim", [1, 2])
def test_axiom_refuses_inadmissible_explicit_sections(dim):
    # C2 holds on the flat x-only pair, and its PASS covers admissible data
    # only.  Probed, this section FAILs C2; proved first, C2 would PASS.
    x_only = Admissibility.x_only(dim)
    R = flat(dim, constraint=x_only, function_constraint=x_only)
    inadmissible = sec(dim, xs=[(1, PolyExpr.dual(1))], xis=[(1, PolyExpr.coord(1))])
    assert check_axiom(R, "C2", FAM).status == PASS
    with pytest.raises(ValueError, match="admissibility mask"):
        check_axiom(R, "C2", FAM, explicit_sections=[inadmissible])


# -- derivation condition ----------------------------------------------------------


def test_derivation_condition_one_leaf_passes():
    assert check_derivation_condition(flat(2, constraint=Admissibility.x_only(2)), FAM).status == PASS


def test_derivation_condition_unrestricted_fails_with_witness():
    report = check_derivation_condition(flat(2), FAM)
    assert report.status == FAIL
    assert report.witness is not None


def test_derivation_condition_trivial_dual_passes():
    assert check_derivation_condition(dual_zero(2), FAM).status == PASS


# -- strong constraint ---------------------------------------------------------------


def test_strong_constraint_levels_by_mask():
    x_only = flat(2, constraint=Admissibility.x_only(2))
    xt_only = flat(2, constraint=Admissibility.xt_only(2))
    unrestricted = flat(2)
    for level in ("functions", "vectors", "forms"):
        assert check_strong_constraint(x_only, level, FAM).status == PASS
        assert check_strong_constraint(xt_only, level, FAM).status == PASS
    fn = check_strong_constraint(unrestricted, "functions", FAM)
    assert fn.status == FAIL
    assert fn.witness["inputs"] == {"f": "x1", "g": "xt1"}
    assert fn.witness["value"] == "1"
    assert check_strong_constraint(unrestricted, "vectors", FAM).status == FAIL
    assert check_strong_constraint(unrestricted, "forms", FAM).status == FAIL


def test_strong_constraint_skipped_for_non_flat_anchors():
    report = check_strong_constraint(dual_zero(2), "functions", FAM)
    assert report.status == SKIPPED
    assert "anchors" in report.detail


def test_strong_constraint_unknown_level():
    with pytest.raises(ValueError, match="level"):
        check_strong_constraint(flat(1), "everything", FAM)


# -- anchor antisymmetry ---------------------------------------------------------------


def test_anchor_antisymmetry_flat_identity_fails_with_offdiagonal_blocks():
    report = check_anchor_antisymmetry(flat(2))
    assert report.status == FAIL
    assert report.witness["component"] == "composite[1,3]"
    # the symmetrised composite equals the block-swap pairing matrix
    from doubled_algebroids.doubled import pi_map

    R = flat(2)
    pi = pi_map(R)
    for m in range(4):
        for n in range(4):
            expect = ONE if abs(m - n) == 2 else ZERO
            assert pi[m][n] + pi[n][m] == expect


def test_anchor_antisymmetry_trivial_dual_passes():
    assert check_anchor_antisymmetry(dual_zero(2)).status == PASS


def test_anchor_antisymmetry_skew_block_passes():
    # dual anchor maps into the x block through a constant antisymmetric
    # matrix; the symmetrised composite cancels exactly
    beta = [[ZERO, ONE], [PolyExpr.const(-1), ZERO]]
    rows = [tuple(beta[0]), tuple(beta[1]), (ZERO, ZERO), (ZERO, ZERO)]
    Estar = FrameAlgebroid(ESTAR, 2, rows)
    R = DoubledRealization(FrameAlgebroid.coordinate(E, 2), Estar)
    assert check_anchor_antisymmetry(R).status == PASS


# -- twist conditions -------------------------------------------------------------------


def test_twist_conditions_h_type():
    R = flat(3)
    F = FluxTensor.h_type(3, {(1, 2, 3): PolyExpr.coord(2)})
    v2, c2 = check_twist_conditions(R, F)
    assert v2.check_id == "twist-V2" and v2.status == PASS
    assert c2.check_id == "twist-C2" and c2.status == FAIL
    assert "determinant is nonzero" in c2.detail


def test_twist_conditions_symmetric_flux_fails_with_triple():
    R = flat(2)
    F = FluxTensor(2, {(1, 2, 4): ONE, (1, 4, 2): ONE})
    v2, _ = check_twist_conditions(R, F)
    assert v2.status == FAIL
    assert v2.witness["component"] == "F[1,2,2]+F[1,2,2]"
    assert v2.witness["value"] == "2"


def test_twist_conditions_annihilated_by_degenerate_anchor():
    # outputs only on the dual part, whose anchor columns vanish here
    R = dual_zero(2)
    F = FluxTensor(2, {(1, 2, 3): ONE, (2, 1, 3): PolyExpr.const(-1)})
    _, c2 = check_twist_conditions(R, F)
    assert c2.status == PASS
    assert "determinant vanishes" in c2.detail


def test_twist_conditions_zero_flux():
    v2, c2 = check_twist_conditions(flat(2), FluxTensor(2, {}))
    assert v2.status == PASS and c2.status == PASS and c2.detail == ""


# -- closedness of the twist ---------------------------------------------------------------


def h_frame(dim, degree=2):
    return DoubledRealization(
        FrameAlgebroid.coordinate(E, dim),
        FrameAlgebroid.zero_anchor(ESTAR, dim),
        constraint=Admissibility.x_only(dim),
        degree=degree,
    )


def test_bianchi_constant_h_passes_and_matches_obstruction():
    R = h_frame(3)
    F = FluxTensor.h_type(3, {(1, 2, 3): ONE})
    report = check_bianchi(R, F, GenericSectionFamily(degree=2, count=3))
    assert report.status == PASS
    assert "matches the triple contraction" in report.detail


def test_bianchi_nonclosed_h_fails_with_unit_component():
    R = h_frame(4, degree=1)
    F = FluxTensor.h_type(4, {(1, 2, 3): PolyExpr.coord(4)})
    report = check_bianchi(R, F, GenericSectionFamily(degree=1, count=3))
    assert report.status == FAIL
    # the fully antisymmetric derivative has the cyclic-rotated component
    # equal to +1: reading the sorted component off the report
    assert report.witness["component"] == "dH[1,2,3,4]"
    assert report.witness["value"] == "-1"
    H = FormField(E, 3, {(1, 2, 3): PolyExpr.coord(4)}, dim=4)
    dH = d_differential(R.E, H)
    assert dH.component((4, 1, 2, 3)) == ONE


def test_bianchi_exact_h_passes():
    R = h_frame(4, degree=1)
    B = FormField(E, 2, {(1, 3): PolyExpr.coord(2), (2, 4): PolyExpr.coord(1) * PolyExpr.coord(2)}, dim=4)
    H = d_differential(R.E, B)
    F = FluxTensor.h_type(4, dict(H.comps))
    report = check_bianchi(R, F, GenericSectionFamily(degree=1, count=3))
    assert report.status == PASS


def test_bianchi_r_frame():
    Rr = DoubledRealization(
        FrameAlgebroid.zero_anchor(E, 3),
        FrameAlgebroid.coordinate(ESTAR, 3),
        constraint=Admissibility.xt_only(3),
    )
    entries = {}
    for perm, sign in (
        ((1, 2, 3), 1), ((2, 3, 1), 1), ((3, 1, 2), 1),
        ((2, 1, 3), -1), ((1, 3, 2), -1), ((3, 2, 1), -1),
    ):
        a, b, c = perm
        entries[(3 + a, 3 + b, c)] = PolyExpr.const(sign)
    F = FluxTensor(3, entries)
    report = check_bianchi(Rr, F, GenericSectionFamily(degree=1, count=3))
    assert report.status == PASS
    assert report.detail.startswith("R-frame")


def test_bianchi_mixed_flux_skipped():
    R = flat(2)
    F = FluxTensor(2, {(1, 3, 2): ONE})
    report = check_bianchi(R, F, FAM)
    assert report.status == SKIPPED
    assert "one-sided" in report.detail


def test_bianchi_non_antisymmetric_block_skipped():
    R = h_frame(3)
    F = FluxTensor(3, {(1, 2, 6): ONE})  # lowered block not totally antisymmetric
    report = check_bianchi(R, F, FAM)
    assert report.status == SKIPPED
    assert "not totally antisymmetric" in report.detail


def test_twisted_anomaly_potential_decomposition():
    # the anomaly potential of the twisted bracket is the untwisted one
    # plus one third of the cyclic pairing with the double contraction
    R = flat(2)
    F = FluxTensor(2, {(1, 2, 2): ONE, (1, 4, 4): PolyExpr.const(-1), (3, 1, 3): PolyExpr.coord(1)})
    alloc = _Allocator(1)
    e1, e2, e3 = (_generic_section(R, 1, alloc) for _ in range(3))
    twisted = t_scalar(R, e1, e2, e3, flux=F)
    from doubled_algebroids.doubled import flux_contraction
    from fractions import Fraction

    correction = (
        pairing("+", flux_contraction(F, e1, e2), e3)
        + pairing("+", flux_contraction(F, e2, e3), e1)
        + pairing("+", flux_contraction(F, e3, e1), e2)
    ).scaled(Fraction(1, 3))
    assert twisted == t_scalar(R, e1, e2, e3) + correction


# -- classification --------------------------------------------------------------------------


def test_classify_flat_unrestricted_is_vaisman():
    label, reports = classify(flat(2), FAM)
    assert label == "Vaisman"
    statuses = {r.check_id: r.status for r in reports}
    assert statuses == {"C1": FAIL, "C2": FAIL, "C3": PASS, "C4": FAIL, "C5": PASS}


def test_classify_one_leaf_is_courant():
    label, _ = classify(flat(2, constraint=Admissibility.x_only(2)), FAM)
    assert label == "Courant"


def test_classify_trivial_dual_is_courant():
    label, _ = classify(dual_zero(2), FAM)
    assert label == "Courant"


def test_classify_function_level_mask_is_ante_courant():
    R = flat(2, function_constraint=Admissibility.x_only(2))
    label, _ = classify(R, FAM)
    assert label == "ante-Courant"


def test_classify_section_function_split_mask_is_pre_courant():
    R = flat(
        2,
        constraint=Admissibility.from_names(["x1", "xt1", "x2"], 2),
        function_constraint=Admissibility.from_names(["x2"], 2),
    )
    label, _ = classify(R, FAM)
    assert label == "pre-Courant"


def test_classify_broken_twist_is_not_vaisman():
    R = flat(2)
    F = FluxTensor(2, {(1, 2, 4): ONE, (1, 4, 2): ONE})
    label, reports = classify(R, FAM, flux=F)
    assert label == "not-Vaisman"
    statuses = {r.check_id: r.status for r in reports}
    assert statuses["C5"] == FAIL
    assert statuses["C3"] == PASS


def test_v1_v2_hold_for_exotic_validated_pairs():
    # the two weak axioms are theorems of the double for any validated
    # pair; exercise them far from the flat chart: a coordinate-dependent
    # anchor with a structure function on one side, and a solvable set of
    # constants on the other
    rows = [(ONE, PolyExpr.coord(1)), (ZERO, ZERO), (ZERO, ZERO), (ZERO, ZERO)]
    affine = FrameAlgebroid(E, 2, rows, {(1, 2, 1): ONE})
    paired_with_dual = DoubledRealization(affine, FrameAlgebroid.coordinate(ESTAR, 2))
    assert check_axiom(paired_with_dual, "V1", FAM).status == PASS
    assert check_axiom(paired_with_dual, "V2", FAM).status == PASS
    label, _ = classify(paired_with_dual, FAM)
    assert label == "Vaisman"

    solvable_dual = FrameAlgebroid.zero_anchor(ESTAR, 2, {(1, 2, 1): ONE})
    mixed = DoubledRealization(affine, solvable_dual)
    assert check_axiom(mixed, "V1", FAM).status == PASS
    assert check_axiom(mixed, "V2", FAM).status == PASS
    # the dual differential kills functions here, so the gradient pairing
    # axiom comes for free while the anchor homomorphism still fails
    label2, reports2 = classify(mixed, FAM)
    assert label2 == "ante-Courant"
    assert {r.check_id: r.status for r in reports2}["C4"] == PASS


def test_label_lattice_over_all_status_combinations():
    from doubled_algebroids.axioms import CLASSIFICATION_LABELS, label_from_statuses

    axioms = ("C1", "C2", "C3", "C4", "C5")
    seen = set()
    for bits in range(32):
        passed = {a for i, a in enumerate(axioms) if bits >> i & 1}
        label, suspicious = label_from_statuses(passed)
        seen.add(label)
        assert label in CLASSIFICATION_LABELS
        # the base requirement and the family towers
        if label != "not-Vaisman":
            assert {"C3", "C5"} <= passed
        if label == "Courant":
            assert passed >= set(axioms)
        if label == "pre-Courant":
            assert {"C2", "C4"} <= passed and "C1" not in passed
        if label == "ante-Courant":
            assert "C4" in passed and "C2" not in passed and "C1" not in passed
        if label == "Vaisman":
            assert not ({"C1", "C4"} & passed)
        if label == "Jacobi-Vaisman":
            assert "C1" in passed and "C4" not in passed
        if label == "Jacobi-ante-Courant":
            assert {"C1", "C4"} <= passed and "C2" not in passed
        # the doubled construction can never produce the Jacobi variants
        assert suspicious == ("C1" in passed and bool({"C2", "C4"} - passed))
    assert seen == set(CLASSIFICATION_LABELS)


def test_explicit_probe_sections_do_not_leak_into_other_calls():
    x1 = PolyExpr.coord(1)
    cubic = DoubledSection.from_parts((x1 * x1 * x1,), (ZERO,))
    R = flat(1, constraint=Admissibility.x_only(1))
    with_probe = check_axiom(R, "C1", GenericSectionFamily(degree=2, count=3), explicit_sections=[cubic])
    plain = check_axiom(R, "C1", GenericSectionFamily(degree=2, count=3))
    assert with_probe.status == PASS and plain.status == PASS


def test_classify_stable_under_family_enlargement():
    realizations = [
        flat(2),
        flat(2, constraint=Admissibility.x_only(2)),
        flat(2, function_constraint=Admissibility.x_only(2)),
    ]
    for R in realizations:
        _, reports_k = classify(
            DoubledRealization.flat(
                2, constraint=R.constraint, function_constraint=R.function_constraint
            ),
            GenericSectionFamily(degree=1, count=3),
        )
        _, reports_k2 = classify(
            DoubledRealization.flat(
                2, constraint=R.constraint, function_constraint=R.function_constraint
            ),
            GenericSectionFamily(degree=2, count=4),
        )
        status_k = {r.check_id: r.status for r in reports_k}
        status_k2 = {r.check_id: r.status for r in reports_k2}
        for axiom in status_k:
            if status_k[axiom] == FAIL:
                assert status_k2[axiom] == FAIL


# -- quadratic degeneration --------------------------------------------------------------------


def test_quadratic_checks_abelian():
    R = DoubledRealization(FrameAlgebroid.zero_anchor(E, 2), FrameAlgebroid.zero_anchor(ESTAR, 2))
    reports = quadratic_lie_algebra_check(R, FAM)
    assert [r.status for r in reports] == [PASS, PASS, PASS]


def test_quadratic_checks_heisenberg_with_abelian_dual():
    R = DoubledRealization(
        FrameAlgebroid.zero_anchor(E, 3, {(1, 2, 3): ONE}),
        FrameAlgebroid.zero_anchor(ESTAR, 3),
    )
    reports = quadratic_lie_algebra_check(R, FAM)
    assert {r.check_id: r.status for r in reports} == {
        "quadratic-jacobi": PASS,
        "quadratic-bilinearity": PASS,
        "quadratic-ad-invariance": PASS,
    }


def test_quadratic_check_rejects_nonzero_anchor():
    with pytest.raises(ValueError, match="anchors"):
        quadratic_lie_algebra_check(flat(2), FAM)


def test_quadratic_check_rejects_varying_structure():
    R = DoubledRealization(
        FrameAlgebroid.zero_anchor(E, 3, {(1, 2, 3): PolyExpr.coord(1)}),
        FrameAlgebroid.zero_anchor(ESTAR, 3),
    )
    with pytest.raises(ValueError, match="constant"):
        quadratic_lie_algebra_check(R, FAM)


def test_quadratic_incompatible_pair_matches_direct_double():
    # both sides carry the two-step nilpotent constants; compare the engine
    # Jacobi verdict against a direct expansion of the constant double
    structure = {(1, 2, 3): ONE}
    R = DoubledRealization(
        FrameAlgebroid.zero_anchor(E, 3, structure),
        FrameAlgebroid.zero_anchor(ESTAR, 3, structure),
    )
    reports = {r.check_id: r for r in quadratic_lie_algebra_check(R, FAM)}

    def double_bracket(e1, e2):
        # direct classical-double formula: same-side constants plus the two
        # dual actions, expanded from the structure constants
        def c(i, j, k):
            return R.E.structure_const(i, j, k)

        def ct(i, j, k):
            return R.Estar.structure_const(i, j, k)

        X1, xi1 = e1
        X2, xi2 = e2
        dim = 3
        x_out = []
        for k in range(1, dim + 1):
            total = ZERO
            for i in range(1, dim + 1):
                for j in range(1, dim + 1):
                    total = total + c(i, j, k) * X1[i - 1] * X2[j - 1]
            # coadjoint action of xi on X: -xi_a ct(a, k, m) X^m pattern
            for a in range(1, dim + 1):
                for m in range(1, dim + 1):
                    total = total - xi1[a - 1] * ct(a, k, m) * X2[m - 1]
                    total = total + xi2[a - 1] * ct(a, k, m) * X1[m - 1]
            x_out.append(total)
        xi_out = []
        for k in range(1, dim + 1):
            total = ZERO
            for i in range(1, dim + 1):
                for j in range(1, dim + 1):
                    total = total + ct(i, j, k) * xi1[i - 1] * xi2[j - 1]
            for a in range(1, dim + 1):
                for m in range(1, dim + 1):
                    total = total - X1[a - 1] * c(a, k, m) * xi2[m - 1]
                    total = total + X2[a - 1] * c(a, k, m) * xi1[m - 1]
            xi_out.append(total)
        return x_out, xi_out

    alloc = _Allocator(1)
    e1, e2 = (_generic_section(R, 0, alloc) for _ in range(2))
    got = c_bracket(R, e1, e2)
    ox, oxi = double_bracket((e1.X.comps, e1.xi.comps), (e2.X.comps, e2.xi.comps))
    assert list(got.X.comps) == ox
    assert list(got.xi.comps) == oxi
    # this pair is not a compatible double: the Jacobi identity breaks, while
    # bilinearity and the pairing invariance survive any constant pair
    assert reports["quadratic-jacobi"].status == FAIL
    assert reports["quadratic-bilinearity"].status == PASS
    assert reports["quadratic-ad-invariance"].status == PASS


# -- generic data -----------------------------------------------------------------------------


def test_generic_sections_constant_family_parameter_count():
    R = flat(2)
    family = GenericSectionFamily(degree=0, count=3)
    secs = generic_sections(family, R)
    assert len(secs) == 3
    params = set()
    for s in secs:
        for _, comp in s.components():
            params |= comp.param_indices()
    assert len(params) == 2 * 2 * 3


def test_generic_sections_affine_and_masked():
    R = flat(2, constraint=Admissibility.x_only(2))
    secs = generic_sections(GenericSectionFamily(degree=2, count=2), R)
    for s in secs:
        for _, comp in s.components():
            assert comp.coord_vars() <= {Var("x", 1), Var("x", 2)}
    affine = generic_sections(GenericSectionFamily(degree=1, count=1), flat(1))[0]
    assert affine.X.comps[0].total_degree() == 2  # one parameter times one coordinate


def test_generic_sections_deterministic_and_offset():
    R = flat(1)
    a = generic_sections(GenericSectionFamily(degree=1, count=2, start=1), R)
    b = generic_sections(GenericSectionFamily(degree=1, count=2, start=1), R)
    c = generic_sections(GenericSectionFamily(degree=1, count=2, start=500), R)
    assert [s.components() for s in a] == [s.components() for s in b]
    params_c = set()
    for s in c:
        for _, comp in s.components():
            params_c |= comp.param_indices()
    assert min(params_c) == 500


def test_generic_functions_respect_function_mask():
    R = flat(2, function_constraint=Admissibility.from_names(["x2"], 2))
    (f,) = generic_functions(R, 1, 2)
    assert f.coord_vars() <= {Var("x", 2)}


def test_parameter_count_reserves_the_three_sections_checks_build():
    # D = 3 at degree 5 with 50 sections uses 9,240 parameters, well within
    # the budget, so a large section count must not count against it.
    counts = [
        parameter_count(3, GenericSectionFamily(degree=5, count=n), None, None) for n in (3, 50)
    ]
    assert counts == [9240, 9240]


def test_parameter_budget_guard():
    alloc = _Allocator(1)
    alloc.next_index = 10 ** 6
    with pytest.raises(RuntimeError, match="budget"):
        alloc.fresh()


def test_reports_deterministic():
    a = check_axiom(flat(2), "C4", FAM)
    b = check_axiom(DoubledRealization.flat(2), "C4", FAM)
    assert a.to_json_dict() == b.to_json_dict()


def _first_component(value) -> PolyExpr:
    if isinstance(value, PolyExpr):
        return value
    return value.X.comps[0] if isinstance(value, DoubledSection) else value.comps[0]


def _planted_first_order(R, flux, **inputs):
    # First order in every input and nonzero on degree-1 data: an order-2
    # entry passes the certificate with all its weights, the degree-1 proof
    # fails and the inputs are rebuilt at the family degree.
    dx1 = DoubledIndex(KIND_X, 1)
    return [("planted", poly_sum(_first_component(v).partial(dx1) for v in inputs.values()))]


@pytest.mark.parametrize("degree", [2, 3])
@pytest.mark.parametrize("mask", ["unrestricted", "x-only"])
@pytest.mark.parametrize("check_id", sorted(RESIDUALS))
def test_decide_allocates_within_the_parameter_budget(check_id, mask, degree, monkeypatch):
    # The run checks parameter_count against the budget before it builds
    # any data, so no ordinal _decide allocates may exceed it.
    constraint = Admissibility.x_only(2) if mask == "x-only" else None
    R = flat(2, constraint=constraint, function_constraint=constraint)
    entry = RESIDUALS[check_id]
    monkeypatch.setitem(
        RESIDUALS, check_id, replace(entry, residual=_planted_first_order, probes=lambda *a: ())
    )
    highest, fresh = [], _Allocator.fresh

    def recorded(alloc):
        highest.append(fresh(alloc))
        return highest[-1]

    monkeypatch.setattr(_Allocator, "fresh", recorded)
    family = GenericSectionFamily(degree=degree)
    assert _decide(check_id, R, family).status == FAIL
    assert max(highest) <= parameter_count(2, family, R.constraint, R.function_constraint)


def test_generic_witnesses_do_not_depend_on_the_section_count(monkeypatch):
    # With the batteries empty, each check is decided, and its witness
    # built, on generic data; a count above what a check uses changes nothing.
    monkeypatch.setattr(axioms, "_battery_sections", lambda R: [])
    monkeypatch.setattr(axioms, "_battery_functions", lambda R, admissibility: [])
    for check in (lambda R, fam: check_axiom(R, "C4", fam), check_derivation_condition):
        three, five = (check(flat(2), GenericSectionFamily(degree=2, count=n)) for n in (3, 5))
        assert three.status == FAIL
        assert three == five
