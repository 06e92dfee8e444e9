"""Acceptance suite: one test per criterion, each printing a verdict line.

Everything here is exact: a criterion passes only when the relevant
residual is the zero polynomial (or, for failure criteria, when the
stated witness reproduces the stated nonzero value).
"""

import random
import time
from fractions import Fraction
from pathlib import Path

import oracles
from doubled_algebroids.algebroid import (
    E,
    ESTAR,
    FormField,
    FrameAlgebroid,
    VectorField,
    d_differential,
    interior_product,
)
from doubled_algebroids.axioms import (
    FAIL,
    PASS,
    GenericSectionFamily,
    _generic_section,
    _jac_f_condition_residual,
    check_axiom,
    check_bianchi,
    check_strong_constraint,
    check_twist_conditions,
    classify,
    compute_J1_J2,
    jacobiator,
    quadratic_lie_algebra_check,
    t_scalar,
)
from doubled_algebroids.cli import load_scenario, run
from doubled_algebroids.doubled import (
    Admissibility,
    DoubledRealization,
    DoubledSection,
    FluxTensor,
    D_op,
    c_bracket,
    poisson_bracket,
)
from doubled_algebroids.generic import _Allocator, _generic_poly
from doubled_algebroids.poly import PolyExpr, Var

SCENARIOS = Path(__file__).parent / "fixtures" / "scenarios"
ZERO = PolyExpr.zero()
ONE = PolyExpr.one()
FAM = GenericSectionFamily(degree=2, count=3)


def flat(dim, **kw):
    return DoubledRealization.flat(dim, **kw)


def _verdict(number, ok, message):
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {message}")
    assert ok, message


def test_criterion_1_vaisman_by_double():
    times = {}
    for dim in (1, 2, 3):
        start = time.time()
        R = flat(dim)
        v1 = check_axiom(R, "V1", FAM)
        v2 = check_axiom(R, "V2", FAM)
        label, _ = classify(R, FAM)
        times[dim] = time.time() - start
        assert v1.status == PASS, f"V1 residual not identically zero at dimension {dim}"
        assert v2.status == PASS, f"V2 residual not identically zero at dimension {dim}"
        assert label == "Vaisman", f"expected Vaisman at dimension {dim}, got {label}"
        assert times[dim] < 10.0, f"dimension {dim} took {times[dim]:.1f}s (budget 10s)"
    _verdict(
        1,
        True,
        "V1, V2 identically zero and label Vaisman for D=1,2,3 "
        + "(" + ", ".join(f"D={d}: {t:.1f}s" for d, t in times.items()) + ")",
    )


def test_criterion_2_jacobiator_decomposition():
    for dim in (1, 2):
        R = flat(dim)
        alloc = _Allocator(1)
        e1, e2, e3 = (_generic_section(R, 2, alloc) for _ in range(3))
        residual = jacobiator(R, e1, e2, e3) - D_op(R, t_scalar(R, e1, e2, e3))
        for a, b, c in ((e1, e2, e3), (e2, e3, e1), (e3, e1, e2)):
            j1, j2 = compute_J1_J2(R, a, b, c)
            residual = residual + j1 + j2
        assert residual.is_zero(), f"decomposition residual nonzero at dimension {dim}"
    _verdict(2, True, "Jacobi anomaly decomposition exactly zero for generic degree-2 data, D=1,2")


def test_criterion_3_strong_constraint_reduction():
    for dim in (1, 2):
        R = flat(dim, constraint=Admissibility.x_only(dim))
        statuses = {a: check_axiom(R, a, FAM).status for a in ("C1", "C2", "C3", "C4", "C5")}
        assert set(statuses.values()) == {PASS}, statuses
        label, _ = classify(R, FAM)
        assert label == "Courant"
        alloc = _Allocator(1)
        e1 = _generic_section(R, 2, alloc)
        e2 = _generic_section(R, 2, alloc)
        got = c_bracket(R, e1, e2)
        ox, oxi = oracles.courant_bracket_flat(
            (e1.X.comps, e1.xi.comps), (e2.X.comps, e2.xi.comps), dim
        )
        assert list(got.X.comps) == ox and list(got.xi.comps) == oxi, (
            f"bracket does not reduce termwise to the classical bracket at dimension {dim}"
        )
    _verdict(3, True, "one-leaf data: C1-C5 pass, bracket reduces termwise, label Courant")


def test_criterion_4_relaxed_constraint_ladder():
    unrestricted = flat(2)
    c4 = check_axiom(unrestricted, "C4", FAM)
    assert c4.status == FAIL
    assert c4.witness["inputs"] == {"f": "x1", "g": "xt1"}
    assert c4.residual == "1" and c4.witness["value"] == "1"
    label0, _ = classify(unrestricted, FAM)
    assert label0 == "Vaisman"

    ante = flat(2, function_constraint=Admissibility.x_only(2))
    label1, reports1 = classify(ante, FAM)
    assert label1 == "ante-Courant", label1
    assert check_strong_constraint(ante, "functions", FAM).status == PASS
    assert check_strong_constraint(ante, "vectors", FAM).status == FAIL

    pre = flat(
        2,
        constraint=Admissibility.from_names(["x1", "xt1", "x2"], 2),
        function_constraint=Admissibility.from_names(["x2"], 2),
    )
    label2, _ = classify(pre, FAM)
    assert label2 == "pre-Courant", label2
    for level in ("functions", "vectors", "forms"):
        assert check_strong_constraint(pre, level, FAM).status == PASS
    _verdict(
        4,
        True,
        "C4 fails at (x1, xt1) with residual 1; function-level data gives ante-Courant; "
        "vector/form-level data gives pre-Courant",
    )


def _implications_hold(statuses):
    violations = []
    if statuses.get("C5") == PASS and statuses.get("C3") == FAIL:
        violations.append("C5=>C3")
    if statuses.get("C2") == PASS and statuses.get("C4") == FAIL:
        violations.append("C2=>C4")
    if statuses.get("derivation") == PASS:
        for axiom in ("C1", "C2", "C4"):
            if statuses.get(axiom) == FAIL:
                violations.append(f"derivation=>{axiom}")
    return violations


def test_criterion_5_implication_lattice():
    paths = sorted(SCENARIOS.glob("*.json"))
    assert len(paths) >= 10, "fixture corpus too small"
    all_violations = {}
    for path in paths:
        report = run(load_scenario(str(path)))
        statuses = {entry.check_id: entry.status for entry in report.entries}
        violations = _implications_hold(statuses)
        if violations:
            all_violations[path.name] = violations
    assert not all_violations, all_violations
    _verdict(
        5,
        True,
        f"{len(paths)} scenarios checked: C5=>C3, C2=>C4, derivation=>C1,C2,C4 with zero violations",
    )


def test_criterion_6_poisson_structure():
    # flat gradient form of the bracket on unrestricted data
    R = flat(2)
    alloc = _Allocator(1)
    f = _generic_poly(2, 2, None, alloc)
    g = _generic_poly(2, 2, None, alloc)
    direct = ZERO
    for mu in (1, 2):
        from doubled_algebroids.poly import DoubledIndex

        direct = direct + g.partial(DoubledIndex("xt", mu)) * f.partial(DoubledIndex("x", mu))
    assert poisson_bracket(R, g, f) == direct

    # under the solved constraint the bracket is exactly antisymmetric and
    # exactly Jacobi on generic admissible functions
    for constraint in (
        Admissibility.x_only(2),
        Admissibility.from_names(["x2"], 2),
    ):
        Rc = flat(2, constraint=constraint, function_constraint=constraint)
        alloc = _Allocator(1)
        f, g, h = (_generic_poly(2, 2, constraint, alloc) for _ in range(3))
        antisym = poisson_bracket(Rc, g, f) + poisson_bracket(Rc, f, g)
        assert antisym.is_zero()
        jac = (
            poisson_bracket(Rc, poisson_bracket(Rc, f, g), h)
            + poisson_bracket(Rc, poisson_bracket(Rc, g, h), f)
            + poisson_bracket(Rc, poisson_bracket(Rc, h, f), g)
        )
        assert jac.is_zero()
    _verdict(6, True, "induced bracket matches the gradient form; antisymmetry and Jacobi exact on admissible data")


def _antisym_cases():
    cases = []
    # one-sided 3-index blocks at D=3 and D=4
    cases.append(FluxTensor.h_type(3, {(1, 2, 3): ONE}))
    cases.append(FluxTensor.h_type(3, {(1, 2, 3): PolyExpr.coord(2)}))
    cases.append(FluxTensor.h_type(4, {(1, 2, 3): ONE}))
    cases.append(FluxTensor.h_type(4, {(1, 2, 4): PolyExpr.coord(1)}))
    cases.append(FluxTensor.h_type(4, {(2, 3, 4): PolyExpr.const(-2)}))
    # mirrored block: all lowered slots in the dual block
    r_entries = {}
    for perm, sign in (
        ((1, 2, 3), 1), ((2, 3, 1), 1), ((3, 1, 2), 1),
        ((2, 1, 3), -1), ((1, 3, 2), -1), ((3, 2, 1), -1),
    ):
        a, b, c = perm
        r_entries[(3 + a, 3 + b, c)] = PolyExpr.const(sign)
    cases.append(FluxTensor(3, r_entries))
    # hand-built pairs antisymmetric in the lowered last two slots
    cases.append(FluxTensor(2, {(1, 2, 2): ONE, (1, 4, 4): PolyExpr.const(-1)}))
    cases.append(FluxTensor(2, {(3, 1, 4): ONE, (3, 2, 3): PolyExpr.const(-1)}))
    cases.append(FluxTensor(2, {(2, 1, 1): PolyExpr.coord(1), (2, 3, 3): PolyExpr.coord(1).scaled(-1)}))
    cases.append(FluxTensor(1, {}))
    return cases


def _nonantisym_cases():
    cases = [
        FluxTensor(2, {(1, 2, 4): ONE}),
        FluxTensor(2, {(1, 2, 4): ONE, (1, 4, 2): ONE}),
        FluxTensor(2, {(1, 1, 3): ONE}),
        FluxTensor(2, {(2, 2, 4): PolyExpr.coord(1)}),
        FluxTensor(2, {(1, 3, 1): ONE}),
        FluxTensor(3, {(1, 2, 6): ONE, (1, 3, 5): ONE}),
        FluxTensor(3, {(4, 5, 3): ONE, (4, 6, 2): ONE}),
        FluxTensor(1, {(1, 1, 2): ONE}),
        FluxTensor(1, {(2, 2, 1): ONE}),
        FluxTensor(2, {(1, 2, 2): ONE, (1, 4, 4): ONE}),
    ]
    return cases


def test_criterion_7_twist_suite():
    # 20-case separation for the lowered-slot antisymmetry condition
    good = _antisym_cases()
    bad = _nonantisym_cases()
    assert len(good) + len(bad) == 20
    for F in good:
        R = flat(F.dim)
        v2 = check_twist_conditions(R, F)[0]
        assert v2.status == PASS, f"antisymmetric case misclassified: {F.entries}"
    for F in bad:
        R = flat(F.dim)
        v2 = check_twist_conditions(R, F)[0]
        assert v2.status == FAIL, f"non-antisymmetric case misclassified: {F.entries}"

    # anchor-kernel condition fails exactly for invertible anchor + nonzero twist
    invertible = flat(2)
    degenerate = DoubledRealization(
        FrameAlgebroid.coordinate(E, 2), FrameAlgebroid.zero_anchor(ESTAR, 2)
    )
    nonzero = FluxTensor(2, {(1, 2, 3): ONE, (2, 1, 3): PolyExpr.const(-1)})
    zero = FluxTensor(2, {})
    assert check_twist_conditions(invertible, nonzero)[1].status == FAIL
    assert check_twist_conditions(invertible, zero)[1].status == PASS
    assert check_twist_conditions(degenerate, nonzero)[1].status == PASS

    # one-sided frame: the twisted Jacobi obstruction equals the triple
    # contraction of the derivative, for generic one-leaf sections
    dim = 4
    Rh = DoubledRealization(
        FrameAlgebroid.coordinate(E, dim),
        FrameAlgebroid.zero_anchor(ESTAR, dim),
        constraint=Admissibility.x_only(dim),
    )
    F = FluxTensor.h_type(dim, {(1, 2, 3): PolyExpr.coord(4)})
    alloc = _Allocator(1)
    secs = [_generic_section(Rh, 2, alloc) for _ in range(3)]
    lhs = _jac_f_condition_residual(Rh, F, *secs)
    H = FormField(E, 3, {(1, 2, 3): PolyExpr.coord(4)}, dim=dim)
    contracted = d_differential(Rh.E, H)
    for s in reversed(secs):
        contracted = interior_product(s.X, contracted)
    assert all(c.is_zero() for c in lhs.X.comps)
    assert VectorField(ESTAR, tuple(lhs.xi.comps)) == contracted.as_vector_field()
    report = check_bianchi(Rh, F, GenericSectionFamily(degree=2, count=3))
    assert report.status == FAIL and "matches the triple contraction" in report.detail

    # closed twist classifies as Courant
    scenario = load_scenario(str(SCENARIOS / "htwist-closed-d3.json"))
    closed = run(scenario)
    assert closed.label == "Courant"
    assert {e.check_id: e.status for e in closed.entries}["bianchi"] == PASS
    _verdict(
        7,
        True,
        "20-case twist separation exact; kernel condition tracks anchor invertibility; "
        "obstruction equals the contracted derivative; closed twist classifies Courant",
    )


def test_criterion_8_quadratic_lie_algebra_degeneration():
    abelian = DoubledRealization(
        FrameAlgebroid.zero_anchor(E, 2), FrameAlgebroid.zero_anchor(ESTAR, 2)
    )
    nilpotent = DoubledRealization(
        FrameAlgebroid.zero_anchor(E, 3, {(1, 2, 3): ONE}),
        FrameAlgebroid.zero_anchor(ESTAR, 3),
    )
    for R in (abelian, nilpotent):
        reports = quadratic_lie_algebra_check(R, FAM)
        assert [r.status for r in reports] == [PASS, PASS, PASS], [
            (r.check_id, r.status) for r in reports
        ]
    _verdict(8, True, "zero-anchor degeneration: Jacobi, bilinearity and pairing invariance exact")


def _random_poly(rng, dim, degree):
    vars_ = [Var(k, m) for k in ("x", "xt") for m in range(1, dim + 1)]
    total = ZERO
    for _ in range(rng.randrange(1, 4)):
        coeff = Fraction(rng.randrange(-4, 5), rng.choice([1, 1, 2, 3]))
        term = PolyExpr.const(coeff)
        for _ in range(rng.randrange(degree + 1)):
            term = term * PolyExpr.variable(rng.choice(vars_))
        total = total + term
    return total


def test_criterion_9_oracle_equivalence():
    rng = random.Random(20200814)
    checked = 0
    for _ in range(100):
        dim = rng.choice([1, 2])
        R = flat(dim)
        secs = []
        for _ in range(3):
            secs.append(
                DoubledSection.from_parts(
                    tuple(_random_poly(rng, dim, 2) for _ in range(dim)),
                    tuple(_random_poly(rng, dim, 2) for _ in range(dim)),
                )
            )
        e1, e2, e3 = secs
        got = c_bracket(R, e1, e2)
        ox, oxi = oracles.c_bracket_flat(
            (e1.X.comps, e1.xi.comps), (e2.X.comps, e2.xi.comps), dim
        )
        assert list(got.X.comps) == ox and list(got.xi.comps) == oxi
        j1, j2 = compute_J1_J2(R, e1, e2, e3)
        o1x, o1xi = oracles.j1_flat(
            (e1.X.comps, e1.xi.comps), (e2.X.comps, e2.xi.comps), (e3.X.comps, e3.xi.comps), dim
        )
        o2x, o2xi = oracles.j2_flat(
            (e1.X.comps, e1.xi.comps), (e2.X.comps, e2.xi.comps), (e3.X.comps, e3.xi.comps), dim
        )
        assert list(j1.X.comps) == o1x and list(j1.xi.comps) == o1xi
        assert list(j2.X.comps) == o2x and list(j2.xi.comps) == o2xi
        checked += 1
    assert checked == 100
    _verdict(9, True, "engine agrees exactly with the independent expander on 100 random instances")
