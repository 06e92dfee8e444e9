"""Mechanical check of the order table behind the generic proofs.

``axioms.JET_ORDER`` says that each generic residual is, in every input,
a differential operator of order at most k, so degree-k generic data
decides it for data of any degree.  In Grothendieck's algebraic sense
(EGA IV 16.8) an operator P has order at most k in an input exactly when,
for every k+1 coordinate functions c_0..c_k (repeats allowed), the
(k+1)-fold commutator [...[[P, c_0], c_1]..., c_k] with multiplication by
them vanishes.  Expanded, that commutator applied to u is

    sum over subsets S of {c_0..c_k} of
        (-1)^(k+1-|S|) * (product of the c not in S) * P((product of S) * u)

and each test below computes it on generic degree-1 inputs, for every
input slot and every multiset of k+1 coordinates that the slot's
admissibility allows.

Degree-1 inputs suffice: every residual applies at most two first-order
operations in a row to an input (a bracket, D, a differential or an anchor
derivative, each of order 1), so it has order at most 2, and a (k+1)-fold
commutator of it with k >= 1 has order at most 1.  Generic degree-1 data
takes every 1-jet at every point, so such a commutator that vanishes on it
vanishes on all data.
"""

import inspect
import itertools
import json
from pathlib import Path

import pytest

from doubled_algebroids.algebroid import (
    E,
    ESTAR,
    FrameAlgebroid,
    VectorField,
    _lie_algebroid_residuals,
    d_differential,
)
from doubled_algebroids.axioms import (
    JET_ORDER,
    _axiom_residual,
    _bianchi_comparison_residual,
    _decide,
    _derivation_residual,
    _flux_frame_type,
    _flux_three_form,
    _generic_section,
    _jac_f_condition_residual,
    _report,
    _strong_fn_residual,
    _strong_part_residual,
)
from doubled_algebroids.cli import parse_scenario
from doubled_algebroids.doubled import DoubledRealization, FluxTensor
from doubled_algebroids.generic import _Allocator, _generic_poly
from doubled_algebroids.poly import KIND_X, DoubledIndex, PolyExpr, coordinate_vars

ZERO = PolyExpr.zero()
ONE = PolyExpr.one()
X1, XT1 = PolyExpr.coord(1), PolyExpr.dual(1)
SCENARIOS = Path(__file__).parent / "fixtures" / "scenarios"


def _times(value, c: PolyExpr):
    return value * c if isinstance(value, PolyExpr) else value.scaled(c)


def _product(polys) -> PolyExpr:
    out = ONE
    for p in polys:
        out = out * p
    return out


def _difference(a: dict, b: dict, scale=1) -> dict:
    """a - scale * b, componentwise by label."""
    return {key: a.get(key, ZERO) - b.get(key, ZERO).scaled(scale) for key in a.keys() | b.keys()}


def order_violations(residual_fn, inputs: dict, coordinates: dict, order: int) -> list:
    """The (slot, coordinate multiset) pairs whose (order+1)-fold
    commutator with ``residual_fn`` is not the zero polynomial.

    ``coordinates`` maps each slot to the coordinate names it may be
    multiplied by; ``residual_fn`` takes ``inputs`` as keyword arguments.
    A residual component that does not involve a slot is constant in it,
    so the commutators are taken of the part linear in the slot,
    P(u) - P(0); a residual that is not linear in a slot is reported as
    ``(slot, "not multilinear")``.
    """
    violations = []
    for slot, names in coordinates.items():
        coords = [PolyExpr.variable(v) for v in names]

        def at(factor: PolyExpr) -> dict:
            return dict(residual_fn(**{**inputs, slot: _times(inputs[slot], factor)}))

        at_zero = at(ZERO)
        values = {}  # sub-multiset of coordinate positions -> P(product * u) - P(0)

        def value(sub):
            if sub not in values:
                values[sub] = _difference(at(_product(coords[i] for i in sub)), at_zero)
            return values[sub]

        doubled = _difference(at(PolyExpr.const(2)), at_zero)
        if any(not poly.is_zero() for poly in _difference(doubled, value(()), 2).values()):
            violations.append((slot, "not multilinear"))
        for multiset in itertools.combinations_with_replacement(range(len(coords)), order + 1):
            total = {}
            for chosen in itertools.product((False, True), repeat=order + 1):
                inside = tuple(i for i, pick in zip(multiset, chosen) if pick)
                outside = [coords[i] for i, pick in zip(multiset, chosen) if not pick]
                weight = _product(outside)
                if len(outside) % 2:
                    weight = -weight
                for label, poly in value(inside).items():
                    total[label] = total.get(label, ZERO) + poly * weight
            if any(not poly.is_zero() for poly in total.values()):
                violations.append((slot, tuple(str(names[i]) for i in multiset)))
    return violations


def degree_one_inputs(R, residual_fn) -> tuple[dict, dict]:
    """Generic degree-1 inputs for every keyword of ``residual_fn`` (e*:
    sections, f/g: test functions, X/Y and xi/eta: the two parts of
    sections), and the coordinates each may be multiplied by."""
    alloc = _Allocator(1)
    inputs, coordinates = {}, {}
    for name in inspect.signature(residual_fn).parameters:
        if name in ("f", "g"):
            inputs[name] = _generic_poly(R.dim, 1, R.function_constraint, alloc)
            coordinates[name] = R.function_constraint.allowed_vars(R.dim)
            continue
        section = _generic_section(R, 1, alloc)
        inputs[name] = {"X": section.X, "Y": section.X, "xi": section.xi, "eta": section.xi}.get(
            name, section
        )
        coordinates[name] = R.constraint.allowed_vars(R.dim)
    return inputs, coordinates


# -- realizations ----------------------------------------------------------------


def affine_algebroid() -> FrameAlgebroid:
    # rho(e1) = d/dx1, rho(e2) = x1 d/dx1, bracket of the frames = e1
    rows = [(ONE, X1), (ZERO, ZERO), (ZERO, ZERO), (ZERO, ZERO)]
    return FrameAlgebroid(E, 2, rows, {(1, 2, 1): ONE})


def affine_d2() -> DoubledRealization:
    return DoubledRealization(affine_algebroid(), FrameAlgebroid.coordinate(ESTAR, 2))


def sheared_d1() -> DoubledRealization:
    # rho(e1) = d/dx1 + x1 d/dxt1: a coordinate-dependent rank-1 anchor
    return DoubledRealization(
        FrameAlgebroid(E, 1, [(ONE,), (X1,)]), FrameAlgebroid.coordinate(ESTAR, 1)
    )


FLUX_D2 = FluxTensor(2, {(1, 2, 4): X1, (2, 1, 4): -X1, (1, 3, 2): ONE})
FLUX_D1 = FluxTensor(1, {(1, 2, 1): X1, (2, 1, 2): ONE})


def bianchi_case(obstruction_only=False):
    # The comparison vanishes on this one-sided frame, so the twisted Jacobi
    # obstruction it contains, which does not, is also checked on its own.
    def build():
        data = json.loads((SCENARIOS / "htwist-closed-d3.json").read_text(encoding="utf-8"))
        scenario = parse_scenario(data)
        R, F = scenario.realization(), scenario.flux
        frame = _flux_frame_type(R, F)
        algebroid = R.E if frame == "H" else R.Estar
        d_three = d_differential(algebroid, _flux_three_form(R, F, frame))

        def residual(e1, e2, e3):
            if obstruction_only:
                return _jac_f_condition_residual(R, F, e1, e2, e3).components()
            return _bianchi_comparison_residual(R, F, frame, d_three, e1, e2, e3)

        return R, residual

    return build


def axiom_case(axiom_id, realization, flux=None):
    def build():
        R = realization()
        return R, _axiom_residual(R, axiom_id, flux)

    return build


def derivation_case():
    R = affine_d2()

    def residual(X, Y, xi, eta):
        return _derivation_residual(R, X, Y, xi, eta)

    return R, residual


def strong_case(part):
    def build():
        R = affine_d2()
        if part is None:
            return R, _strong_fn_residual

        def residual(f, e):
            return _strong_part_residual(part, f, e)

        return R, residual

    return build


# Each case: (entry of JET_ORDER, builder of (realization, residual)).
CASES = {
    "C1": ("C1", axiom_case("C1", sheared_d1)),
    "C1-flux": ("C1", axiom_case("C1", sheared_d1, FLUX_D1)),
    "C2": ("C2", axiom_case("C2", affine_d2)),
    "C2-flux": ("C2", axiom_case("C2", affine_d2, FLUX_D2)),
    "C3": ("C3", axiom_case("C3", affine_d2)),
    "C3-flux": ("C3", axiom_case("C3", affine_d2, FLUX_D2)),
    "C4": ("C4", axiom_case("C4", affine_d2)),
    "C5": ("C5", axiom_case("C5", affine_d2)),
    "C5-flux": ("C5", axiom_case("C5", affine_d2, FLUX_D2)),
    "derivation": ("derivation", derivation_case),
    "strong-fn": ("strong-fn", strong_case(None)),
    "strong-vec": ("strong-vec", strong_case("X")),
    "strong-form": ("strong-form", strong_case("xi")),
    "bianchi": ("bianchi", bianchi_case()),
    "bianchi-obstruction": ("bianchi", bianchi_case(obstruction_only=True)),
}


def test_every_order_table_entry_has_a_case():
    assert {entry for entry, _ in CASES.values()} == set(JET_ORDER)


@pytest.mark.parametrize("case", sorted(CASES))
def test_residual_has_at_most_its_declared_order(case):
    entry, build = CASES[case]
    R, residual = build()
    inputs, coordinates = degree_one_inputs(R, residual)
    assert order_violations(residual, inputs, coordinates, JET_ORDER[entry]) == []


def test_planted_second_order_term_fails_the_order_one_test():
    R = affine_d2()
    c5 = _axiom_residual(R, "C5", FLUX_D2)
    dx1 = DoubledIndex(KIND_X, 1)

    def mutant(e1, e2, e3):
        [(label, poly)] = c5(e1=e1, e2=e2, e3=e3)
        return [(label, poly + e2.X.comps[0].partial(dx1).partial(dx1))]

    inputs, coordinates = degree_one_inputs(R, mutant)
    assert order_violations(c5, inputs, coordinates, 1) == []
    assert order_violations(mutant, inputs, coordinates, 1) == [("e2", ("x1", "x1"))]


@pytest.mark.parametrize(
    "algebroid",
    [
        affine_algebroid(),
        FrameAlgebroid.zero_anchor(ESTAR, 2, {(1, 2, 1): ONE}),
        # not a Lie algebroid: the order bound holds for any anchor
        FrameAlgebroid(
            E, 2, [(X1 * XT1, ONE), (ZERO, XT1), (ONE, ZERO), (ZERO, X1)], {(1, 2, 2): XT1}
        ),
    ],
    ids=["affine", "solvable-dual", "non-lie"],
)
def test_lie_algebroid_identities_are_first_order(algebroid):
    # validate_lie_algebroid decides these three identities at degree 1
    def residual(X, Y, Z, f):
        return _lie_algebroid_residuals(algebroid, X, Y, Z, f)

    dim, alloc = algebroid.dim, _Allocator(1)
    inputs = {
        name: VectorField(
            algebroid.side, tuple(_generic_poly(dim, 1, None, alloc) for _ in range(dim))
        )
        for name in ("X", "Y", "Z")
    }
    inputs["f"] = _generic_poly(dim, 1, None, alloc)
    coordinates = dict.fromkeys(inputs, coordinate_vars(dim))
    assert order_violations(residual, inputs, coordinates, 1) == []


def test_decide_proves_at_the_jet_degree_and_rebuilds_only_for_a_witness():
    built = []

    def generic(degree):
        built.append(degree)
        alloc = _Allocator(1)
        return {name: _generic_poly(1, degree, None, alloc) for name in ("f", "g")}

    def vanishing(f, g):
        return [("scalar", ZERO)]

    def nonvanishing(f, g):
        return _strong_fn_residual(f, g)

    report = _decide("strong-fn", (), vanishing, generic, 3)
    assert (report.status, report.degree, built) == ("PASS", 3, [1])
    built.clear()
    report = _decide("strong-fn", (), nonvanishing, generic, 3)
    assert (report.status, report.degree, built) == ("FAIL", 3, [1, 3])
    full = generic(3)
    assert report == _report("strong-fn", nonvanishing(**full), full, 3)
