"""Mechanical check of the order table behind the generic proofs.

Each entry of ``axioms.RESIDUALS`` declares its residual a
multidifferential operator of total order at most k: counted over all its
inputs together, no term differentiates them more than k times, so
degree-k generic data decides it for data of any degree.  In
Grothendieck's algebraic sense (EGA IV 16.8) that holds exactly when, for
every k+1 pairs (s_0, c_0) .. (s_k, c_k) of an input slot and an
admissible coordinate (repeats allowed, slots mixed), the (k+1)-fold
commutator of P with multiplication of input s_i by c_i vanishes.
Expanded, that commutator is

    sum over subsets S of the k+1 pairs of
        (-1)^(k+1-|S|) * (product of the c not in S)
            * P(each input times the product of its c in S)

and each test below computes it on generic degree-1 inputs, for every
multiset of k+1 pairs.  It keeps only the terms that carry a parameter of
every slot in the multiset: a term that does not involve a slot is
constant in it, no part of a commutator in that slot, and the kept terms
are the part of P linear in each of those slots (a term with two
parameters of one slot is reported as not multilinear).

Degree-1 inputs decide the test.  Each primitive the residuals are made of
has total order at most 1 (the ``primitives`` cases below check it), and
each residual combines at most two of them, nested or paired, so every
residual has total order at most 2.  A commutator with k+1 >= 1 factors
lowers the total order by k+1, to at most 1, so the commutator is of order
at most 1 in each input: its value at a point depends only on the 1-jets
of the inputs there.  Generic degree-1 data takes every 1-jet at every
point, so a commutator that vanishes on it vanishes on all data.  Taking
the commutators one slot at a time would bound only the order in each
input, and miss a term such as d^2(e2) * d^2(e3): it vanishes on degree-1
data and so do its one-slot commutators, but its mixed commutator in
(e2, x1), (e3, x1) does not.
"""

import itertools
import json
from dataclasses import replace
from functools import partial
from pathlib import Path

import pytest

from doubled_algebroids.algebroid import (
    E,
    ESTAR,
    FormField,
    FrameAlgebroid,
    VectorField,
    _lie_algebroid_residuals,
    algebroid_bracket,
    d_differential,
    schouten,
)
from doubled_algebroids import axioms
from doubled_algebroids.axioms import (
    RESIDUALS,
    GenericSectionFamily,
    Residual,
    _decide,
    _first_order_in_every_input,
    _generic_inputs,
    _jac_f_condition_residual,
    _report,
    _slot_coordinates,
    _strong_fn_residual,
)
from doubled_algebroids.cli import parse_scenario
from doubled_algebroids.doubled import (
    Admissibility,
    DoubledRealization,
    FluxTensor,
    D_op,
    c_bracket,
    pairing,
    rho_V_dot,
    twisted_c_bracket,
)
from doubled_algebroids.generic import _Allocator, _generic_poly
from doubled_algebroids.poly import KIND_X, DoubledIndex, PolyExpr, coordinate_vars, poly_sum

ZERO = PolyExpr.zero()
ONE = PolyExpr.one()
X1, XT1 = PolyExpr.coord(1), PolyExpr.dual(1)
DX1 = DoubledIndex(KIND_X, 1)
SCENARIOS = Path(__file__).parent / "fixtures" / "scenarios"


def _times(value, c: PolyExpr):
    return value * c if isinstance(value, PolyExpr) else value.scaled(c)


def _product(polys) -> PolyExpr:
    out = ONE
    for p in polys:
        out = out * p
    return out


def _params(value) -> set:
    """The parameters of one generic input."""
    if isinstance(value, FormField):
        return set().union(*(c.param_indices() for c in value.comps.values()))
    return value.param_indices()


def _involves_all(poly: PolyExpr, param_sets) -> bool:
    """True when some term of ``poly`` carries a parameter from each set."""
    return any(all(not own.isdisjoint(params) for own in param_sets) for _, params in poly.terms)


def order_violations(residual_fn, inputs: dict, coordinates: dict, order: int) -> list:
    """The multisets of order+1 (slot, coordinate) pairs whose commutator
    with ``residual_fn`` is not the zero polynomial, each as a tuple of
    (slot, coordinate name) pairs.

    ``coordinates`` maps each slot to the coordinates it may be multiplied
    by; ``residual_fn`` takes ``inputs`` as keyword arguments.  Only the
    terms carrying a parameter of every slot in the multiset count (see the
    module docstring); a slot of which some term carries two parameters is
    reported as ``(slot, "not multilinear")``.
    """
    pairs = [(slot, var) for slot, variables in coordinates.items() for var in variables]
    params = {slot: _params(inputs[slot]) for slot in coordinates}
    values = {}  # sorted positions in ``pairs`` -> residual with those factors

    def value(inside):
        if inside not in values:
            factors = {}
            for i in inside:
                slot, var = pairs[i]
                factors[slot] = factors.get(slot, ONE) * PolyExpr.variable(var)
            scaled = {slot: _times(inputs[slot], factor) for slot, factor in factors.items()}
            values[inside] = residual_fn(**{**inputs, **scaled})
        return values[inside]

    violations = [
        (slot, "not multilinear")
        for slot, own in params.items()
        if any(sum(p in own for p in ps) > 1 for _, poly in value(()) for _, ps in poly.terms)
    ]
    for multiset in itertools.combinations_with_replacement(range(len(pairs)), order + 1):
        total = {}
        for chosen in itertools.product((False, True), repeat=order + 1):
            inside = tuple(i for i, pick in zip(multiset, chosen) if pick)
            outside = [pairs[i][1] for i, pick in zip(multiset, chosen) if not pick]
            weight = _product(PolyExpr.variable(var) for var in outside)
            if len(outside) % 2:
                weight = -weight
            for label, poly in value(inside):
                total.setdefault(label, []).append(poly * weight)
        involved = [params[slot] for slot in {pairs[i][0] for i in multiset}]
        if any(_involves_all(poly_sum(pieces), involved) for pieces in total.values()):
            violations.append(tuple((pairs[i][0], str(pairs[i][1])) for i in multiset))
    return violations


def generic_inputs(R, slots, degree=1) -> tuple[dict, dict]:
    """Generic inputs of ``degree`` for ``slots``, built by the engine except
    for a ``"bivector"`` slot (a bivector of E), and the coordinates each may
    be multiplied by."""
    alloc = _Allocator(1)
    inputs = {}
    for name, kind in slots:
        if kind == "bivector":
            comps = {
                pair: _generic_poly(R.dim, degree, R.constraint, alloc)
                for pair in itertools.combinations(range(1, R.dim + 1), 2)
            }
            inputs[name] = FormField(ESTAR, 2, comps, dim=R.dim)
        else:
            inputs.update(_generic_inputs(R, ((name, kind),), degree, alloc))
    return inputs, _slot_coordinates(R, slots)


def no_probes(R, sections, functions):
    return ()


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
HTWIST = parse_scenario(json.loads((SCENARIOS / "htwist-closed-d3.json").read_text(encoding="utf-8")))


def _jac_f_obstruction(R, F, e1, e2, e3):
    return _jac_f_condition_residual(R, F, e1, e2, e3).components()


# Each case: (entry, realization builder, flux).  The bianchi comparison
# vanishes on its one-sided frame, so the twisted Jacobi obstruction it
# contains, which does not, is also checked on its own.
CASES = {
    "C1": (RESIDUALS["C1"], sheared_d1, None),
    "C1-flux": (RESIDUALS["C1"], sheared_d1, FLUX_D1),
    "C2": (RESIDUALS["C2"], affine_d2, None),
    "C2-flux": (RESIDUALS["C2"], affine_d2, FLUX_D2),
    "C3": (RESIDUALS["C3"], affine_d2, None),
    "C3-flux": (RESIDUALS["C3"], affine_d2, FLUX_D2),
    "C4": (RESIDUALS["C4"], affine_d2, None),
    "C5": (RESIDUALS["C5"], affine_d2, None),
    "C5-flux": (RESIDUALS["C5"], affine_d2, FLUX_D2),
    "derivation": (RESIDUALS["derivation"], affine_d2, None),
    "strong-fn": (RESIDUALS["strong-fn"], affine_d2, None),
    "strong-vec": (RESIDUALS["strong-vec"], affine_d2, None),
    "strong-form": (RESIDUALS["strong-form"], affine_d2, None),
    "bianchi": (RESIDUALS["bianchi"], HTWIST.realization, HTWIST.flux),
    "bianchi-obstruction": (
        replace(RESIDUALS["bianchi"], residual=_jac_f_obstruction),
        HTWIST.realization,
        HTWIST.flux,
    ),
}


def _labeled(prefix, polys):
    return [(f"{prefix}[{i}]", poly) for i, poly in enumerate(polys, start=1)]


def _form_components(prefix, form):
    return [(f"{prefix}{key}", poly) for key, poly in sorted(form.comps.items())]


SECTIONS = (("e1", "section"), ("e2", "section"))


def primitives(R):
    """The operations the residuals are made of, each as (its total order,
    its slots, a residual of its inputs), on the realization ``R``."""
    return {
        "c_bracket": (1, SECTIONS, lambda e1, e2: c_bracket(R, e1, e2).components()),
        "twisted_c_bracket": (
            1,
            SECTIONS,
            lambda e1, e2: twisted_c_bracket(R, FLUX_D2, e1, e2).components(),
        ),
        "D_op": (1, (("f", "function"),), lambda f: D_op(R, f).components()),
        "rho_V_dot": (
            1,
            (("e", "section"), ("f", "function")),
            lambda e, f: [("scalar", rho_V_dot(R, e, f))],
        ),
        "algebroid_bracket": (
            1,
            (("X", E), ("Y", E)),
            lambda X, Y: _labeled("X", algebroid_bracket(R.E, X, Y).comps),
        ),
        "d_differential": (
            1,
            (("X", E), ("f", "function")),
            lambda X, f: _form_components("dX", d_differential(R.Estar, X.as_form()))
            + _form_components("df", d_differential(R.E, FormField.scalar(E, f, R.dim))),
        ),
        "schouten": (
            1,
            (("X", E), ("W", "bivector")),
            lambda X, W: _form_components("s", schouten(R.E, X, W)),
        ),
        "pairing": (0, SECTIONS, lambda e1, e2: [("scalar", pairing("+", e1, e2))]),
    }


def test_every_order_table_entry_has_a_case():
    entries = [entry for entry, _, _ in CASES.values()]
    assert [check_id for check_id, entry in RESIDUALS.items() if entry not in entries] == []


@pytest.mark.parametrize("case", sorted(CASES))
def test_residual_has_at_most_its_declared_order(case):
    entry, realization, flux = CASES[case]
    R = realization()
    inputs, coordinates = generic_inputs(R, entry.slots)
    residual = partial(entry.residual, R, flux)
    assert order_violations(residual, inputs, coordinates, entry.order) == []


@pytest.mark.parametrize("case", sorted(case for case, (entry, _, _) in CASES.items() if entry.order == 2))
def test_certificate_shows_each_order_two_case_first_order_in_each_input(case):
    # Each order-2 check proves on degree-1 data only behind this certificate.
    entry, realization, flux = CASES[case]
    R = realization()
    inputs, coordinates = generic_inputs(R, entry.slots, degree=0)
    after_inputs = _Allocator(1 + max(max(_params(value)) for value in inputs.values()))
    residual = partial(entry.residual, R, flux)
    assert _first_order_in_every_input(residual, inputs, coordinates, after_inputs)


@pytest.mark.parametrize("name", sorted(primitives(None)))
def test_primitive_has_its_total_order(name):
    R = affine_d2()
    order, slots, residual = primitives(R)[name]
    inputs, coordinates = generic_inputs(R, slots)
    assert order_violations(residual, inputs, coordinates, order) == []
    if order:
        # and no lower, so the coordinate-dependent anchor exercises the test
        assert order_violations(residual, inputs, coordinates, order - 1) != []


def test_planted_second_order_term_fails_the_order_one_test():
    R = affine_d2()
    c5 = partial(RESIDUALS["C5"].residual, R, FLUX_D2)

    def mutant(e1, e2, e3):
        [(label, poly)] = c5(e1=e1, e2=e2, e3=e3)
        return [(label, poly + e2.X.comps[0].partial(DX1).partial(DX1))]

    inputs, coordinates = generic_inputs(R, RESIDUALS["C5"].slots)
    assert order_violations(c5, inputs, coordinates, 1) == []
    assert order_violations(mutant, inputs, coordinates, 1) == [(("e2", "x1"), ("e2", "x1"))]


def test_planted_mixed_term_fails_the_total_order_test():
    # d^2(e2) * d^2(e3) vanishes on degree-1 data, and so does every
    # commutator taken in one slot; only the mixed one sees it.
    R = affine_d2()
    c5 = partial(RESIDUALS["C5"].residual, R, FLUX_D2)

    def mutant(e1, e2, e3):
        [(label, poly)] = c5(e1=e1, e2=e2, e3=e3)
        planted = e2.X.comps[0].partial(DX1).partial(DX1) * e3.X.comps[0].partial(DX1).partial(DX1)
        return [(label, poly + planted)]

    inputs, coordinates = generic_inputs(R, RESIDUALS["C5"].slots)
    assert order_violations(mutant, inputs, coordinates, 1) == [(("e2", "x1"), ("e3", "x1"))]


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


def record_builds(monkeypatch) -> list:
    """The degree of every set of generic inputs ``_decide`` builds."""
    built = []

    def recorded(R, slots, degree, alloc):
        built.append(degree)
        return _generic_inputs(R, slots, degree, alloc)

    monkeypatch.setattr(axioms, "_generic_inputs", recorded)
    return built


def test_decide_proves_at_the_jet_degree_and_rebuilds_only_for_a_witness(monkeypatch):
    R = DoubledRealization.flat(1)
    functions = (("f", "function"), ("g", "function"))

    def vanishing(R, flux, f, g):
        return [("scalar", ZERO)]

    def first_order(R, flux, f, g):
        return [("scalar", f.partial(DX1) * g)]

    def decide(order, residual, family):
        monkeypatch.setitem(RESIDUALS, "C5", Residual(order, residual, functions, no_probes))
        return _decide("C5", R, family)

    built = record_builds(monkeypatch)
    # an order-1 entry proves at degree 1
    report = decide(1, vanishing, GenericSectionFamily(degree=3))
    assert (report.status, report.degree, built) == ("PASS", 3, [1])
    built.clear()
    report = decide(1, first_order, GenericSectionFamily(degree=3))
    assert (report.status, report.degree, built) == ("FAIL", 3, [1, 3])
    full = _generic_inputs(R, functions, 3, _Allocator(1))
    assert report == _report("C5", first_order(R, None, **full), full, 3)

    # an order-2 entry at degree 2: constant data for the certificate, then
    # degree 1; eta(df, dg) is first order in each input, so it passes the
    # certificate and fails only at degree 1
    second = GenericSectionFamily(degree=2)
    built.clear()
    report = decide(2, vanishing, second)
    assert (report.status, report.degree, built) == ("PASS", 2, [0, 1])
    built.clear()
    report = decide(2, _strong_fn_residual, second)
    assert (report.status, report.degree, built) == ("FAIL", 2, [0, 1, 2])
    full = _generic_inputs(R, functions, 2, _Allocator(1))
    assert report == _report("C5", _strong_fn_residual(R, None, **full), full, 2)


def test_certificate_rejects_a_second_order_term_that_degree_one_data_misses(monkeypatch):
    # C1 holds on the flat x-only pair.  A planted d^2/dx1^2 of a component
    # of e1 vanishes on degree-1 data, so only the certificate keeps it from
    # a PASS at degree 1; the degree-2 proof then FAILs it.
    x_only = Admissibility.x_only(1)
    R = DoubledRealization.flat(1, constraint=x_only, function_constraint=x_only)
    entry = RESIDUALS["C1"]
    c1 = partial(entry.residual, R, None)

    def mutant(R, flux, e1, e2, e3):
        planted = e1.X.comps[0].partial(DX1).partial(DX1)
        residuals = c1(e1=e1, e2=e2, e3=e3)
        return [(label, poly + planted if label == "X[1]" else poly) for label, poly in residuals]

    coordinates = _slot_coordinates(R, entry.slots)
    alloc = _Allocator(1)
    constants = _generic_inputs(R, entry.slots, 0, alloc)
    assert _first_order_in_every_input(c1, constants, coordinates, _Allocator(alloc.next_index))
    assert not _first_order_in_every_input(partial(mutant, R, None), constants, coordinates, alloc)
    degree_one = _generic_inputs(R, entry.slots, 1, _Allocator(1))
    assert all(poly.is_zero() for _, poly in mutant(R, None, **degree_one))

    family = GenericSectionFamily(degree=2)
    built = record_builds(monkeypatch)
    monkeypatch.setitem(RESIDUALS, "C1", replace(entry, probes=no_probes))
    assert _decide("C1", R, family).status == "PASS"
    assert built == [0, 1]
    built.clear()
    monkeypatch.setitem(RESIDUALS, "C1", replace(entry, residual=mutant, probes=no_probes))
    report = _decide("C1", R, family)
    assert (report.status, built) == ("FAIL", [0, 2])
