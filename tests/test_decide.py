"""``_decide`` gives the reports of probing first and proving second.

Order-1 entries are proved before they are probed, and one polarized
evaluation stands for the whole probe battery.  Neither may change a
report: the reference below restates the probes-first order, one probe at a
time, and every ``RESIDUALS`` entry must get the same report from both.
"""

import itertools
from dataclasses import replace
from functools import partial
from pathlib import Path

import pytest

from doubled_algebroids.axioms import (
    PASS,
    RESIDUALS,
    AxiomReport,
    GenericSectionFamily,
    _battery_functions,
    _battery_sections,
    _decide,
    _generic_inputs,
    _report,
    _slot_coordinates,
)
from doubled_algebroids.cli import load_scenario
from doubled_algebroids.doubled import Admissibility, DoubledRealization, DoubledSection, FluxTensor
from doubled_algebroids.generic import (
    PARAMETER_BUDGET,
    _Allocator,
    _first_failing_probe,
    _first_order_in_every_input,
    _generic_poly,
    decide,
)
from doubled_algebroids.poly import KIND_X, KIND_XT, DoubledIndex, PolyExpr, Var

HTWIST = load_scenario(Path(__file__).parent / "fixtures" / "scenarios" / "htwist-closed-d3.json")
ONE, ZERO = PolyExpr.one(), PolyExpr.zero()
X1, XT1 = PolyExpr.coord(1), PolyExpr.dual(1)
X1_INDEX = DoubledIndex(KIND_X, 1)
X1_VAR, XT1_VAR = Var(KIND_X, 1), Var(KIND_XT, 1)


def _first_120_triples(R, sections, functions):
    return itertools.islice(itertools.product(sections, repeat=3), 120)


def probes_first(check_id, R, family, flux=None, explicit_sections=()):
    """Every probe, then the certificate and the jet-degree proof, then the
    report on inputs of the family degree."""
    entry = RESIDUALS[check_id]
    residual_fn = partial(entry.residual, R, flux)
    names = [name for name, _ in entry.slots]
    probes = _first_120_triples if check_id == "C1" else entry.probes
    sections = list(explicit_sections) + _battery_sections(R)
    for values in probes(R, sections, _battery_functions(R, R.function_constraint)):
        inputs = dict(zip(names, values))
        report = _report(check_id, residual_fn(**inputs), inputs, family.degree)
        if not report.passed():
            return report
    jet = min(entry.order, family.degree)
    if jet == 2:
        alloc = _Allocator(family.start)
        constants = _generic_inputs(R, entry.slots, 0, alloc)
        if _first_order_in_every_input(residual_fn, constants, _slot_coordinates(R, entry.slots), alloc):
            jet = 1
    if jet < family.degree:
        inputs = _generic_inputs(R, entry.slots, jet, _Allocator(family.start))
        if all(poly.is_zero() for _, poly in residual_fn(**inputs)):
            return AxiomReport(check_id, PASS, degree=family.degree)
    inputs = _generic_inputs(R, entry.slots, family.degree, _Allocator(family.start))
    return _report(check_id, residual_fn(**inputs), inputs, family.degree)


def untouchable(R, sections, functions):
    raise AssertionError("probes iterated after a proof passed")
    yield


def x_only(dim):
    mask = Admissibility.x_only(dim)
    return DoubledRealization.flat(dim, constraint=mask, function_constraint=mask)


# Each case: (realization, flux, explicit sections, the entries it decides).
# The bianchi comparison needs a one-sided 3-form twist, which only the
# closed H twist provides; the flux of the last flat case is symmetric in
# its last two slots.
WITHOUT_BIANCHI = sorted(set(RESIDUALS) - {"bianchi"})
CASES = {
    "flat-d1": (
        DoubledRealization.flat(1),
        None,
        [DoubledSection.from_parts((XT1 * XT1,), (X1,))],
        WITHOUT_BIANCHI,
    ),
    "flat-d1-x-only": (x_only(1), None, [], WITHOUT_BIANCHI),
    "flat-d2-x-only": (x_only(2), None, [], WITHOUT_BIANCHI),
    "flat-d2-symmetric-flux": (
        DoubledRealization.flat(2),
        FluxTensor(2, {(1, 2, 4): ONE, (1, 4, 2): ONE}),
        [],
        WITHOUT_BIANCHI,
    ),
    "htwist-closed-d3": (HTWIST.realization(), HTWIST.flux, [], ["bianchi"]),
}


def test_every_entry_has_a_case():
    decided = {check_id for *_, check_ids in CASES.values() for check_id in check_ids}
    assert decided == set(RESIDUALS)


@pytest.mark.parametrize("degree", [0, 1, 2])
@pytest.mark.parametrize("case", sorted(CASES))
def test_decide_reports_what_probing_first_reports(case, degree, monkeypatch):
    R, flux, explicit, check_ids = CASES[case]
    family = GenericSectionFamily(degree=degree)
    for check_id in check_ids:
        expected = probes_first(check_id, R, family, flux, explicit)
        entry = RESIDUALS[check_id]
        if expected.passed() and entry.order == 1 <= degree:
            monkeypatch.setitem(RESIDUALS, check_id, replace(entry, probes=untouchable))
        assert _decide(check_id, R, family, flux, explicit) == expected, check_id


def battery(check_id, R, explicit_sections=()):
    """The probes ``_decide`` hands to ``generic.decide``, as a list."""
    entry = RESIDUALS[check_id]
    names = [name for name, _ in entry.slots]
    sections = list(explicit_sections) + _battery_sections(R)
    functions = _battery_functions(R, R.function_constraint)
    return [dict(zip(names, values)) for values in entry.probes(R, sections, functions)]


def counted(residual_fn):
    """``residual_fn`` with the inputs of each call recorded in ``.calls``."""

    def call(**inputs):
        call.calls.append(inputs)
        return residual_fn(**inputs)

    call.calls = []
    return call


def first_failing_by_loop(residual_fn, probes):
    for probe in probes:
        residuals = residual_fn(**probe)
        if any(not poly.is_zero() for _, poly in residuals):
            return residuals, probe
    return None


@pytest.mark.parametrize("case", sorted(CASES))
def test_one_evaluation_finds_the_first_failing_probe(case):
    """The polarized battery names the probe the loop names, or none, at one
    residual evaluation when no probe fails and two when one does.  The
    battery does not depend on the family degree, so one run per case
    covers degrees 0-2; ``test_decide_reports_what_probing_first_reports``
    covers them end to end."""
    R, flux, explicit, check_ids = CASES[case]
    for check_id in check_ids:
        residual_fn = partial(RESIDUALS[check_id].residual, R, flux)
        probes = battery(check_id, R, explicit)
        call = counted(residual_fn)
        expected = first_failing_by_loop(residual_fn, probes)
        assert _first_failing_probe(call, probes) == expected, check_id
        assert len(call.calls) == (0 if not probes else 1 if expected is None else 2), check_id


def test_a_cross_term_that_no_probe_takes_leaves_the_check_to_the_proof():
    """d/dx1(f) * g vanishes on the probes (x1, 0) and (1, x1), but not on
    their polarized sum (x1 w1 + w2, x1 w4), whose cross term w1 w4 x1 no
    probe takes.  ``decide`` must go on to the proofs as a passing battery
    does, and fail at the family degree, whether it proves first (order 1)
    or not (order 2, certified first order in each input)."""

    def residual_fn(f, g):
        return [("r", f.partial(X1_INDEX) * g)]

    def generic_inputs(degree, alloc):
        return {name: _generic_poly(1, degree, None, alloc) for name in ("f", "g")}

    probes = [{"f": X1, "g": ZERO}, {"f": ONE, "g": X1}]
    call = counted(residual_fn)
    assert _first_failing_probe(call, probes) is None
    assert not all(poly.is_zero() for _, poly in residual_fn(**call.calls[0]))
    assert len(call.calls) == 1
    coordinates = dict.fromkeys(("f", "g"), [X1_VAR, XT1_VAR])
    for order, degree in ((1, 1), (1, 2), (2, 2)):
        inputs = generic_inputs(degree, _Allocator(1))
        expected = (residual_fn(**inputs), inputs)
        assert decide(residual_fn, order, degree, 1, generic_inputs, lambda: probes, coordinates) == expected


def test_weights_lie_above_the_parameters_of_explicit_sections():
    """Explicit sections may carry parameters, up to the parameter budget;
    the battery weights are allocated above them, past the budget if need
    be, and the reports stay those of probing first."""
    R = DoubledRealization.flat(1)
    P3, P7, LAST = PolyExpr.param(3), PolyExpr.param(7), PolyExpr.param(PARAMETER_BUDGET)
    explicit = [
        DoubledSection.from_parts((XT1 * XT1 * P3,), (X1 * P7,)),
        DoubledSection.from_parts((P3,), (ONE,)),
        DoubledSection.from_parts((X1 * LAST,), (ZERO,)),
    ]
    family = GenericSectionFamily(degree=2)
    for check_id in WITHOUT_BIANCHI:
        probes = battery(check_id, R, explicit)
        held = set().union(*(obj.param_indices() for probe in probes for obj in probe.values()))
        call = counted(partial(RESIDUALS[check_id].residual, R, None))
        _first_failing_probe(call, probes)
        weights = set().union(*(obj.param_indices() for obj in call.calls[0].values())) - held
        assert min(weights) > max(held, default=0), check_id
        expected = probes_first(check_id, R, family, None, explicit)
        assert _decide(check_id, R, family, None, explicit) == expected, check_id
