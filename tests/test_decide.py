"""``_decide`` gives the reports of probing first and proving second.

Order-1 entries are proved before they are probed, and C1 skips rotated
probe triples.  Neither may change a report: the reference below restates
the probes-first order, with C1 probed on all of the first 120 triples, and
every ``RESIDUALS`` entry must get the same report from both.
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
    _first_order_in_every_input,
    _generic_inputs,
    _report,
    _slot_coordinates,
)
from doubled_algebroids.cli import load_scenario
from doubled_algebroids.doubled import Admissibility, DoubledRealization, DoubledSection, FluxTensor
from doubled_algebroids.generic import _Allocator
from doubled_algebroids.poly import PolyExpr

HTWIST = load_scenario(Path(__file__).parent / "fixtures" / "scenarios" / "htwist-closed-d3.json")
ONE = PolyExpr.one()
X1, XT1 = PolyExpr.coord(1), PolyExpr.dual(1)


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


@pytest.mark.parametrize("count", range(1, 8))
def test_c1_battery_is_the_first_120_triples_without_earlier_rotations(count):
    sections = [f"s{i}" for i in range(count)]
    battery = list(RESIDUALS["C1"].probes(None, sections, []))
    yielded = []
    for triple in itertools.islice(itertools.product(sections, repeat=3), 120):
        if not any(triple[k:] + triple[:k] in yielded for k in (1, 2)):
            yielded.append(triple)
    assert battery == yielded
    if count == 6:
        assert len(battery) == 65
