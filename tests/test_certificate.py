"""The total-order certificate decides what its pairwise-weight reference does.

``generic._first_order_in_every_input`` weights the coordinates of each
input by one linear form; ``oracles.pairwise_certificate`` weights each pair
of coordinates on its own.  Both vanish exactly when every 2-fold
commutator does, so they must agree on every order-2 ``RESIDUALS`` entry
of every fixture realization, on a realization whose admissibility mask is
empty (the linear form is 0), and on a planted second-order term.
"""

from functools import partial
from pathlib import Path

import pytest

import oracles
from doubled_algebroids.axioms import RESIDUALS, _generic_inputs, _slot_coordinates
from doubled_algebroids.cli import load_scenario
from doubled_algebroids.doubled import Admissibility, DoubledRealization
from doubled_algebroids.generic import _Allocator, _first_order_in_every_input
from doubled_algebroids.poly import KIND_X, DoubledIndex

SCENARIOS = Path(__file__).parent / "fixtures" / "scenarios"
ORDER_TWO = sorted(check_id for check_id, entry in RESIDUALS.items() if entry.order == 2)


def _masked_flat(dim, mask):
    return DoubledRealization.flat(dim, constraint=mask, function_constraint=mask)


def realizations() -> dict:
    """Each fixture's realization and flux, and a flat chart admitting no
    coordinate."""
    out = {}
    for path in sorted(SCENARIOS.glob("*.json")):
        scenario = load_scenario(str(path))
        out[path.stem] = (scenario.realization(), scenario.flux)
    out["flat-d2-empty-mask"] = (_masked_flat(2, Admissibility.from_names([], 2)), None)
    return out


REALIZATIONS = realizations()


def decisions(residual, R, slots) -> tuple[bool, bool]:
    """The engine's and the reference's certificate on the same generic
    constants, each with its weights allocated after them."""
    alloc = _Allocator(1)
    constants = _generic_inputs(R, slots, 0, alloc)
    coordinates = _slot_coordinates(R, slots)
    return tuple(
        certificate(residual, constants, coordinates, _Allocator(alloc.next_index))
        for certificate in (_first_order_in_every_input, oracles.pairwise_certificate)
    )


@pytest.mark.parametrize("name", sorted(REALIZATIONS))
def test_certificate_decides_every_order_two_entry_as_the_reference(name):
    R, flux = REALIZATIONS[name]
    for check_id in ORDER_TWO:
        entry = RESIDUALS[check_id]
        engine, reference = decisions(partial(entry.residual, R, flux), R, entry.slots)
        assert engine == reference, check_id


def _second_derivative(poly, mu):
    dx = DoubledIndex(KIND_X, mu)
    return poly.partial(dx).partial(dx)


@pytest.mark.parametrize(
    "dim, planted",
    [
        (1, lambda u: _second_derivative(u, 1)),
        # the wave operator: its symbol vanishes on x1 + x2, so one weight
        # shared by all coordinates would miss it
        (2, lambda u: _second_derivative(u, 1) - _second_derivative(u, 2)),
    ],
    ids=["d2/dx1^2", "d2/dx1^2 - d2/dx2^2"],
)
def test_certificate_rejects_a_planted_second_order_term_as_the_reference(dim, planted):
    # As in test_jet_order: a second-order term in a component of e1,
    # planted in C1 on the flat x-only pair, where C1 holds.  It vanishes on
    # degree-1 data, so only the certificate keeps it from a PASS there.
    R = _masked_flat(dim, Admissibility.x_only(dim))
    entry = RESIDUALS["C1"]
    c1 = partial(entry.residual, R, None)

    def mutant(e1, e2, e3):
        extra = planted(e1.X.comps[0])
        return [(label, poly + extra if label == "X[1]" else poly) for label, poly in c1(e1=e1, e2=e2, e3=e3)]

    assert decisions(c1, R, entry.slots) == (True, True)
    assert decisions(mutant, R, entry.slots) == (False, False)
