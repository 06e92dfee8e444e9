"""Generic test data, the one decision procedure ``decide`` and the one
witness builder ``witness``.

Generic data puts a fresh parameter coefficient on every admissible
monomial of every component, so a residual that vanishes on it vanishes
for all data of that degree.  Inputs are ``PolyExpr`` values or sections
with the same ``param_indices``, ``subs_params`` and ``scaled`` methods
plus ``+`` and ``to_json``; admissibility is any object with
``allowed_vars(dim)``, or None for every coordinate.
"""

from __future__ import annotations

import itertools
from collections import Counter
from math import comb
from typing import Callable, Iterable, Optional

from .poly import PolyExpr, Var, coordinate_vars, poly_sum

__all__ = ["PARAMETER_BUDGET", "Residuals", "decide", "monomial_count", "witness"]

# The highest parameter ordinal generic data may use.
PARAMETER_BUDGET = 100_000

Residuals = list[tuple[str, PolyExpr]]


class _Allocator:
    """Hands out fresh parameter indices; deterministic given the start."""

    def __init__(self, start: int = 1):
        if start < 1:
            raise ValueError("parameter ordinals start at 1")
        self.next_index = start

    def fresh(self) -> int:
        if self.next_index > PARAMETER_BUDGET:
            raise RuntimeError("parameter budget exhausted")
        index = self.next_index
        self.next_index += 1
        return index


def _variables(dim: int, admissibility) -> list[Var]:
    return coordinate_vars(dim) if admissibility is None else admissibility.allowed_vars(dim)


def monomial_count(dim: int, degree: int, admissibility) -> int:
    """How many parameters one generic component of this degree takes."""
    return comb(len(_variables(dim, admissibility)) + degree, degree)


def _admissible_monomials(dim: int, degree: int, admissibility):
    """Packed coordinate keys of all admissible monomials of total degree
    <= degree, in a deterministic graded order."""
    variables = _variables(dim, admissibility)
    keys = []
    for d in range(degree + 1):
        for combo in itertools.combinations_with_replacement(variables, d):
            poly = PolyExpr.one()
            for var in combo:
                poly = poly * PolyExpr.variable(var)
            (key,) = [mono[0] for mono in poly.terms]
            keys.append(key)
    return keys


def _generic_poly(dim: int, degree: int, admissibility, alloc: _Allocator) -> PolyExpr:
    terms = {}
    for key in _admissible_monomials(dim, degree, admissibility):
        terms[(key, (alloc.fresh(),))] = 1
    return PolyExpr(terms)


# -- deciding a residual ----------------------------------------------------------


def _first_order_in_every_input(
    residual: Callable[..., Residuals],
    inputs: dict,
    coordinates: dict[str, list[Var]],
    alloc: _Allocator,
) -> bool:
    """True when, for every input u, each 2-fold commutator of the residual
    with multiplication of u by two of its admissible coordinates vanishes
    on ``inputs``, which are generic constants: with a fresh weight s_i per
    coordinate c_i and l = sum_i s_i c_i, P(l^2 u) - 2 l P(l u) + l^2 P(u)
    = sum_ij s_i s_j [[P, c_i], c_j](u) vanishes (in characteristic 0)
    exactly when each commutator does.  A component without u that is
    nonzero on the constants makes the sum nonzero too, but the residual then
    fails on generic data anyway.  The weights come from ``alloc`` after the
    constants; at family degree >= 2 ``axioms.parameter_count`` reserves
    each component of u 1 + n parameters, room for its n weights."""
    base = residual(**inputs)
    for name, variables in coordinates.items():
        form = poly_sum([PolyExpr.param(alloc.fresh()) * PolyExpr.variable(v) for v in variables])
        square, u = form * form, inputs[name]

        def at(factor: PolyExpr) -> Residuals:
            scaled = u * factor if isinstance(u, PolyExpr) else u.scaled(factor)
            return residual(**{**inputs, name: scaled})

        sums: dict[str, list[PolyExpr]] = {}
        for residuals, factor in ((at(square), PolyExpr.one()), (at(form), form * -2), (base, square)):
            for label, poly in residuals:
                sums.setdefault(label, []).append(poly * factor)
        if any(not poly_sum(pieces).is_zero() for pieces in sums.values()):
            return False
    return True


def _first_failing_probe(
    residual: Callable[..., Residuals], probes: Iterable[dict]
) -> Optional[tuple[Residuals, dict]]:
    """The residuals and inputs of the first probe on which ``residual`` does
    not vanish, or None, from one evaluation on polarized inputs: each slot
    weights its candidates (distinct objects, as the batteries reuse them)
    by fresh weights above the probes' parameters, and a probe's residual
    keeps the terms whose weights are all the probe's (see the comment above
    ``axioms.RESIDUALS``).  The sum also covers tuples the battery leaves
    out, so it may be nonzero when no probe fails."""
    battery = list(probes)
    if not battery:
        return None
    slots = {name: list({id(probe[name]): probe[name] for probe in battery}.values()) for name in battery[0]}
    held = set().union(*(c.param_indices() for slot in slots.values() for c in slot))
    first, weight, inputs = max(held, default=0) + 1, {}, {}
    fresh = itertools.count(first)  # unbounded: the weights never reach a report, so no budget applies
    for name, slot in slots.items():
        parts = []
        for c in slot:
            weight[name, id(c)] = w = next(fresh)
            parts.append(c * PolyExpr.param(w) if isinstance(c, PolyExpr) else c.scaled(PolyExpr.param(w)))
        inputs[name] = sum(parts[1:], parts[0])
    groups: dict[tuple[int, ...], Counter] = {}  # the terms of all components by the weights they carry
    for i, (_, poly) in enumerate(residual(**inputs)):
        for (key, params), c in poly.terms.items():
            weights = tuple(sorted({p for p in params if p >= first}))
            groups.setdefault(weights, Counter())[i, key, tuple(p for p in params if p < first)] += c
    for probe in battery:
        chosen = sorted(weight[name, id(obj)] for name, obj in probe.items())
        value: Counter = Counter()
        for r in range(len(chosen) + 1):
            for subset in itertools.combinations(chosen, r):
                value.update(groups.get(subset, {}))
        if any(value.values()):
            return residual(**probe), probe
    return None


def decide(
    residual: Callable[..., Residuals],
    order: int,
    degree: int,
    start: int,
    generic_inputs: Callable[[int, _Allocator], dict],
    probes: Callable[[], Iterable[dict]],
    coordinates: dict[str, list[Var]],
) -> tuple[Residuals, dict]:
    """The residuals and inputs that decide whether ``residual``, of total
    order ``order``, vanishes on all admissible data: all zero when it does,
    else ``witness`` builds the counterexample from them.

    The proof runs on ``generic_inputs(jet, _Allocator(start))`` at the jet
    degree ``min(order, degree)``, or 1 for an order-2 residual that
    ``_first_order_in_every_input`` certifies on the ``coordinates`` of each
    input.  An order-1 residual at degree >= 1 is proved first, as no
    admissible probe can fail once that passes; the others decide the
    battery ``probes()`` first, at one residual evaluation when it passes
    and two when it fails.  A failed proof below ``degree`` is redone there
    for a witness.
    """

    def proof(jet: int) -> tuple[Residuals, dict]:
        inputs = generic_inputs(jet, _Allocator(start))
        return residual(**inputs), inputs

    jet = min(order, degree)
    decided = proof(jet) if order == 1 <= degree else None
    if decided is None or not all(poly.is_zero() for _, poly in decided[0]):
        if (failing := _first_failing_probe(residual, probes())) is not None:
            return failing
    if decided is None:
        if jet == 2:
            alloc = _Allocator(start)
            if _first_order_in_every_input(residual, generic_inputs(0, alloc), coordinates, alloc):
                jet = 1
        decided = proof(jet)
    if jet < degree and not all(poly.is_zero() for _, poly in decided[0]):
        return proof(degree)
    return decided


# -- witnesses ------------------------------------------------------------------


def _holders(terms: dict) -> tuple[dict[int, list], dict[int, int]]:
    """Each parameter's monomials, and how many there are."""
    index: dict[int, list] = {}
    for mono in terms:
        for pidx in set(mono[1]):
            index.setdefault(pidx, []).append(mono)
    return index, {pidx: len(monos) for pidx, monos in index.items()}


def _greedy_param_assignment(poly: PolyExpr) -> tuple[dict[int, int], PolyExpr]:
    """The lexicographically smallest 0/1 parameter assignment under which
    the polynomial stays nonzero (try 0 first for each parameter in index
    order; fall back to 1 exactly when 0 would kill every monomial), and
    the polynomial under it.

    Setting a parameter to 0 only drops the monomials holding it, so a live
    count of those per parameter decides each choice and each monomial is
    dropped once: linear in the size of the polynomial.  Only setting a
    parameter to 1, when every remaining monomial holds it, rewrites the
    monomials (``p^2`` terms may merge or cancel) and rebuilds the index.
    Like ``subs_params``, the result keeps the numerators over 1: the shared
    denominator is dropped once a parameter is set, which shifts only the
    witness value.
    """
    params = sorted(poly.param_indices())
    if not params:
        return {}, poly
    terms = dict(poly.terms)
    index, live = _holders(terms)
    assignment: dict[int, int] = {}
    for pidx in params:
        if live.get(pidx, 0) < len(terms):
            assignment[pidx] = 0
            for mono in index.get(pidx, ()):
                if mono in terms:
                    del terms[mono]
                    for held in set(mono[1]):
                        live[held] -= 1
        else:
            assignment[pidx] = 1
            terms = dict(PolyExpr(terms).subs_params({pidx: 1}).terms)
            index, live = _holders(terms)
    return assignment, PolyExpr(terms)


def _witness_point(poly: PolyExpr) -> tuple[dict[str, str], str]:
    """Small integer coordinates making a nonzero parameter-free polynomial
    evaluate to a nonzero rational (one variable at a time, smallest value
    that works)."""
    current = poly
    point: dict[str, str] = {}
    while True:
        coords = sorted(current.coord_vars(), key=lambda var: (var.index, var.kind))
        if not coords:
            break
        var = coords[0]
        for value in itertools.count(0):
            candidate = current.subs_coords({var: value})
            if not candidate.is_zero():
                point[str(var)] = str(value)
                current = candidate
                break
    return point, str(current.as_rational())


def witness(residuals: Residuals, inputs: dict) -> Optional[tuple[dict, str]]:
    """None when every residual component vanishes.  Otherwise the witness
    record of the first nonzero one and that component as a string.

    The greedy 0/1 assignment is substituted into the inputs (parameters
    it leaves unset drop to 0), then a small coordinate point is picked for
    the surviving component.
    """
    for label, poly in residuals:
        if not poly.is_zero():
            break
    else:
        return None
    assignment, reduced = _greedy_param_assignment(poly)
    full = dict.fromkeys(set().union(*(obj.param_indices() for obj in inputs.values())), 0)
    full.update(assignment)
    point, value = _witness_point(reduced)
    record = {
        "inputs": {name: _to_json(obj.subs_params(full)) for name, obj in inputs.items()},
        "component": label,
        "point": point,
        "value": value,
    }
    return record, str(reduced)


def _to_json(obj):
    return str(obj) if isinstance(obj, PolyExpr) else obj.to_json()
