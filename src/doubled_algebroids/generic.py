"""Generic test data and counterexample witnesses.

Generic data puts a fresh parameter coefficient on every admissible
monomial of every component, so a residual that vanishes on it vanishes
for all data of that degree.  A witness makes a nonzero residual concrete:
a 0/1 parameter assignment that keeps it nonzero, the inputs under that
assignment, and a small integer point where it evaluates to a nonzero
rational.

Inputs are ``PolyExpr`` values or sections offering the same
``param_indices``/``subs_params`` methods plus ``to_json``; admissibility
is any object with ``allowed_vars(dim)``, or None for every coordinate.
"""

from __future__ import annotations

import itertools
from math import comb
from typing import Optional

from .poly import PolyExpr, Var, coordinate_vars

__all__ = ["PARAMETER_BUDGET", "Residuals", "monomial_count", "witness"]

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


# -- witnesses ------------------------------------------------------------------


def _greedy_param_assignment(poly: PolyExpr) -> tuple[dict[int, int], PolyExpr]:
    """The lexicographically smallest 0/1 parameter assignment under which
    the polynomial stays nonzero (try 0 first for each parameter in index
    order; fall back to 1 exactly when 0 would kill every monomial)."""
    assignment: dict[int, int] = {}
    current = poly
    for pidx in sorted(current.param_indices()):
        at_zero = current.subs_params({pidx: 0})
        if at_zero.is_zero():
            assignment[pidx] = 1
            current = current.subs_params({pidx: 1})
        else:
            assignment[pidx] = 0
            current = at_zero
    return assignment, current


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
