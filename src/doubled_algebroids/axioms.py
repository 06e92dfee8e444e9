"""Mechanical verification of the bracket axioms, with witnesses.

Every check reduces an axiom to polynomial residuals and decides them by
canonical-form zero testing on generic inputs: a fresh parameter
coefficient on every admissible monomial of every component.  ``_decide``
hands the ``RESIDUALS`` entry of a residual to ``generic.decide``, which
proves it on generic data of its jet degree and decides a battery of small
concrete probes, so that failures come with readable counterexamples.  The
comment above ``RESIDUALS`` says why a PASS covers all admissible
polynomial data and why one evaluation decides a battery.  FAIL always
carries a witness: a concrete substitution under which some residual
component evaluates to a nonzero rational.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable, Iterable, Optional, Sequence

from .algebroid import (
    E,
    ESTAR,
    FormField,
    VectorField,
    _generic_vector,
    _sorted_with_sign,
    algebroid_bracket,
    d_differential,
    interior_product,
    lie_derivative,
    schouten,
    tangent_bracket,
)
from .doubled import (
    Admissibility,
    DoubledRealization,
    DoubledSection,
    FluxTensor,
    D_op,
    c_bracket,
    flux_contraction,
    pairing,
    pi_map,
    rho_V,
    rho_V_dot,
    rho_V_matrix,
    twisted_c_bracket,
)
from .generic import Residuals, _Allocator, _generic_poly, decide, monomial_count, witness
from .poly import (
    KIND_X,
    KIND_XT,
    DoubledIndex,
    PolyExpr,
    Var,
    eta_pairing,
    poly_sum,
)

__all__ = [
    "PASS",
    "FAIL",
    "SKIPPED",
    "AxiomReport",
    "Check",
    "CheckInputs",
    "CHECKS",
    "GenericSectionFamily",
    "generic_sections",
    "generic_functions",
    "parameter_count",
    "jacobiator",
    "t_scalar",
    "compute_J1_J2",
    "check_axiom",
    "check_derivation_condition",
    "check_strong_constraint",
    "check_anchor_antisymmetry",
    "check_twist_conditions",
    "check_bianchi",
    "classify",
    "label_from_statuses",
    "quadratic_lie_algebra_check",
    "CLASSIFICATION_LABELS",
]

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"

CLASSIFICATION_LABELS = (
    "Courant",
    "pre-Courant",
    "ante-Courant",
    "Vaisman",
    "Jacobi-Vaisman",
    "Jacobi-ante-Courant",
    "not-Vaisman",
)

_ZERO = PolyExpr.zero()
_THIRD = Fraction(1, 3)


@dataclass(frozen=True)
class GenericSectionFamily:
    """Shape of the generic test data: coefficient degree bound, how many
    sections, and the first fresh-parameter ordinal (the seed)."""

    degree: int = 2
    count: int = 3
    start: int = 1


@dataclass
class AxiomReport:
    """Outcome of one check: status plus witness and residual on failure."""

    check_id: str
    status: str
    witness: Optional[dict] = None
    residual: Optional[str] = None
    degree: Optional[int] = None
    detail: str = ""

    def passed(self) -> bool:
        return self.status == PASS

    def to_json_dict(self) -> dict:
        return {
            "check": self.check_id,
            "status": self.status,
            "witness": self.witness,
            "residual": self.residual,
            "degree": self.degree,
            "detail": self.detail,
        }


def _generic_section(R: DoubledRealization, degree: int, alloc: _Allocator) -> DoubledSection:
    X, xi = (_generic_vector(A, degree, alloc, R.constraint) for A in (R.E, R.Estar))
    return DoubledSection(X, xi)


def generic_sections(family: GenericSectionFamily, R: DoubledRealization) -> list[DoubledSection]:
    """Fully generic sections: every component gets a fresh parameter on
    every admissible monomial up to the family degree."""
    alloc = _Allocator(family.start)
    return [_generic_section(R, family.degree, alloc) for _ in range(family.count)]


def generic_functions(
    R: DoubledRealization, count: int, degree: int, start: int = 1
) -> list[PolyExpr]:
    """Generic admissible test functions (the function-constraint mask)."""
    alloc = _Allocator(start)
    return [_generic_poly(R.dim, degree, R.function_constraint, alloc) for _ in range(count)]


def parameter_count(
    dim: int, family: GenericSectionFamily, constraint: Admissibility, function_constraint: Admissibility
) -> int:
    """The highest parameter ordinal any check, or the validation of the
    algebroids, may allocate for ``family``.

    No check builds more than three generic sections (the ``RESIDUALS``
    entries and ``quadratic_lie_algebra_check``) or more than two test
    functions (of degree at least 1 in the quadratic check), whatever
    ``family.count`` is, so the count reserves three sections.  A new
    ``DoubledRealization`` validates each algebroid on unmasked degree-1 data.
    """
    sections = 3 * 2 * dim * monomial_count(dim, family.degree, constraint)
    functions = 2 * monomial_count(dim, max(1, family.degree), function_constraint)
    validation = (3 * dim + 1) * monomial_count(dim, 1, None)
    return max(family.start - 1 + sections + functions, validation)


# -- deciding a check -----------------------------------------------------------


def _report(
    check_id: str, residuals: Residuals, inputs: dict, degree: Optional[int] = None, detail: str = ""
) -> AxiomReport:
    """PASS when every residual component vanishes, otherwise FAIL with a
    witness built on ``inputs``."""
    found = witness(residuals, inputs)
    if found is None:
        return AxiomReport(check_id, PASS, degree=degree, detail=detail)
    record, residual = found
    return AxiomReport(check_id, FAIL, witness=record, residual=residual, degree=degree, detail=detail)


def _slot_coordinates(R: DoubledRealization, slots: Sequence[tuple[str, str]]) -> dict[str, list[Var]]:
    """The admissible coordinates each slot may be multiplied by."""
    return {
        name: (R.function_constraint if kind == "function" else R.constraint).allowed_vars(R.dim)
        for name, kind in slots
    }


def _generic_inputs(
    R: DoubledRealization, slots: Sequence[tuple[str, str]], degree: int, alloc: _Allocator
) -> dict:
    """Generic inputs of ``degree`` for ``slots``, allocated in slot order."""
    inputs = {}
    for name, kind in slots:
        if kind == "function":
            inputs[name] = _generic_poly(R.dim, degree, R.function_constraint, alloc)
        elif kind == "section":
            inputs[name] = _generic_section(R, degree, alloc)
        else:
            inputs[name] = _generic_vector(R.E if kind == E else R.Estar, degree, alloc, R.constraint)
    return inputs


def _decide(
    check_id: str,
    R: DoubledRealization,
    family: GenericSectionFamily,
    flux: Optional[FluxTensor] = None,
    explicit_sections: Sequence[DoubledSection] = (),
    detail: str = "",
) -> AxiomReport:
    """Decide the ``RESIDUALS`` entry ``check_id`` by ``generic.decide``; its
    probes are ``explicit_sections`` followed by the batteries."""
    entry = RESIDUALS[check_id]
    names = [name for name, _ in entry.slots]

    def probes() -> Iterable[dict]:
        sections = list(explicit_sections) + _battery_sections(R)
        functions = _battery_functions(R, R.function_constraint)
        return (dict(zip(names, values)) for values in entry.probes(R, sections, functions))

    residuals, inputs = decide(
        partial(entry.residual, R, flux),
        entry.order,
        family.degree,
        family.start,
        partial(_generic_inputs, R, entry.slots),
        probes,
        _slot_coordinates(R, entry.slots),
    )
    return _report(check_id, residuals, inputs, family.degree, detail)


# -- probe batteries ----------------------------------------------------------


def _battery_functions(R: DoubledRealization, admissibility: Admissibility) -> list[PolyExpr]:
    candidates: list[PolyExpr] = []
    for mu in range(1, R.dim + 1):
        candidates.append(PolyExpr.coord(mu))
        candidates.append(PolyExpr.dual(mu))
    for mu in range(1, R.dim + 1):
        candidates.append(PolyExpr.coord(mu) * PolyExpr.dual(mu))
    out = [f for f in candidates if admissibility.allows(f)]
    return out[:8]


def _battery_sections(R: DoubledRealization) -> list[DoubledSection]:
    dim = R.dim
    x1, xt1 = PolyExpr.coord(1), PolyExpr.dual(1)
    one = PolyExpr.one()

    def sec(xcomp: Optional[tuple[int, PolyExpr]], xicomp: Optional[tuple[int, PolyExpr]]):
        xs = [_ZERO] * dim
        xis = [_ZERO] * dim
        if xcomp:
            xs[xcomp[0] - 1] = xcomp[1]
        if xicomp:
            xis[xicomp[0] - 1] = xicomp[1]
        return DoubledSection.from_parts(tuple(xs), tuple(xis))

    candidates = [
        sec((1, xt1), None),
        sec(None, (1, x1)),
        sec((1, one), None),
        sec(None, (1, one)),
        sec((1, x1), None),
        sec(None, (1, xt1)),
        sec((1, x1 * xt1), None),
    ]
    if dim >= 2:
        candidates.append(sec((2, PolyExpr.coord(2)), None))
        candidates.append(sec(None, (2, PolyExpr.dual(2))))
    admissible = [
        s
        for s in candidates
        if all(R.constraint.allows(c) for _, c in s.components())
    ]
    return admissible[:6]


# -- core residuals -----------------------------------------------------------


def _bracket_fn(R: DoubledRealization, flux: Optional[FluxTensor]):
    if flux is None:
        return lambda a, b: c_bracket(R, a, b)
    return lambda a, b: twisted_c_bracket(R, flux, a, b)


def jacobiator(
    R: DoubledRealization,
    e1: DoubledSection,
    e2: DoubledSection,
    e3: DoubledSection,
    flux: Optional[FluxTensor] = None,
) -> DoubledSection:
    """Cyclic double bracket [[e1,e2],e3] + [[e2,e3],e1] + [[e3,e1],e2]."""
    br = _bracket_fn(R, flux)
    return br(br(e1, e2), e3) + br(br(e2, e3), e1) + br(br(e3, e1), e2)


def t_scalar(
    R: DoubledRealization,
    e1: DoubledSection,
    e2: DoubledSection,
    e3: DoubledSection,
    flux: Optional[FluxTensor] = None,
) -> PolyExpr:
    """The Jacobi anomaly potential: one third of the cyclic sum of
    <[e1,e2], e3>_+."""
    br = _bracket_fn(R, flux)
    total = (
        pairing("+", br(e1, e2), e3)
        + pairing("+", br(e2, e3), e1)
        + pairing("+", br(e3, e1), e2)
    )
    return total.scaled(_THIRD)


def _c1_residual(R, flux, e1, e2, e3) -> Residuals:
    br = _bracket_fn(R, flux)
    b12, b23, b31 = br(e1, e2), br(e2, e3), br(e3, e1)
    jac = br(b12, e3) + br(b23, e1) + br(b31, e2)
    t = (pairing("+", b12, e3) + pairing("+", b23, e1) + pairing("+", b31, e2)).scaled(_THIRD)
    return (jac - D_op(R, t)).components()


def compute_J1_J2(
    R: DoubledRealization, e1: DoubledSection, e2: DoubledSection, e3: DoubledSection
) -> tuple[DoubledSection, DoubledSection]:
    """The two obstruction sections in the Jacobi-anomaly decomposition.

    J1 contracts e3 into the failure of the two differentials to act as
    derivations of the opposite brackets; J2 measures the gradient section
    of the antisymmetric pairing acting back on e3.
    """
    Ea, Es = R.E, R.Estar

    d_br_xi = d_differential(Ea, algebroid_bracket(Es, e1.xi, e2.xi).as_form())
    d_xi1 = d_differential(Ea, e1.xi.as_form())
    d_xi2 = d_differential(Ea, e2.xi.as_form())
    group_xi = d_br_xi - schouten(Es, e1.xi, d_xi2) + schouten(Es, e2.xi, d_xi1)
    j1_xi = interior_product(e3.X, group_xi).as_vector_field()

    ds_br_x = d_differential(Es, algebroid_bracket(Ea, e1.X, e2.X).as_form())
    ds_x1 = d_differential(Es, e1.X.as_form())
    ds_x2 = d_differential(Es, e2.X.as_form())
    group_x = ds_br_x - schouten(Ea, e1.X, ds_x2) + schouten(Ea, e2.X, ds_x1)
    j1_x = interior_product(e3.xi, group_x).as_vector_field()

    j1 = DoubledSection(j1_x, j1_xi)

    minus = pairing("-", e1, e2)
    grad = D_op(R, minus)  # X part: dual-side gradient; xi part: E-side gradient
    j2_xi = lie_derivative(Ea, grad.X, e3.xi.as_form()).as_vector_field() + algebroid_bracket(
        Es, grad.xi, e3.xi
    )
    j2_x = lie_derivative(Es, grad.xi, e3.X.as_form()).as_vector_field() + algebroid_bracket(
        Ea, grad.X, e3.X
    )
    j2 = DoubledSection(-j2_x, j2_xi)
    return j1, j2


def _leibniz_residual(R, flux, e1, e2, f) -> Residuals:
    br = _bracket_fn(R, flux)
    anchored = rho_V_dot(R, e1, f)
    return (
        br(e1, e2.scaled(f))
        - br(e1, e2).scaled(f)
        - e2.scaled(anchored)
        + D_op(R, f).scaled(pairing("+", e1, e2))
    ).components()


def _compat_residual(R, flux, e1, e2, e3) -> Residuals:
    br = _bracket_fn(R, flux)
    anchored = rho_V_dot(R, e1, pairing("+", e2, e3))
    left = br(e1, e2) + D_op(R, pairing("+", e1, e2))
    right = br(e1, e3) + D_op(R, pairing("+", e1, e3))
    return [("scalar", anchored - pairing("+", left, e3) - pairing("+", e2, right))]


def _anchor_residual(R, flux, e1, e2) -> Residuals:
    """Anchor-homomorphism defect, kept only on the chart directions that
    admissible test functions can actually probe (their gradient support)."""
    br = _bracket_fn(R, flux)
    lhs = rho_V(R, br(e1, e2))
    rhs = tangent_bracket(rho_V(R, e1), rho_V(R, e2), R.dim)
    mask = R.function_constraint.mask
    out: Residuals = []
    for m in range(1, 2 * R.dim + 1):
        var = DoubledIndex.from_flat(m, R.dim).var()
        if mask is not None and var not in mask:
            continue
        out.append((f"tangent[{m}]", lhs[m - 1] - rhs[m - 1]))
    return out


def _c4_residual(R, flux, f, g) -> Residuals:
    # Normalized with a factor 2 so the flat-identity value matches the
    # gradient-pairing form of the constraint (witness value 1 at (x1, xt1)).
    return [("scalar", pairing("+", D_op(R, f), D_op(R, g)).scaled(2))]


# -- check_axiom ---------------------------------------------------------------


def _flux_key(flux: Optional[FluxTensor]):
    if flux is None:
        return None
    return tuple(sorted((m, n, l, str(p)) for (m, n, l), p in flux.entries.items()))


def check_axiom(
    R: DoubledRealization,
    axiom_id: str,
    family: Optional[GenericSectionFamily] = None,
    flux: Optional[FluxTensor] = None,
    explicit_sections: Sequence[DoubledSection] = (),
) -> AxiomReport:
    """Check one of the five bracket axioms (V1 and V2 are aliases for the
    Leibniz and compatibility axioms) on generic admissible data."""
    check = CHECKS.get(axiom_id)
    if check is None or check.run is not _run_axiom:
        raise ValueError(f"unknown axiom id {axiom_id!r}")
    requested, axiom_id = axiom_id, check.decides
    family = family or GenericSectionFamily(degree=R.degree, count=R.sections)
    if family.count < check.sections:
        raise ValueError(
            f"axiom {axiom_id} needs {check.sections} sections, family provides {family.count}"
        )
    # A PASS covers admissible data only; an inadmissible probe could fail.
    for s, sec in enumerate(explicit_sections):
        for label, comp in sec.components():
            if not R.constraint.allows(comp):
                raise ValueError(f"explicit section {s}: {label} violates the admissibility mask")
    probes_key = tuple(
        tuple(str(comp) for _, comp in sec.components()) for sec in explicit_sections
    )
    cache_key = ("axiom", axiom_id, family, _flux_key(flux), probes_key)
    cached = R.check_cache.get(cache_key)
    if cached is not None:
        return replace(cached, check_id=requested)

    detail = "defect paired against gradients of admissible test functions" if axiom_id == "C2" else ""
    report = _decide(axiom_id, R, family, flux, explicit_sections, detail)
    R.check_cache[cache_key] = report
    return replace(report, check_id=requested)


# -- further conditions --------------------------------------------------------


def _derivation_residual(R, flux, X, Y, xi, eta) -> Residuals:
    Ea, Es = R.E, R.Estar
    primal = (
        d_differential(Es, algebroid_bracket(Ea, X, Y).as_form())
        + schouten(Ea, Y, d_differential(Es, X.as_form()))
        - schouten(Ea, X, d_differential(Es, Y.as_form()))
    )
    dual = (
        d_differential(Ea, algebroid_bracket(Es, xi, eta).as_form())
        + schouten(Es, eta, d_differential(Ea, xi.as_form()))
        - schouten(Es, xi, d_differential(Ea, eta.as_form()))
    )
    return [(f"primal[{i},{j}]", poly) for (i, j), poly in sorted(primal.comps.items())] + [
        (f"dual[{i},{j}]", poly) for (i, j), poly in sorted(dual.comps.items())
    ]


def check_derivation_condition(
    R: DoubledRealization, family: Optional[GenericSectionFamily] = None
) -> AxiomReport:
    """The dual differential as a derivation of the same-side bracket, on
    generic pairs, together with the mirrored condition on the other side."""
    family = family or GenericSectionFamily(degree=R.degree, count=R.sections)
    cache_key = ("derivation", family)
    cached = R.check_cache.get(cache_key)
    if cached is not None:
        return cached
    report = _decide("derivation", R, family)
    R.check_cache[cache_key] = report
    return report


def _has_coordinate_anchors(R: DoubledRealization) -> bool:
    one, zero = PolyExpr.one(), _ZERO
    for i in range(R.dim):
        for m in range(2 * R.dim):
            want_e = one if m == i else zero
            want_es = one if m == R.dim + i else zero
            if R.E.anchor[m][i] != want_e or R.Estar.anchor[m][i] != want_es:
                return False
    return True


def _strong_fn_residual(R, flux, f: PolyExpr, g: PolyExpr) -> Residuals:
    return [("scalar", eta_pairing(f, g))]


def _strong_vec_residual(R, flux, f: PolyExpr, e: DoubledSection) -> Residuals:
    return [(f"X[{mu}]", eta_pairing(f, comp)) for mu, comp in enumerate(e.X.comps, start=1)]


def _strong_form_residual(R, flux, f: PolyExpr, e: DoubledSection) -> Residuals:
    return [(f"xi[{mu}]", eta_pairing(f, comp)) for mu, comp in enumerate(e.xi.comps, start=1)]


def check_strong_constraint(
    R: DoubledRealization, level: str, family: Optional[GenericSectionFamily] = None
) -> AxiomReport:
    """Gradient-pairing residuals of admissible data: function against
    function, vector components, or form components.  Meaningful only for
    the flat identity anchors; anything else is reported SKIPPED."""
    check_id = next(
        (cid for cid, c in CHECKS.items() if c.run is _run_strong and c.decides == level), None
    )
    if check_id is None:
        raise ValueError(f"unknown strong-constraint level {level!r}")
    family = family or GenericSectionFamily(degree=R.degree, count=R.sections)
    if not _has_coordinate_anchors(R):
        return AxiomReport(
            check_id,
            SKIPPED,
            degree=family.degree,
            detail="anchors are not the flat identity blocks; gradient-pairing form does not apply",
        )

    return _decide(check_id, R, family)


def check_anchor_antisymmetry(R: DoubledRealization) -> AxiomReport:
    """Entrywise vanishing of the symmetrised composite of the two anchors
    through the frame duality (the skew-anchor condition)."""
    pi = pi_map(R)
    dim2 = 2 * R.dim
    residuals = [
        (f"composite[{m + 1},{n + 1}]", pi[m][n] + pi[n][m]) for m in range(dim2) for n in range(dim2)
    ]
    return _report("anchor-antisym", residuals, {})


def _determinant(matrix: Sequence[Sequence[PolyExpr]]) -> PolyExpr:
    """Cofactor determinant with memoisation over column subsets."""
    n = len(matrix)
    memo: dict[tuple[int, int], PolyExpr] = {}

    def go(row: int, cols_mask: int) -> PolyExpr:
        if row == n:
            return PolyExpr.one()
        key = (row, cols_mask)
        hit = memo.get(key)
        if hit is not None:
            return hit
        pieces = []
        sign = 1
        for col in range(n):
            bit = 1 << col
            if cols_mask & bit:
                continue
            entry = matrix[row][col]
            if not entry.is_zero():
                sub = go(row + 1, cols_mask | bit)
                term = entry * sub
                pieces.append(term if sign == 1 else -term)
            sign = -sign
        value = poly_sum(pieces)
        memo[key] = value
        return value

    return go(0, 0)


def check_twist_conditions(R: DoubledRealization, F: FluxTensor) -> list[AxiomReport]:
    """The two twist compatibility conditions: antisymmetry of the lowered
    tensor in its last two slots, and annihilation by the doubled anchor
    (with the anchor determinant reported when the twist is nonzero)."""
    if F.dim != R.dim:
        raise ValueError("flux dimension does not match the realization")
    dim2 = 2 * R.dim

    sym = []
    seen: set[tuple[int, int, int]] = set()
    for (m, n, l) in F.entries:
        l_low = l - R.dim if l > R.dim else l + R.dim
        for key in ((m, n, l_low), (m, l_low, n)):
            if key in seen:
                continue
            seen.add(key)
            a, b, c = key
            sym.append((f"F[{a},{b},{c}]+F[{a},{c},{b}]", F.lowered(a, b, c) + F.lowered(a, c, b)))

    rho = rho_V_matrix(R)
    annihilation = [
        (
            f"rho.F[{m},{n};{l_out}]",
            poly_sum(rho[l_out - 1][k - 1] * F.component(m, n, k) for k in range(1, dim2 + 1)),
        )
        for (m, n) in sorted({(m, n) for (m, n, _l) in F.entries})
        for l_out in range(1, dim2 + 1)
    ]
    detail = ""
    if not F.is_zero():
        det = _determinant(rho)
        if det.is_zero():
            detail = "anchor determinant vanishes identically"
        else:
            detail = f"anchor determinant is nonzero ({det}); a nonzero twist cannot lie in its kernel"
    return [_report("twist-V2", sym, {}), _report("twist-C2", annihilation, {}, detail=detail)]


def _flux_frame_type(R: DoubledRealization, F: FluxTensor) -> Optional[str]:
    """"H" when every entry sits in the lower-lower block with an E* output
    and x-only coefficients, "R" for the mirrored case, None otherwise."""
    if F.is_zero():
        return "H"
    dim = R.dim
    h_like = all(m <= dim and n <= dim and l > dim for (m, n, l) in F.entries)
    r_like = all(m > dim and n > dim and l <= dim for (m, n, l) in F.entries)
    if h_like:
        allowed = frozenset(Var(KIND_X, mu) for mu in range(1, dim + 1))
        if all(p.coord_support_within(allowed) for p in F.entries.values()):
            return "H"
        return None
    if r_like:
        allowed = frozenset(Var(KIND_XT, mu) for mu in range(1, dim + 1))
        if all(p.coord_support_within(allowed) for p in F.entries.values()):
            return "R"
    return None


def _flux_three_form(R: DoubledRealization, F: FluxTensor, frame: str) -> Optional[FormField]:
    """The one-sided 3-form carried by the twist, or None when the lowered
    components are not totally antisymmetric."""
    dim = R.dim

    def low(a: int, b: int, c: int) -> PolyExpr:
        if frame == "H":
            return F.lowered(a, b, c)
        return F.lowered(dim + a, dim + b, dim + c)

    comps: dict[tuple[int, ...], PolyExpr] = {}
    for a in range(1, dim + 1):
        for b in range(1, dim + 1):
            for c in range(1, dim + 1):
                value = low(a, b, c)
                if len({a, b, c}) < 3:
                    if not value.is_zero():
                        return None
                    continue
                key = tuple(sorted((a, b, c)))
                canon = value if _sorted_with_sign((a, b, c))[1] == 1 else -value
                base = comps.get(key)
                if base is None:
                    comps[key] = canon
                elif base != canon:
                    return None
    on = E if frame == "H" else ESTAR
    return FormField(on, 3, {k: v for k, v in comps.items() if not v.is_zero()}, dim=dim)


def _jac_f_condition_residual(R, F, e1, e2, e3) -> DoubledSection:
    """The closed-form obstruction to the Jacobi anomaly of the twisted
    bracket, measured directly term by term."""
    total = DoubledSection.zero(R.dim)
    scalars = []
    for (a, b, c) in ((e1, e2, e3), (e2, e3, e1), (e3, e1, e2)):
        ii = flux_contraction(F, a, b)
        scalars.append(pairing("+", ii, c))
        total = total + flux_contraction(F, c_bracket(R, a, b), c)
        total = total + c_bracket(R, ii, c)
        total = total + flux_contraction(F, ii, c)
    correction = D_op(R, poly_sum(scalars)).scaled(PolyExpr.const(_THIRD))
    return total - correction


def _bianchi_comparison_residual(R, F, e1, e2, e3) -> Residuals:
    """The twisted Jacobi obstruction minus the triple contraction of the
    derivative of the twist's 3-form (of a twist that ``check_bianchi``
    accepts)."""
    lhs = _jac_f_condition_residual(R, F, e1, e2, e3)
    frame = _flux_frame_type(R, F)
    contracted = d_differential(R.E if frame == "H" else R.Estar, _flux_three_form(R, F, frame))
    # Slot order pinned by the identity itself: the third section fills
    # the first slot of the 4-form, then the second, then the first.
    for v in [s.X if frame == "H" else s.xi for s in (e3, e2, e1)]:
        contracted = interior_product(v, contracted)
    expected_vec = contracted.as_vector_field()
    if frame == "H":
        expected = DoubledSection(VectorField.zero(E, R.dim), expected_vec)
    else:
        expected = DoubledSection(expected_vec, VectorField.zero(ESTAR, R.dim))
    return (lhs - expected).components()


def check_bianchi(
    R: DoubledRealization, F: FluxTensor, family: Optional[GenericSectionFamily] = None
) -> AxiomReport:
    """Closedness of the one-sided 3-form carried by the twist.

    For a twist in the lower-lower block with x-only data this is the
    exterior derivative on the E side; the mirrored block uses the E*
    side.  In the genuine one-sided frame (the opposite anchor vanishing,
    x-only data) the twisted Jacobi obstruction is also evaluated on
    generic sections and compared with the triple contraction of the
    4-form, which it must equal exactly.
    """
    family = family or GenericSectionFamily(degree=R.degree, count=R.sections)
    frame = _flux_frame_type(R, F)
    if frame is None:
        return AxiomReport(
            "bianchi",
            SKIPPED,
            detail="twist is not a one-sided 3-form with matching one-leaf data; no closedness form applies",
        )
    three = _flux_three_form(R, F, frame)
    if three is None:
        return AxiomReport(
            "bianchi",
            SKIPPED,
            detail="lowered twist components are not totally antisymmetric; not a 3-form",
        )
    algebroid = R.E if frame == "H" else R.Estar
    d_three = d_differential(algebroid, three)
    residuals = [
        (f"d{'H' if frame == 'H' else 'R'}[{','.join(map(str, key))}]", poly)
        for key, poly in sorted(d_three.comps.items())
    ]

    detail = f"{frame}-frame twist"
    one_sided = (
        R.Estar.anchor_is_zero() and not R.Estar.structure
        if frame == "H"
        else R.E.anchor_is_zero() and not R.E.structure
    )
    if one_sided:
        disagrees = f"{detail}; twisted Jacobi obstruction disagrees with the contracted derivative"
        comparison = _decide("bianchi", R, family, F, detail=disagrees)
        if not comparison.passed():
            return comparison
        detail += (
            "; twisted Jacobi obstruction matches the triple contraction of the derivative on generic sections"
        )
    else:
        detail += "; obstruction comparison skipped: realization is not in the one-sided frame"
    return _report("bianchi", residuals, {}, family.degree, detail)


# -- the residual table ---------------------------------------------------------


@dataclass(frozen=True)
class Residual:
    """One residual that ``_decide`` proves.

    ``residual(R, flux, **inputs)`` returns its components.  ``slots`` names
    its inputs with their kinds (``"section"``, the ``E`` or ``ESTAR`` part
    of one, or ``"function"``) in allocation order; a witness depends on the
    relative order of the parameters in its component, so reordering slots
    can change reports.  ``probes(R, sections, functions)`` yields concrete
    inputs in slot order from the probe sections and test functions.
    """

    order: int
    residual: Callable[..., Residuals]
    slots: tuple[tuple[str, str], ...]
    probes: Callable[[DoubledRealization, list, list], Iterable[tuple]]


def _triples(R, sections, functions):
    return itertools.islice(itertools.product(sections, repeat=3), 120)


def _derivation_probes(R, sections, functions):
    # pairs of E parts with zero E* parts, then the mirror
    xs = [s.X for s in sections if not s.X.is_zero()]
    xis = [s.xi for s in sections if not s.xi.is_zero()]
    zero_x, zero_xi = VectorField.zero(E, R.dim), VectorField.zero(ESTAR, R.dim)
    return itertools.chain(
        ((a, b, zero_xi, zero_xi) for a, b in itertools.product(xs, repeat=2)),
        ((zero_x, zero_x, a, b) for a, b in itertools.product(xis, repeat=2)),
    )


_E1, _E2, _E3 = (("e1", "section"), ("e2", "section"), ("e3", "section"))
_F, _G = ("f", "function"), ("g", "function")

# Keyed by the check id given to ``_decide``.  ``order`` is the total order
# k of the residual as a multidifferential operator (EGA IV 16.8): every
# (k+1)-fold commutator with multiplication by admissible coordinates, each
# acting on any one input, vanishes.  tests/test_jet_order.py checks this
# for each entry and primitive (``c_bracket``, ``twisted_c_bracket``,
# ``D_op``, ``rho_V_dot``, the algebroid bracket, ``d_differential`` and
# ``schouten`` have order 1, ``pairing`` order 0).  C1 nests a bracket in a
# bracket, the derivation condition a bracket in a differential, and C4 and
# the strong constraint pair two gradients (order 2); the others have order
# 1.  The value of an order-k operator at a point depends only on the k-jets
# of the inputs there, and generic data of degree k takes every admissible
# k-jet, so a residual that vanishes on it vanishes for admissible data of
# any degree.  A 2-fold commutator in one input of an order-2 residual has
# order 0, so generic constants decide it; when all vanish
# (``generic._first_order_in_every_input``), degree-1 data decides the
# residual.
#
# ``generic._first_failing_probe`` decides a probe battery from one
# evaluation on polarized inputs, sum_a w_a s_a over the candidates of each
# slot.  Setting weights to 0 or 1 commutes with coordinate derivatives,
# sums and products, and the only branches on data in ``doubled``,
# ``algebroid`` and the residuals are ``is_zero()`` shortcuts that skip zero
# work, so each probe's residual is the polarized one with the probe's
# weights set to 1 and the others to 0.
RESIDUALS: dict[str, Residual] = {
    "C1": Residual(2, _c1_residual, (_E1, _E2, _E3), _triples),
    "C2": Residual(1, _anchor_residual, (_E1, _E2), lambda R, s, fs: itertools.product(s, repeat=2)),
    "C3": Residual(
        1, _leibniz_residual, (_E1, _E2, _F),
        lambda R, s, fs: itertools.islice(itertools.product(s, s, fs[:3]), 60),
    ),
    "C4": Residual(2, _c4_residual, (_F, _G), lambda R, s, fs: itertools.product(fs, repeat=2)),
    "C5": Residual(1, _compat_residual, (_E1, _E2, _E3), _triples),
    "derivation": Residual(
        2, _derivation_residual, (("X", E), ("Y", E), ("xi", ESTAR), ("eta", ESTAR)), _derivation_probes
    ),
    "strong-fn": Residual(2, _strong_fn_residual, (_F, _G), lambda R, s, fs: itertools.product(fs, repeat=2)),
    "strong-vec": Residual(
        2, _strong_vec_residual, (_F, ("e", "section")), lambda R, s, fs: itertools.product(fs[:4], s)
    ),
    "strong-form": Residual(
        2, _strong_form_residual, (_F, ("e", "section")), lambda R, s, fs: itertools.product(fs[:4], s)
    ),
    "bianchi": Residual(1, _bianchi_comparison_residual, (_E1, _E2, _E3), lambda R, s, fs: ()),
}


# -- classification -----------------------------------------------------------


def label_from_statuses(passed: set[str]) -> tuple[str, bool]:
    """The strongest family supported by a set of passing axiom ids, plus
    whether the combination is impossible for the doubled construction
    (modified Jacobi holding while anchor or gradient compatibility fails)."""
    if "C3" not in passed or "C5" not in passed:
        label = "not-Vaisman"
    elif passed >= {"C1", "C2", "C3", "C4", "C5"}:
        label = "Courant"
    elif {"C2", "C4"} <= passed and "C1" not in passed:
        label = "pre-Courant"
    elif {"C1", "C4"} <= passed:
        label = "Jacobi-ante-Courant"
    elif "C4" in passed:
        label = "ante-Courant"
    elif "C1" in passed:
        label = "Jacobi-Vaisman"
    else:
        label = "Vaisman"
    suspicious = "C1" in passed and bool({"C2", "C4"} - passed)
    return label, suspicious


def classify(
    R: DoubledRealization,
    family: Optional[GenericSectionFamily] = None,
    flux: Optional[FluxTensor] = None,
) -> tuple[str, list[AxiomReport]]:
    """Run the five axioms and name the strongest family they support.

    The combination "modified Jacobi holds but anchor or gradient
    compatibility fails" cannot arise from the doubled construction; when
    observed it is flagged in the Jacobi report's detail since it signals
    an inconsistency rather than a legitimate family.
    """
    family = family or GenericSectionFamily(degree=R.degree, count=R.sections)
    reports = [check_axiom(R, axiom, family, flux) for axiom in AXIOM_IDS]
    ok = {r.check_id for r in reports if r.status == PASS}
    label, suspicious = label_from_statuses(ok)
    if suspicious:
        for r in reports:
            if r.check_id == "C1":
                r.detail = (
                    (r.detail + "; " if r.detail else "")
                    + "modified Jacobi without anchor/gradient compatibility cannot come "
                    + "from the doubled bracket; flagging for review"
                )
    return label, reports


# -- degeneration to algebras ---------------------------------------------------


def quadratic_lie_algebra_check(
    R: DoubledRealization, family: Optional[GenericSectionFamily] = None
) -> list[AxiomReport]:
    """With both anchors zero and constant structure functions the bracket
    restricts to constant sections as a candidate Lie algebra with an
    invariant pairing; check the Jacobi identity, bilinearity over
    functions, and pairing invariance there."""
    if not (R.E.anchor_is_zero() and R.Estar.anchor_is_zero()):
        raise ValueError("degeneration check requires both anchors to vanish")
    if not (R.E.structure_is_constant() and R.Estar.structure_is_constant()):
        raise ValueError("degeneration check requires constant structure functions")
    family = family or GenericSectionFamily(degree=R.degree, count=R.sections)

    alloc = _Allocator(family.start)
    e1, e2, e3 = (_generic_section(R, 0, alloc) for _ in range(3))
    f = _generic_poly(R.dim, max(1, family.degree), R.function_constraint, alloc)

    triple = {"e1": e1, "e2": e2, "e3": e3}
    bilin = c_bracket(R, e1, e2.scaled(f)) - c_bracket(R, e1, e2).scaled(f)
    invariance = pairing("+", c_bracket(R, e1, e2), e3) + pairing("+", e2, c_bracket(R, e1, e3))
    return [
        _report("quadratic-jacobi", jacobiator(R, e1, e2, e3).components(), triple, 0),
        _report("quadratic-bilinearity", bilin.components(), {"e1": e1, "e2": e2, "f": f}, 0),
        _report("quadratic-ad-invariance", [("scalar", invariance)], triple, 0),
    ]


# -- check registry ---------------------------------------------------------------


@dataclass
class CheckInputs:
    """What the checks of one scenario run share."""

    R: DoubledRealization
    family: GenericSectionFamily
    flux: Optional[FluxTensor]
    explicit_sections: Sequence[DoubledSection]

    @cached_property
    def twist_reports(self) -> list[AxiomReport]:
        """Both twist conditions, computed once for twist-V2 and twist-C2."""
        return check_twist_conditions(self.R, self.flux)


@dataclass(frozen=True)
class Check:
    """One check id of the scenario runner.

    ``run(inputs, check_id)`` returns its reports, a check with
    ``needs_flux`` is SKIPPED when the scenario has no flux, and ``decides``
    is what its check function is asked for: the axiom that a
    ``check_axiom`` id decides (V1 and V2 are C3 and C5), or a
    strong-constraint level.
    """

    run: Callable[[CheckInputs, str], list[AxiomReport]]
    needs_flux: bool = False
    decides: Optional[str] = None

    @property
    def sections(self) -> int:
        """The least generic section count the check accepts: the section
        slots of the axiom it decides, the most of any axiom for classify."""
        if self.run is _run_classify:
            return max(CHECKS[axiom].sections for axiom in AXIOM_IDS)
        if self.run is not _run_axiom:
            return 0
        return sum(kind == "section" for _, kind in RESIDUALS[self.decides].slots)


# The registry entries look the check functions up in this module's globals
# at call time, so a wrapper set on a module attribute sees every call.
def _run_axiom(inputs: CheckInputs, check_id: str) -> list[AxiomReport]:
    R, family, flux = inputs.R, inputs.family, inputs.flux
    return [check_axiom(R, check_id, family, flux, explicit_sections=inputs.explicit_sections)]


def _run_classify(inputs: CheckInputs, check_id: str) -> list[AxiomReport]:
    return classify(inputs.R, inputs.family, inputs.flux)[1]


def _run_strong(inputs: CheckInputs, check_id: str) -> list[AxiomReport]:
    return [check_strong_constraint(inputs.R, CHECKS[check_id].decides, inputs.family)]


def _run_quadratic(inputs: CheckInputs, check_id: str) -> list[AxiomReport]:
    try:
        return quadratic_lie_algebra_check(inputs.R, inputs.family)
    except ValueError as exc:
        return [AxiomReport(check_id, SKIPPED, detail=str(exc))]


def _run_twist(inputs: CheckInputs, check_id: str) -> list[AxiomReport]:
    return [r for r in inputs.twist_reports if r.check_id == check_id]


CHECKS: dict[str, Check] = {
    "classify": Check(_run_classify),
    "V1": Check(_run_axiom, decides="C3"),
    "V2": Check(_run_axiom, decides="C5"),
    "C1": Check(_run_axiom, decides="C1"),
    "C2": Check(_run_axiom, decides="C2"),
    "C3": Check(_run_axiom, decides="C3"),
    "C4": Check(_run_axiom, decides="C4"),
    "C5": Check(_run_axiom, decides="C5"),
    "derivation": Check(lambda i, c: [check_derivation_condition(i.R, i.family)]),
    "strong-fn": Check(_run_strong, decides="functions"),
    "strong-vec": Check(_run_strong, decides="vectors"),
    "strong-form": Check(_run_strong, decides="forms"),
    "anchor-antisym": Check(lambda i, c: [check_anchor_antisymmetry(i.R)]),
    "twist-V2": Check(_run_twist, needs_flux=True),
    "twist-C2": Check(_run_twist, needs_flux=True),
    "bianchi": Check(lambda i, c: [check_bianchi(i.R, i.flux, i.family)], needs_flux=True),
    "quadratic": Check(_run_quadratic),
}
# The five axioms that classification runs, in order.
AXIOM_IDS = tuple(sorted({c.decides for c in CHECKS.values() if c.run is _run_axiom}))
