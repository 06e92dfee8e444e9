"""The doubled bundle: pairings, anchor, skew bracket, flux twist, Poisson map.

A realization couples a side-E algebroid and a side-E* algebroid of the
same rank over one flat chart.  Sections of the sum carry a symmetric and
an antisymmetric pairing built from the frame duality, the anchor is the
sum of the two anchors, and the skew bracket combines the two algebroid
brackets with the mixed Lie-derivative actions and a gradient correction:

  E  part: [X1,X2] + L_{xi1} X2 - L_{xi2} X1 - d*<e1,e2>_-
  E* part: [xi1,xi2] + L_{X1} xi2 - L_{X2} xi1 + d <e1,e2>_-

where d and d* are the differentials of the two algebroids and the mixed
Lie derivatives are contraction/derivative anticommutators through the
dual differential.  An admissibility predicate (a coordinate-variable
mask) models a solved closure constraint: generated test data, and
optionally explicit sections, are restricted to the masked variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .algebroid import (
    E,
    ESTAR,
    FrameAlgebroid,
    SideError,
    TangentField,
    VectorField,
    algebroid_bracket,
    lie_derivative,
    validate_lie_algebroid,
)
from .poly import KIND_X, KIND_XT, DoubledIndex, PolyExpr, Var, coordinate_vars, poly_sum

__all__ = [
    "Admissibility",
    "DoubledSection",
    "DoubledRealization",
    "FluxTensor",
    "RealizationError",
    "pairing",
    "rho_V",
    "rho_V_matrix",
    "D_op",
    "c_bracket",
    "twisted_c_bracket",
    "flux_contraction",
    "pi_map",
    "poisson_bracket",
]

_ZERO = PolyExpr.zero()
_HALF = Fraction(1, 2)


class RealizationError(ValueError):
    """Raised when a realization or its inputs violate an invariant."""


@dataclass(frozen=True)
class Admissibility:
    """Which coordinate variables sections and test functions may use.

    ``mask`` is None for the unrestricted ring, otherwise the frozenset of
    allowed coordinate variables.  Masking a conjugate x/xt pair apart is
    what makes the gradient pairings of admissible data vanish.
    """

    mask: Optional[frozenset[Var]] = None

    @classmethod
    def unrestricted(cls) -> "Admissibility":
        return cls(None)

    @classmethod
    def x_only(cls, dim: int) -> "Admissibility":
        return cls(frozenset(Var(KIND_X, mu) for mu in range(1, dim + 1)))

    @classmethod
    def xt_only(cls, dim: int) -> "Admissibility":
        return cls(frozenset(Var(KIND_XT, mu) for mu in range(1, dim + 1)))

    @classmethod
    def from_names(cls, names: Sequence[str], dim: int) -> "Admissibility":
        vars_: set[Var] = set()
        for name in names:
            kind = "xt" if name.startswith("xt") else name[:1]
            if kind not in (KIND_X, KIND_XT):
                raise RealizationError(f"mask entry {name!r} is not a coordinate variable")
            try:
                index = int(name[len(kind):])
            except ValueError:
                raise RealizationError(f"mask entry {name!r} is not a coordinate variable") from None
            if not 1 <= index <= dim:
                raise RealizationError(f"mask entry {name!r} out of range for dimension {dim}")
            vars_.add(Var(kind, index))
        return cls(frozenset(vars_))

    def allows(self, poly: PolyExpr) -> bool:
        return poly.coord_support_within(self.mask)

    def allowed_vars(self, dim: int) -> list[Var]:
        every = coordinate_vars(dim)
        if self.mask is None:
            return every
        return [v for v in every if v in self.mask]

    def describe(self) -> str:
        if self.mask is None:
            return "unrestricted"
        return "{" + ",".join(sorted(str(v) for v in self.mask)) + "}"


@dataclass(frozen=True)
class DoubledSection:
    """An element X + xi of the doubled bundle."""

    X: VectorField
    xi: VectorField

    def __post_init__(self):
        if self.X.side != E or self.xi.side != ESTAR:
            raise SideError("a doubled section needs an E part and an E* part")
        if self.X.dim != self.xi.dim:
            raise ValueError("component counts of the two parts differ")

    @property
    def dim(self) -> int:
        return self.X.dim

    def is_zero(self) -> bool:
        return self.X.is_zero() and self.xi.is_zero()

    def __add__(self, other: "DoubledSection") -> "DoubledSection":
        return DoubledSection(self.X + other.X, self.xi + other.xi)

    def __sub__(self, other: "DoubledSection") -> "DoubledSection":
        return DoubledSection(self.X - other.X, self.xi - other.xi)

    def __neg__(self) -> "DoubledSection":
        return DoubledSection(-self.X, -self.xi)

    def scaled(self, f: PolyExpr) -> "DoubledSection":
        return DoubledSection(self.X.scaled(f), self.xi.scaled(f))

    def param_indices(self) -> set[int]:
        return self.X.param_indices() | self.xi.param_indices()

    def subs_params(self, assignment: dict) -> "DoubledSection":
        return DoubledSection(self.X.subs_params(assignment), self.xi.subs_params(assignment))

    def to_json(self) -> dict[str, list[str]]:
        return {"X": self.X.to_json(), "xi": self.xi.to_json()}

    def doubled_components(self) -> tuple[PolyExpr, ...]:
        """The 2D chart-indexed components (X^mu first, then xi_mu)."""
        return self.X.comps + self.xi.comps

    def components(self) -> list[tuple[str, PolyExpr]]:
        labeled = [(f"X[{i}]", c) for i, c in enumerate(self.X.comps, start=1)]
        labeled += [(f"xi[{i}]", c) for i, c in enumerate(self.xi.comps, start=1)]
        return labeled

    @classmethod
    def zero(cls, dim: int) -> "DoubledSection":
        return cls(VectorField.zero(E, dim), VectorField.zero(ESTAR, dim))

    @classmethod
    def from_parts(cls, X: Sequence[PolyExpr], xi: Sequence[PolyExpr]) -> "DoubledSection":
        return cls(VectorField(E, tuple(X)), VectorField(ESTAR, tuple(xi)))


class DoubledRealization:
    """A validated pair of dual algebroids plus the admissibility predicate.

    ``constraint`` restricts section components, ``function_constraint``
    restricts the scalar test functions fed to the axiom residuals; by
    default the two coincide.  Both algebroids are run through the
    Lie-algebroid checks at construction and construction fails with the
    offending identity if either is not an algebroid.

    Construction validates with affine generic sections: the three
    defining identities are multilinear in section values and first
    derivatives (all second-derivative terms cancel for any anchor), so
    degree-1 genericity already decides them for all sections.
    """

    __slots__ = (
        "dim",
        "E",
        "Estar",
        "constraint",
        "function_constraint",
        "degree",
        "sections",
        "check_cache",
    )

    def __init__(
        self,
        E_algebroid: FrameAlgebroid,
        Estar_algebroid: FrameAlgebroid,
        constraint: Optional[Admissibility] = None,
        function_constraint: Optional[Admissibility] = None,
        degree: int = 2,
        sections: int = 3,
    ):
        if E_algebroid.side != E or Estar_algebroid.side != ESTAR:
            raise RealizationError("realization needs one side-E and one side-E* algebroid")
        if E_algebroid.dim != Estar_algebroid.dim:
            raise RealizationError("algebroid dimensions disagree")
        if degree < 0 or sections < 1:
            raise RealizationError("degree must be >= 0 and sections >= 1")
        self.dim = E_algebroid.dim
        self.E = E_algebroid
        self.Estar = Estar_algebroid
        self.constraint = constraint or Admissibility.unrestricted()
        self.function_constraint = function_constraint or self.constraint
        self.degree = degree
        self.sections = sections
        self.check_cache: dict = {}
        for A in (self.E, self.Estar):
            report = A.validation or validate_lie_algebroid(A, degree=1)
            if not report.ok:
                raise RealizationError(
                    f"side-{A.side} algebroid fails the {report.failed} identity: "
                    f"{report.witness}"
                )

    # -- admissibility ------------------------------------------------------

    def section(self, X: Sequence[PolyExpr], xi: Sequence[PolyExpr]) -> DoubledSection:
        """Build a section, enforcing the admissibility predicate."""
        sec = DoubledSection.from_parts(X, xi)
        if sec.dim != self.dim:
            raise RealizationError("section dimension does not match the realization")
        for label, comp in sec.components():
            if not self.constraint.allows(comp):
                raise RealizationError(
                    f"component {label} = {comp} uses variables outside the "
                    f"admissibility mask {self.constraint.describe()}"
                )
        return sec

    # -- flat-realization constructor ---------------------------------------

    @classmethod
    def flat(
        cls,
        dim: int,
        constraint: Optional[Admissibility] = None,
        function_constraint: Optional[Admissibility] = None,
        degree: int = 2,
        sections: int = 3,
    ) -> "DoubledRealization":
        return cls(
            FrameAlgebroid.coordinate(E, dim),
            FrameAlgebroid.coordinate(ESTAR, dim),
            constraint=constraint,
            function_constraint=function_constraint,
            degree=degree,
            sections=sections,
        )


# -- pairings and anchor ------------------------------------------------------


def _inner(xi: VectorField, X: VectorField) -> PolyExpr:
    """Frame duality pairing <xi, X> = sum_mu xi_mu X^mu."""
    return poly_sum(a * b for a, b in zip(xi.comps, X.comps))


def pairing(sign: str, e1: DoubledSection, e2: DoubledSection) -> PolyExpr:
    """The bilinear forms (1/2)(<xi1,X2> +/- <xi2,X1>)."""
    if e1.dim != e2.dim:
        raise ValueError("sections of different dimension")
    a = _inner(e1.xi, e2.X)
    b = _inner(e2.xi, e1.X)
    total = a + b if sign == "+" else a - b
    return total.scaled(_HALF)


def rho_V(R: DoubledRealization, e: DoubledSection) -> TangentField:
    """Anchor of the double: the sum of the two anchor images."""
    ex = R.E.rho_apply(e.X)
    exi = R.Estar.rho_apply(e.xi)
    return tuple(a + b for a, b in zip(ex, exi))


def rho_V_dot(R: DoubledRealization, e: DoubledSection, f: PolyExpr) -> PolyExpr:
    return R.E.rho_dot(e.X, f) + R.Estar.rho_dot(e.xi, f)


def rho_V_matrix(R: DoubledRealization) -> tuple[tuple[PolyExpr, ...], ...]:
    """The 2D x 2D anchor block matrix [anchor_E | anchor_E*]."""
    rows = []
    for m in range(2 * R.dim):
        rows.append(tuple(R.E.anchor[m]) + tuple(R.Estar.anchor[m]))
    return tuple(rows)


def D_op(R: DoubledRealization, f: PolyExpr) -> DoubledSection:
    """The gradient section d*f + df of the double.

    Its defining property is that the symmetric pairing with any section
    returns half the anchor derivative of f along that section.
    """
    df = tuple(R.E.frame_rho_dot(i, f) for i in range(1, R.dim + 1))
    dstar_f = tuple(R.Estar.frame_rho_dot(i, f) for i in range(1, R.dim + 1))
    return DoubledSection.from_parts(dstar_f, df)


# -- the skew bracket ---------------------------------------------------------


def _mixed_lie_on_E(R: DoubledRealization, xi: VectorField, X: VectorField) -> VectorField:
    """L_xi X for xi on E*, X on E, through the E* differential."""
    return lie_derivative(R.Estar, xi, X.as_form()).as_vector_field()


def _mixed_lie_on_Estar(R: DoubledRealization, X: VectorField, xi: VectorField) -> VectorField:
    """L_X xi for X on E, xi on E*, through the E differential."""
    return lie_derivative(R.E, X, xi.as_form()).as_vector_field()


def c_bracket(R: DoubledRealization, e1: DoubledSection, e2: DoubledSection) -> DoubledSection:
    """The skew bracket of the double (all eight terms)."""
    minus = pairing("-", e1, e2)
    d_minus = D_op(R, minus)  # E part carries d* minus, E* part carries d minus
    x_part = (
        algebroid_bracket(R.E, e1.X, e2.X)
        + _mixed_lie_on_E(R, e1.xi, e2.X)
        - _mixed_lie_on_E(R, e2.xi, e1.X)
        - d_minus.X
    )
    xi_part = (
        algebroid_bracket(R.Estar, e1.xi, e2.xi)
        + _mixed_lie_on_Estar(R, e1.X, e2.xi)
        - _mixed_lie_on_Estar(R, e2.X, e1.xi)
        + d_minus.xi
    )
    return DoubledSection(x_part, xi_part)


# -- flux twist ---------------------------------------------------------------


class FluxTensor:
    """A twist tensor with two lower doubled slots and one upper slot.

    Entries are keyed (M, N, L) with all three in 1..2D; the upper slot L
    splits the output section: L <= D lands on the E part, L = D + l on
    the E* part.  Lowering the upper slot swaps the two blocks.  No
    symmetry is imposed at construction; the twist conditions are checks.
    """

    __slots__ = ("dim", "entries")

    def __init__(self, dim: int, entries: dict[tuple[int, int, int], PolyExpr]):
        self.dim = dim
        clean: dict[tuple[int, int, int], PolyExpr] = {}
        for (m, n, l), poly in entries.items():
            for idx in (m, n, l):
                if not 1 <= idx <= 2 * dim:
                    raise ValueError(f"flux index {idx} out of range 1..{2 * dim}")
            if not poly.is_zero():
                if (m, n, l) in clean:
                    raise ValueError(f"duplicate flux entry {(m, n, l)}")
                clean[(m, n, l)] = poly
        self.entries = clean

    def is_zero(self) -> bool:
        return not self.entries

    def component(self, m: int, n: int, l: int) -> PolyExpr:
        return self.entries.get((m, n, l), _ZERO)

    def lowered(self, m: int, n: int, l_low: int) -> PolyExpr:
        """Entry with the upper slot lowered by the block swap."""
        l_up = l_low + self.dim if l_low <= self.dim else l_low - self.dim
        return self.component(m, n, l_up)

    @classmethod
    def h_type(cls, dim: int, h: dict[tuple[int, int, int], PolyExpr]) -> "FluxTensor":
        """Build the twist tensor of a totally antisymmetric 3-index block
        with all lowered slots in the x block (components H_{mu nu rho})."""
        entries: dict[tuple[int, int, int], PolyExpr] = {}
        seen: set[tuple[int, int, int]] = set()
        for (mu, nu, rho), poly in h.items():
            base = tuple(sorted((mu, nu, rho)))
            if base in seen:
                raise ValueError(f"duplicate H entry for {base}")
            seen.add(base)
            if poly.is_zero():
                continue
            if len({mu, nu, rho}) != 3:
                raise ValueError("H entries need three distinct indices")
            for perm, sign in _signed_permutations((mu, nu, rho)):
                a, b, c = perm
                entries[(a, b, c + dim)] = poly if sign == 1 else -poly
        return cls(dim, entries)


def _signed_permutations(idx: tuple[int, int, int]):
    a, b, c = idx
    yield (a, b, c), 1
    yield (b, c, a), 1
    yield (c, a, b), 1
    yield (b, a, c), -1
    yield (a, c, b), -1
    yield (c, b, a), -1


def flux_contraction(F: FluxTensor, e1: DoubledSection, e2: DoubledSection) -> DoubledSection:
    """Double contraction of the twist tensor: e1 in the first slot, e2 in
    the second, the upper slot split over the two parts of the output."""
    dim = F.dim
    v1 = e1.doubled_components()
    v2 = e2.doubled_components()
    x_parts: list[list[PolyExpr]] = [[] for _ in range(dim)]
    xi_parts: list[list[PolyExpr]] = [[] for _ in range(dim)]
    for (m, n, l), poly in F.entries.items():
        a, b = v1[m - 1], v2[n - 1]
        if a.is_zero() or b.is_zero():
            continue
        term = poly * a * b
        if l <= dim:
            x_parts[l - 1].append(term)
        else:
            xi_parts[l - dim - 1].append(term)
    return DoubledSection.from_parts(
        tuple(poly_sum(p) for p in x_parts), tuple(poly_sum(p) for p in xi_parts)
    )


def twisted_c_bracket(
    R: DoubledRealization, F: FluxTensor, e1: DoubledSection, e2: DoubledSection
) -> DoubledSection:
    """The skew bracket shifted by the flux contraction."""
    if F.dim != R.dim:
        raise ValueError("flux dimension does not match the realization")
    return c_bracket(R, e1, e2) + flux_contraction(F, e1, e2)


# -- induced Poisson structure ------------------------------------------------


def pi_map(R: DoubledRealization) -> tuple[tuple[PolyExpr, ...], ...]:
    """The cotangent-to-tangent composite anchor_E . (anchor_E*)^t."""
    dim2 = 2 * R.dim
    rows = []
    for m in range(dim2):
        row = []
        for n in range(dim2):
            row.append(
                poly_sum(
                    R.E.anchor[m][i] * R.Estar.anchor[n][i] for i in range(R.dim)
                )
            )
        rows.append(tuple(row))
    return tuple(rows)


def poisson_bracket(R: DoubledRealization, g: PolyExpr, f: PolyExpr) -> PolyExpr:
    """{g, f} = <pi(d0 g), d0 f> with pi the composite anchor map.

    In the flat coordinate realization this is the sum over mu of
    dxt_mu(g) * dx_mu(f).
    """
    pi = pi_map(R)
    dim = R.dim
    grads_g = [g.partial(DoubledIndex.from_flat(n, dim)) for n in range(1, 2 * dim + 1)]
    grads_f = [f.partial(DoubledIndex.from_flat(m, dim)) for m in range(1, 2 * dim + 1)]
    pieces = []
    for m in range(2 * dim):
        if grads_f[m].is_zero():
            continue
        for n in range(2 * dim):
            entry = pi[m][n]
            if entry.is_zero() or grads_g[n].is_zero():
                continue
            pieces.append(entry * grads_g[n] * grads_f[m])
    return poly_sum(pieces)
