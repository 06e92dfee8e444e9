"""Lie algebroids in a global frame over the flat doubled chart.

An algebroid here is a rank-D bundle with a chosen frame, an anchor into
the 2D-dimensional chart tangent bundle, and structure functions for the
frame bracket.  Two sides exist, "E" and "E*", in duality through the
frame pairing.  Conventions used throughout:

* a ``VectorField`` on side S is a section of S (D components);
* a ``FormField`` with ``on == "E"`` is a section of the exterior powers
  of E* (a form on E); with ``on == "E*"`` it is a section of the exterior
  powers of E (a multivector).  So ``on`` names the side whose vectors
  contract it and whose differential acts on it;
* a degree-1 FormField on S is the same data as a VectorField on the dual
  side of S.

The exterior derivative follows the alternating-sum formula with the
frame bracket, interior products contract the first slot, and the Lie
derivative is the contraction/derivative anticommutator.  The bracket of
a vector with a multivector of the same algebroid (the degree <= 2 slice
of the Schouten bracket) is implemented separately in ``schouten``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .generic import _Allocator, _generic_poly, witness
from .poly import DoubledIndex, PolyExpr, poly_sum

__all__ = [
    "E",
    "ESTAR",
    "dual_side",
    "SideError",
    "VectorField",
    "FormField",
    "FrameAlgebroid",
    "ParaComplexStructure",
    "ValidationReport",
    "validate_lie_algebroid",
    "algebroid_bracket",
    "d_differential",
    "interior_product",
    "lie_derivative",
    "schouten",
    "nijenhuis",
    "tangent_bracket",
]

E = "E"
ESTAR = "E*"

_ZERO = PolyExpr.zero()


def dual_side(side: str) -> str:
    return ESTAR if side == E else E


class SideError(ValueError):
    """Raised when operands live on incompatible sides."""


def _check_side(side: str) -> str:
    if side not in (E, ESTAR):
        raise SideError(f"unknown side {side!r}")
    return side


@dataclass(frozen=True)
class VectorField:
    """A section of one side, as D frame components."""

    side: str
    comps: tuple[PolyExpr, ...]

    def __post_init__(self):
        _check_side(self.side)

    @property
    def dim(self) -> int:
        return len(self.comps)

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.comps)

    @classmethod
    def zero(cls, side: str, dim: int) -> "VectorField":
        return cls(side, (_ZERO,) * dim)

    @classmethod
    def basis(cls, side: str, dim: int, i: int) -> "VectorField":
        comps = [_ZERO] * dim
        comps[i - 1] = PolyExpr.one()
        return cls(side, tuple(comps))

    def __add__(self, other: "VectorField") -> "VectorField":
        if other.side != self.side:
            raise SideError("cannot add sections on different sides")
        return VectorField(self.side, tuple(a + b for a, b in zip(self.comps, other.comps)))

    def __sub__(self, other: "VectorField") -> "VectorField":
        if other.side != self.side:
            raise SideError("cannot subtract sections on different sides")
        return VectorField(self.side, tuple(a - b for a, b in zip(self.comps, other.comps)))

    def __neg__(self) -> "VectorField":
        return VectorField(self.side, tuple(-c for c in self.comps))

    def scaled(self, f: PolyExpr) -> "VectorField":
        return VectorField(self.side, tuple(f * c for c in self.comps))

    def param_indices(self) -> set[int]:
        return set().union(*(c.param_indices() for c in self.comps))

    def subs_params(self, assignment: dict) -> "VectorField":
        return VectorField(self.side, tuple(c.subs_params(assignment) for c in self.comps))

    def to_json(self) -> list[str]:
        return [str(c) for c in self.comps]

    def as_form(self) -> "FormField":
        """View as a degree-1 FormField (on the dual side's label)."""
        comps = {(i,): c for i, c in enumerate(self.comps, start=1) if not c.is_zero()}
        return FormField(dual_side(self.side), 1, comps, dim=self.dim)


def _sorted_with_sign(indices: Sequence[int]) -> tuple[Optional[tuple[int, ...]], int]:
    """Sort frame indices, returning (sorted tuple, permutation sign).

    Returns (None, 0) when an index repeats, so the component is zero.
    """
    idx = list(indices)
    sign = 1
    for a in range(1, len(idx)):
        b = a
        while b > 0 and idx[b - 1] > idx[b]:
            idx[b - 1], idx[b] = idx[b], idx[b - 1]
            sign = -sign
            b -= 1
    for a in range(1, len(idx)):
        if idx[a - 1] == idx[a]:
            return None, 0
    return tuple(idx), sign


class FormField:
    """A totally antisymmetric frame tensor of degree 0..4.

    Stored sparsely on strictly increasing index tuples; other index
    orders are produced with the permutation sign on lookup.
    """

    __slots__ = ("on", "degree", "comps", "dim")

    MAX_DEGREE = 4

    def __init__(self, on: str, degree: int, comps: dict[tuple[int, ...], PolyExpr], dim: int):
        _check_side(on)
        if not 0 <= degree <= self.MAX_DEGREE:
            raise ValueError(f"form degree {degree} outside supported range 0..{self.MAX_DEGREE}")
        self.on = on
        self.degree = degree
        self.dim = dim
        clean: dict[tuple[int, ...], PolyExpr] = {}
        for idx, poly in comps.items():
            if poly.is_zero():
                continue
            if len(idx) != degree:
                raise ValueError(f"index tuple {idx} does not match degree {degree}")
            key, sign = _sorted_with_sign(idx)
            if key is None:
                continue
            value = poly if sign == 1 else -poly
            if key in clean:
                raise ValueError(f"duplicate component for indices {idx}")
            clean[key] = value
        self.comps = clean

    @classmethod
    def scalar(cls, on: str, value: PolyExpr, dim: int) -> "FormField":
        return cls(on, 0, {(): value}, dim=dim)

    def component(self, indices: Sequence[int]) -> PolyExpr:
        key, sign = _sorted_with_sign(indices)
        if key is None:
            return _ZERO
        value = self.comps.get(key)
        if value is None:
            return _ZERO
        return value if sign == 1 else -value

    def is_zero(self) -> bool:
        return not self.comps

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FormField):
            return NotImplemented
        return (
            self.on == other.on
            and self.degree == other.degree
            and self.dim == other.dim
            and self.comps == other.comps
        )

    def __add__(self, other: "FormField") -> "FormField":
        if self.on != other.on or self.degree != other.degree:
            raise SideError("cannot add forms of different side or degree")
        out = dict(self.comps)
        for key, poly in other.comps.items():
            acc = out.get(key)
            acc = poly if acc is None else acc + poly
            if acc.is_zero():
                out.pop(key, None)
            else:
                out[key] = acc
        return FormField(self.on, self.degree, out, dim=self.dim)

    def __sub__(self, other: "FormField") -> "FormField":
        return self + (-other)

    def __neg__(self) -> "FormField":
        return FormField(self.on, self.degree, {k: -v for k, v in self.comps.items()}, dim=self.dim)

    def scaled(self, f: PolyExpr) -> "FormField":
        return FormField(self.on, self.degree, {k: f * v for k, v in self.comps.items()}, dim=self.dim)

    def as_vector_field(self) -> VectorField:
        if self.degree != 1:
            raise ValueError("only degree-1 forms correspond to sections")
        comps = tuple(self.component((i,)) for i in range(1, self.dim + 1))
        return VectorField(dual_side(self.on), comps)

    def as_scalar(self) -> PolyExpr:
        if self.degree != 0:
            raise ValueError("only degree-0 forms are scalars")
        return self.comps.get((), _ZERO)

    def __repr__(self) -> str:
        body = ", ".join(f"{k}: {v}" for k, v in sorted(self.comps.items()))
        return f"FormField(on={self.on}, degree={self.degree}, {{{body}}})"


TangentField = tuple[PolyExpr, ...]  # 2D components over the chart directions


def _flat_partial(f: PolyExpr, m: int, dim: int) -> PolyExpr:
    return f.partial(DoubledIndex.from_flat(m, dim))


def tangent_bracket(u: TangentField, v: TangentField, dim: int) -> TangentField:
    """Lie bracket of chart tangent fields: u^N d_N v^M - v^N d_N u^M."""
    out = []
    for m in range(1, 2 * dim + 1):
        pieces = []
        for n in range(1, 2 * dim + 1):
            un, vn = u[n - 1], v[n - 1]
            if not un.is_zero():
                pieces.append(un * _flat_partial(v[m - 1], n, dim))
            if not vn.is_zero():
                pieces.append(-(vn * _flat_partial(u[m - 1], n, dim)))
        out.append(poly_sum(pieces))
    return tuple(out)


class FrameAlgebroid:
    """An algebroid presented by a frame: anchor matrix plus structure functions.

    ``anchor`` has 2D rows (chart directions, x-block then xt-block) and D
    columns (frame elements).  ``structure`` maps (i, j, k) with i < j to
    the coefficient of the k-th frame element in the bracket of frames i
    and j; antisymmetry in (i, j) is built in.  Objects start out as
    unvalidated candidates; ``validate_lie_algebroid`` checks the Jacobi
    identity, the anchor homomorphism and the Leibniz rule and records the
    outcome.
    """

    __slots__ = ("side", "dim", "anchor", "structure", "_columns", "validation")

    def __init__(
        self,
        side: str,
        dim: int,
        anchor: Sequence[Sequence[PolyExpr]],
        structure: Optional[dict[tuple[int, int, int], PolyExpr]] = None,
    ):
        _check_side(side)
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        if len(anchor) != 2 * dim or any(len(row) != dim for row in anchor):
            raise ValueError(
                f"anchor must be a {2 * dim}x{dim} matrix, got "
                f"{len(anchor)}x{len(anchor[0]) if anchor else 0}"
            )
        self.side = side
        self.dim = dim
        self.anchor = tuple(tuple(row) for row in anchor)
        canon: dict[tuple[int, int, int], PolyExpr] = {}
        for (i, j, k), poly in (structure or {}).items():
            if not (1 <= i <= dim and 1 <= j <= dim and 1 <= k <= dim):
                raise ValueError(f"structure indices {(i, j, k)} out of range 1..{dim}")
            if poly.is_zero():
                continue
            if i == j:
                raise ValueError(f"structure function with repeated lower indices {(i, j)}")
            key, val = ((i, j, k), poly) if i < j else ((j, i, k), -poly)
            if key in canon:
                prior = canon[key]
                if prior != val:
                    raise ValueError(f"conflicting structure functions for {key}")
            else:
                canon[key] = val
        self.structure = canon
        # Sparse anchor columns: for each frame index, the nonzero rows.
        self._columns: list[list[tuple[int, PolyExpr]]] = [
            [(m, self.anchor[m - 1][i]) for m in range(1, 2 * dim + 1) if self.anchor[m - 1][i]]
            for i in range(dim)
        ]
        self.validation: Optional[ValidationReport] = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def coordinate(cls, side: str, dim: int) -> "FrameAlgebroid":
        """The flat coordinate algebroid: inclusion anchor, vanishing brackets.

        Side E anchors into the x-block, side E* into the xt-block.
        """
        zero_row = (_ZERO,) * dim
        rows = []
        offset = 0 if side == E else dim
        for m in range(2 * dim):
            if offset <= m < offset + dim:
                row = [_ZERO] * dim
                row[m - offset] = PolyExpr.one()
                rows.append(tuple(row))
            else:
                rows.append(zero_row)
        return cls(side, dim, rows)

    @classmethod
    def zero_anchor(
        cls, side: str, dim: int, structure: Optional[dict[tuple[int, int, int], PolyExpr]] = None
    ) -> "FrameAlgebroid":
        rows = [(_ZERO,) * dim for _ in range(2 * dim)]
        return cls(side, dim, rows, structure)

    # -- structure access ---------------------------------------------------

    def structure_const(self, i: int, j: int, k: int) -> PolyExpr:
        if i == j:
            return _ZERO
        if i < j:
            return self.structure.get((i, j, k), _ZERO)
        value = self.structure.get((j, i, k))
        return -value if value is not None else _ZERO

    def frame_rho_dot(self, i: int, f: PolyExpr) -> PolyExpr:
        """Directional derivative of f along the anchor image of frame i."""
        if f.is_zero():
            return _ZERO
        return poly_sum(entry * _flat_partial(f, m, self.dim) for m, entry in self._columns[i - 1])

    def rho_apply(self, X: VectorField) -> TangentField:
        """Anchor image of a section, as 2D chart components."""
        self._own(X)
        out = [_ZERO] * (2 * self.dim)
        for i, comp in enumerate(X.comps):
            if comp.is_zero():
                continue
            for m, entry in self._columns[i]:
                out[m - 1] = out[m - 1] + entry * comp
        return tuple(out)

    def rho_dot(self, X: VectorField, f: PolyExpr) -> PolyExpr:
        """Derivative of f along the anchor image of X."""
        self._own(X)
        if f.is_zero():
            return _ZERO
        pieces = []
        for i, comp in enumerate(X.comps):
            if comp.is_zero():
                continue
            for m, entry in self._columns[i]:
                pieces.append(entry * comp * _flat_partial(f, m, self.dim))
        return poly_sum(pieces)

    def anchor_is_zero(self) -> bool:
        return all(not col for col in self._columns)

    def structure_is_constant(self) -> bool:
        return all(poly.is_constant() for poly in self.structure.values())

    def _own(self, v: VectorField) -> None:
        if v.side != self.side:
            raise SideError(f"section on side {v.side} fed to algebroid on side {self.side}")
        if v.dim != self.dim:
            raise ValueError("section dimension does not match algebroid dimension")

    def __repr__(self) -> str:
        return f"FrameAlgebroid(side={self.side}, dim={self.dim})"


def algebroid_bracket(A: FrameAlgebroid, X: VectorField, Y: VectorField) -> VectorField:
    """The frame-form bracket:
    [X,Y]^k = rho(X).Y^k - rho(Y).X^k + C^k_ij X^i Y^j.
    """
    A._own(X)
    A._own(Y)
    comps = []
    for k in range(1, A.dim + 1):
        pieces = [A.rho_dot(X, Y.comps[k - 1]), -A.rho_dot(Y, X.comps[k - 1])]
        for (i, j, kk), c in A.structure.items():
            if kk != k:
                continue
            # i < j stored; both orders contribute through antisymmetry.
            pieces.append(c * (X.comps[i - 1] * Y.comps[j - 1] - X.comps[j - 1] * Y.comps[i - 1]))
        comps.append(poly_sum(pieces))
    return VectorField(A.side, tuple(comps))


def d_differential(A: FrameAlgebroid, omega: FormField) -> FormField:
    """Exterior derivative of a form on A's side, degree p -> p + 1.

    (d w)(e_0..e_p) = sum_a (-1)^a rho(e_a).w(..skip a..)
                    + sum_{a<b} (-1)^(a+b) w([e_a,e_b], ..skip a,b..).
    """
    if omega.on != A.side:
        raise SideError(
            f"differential of the side-{A.side} algebroid acts on forms on {A.side}, "
            f"got a form on {omega.on}"
        )
    p = omega.degree
    if p >= FormField.MAX_DEGREE:
        raise ValueError(f"degree {p} input exceeds the supported range for d")
    dim = A.dim
    out: dict[tuple[int, ...], PolyExpr] = {}
    for idx in combinations(range(1, dim + 1), p + 1):
        pieces = []
        for a in range(p + 1):
            rest = idx[:a] + idx[a + 1:]
            w = omega.component(rest)
            if not w.is_zero():
                term = A.frame_rho_dot(idx[a], w)
                pieces.append(term if a % 2 == 0 else -term)
        for a in range(p + 1):
            for b in range(a + 1, p + 1):
                rest = tuple(idx[c] for c in range(p + 1) if c != a and c != b)
                sign = 1 if (a + b) % 2 == 0 else -1
                for (i, j, k), c in A.structure.items():
                    if (i, j) != (idx[a], idx[b]):
                        continue
                    w = omega.component((k,) + rest)
                    if not w.is_zero():
                        pieces.append(c * w if sign == 1 else -(c * w))
        total = poly_sum(pieces)
        if not total.is_zero():
            out[idx] = total
    return FormField(omega.on, p + 1, out, dim=dim)


def interior_product(v: VectorField, omega: FormField) -> FormField:
    """Contraction of the first slot: (i_v w)(a_1..a_{p-1}) = w(v, a_1..)."""
    if omega.degree == 0:
        raise ValueError("interior product of a degree-0 form is undefined")
    if v.side != omega.on:
        raise SideError(
            f"a side-{v.side} section contracts forms on {v.side}, got a form on {omega.on}"
        )
    dim = omega.dim
    out: dict[tuple[int, ...], PolyExpr] = {}
    for idx in combinations(range(1, dim + 1), omega.degree - 1):
        pieces = []
        for i in range(1, dim + 1):
            vi = v.comps[i - 1]
            if vi.is_zero():
                continue
            w = omega.component((i,) + idx)
            if not w.is_zero():
                pieces.append(vi * w)
        total = poly_sum(pieces)
        if not total.is_zero():
            out[idx] = total
    return FormField(omega.on, omega.degree - 1, out, dim=dim)


def lie_derivative(A: FrameAlgebroid, v: VectorField, omega: FormField) -> FormField:
    """Lie derivative by the contraction/derivative anticommutator.

    Both v and omega must live on A's side (omega as a form on that side);
    the action of a side on the dual side's sections is obtained by viewing
    those sections as degree-1 forms, which is how the doubled bracket
    uses it.
    """
    if v.side != A.side or omega.on != A.side:
        raise SideError(
            f"Lie derivative in the side-{A.side} algebroid needs v and the form on {A.side}"
        )
    if omega.degree == 0:
        return FormField.scalar(omega.on, interior_product(v, d_differential(A, omega)).as_scalar(), omega.dim)
    return interior_product(v, d_differential(A, omega)) + d_differential(A, interior_product(v, omega))


def schouten(A: FrameAlgebroid, v: VectorField, W: FormField) -> FormField:
    """Bracket of a section of A with a multivector of A (degree <= 2).

    A multivector of the side-S algebroid is stored as a FormField on the
    dual side.  Degree 0 is the anchor derivative, degree 1 the algebroid
    bracket, degree 2 the derivation extension:
    [v, W]^ij = rho(v).W^ij + W^kj A^i_k + W^ik A^j_k with
    A^m_k = v^l C^m_lk - rho(e_k).v^m.
    """
    A._own(v)
    if W.on != dual_side(A.side):
        raise SideError(
            f"multivectors of the side-{A.side} algebroid are forms on {dual_side(A.side)}"
        )
    if W.degree > 2:
        raise ValueError(f"Schouten action supports degree <= 2, got {W.degree}")
    dim = A.dim
    if W.degree == 0:
        return FormField.scalar(W.on, A.rho_dot(v, W.as_scalar()), dim)
    if W.degree == 1:
        return algebroid_bracket(A, v, W.as_vector_field()).as_form()
    # Degree 2: coefficient matrix of [v, e_k] in the frame.
    coef: list[list[PolyExpr]] = [[_ZERO] * dim for _ in range(dim)]
    for k in range(1, dim + 1):
        for m in range(1, dim + 1):
            pieces = [-A.frame_rho_dot(k, v.comps[m - 1])]
            for l in range(1, dim + 1):
                vl = v.comps[l - 1]
                if vl.is_zero():
                    continue
                c = A.structure_const(l, k, m)
                if not c.is_zero():
                    pieces.append(vl * c)
            coef[m - 1][k - 1] = poly_sum(pieces)
    out: dict[tuple[int, ...], PolyExpr] = {}
    for i, j in combinations(range(1, dim + 1), 2):
        pieces = [A.rho_dot(v, W.component((i, j)))]
        for k in range(1, dim + 1):
            wkj = W.component((k, j))
            if not wkj.is_zero():
                pieces.append(wkj * coef[i - 1][k - 1])
            wik = W.component((i, k))
            if not wik.is_zero():
                pieces.append(wik * coef[j - 1][k - 1])
        total = poly_sum(pieces)
        if not total.is_zero():
            out[(i, j)] = total
    return FormField(W.on, 2, out, dim=dim)


@dataclass(frozen=True)
class ParaComplexStructure:
    """A 2D x 2D chart bundle map squaring to the identity."""

    matrix: tuple[tuple[PolyExpr, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.matrix) // 2

    def check_square(self) -> bool:
        n = len(self.matrix)
        one = PolyExpr.one()
        for a in range(n):
            for b in range(n):
                entry = poly_sum(self.matrix[a][c] * self.matrix[c][b] for c in range(n))
                expected = one if a == b else _ZERO
                if entry != expected:
                    return False
        return True

    def apply(self, v: TangentField) -> TangentField:
        n = len(self.matrix)
        return tuple(poly_sum(self.matrix[a][b] * v[b] for b in range(n)) for a in range(n))


def nijenhuis(K: ParaComplexStructure, X: TangentField, Y: TangentField) -> TangentField:
    """Integrability tensor of K on the flat chart:
    N(X,Y) = 1/4 ([KX,KY] + [X,Y] - K([KX,Y] + [X,KY])).
    """
    if not K.check_square():
        raise ValueError("K does not square to the identity")
    dim = K.dim
    kx, ky = K.apply(X), K.apply(Y)
    inner = tuple(
        a + b for a, b in zip(tangent_bracket(kx, Y, dim), tangent_bracket(X, ky, dim))
    )
    raw = tuple(
        a + b - c
        for a, b, c in zip(tangent_bracket(kx, ky, dim), tangent_bracket(X, Y, dim), K.apply(inner))
    )
    return tuple(c.scaled(Fraction(1, 4)) for c in raw)


# -- validation -------------------------------------------------------------


@dataclass
class ValidationReport:
    """Outcome of the Lie-algebroid checks on generic sections."""

    ok: bool
    failed: Optional[str] = None  # "jacobi" | "anchor-homomorphism" | "leibniz"
    witness: Optional[dict] = None
    degree: int = 2

    def __bool__(self) -> bool:
        return self.ok


def _generic_vector(A: FrameAlgebroid, degree: int, alloc: _Allocator) -> VectorField:
    return VectorField(
        A.side, tuple(_generic_poly(A.dim, degree, None, alloc) for _ in range(A.dim))
    )


def _probe_vectors(A: FrameAlgebroid) -> list[VectorField]:
    dim = A.dim
    x1, xt1 = PolyExpr.coord(1), PolyExpr.dual(1)
    fields = [
        VectorField.basis(A.side, dim, 1),
        VectorField.basis(A.side, dim, min(2, dim)),
        VectorField.basis(A.side, dim, 1).scaled(xt1),
        VectorField.basis(A.side, dim, 1).scaled(x1),
        VectorField.basis(A.side, dim, min(2, dim)).scaled(x1 * xt1),
    ]
    if dim >= 2:
        fields.append(VectorField.basis(A.side, dim, 2).scaled(PolyExpr.coord(2)))
    return fields


def _lie_algebroid_residuals(
    A: FrameAlgebroid, X: VectorField, Y: VectorField, Z: VectorField, f: PolyExpr
) -> list[tuple[str, PolyExpr]]:
    """Jacobi identity, anchor homomorphism and Leibniz rule, as residuals.

    Each is of order at most 1 in every input (the second-derivative terms
    of the Jacobiator cancel for any anchor), so degree-1 generic inputs
    decide them for all sections.
    """
    xy = algebroid_bracket(A, X, Y)
    jac = (
        algebroid_bracket(A, xy, Z)
        + algebroid_bracket(A, algebroid_bracket(A, Y, Z), X)
        + algebroid_bracket(A, algebroid_bracket(A, Z, X), Y)
    )
    hom_lhs = A.rho_apply(xy)
    hom_rhs = tangent_bracket(A.rho_apply(X), A.rho_apply(Y), A.dim)
    leib = algebroid_bracket(A, X, Y.scaled(f)) - algebroid_bracket(A, X, Y).scaled(f) - Y.scaled(
        A.rho_dot(X, f)
    )
    return (
        [(f"jacobi[{k}]", poly) for k, poly in enumerate(jac.comps, start=1)]
        + [
            (f"anchor-homomorphism[{m}]", a - b)
            for m, (a, b) in enumerate(zip(hom_lhs, hom_rhs), start=1)
        ]
        + [(f"leibniz[{k}]", poly) for k, poly in enumerate(leib.comps, start=1)]
    )


def validate_lie_algebroid(A: FrameAlgebroid, degree: int = 2, start: int = 1) -> ValidationReport:
    """Check the Jacobi identity, anchor homomorphism and Leibniz rule.

    All three are first order in every input, so at ``degree >= 1`` they
    are proved first on generic degree-1 sections with fresh parameter
    coefficients, and a passing proof covers every probe and every degree.
    Only when it fails (or at degree 0) do concrete probes run, so that a
    failure comes with a small readable witness; if none fails, the witness
    comes from generic data of ``degree``.  A passing outcome is recorded
    on the algebroid.
    """

    def generic_inputs(degree: int) -> dict:
        alloc = _Allocator(start)
        X, Y, Z = (_generic_vector(A, degree, alloc) for _ in range(3))
        return {"X": X, "Y": Y, "Z": Z, "f": _generic_poly(A.dim, degree, None, alloc)}

    if degree >= 1:
        proof_inputs = generic_inputs(1)
        proof = _lie_algebroid_residuals(A, **proof_inputs)
        if all(poly.is_zero() for _, poly in proof):
            report = ValidationReport(ok=True, degree=degree)
            A.validation = report
            return report
    probes = _probe_vectors(A)
    f_probe = PolyExpr.coord(1) * PolyExpr.dual(1)
    probe_inputs = (
        {"X": X, "Y": Y, "Z": Z, "f": f_probe}
        for X in probes[:4]
        for Y in probes
        for Z in probes[:3]
    )
    for inputs in probe_inputs:
        found = witness(_lie_algebroid_residuals(A, **inputs), inputs)
        if found is not None:
            break
    else:
        if degree == 1:
            inputs, residuals = proof_inputs, proof
        else:
            inputs = generic_inputs(degree)
            residuals = _lie_algebroid_residuals(A, **inputs)
        found = witness(residuals, inputs)
    if found is not None:
        record = found[0]
        return ValidationReport(
            ok=False, failed=record["component"].split("[")[0], witness=record, degree=degree
        )
    report = ValidationReport(ok=True, degree=degree)
    A.validation = report
    return report
