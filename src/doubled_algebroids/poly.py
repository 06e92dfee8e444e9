"""Exact sparse polynomials over Q in doubled coordinates and parameters.

This is the function ring every identity in the package reduces to:
polynomials with arbitrary-precision rational coefficients in the chart
coordinates x1..xD, their duals xt1..xtD, and parameter indeterminates
p1, p2, ...  Parameters multiply like variables but are constants under
every partial derivative, so one identity checked on parametrised inputs
covers all inputs of the same coefficient degree.

Representation: a dict mapping monomials to nonzero integer coefficients
together with one positive denominator shared by the whole polynomial
(gcd-reduced, so equality is structural).  A monomial is the pair
``(coord_key, params)`` where ``coord_key`` packs the exponents of all
coordinate variables into a single integer (24 bits per variable, x_mu at
slot 2*(mu-1), xt_mu at slot 2*(mu-1)+1) so that monomial multiplication
on the coordinate part is integer addition, and ``params`` is a sorted
tuple of parameter indices with repetition (p2^2 * p7 -> (2, 2, 7)).
Never floats anywhere.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator, NamedTuple, Optional, Union

__all__ = [
    "Var",
    "DoubledIndex",
    "coordinate_vars",
    "PolyExpr",
    "ExprError",
    "parse_expr",
    "eta_pairing",
    "poly_sum",
]

Rational = Union[int, Fraction]

KIND_X = "x"
KIND_XT = "xt"
KIND_PARAM = "p"

_EXP_BITS = 24
_EXP_MASK = (1 << _EXP_BITS) - 1
# Degree guard for user-supplied powers; engine-built polynomials stay far
# below the packing limit of 2**24 per variable.
_MAX_POW_DEGREE = 4096


class Var(NamedTuple):
    """A variable id: coordinate x<k>, dual coordinate xt<k>, or parameter p<k>."""

    kind: str
    index: int

    def __str__(self) -> str:
        return f"{self.kind}{self.index}"


class DoubledIndex(NamedTuple):
    """An index into the 2D doubled chart directions.

    ``kind`` is "x" for the D ordinary directions and "xt" for the D dual
    directions.  The flat form enumerates x1..xD as 1..D and xt1..xtD as
    D+1..2D; raising/lowering with the off-diagonal pairing is the swap of
    the two blocks.
    """

    kind: str
    mu: int

    @classmethod
    def from_flat(cls, m: int, dim: int) -> "DoubledIndex":
        if not 1 <= m <= 2 * dim:
            raise ValueError(f"doubled index {m} out of range 1..{2 * dim}")
        if m <= dim:
            return cls(KIND_X, m)
        return cls(KIND_XT, m - dim)

    def flat(self, dim: int) -> int:
        if not 1 <= self.mu <= dim:
            raise ValueError(f"direction {self} out of range for dimension {dim}")
        return self.mu if self.kind == KIND_X else dim + self.mu

    def swapped(self) -> "DoubledIndex":
        return DoubledIndex(KIND_XT if self.kind == KIND_X else KIND_X, self.mu)

    def var(self) -> Var:
        return Var(self.kind, self.mu)


def coordinate_vars(dim: int) -> list[Var]:
    """Every chart coordinate in packing order: x1, xt1, x2, xt2, ..."""
    return [Var(kind, mu) for mu in range(1, dim + 1) for kind in (KIND_X, KIND_XT)]


def _slot(kind: str, mu: int) -> int:
    return 2 * (mu - 1) + (1 if kind == KIND_XT else 0)


def _slot_var(slot: int) -> Var:
    mu, rem = divmod(slot, 2)
    return Var(KIND_XT if rem else KIND_X, mu + 1)


def _coord_iter(key: int) -> Iterator[tuple[int, int]]:
    """Yield (slot, exponent) pairs of a packed coordinate monomial."""
    slot = 0
    while key:
        exp = key & _EXP_MASK
        if exp:
            yield slot, exp
        key >>= _EXP_BITS
        slot += 1


class ExprError(ValueError):
    """Parse or range error in the expression grammar, with a position."""

    def __init__(self, message: str, position: Optional[int] = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


Monomial = tuple[int, tuple[int, ...]]
_ONE_MONO: Monomial = (0, ())


def _merge_params(pa: tuple[int, ...], pb: tuple[int, ...], la: int) -> tuple[int, ...]:
    """Merge two sorted parameter tuples (both nonempty)."""
    if la == 1:
        x = pa[0]
        for i, y in enumerate(pb):
            if x <= y:
                return pb[:i] + pa + pb[i:]
        return pb + pa
    if len(pb) == 1:
        x = pb[0]
        for i, y in enumerate(pa):
            if x <= y:
                return pa[:i] + pb + pa[i:]
        return pa + pb
    return tuple(sorted(pa + pb))


class PolyExpr:
    """An immutable sparse polynomial in canonical form.

    ``terms`` maps monomials to nonzero integers and ``den`` is a positive
    denominator shared by all of them, with gcd(coefficients, den) == 1.
    """

    __slots__ = ("terms", "den")

    def __init__(self, terms: Optional[dict[Monomial, int]] = None, den: int = 1):
        # Takes ownership of ``terms``; callers must not mutate it afterwards
        # and must pass reduced (terms, den) or use _make.
        self.terms: dict[Monomial, int] = terms if terms else {}
        self.den = den if self.terms else 1

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "PolyExpr":
        return _ZERO

    @classmethod
    def one(cls) -> "PolyExpr":
        return _ONE

    @classmethod
    def const(cls, value: Rational) -> "PolyExpr":
        if isinstance(value, int):
            return cls({_ONE_MONO: value}) if value else _ZERO
        value = Fraction(value)
        if not value:
            return _ZERO
        return cls({_ONE_MONO: value.numerator}, value.denominator)

    @classmethod
    def variable(cls, var: Var) -> "PolyExpr":
        if var.index < 1:
            raise ValueError(f"variable index must be >= 1, got {var.index}")
        if var.kind == KIND_PARAM:
            return cls({(0, (var.index,)): 1})
        if var.kind not in (KIND_X, KIND_XT):
            raise ValueError(f"unknown variable kind {var.kind!r}")
        return cls({(1 << (_EXP_BITS * _slot(var.kind, var.index)), ()): 1})

    @classmethod
    def coord(cls, mu: int) -> "PolyExpr":
        return cls.variable(Var(KIND_X, mu))

    @classmethod
    def dual(cls, mu: int) -> "PolyExpr":
        return cls.variable(Var(KIND_XT, mu))

    @classmethod
    def param(cls, index: int) -> "PolyExpr":
        return cls.variable(Var(KIND_PARAM, index))

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyExpr):
            return NotImplemented
        return self.den == other.den and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.den, frozenset(self.terms.items())))

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and _ONE_MONO in self.terms)

    def as_rational(self) -> Rational:
        if self.is_zero():
            return 0
        if not self.is_constant():
            raise ValueError(f"not a constant polynomial: {self}")
        c = self.terms[_ONE_MONO]
        return c if self.den == 1 else Fraction(c, self.den)

    def coefficient(self, mono: Monomial) -> Rational:
        c = self.terms.get(mono, 0)
        if not c:
            return 0
        return c if self.den == 1 else Fraction(c, self.den)

    def total_degree(self) -> int:
        best = 0
        for (key, params) in self.terms:
            deg = len(params) + sum(exp for _, exp in _coord_iter(key))
            if deg > best:
                best = deg
        return best

    def coord_vars(self) -> set[Var]:
        out: set[Var] = set()
        for (key, _params) in self.terms:
            for slot, _exp in _coord_iter(key):
                out.add(_slot_var(slot))
        return out

    def param_indices(self) -> set[int]:
        out: set[int] = set()
        for (_key, params) in self.terms:
            out.update(params)
        return out

    def coord_support_within(self, allowed: Optional[frozenset[Var]]) -> bool:
        """True when every coordinate variable used lies in ``allowed`` (None = all)."""
        if allowed is None:
            return True
        return self.coord_vars() <= allowed

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "PolyExpr") -> "PolyExpr":
        if not isinstance(other, PolyExpr):
            return NotImplemented
        if not self.terms:
            return other
        if not other.terms:
            return self
        da, db = self.den, other.den
        if da == db:
            out = dict(self.terms)
            for mono, c in other.terms.items():
                acc = out.get(mono, 0) + c
                if acc:
                    out[mono] = acc
                elif mono in out:
                    del out[mono]
            return _make(out, da)
        g = gcd(da, db)
        ma, mb = db // g, da // g
        out = {mono: c * ma for mono, c in self.terms.items()}
        for mono, c in other.terms.items():
            acc = out.get(mono, 0) + c * mb
            if acc:
                out[mono] = acc
            elif mono in out:
                del out[mono]
        return _make(out, da * ma)

    def __neg__(self) -> "PolyExpr":
        return PolyExpr({mono: -c for mono, c in self.terms.items()}, self.den)

    def __sub__(self, other: "PolyExpr") -> "PolyExpr":
        if not isinstance(other, PolyExpr):
            return NotImplemented
        if not other.terms:
            return self
        da, db = self.den, other.den
        if da == db:
            out = dict(self.terms)
            for mono, c in other.terms.items():
                acc = out.get(mono, 0) - c
                if acc:
                    out[mono] = acc
                elif mono in out:
                    del out[mono]
            return _make(out, da)
        g = gcd(da, db)
        ma, mb = db // g, da // g
        out = {mono: c * ma for mono, c in self.terms.items()}
        for mono, c in other.terms.items():
            acc = out.get(mono, 0) - c * mb
            if acc:
                out[mono] = acc
            elif mono in out:
                del out[mono]
        return _make(out, da * ma)

    def __mul__(self, other: Union["PolyExpr", Rational]) -> "PolyExpr":
        if isinstance(other, (int, Fraction)):
            return self.scaled(other)
        if not isinstance(other, PolyExpr):
            return NotImplemented
        a, b = self.terms, other.terms
        if not a or not b:
            return _ZERO
        da, db = self.den, other.den
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            ((mono_a, ca),) = a.items()
            if mono_a == _ONE_MONO:
                # Constant factor: reuse scaled() so multiplying by one is free.
                if b is other.terms:
                    b_poly, a_den = other, da
                else:
                    b_poly, a_den = self, db
                return b_poly.scaled(ca if a_den == 1 else Fraction(ca, a_den))
        out: dict[Monomial, int] = {}
        get = out.get
        b_items = list(b.items())
        for (ka, pa), ca in a.items():
            if pa:
                la = len(pa)
                for (kb, pb), cb in b_items:
                    if pb:
                        mono = (ka + kb, _merge_params(pa, pb, la))
                    else:
                        mono = (ka + kb, pa)
                    out[mono] = get(mono, 0) + ca * cb
            else:
                for (kb, pb), cb in b_items:
                    mono = (ka + kb, pb)
                    out[mono] = get(mono, 0) + ca * cb
        if any(c == 0 for c in out.values()):
            out = {mono: c for mono, c in out.items() if c}
        return _make(out, self.den * other.den)

    __rmul__ = __mul__

    def scaled(self, c: Rational) -> "PolyExpr":
        if not self.terms:
            return _ZERO
        if isinstance(c, int):
            if c == 0:
                return _ZERO
            if c == 1:
                return self
            return _make({mono: v * c for mono, v in self.terms.items()}, self.den)
        c = Fraction(c)
        if not c:
            return _ZERO
        num = c.numerator
        terms = self.terms if num == 1 else {mono: v * num for mono, v in self.terms.items()}
        if terms is self.terms:
            terms = dict(terms)
        return _make(terms, self.den * c.denominator)

    def __pow__(self, n: int) -> "PolyExpr":
        if not isinstance(n, int) or n < 0:
            raise ExprError(f"exponent must be a non-negative integer, got {n!r}")
        if n == 0:
            return _ONE
        if self.total_degree() * n > _MAX_POW_DEGREE:
            raise ExprError(f"power {n} exceeds the supported total degree")
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- calculus ----------------------------------------------------------

    def partial(self, index: DoubledIndex) -> "PolyExpr":
        """Formal partial derivative along one doubled direction.

        Parameters are constants: only the coordinate exponents move.
        """
        shift = _EXP_BITS * _slot(index.kind, index.mu)
        step = 1 << shift
        out: dict[Monomial, int] = {}
        for (key, params), c in self.terms.items():
            exp = (key >> shift) & _EXP_MASK
            if exp:
                mono = (key - step, params)
                acc = out.get(mono, 0) + c * exp
                if acc:
                    out[mono] = acc
                elif mono in out:
                    del out[mono]
        return _make(out, self.den)

    # -- substitution ------------------------------------------------------

    def subs_params(self, assignment: dict[int, Rational]) -> "PolyExpr":
        """Substitute rational values for some parameters."""
        if not assignment:
            return self
        out: dict[Monomial, Fraction] = {}
        for (key, params), c in self.terms.items():
            value = Fraction(c)
            kept: list[int] = []
            for pidx in params:
                sub = assignment.get(pidx)
                if sub is None:
                    kept.append(pidx)
                else:
                    value *= sub
            if not value:
                continue
            mono = (key, tuple(kept))
            acc = out.get(mono, _FZERO) + value
            if acc:
                out[mono] = acc
            elif mono in out:
                del out[mono]
        return _from_fractions(out, self.den)

    def subs_coords(self, assignment: dict[Var, Rational]) -> "PolyExpr":
        """Substitute rational values for some coordinate variables."""
        if not assignment:
            return self
        by_slot = {_slot(v.kind, v.index): Fraction(val) for v, val in assignment.items()}
        out: dict[Monomial, Fraction] = {}
        for (key, params), c in self.terms.items():
            new_key = 0
            value = Fraction(c)
            for slot, exp in _coord_iter(key):
                sub = by_slot.get(slot)
                if sub is None:
                    new_key += exp << (_EXP_BITS * slot)
                else:
                    value *= sub ** exp
            if not value:
                continue
            mono = (new_key, params)
            acc = out.get(mono, _FZERO) + value
            if acc:
                out[mono] = acc
            elif mono in out:
                del out[mono]
        return _from_fractions(out, self.den)

    # -- printing ----------------------------------------------------------

    @staticmethod
    def _sort_key(mono: Monomial):
        key, params = mono
        exps = tuple(_coord_iter(key))
        deg = len(params) + sum(e for _, e in exps)
        return (deg, exps, params)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for mono in sorted(self.terms, key=self._sort_key):
            coeff = Fraction(self.terms[mono], self.den)
            body = _mono_str(mono)
            mag = abs(coeff)
            if body:
                text = body if mag == 1 else f"{_coeff_str(mag)}*{body}"
            else:
                text = _coeff_str(mag)
            if not pieces:
                pieces.append(text if coeff > 0 else f"-{text}")
            else:
                pieces.append(f"+ {text}" if coeff > 0 else f"- {text}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"PolyExpr({self})"


_ZERO = PolyExpr()
_ONE = PolyExpr({_ONE_MONO: 1})
_FZERO = Fraction(0)


def _make(terms: dict[Monomial, int], den: int) -> PolyExpr:
    """Reduce (terms, den) to canonical form, taking ownership of terms."""
    if not terms:
        return _ZERO
    if den == 1:
        return PolyExpr(terms, 1)
    g = den
    for c in terms.values():
        g = gcd(g, c)
        if g == 1:
            return PolyExpr(terms, den)
    return PolyExpr({mono: c // g for mono, c in terms.items()}, den // g)


def _from_fractions(frac_terms: dict[Monomial, Fraction], den_hint: int) -> PolyExpr:
    """Build canonical form from exact fractional coefficients."""
    if not frac_terms:
        return _ZERO
    den = 1
    for value in frac_terms.values():
        d = value.denominator
        den = den * d // gcd(den, d)
    terms = {mono: int(value * den) for mono, value in frac_terms.items()}
    return _make(terms, den)


def _coeff_str(c: Fraction) -> str:
    if c.denominator != 1:
        return f"{c.numerator}/{c.denominator}"
    return str(c.numerator)


def _mono_str(mono: Monomial) -> str:
    key, params = mono
    parts: list[str] = []
    for slot, exp in _coord_iter(key):
        var = _slot_var(slot)
        parts.append(str(var) if exp == 1 else f"{var}^{exp}")
    idx = 0
    n = len(params)
    while idx < n:
        pidx = params[idx]
        count = 1
        while idx + count < n and params[idx + count] == pidx:
            count += 1
        parts.append(f"p{pidx}" if count == 1 else f"p{pidx}^{count}")
        idx += count
    return "*".join(parts)


def poly_sum(polys: Iterable[PolyExpr]) -> PolyExpr:
    """Sum many polynomials without building a chain of intermediates."""
    batch = [p for p in polys if p.terms]
    if not batch:
        return _ZERO
    if len(batch) == 1:
        return batch[0]
    den = 1
    for p in batch:
        den = den * p.den // gcd(den, p.den)
    out: dict[Monomial, int] = {}
    get = out.get
    for p in batch:
        scale = den // p.den
        if scale == 1:
            for mono, c in p.terms.items():
                acc = get(mono, 0) + c
                if acc:
                    out[mono] = acc
                elif mono in out:
                    del out[mono]
        else:
            for mono, c in p.terms.items():
                acc = get(mono, 0) + c * scale
                if acc:
                    out[mono] = acc
                elif mono in out:
                    del out[mono]
    return _make(out, den)


def eta_pairing(f: PolyExpr, g: PolyExpr) -> PolyExpr:
    """Off-diagonal pairing of gradients: sum over mu of
    d(f)/dx_mu * d(g)/dxt_mu + d(f)/dxt_mu * d(g)/dx_mu.

    The sum runs over every direction either argument actually uses, so no
    dimension argument is needed; absent directions contribute zero.
    """
    mus = {v.index for v in f.coord_vars()} | {v.index for v in g.coord_vars()}
    pieces = []
    for mu in mus:
        dx, dxt = DoubledIndex(KIND_X, mu), DoubledIndex(KIND_XT, mu)
        pieces.append(f.partial(dx) * g.partial(dxt))
        pieces.append(f.partial(dxt) * g.partial(dx))
    return poly_sum(pieces)


# -- parser ---------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<var>(?:xt|x|p)\d+)|(?P<op>[-+*^/()])|(?P<bad>\S))"
)


class _Token(NamedTuple):
    kind: str
    text: str
    pos: int


def _tokenize(src: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            break
        if m.lastgroup == "bad":
            raise ExprError(f"unexpected character {m.group('bad')!r}", m.start("bad"))
        if m.lastgroup is not None:
            tokens.append(_Token(m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    return tokens


class _Parser:
    """Recursive-descent parser for the ASCII expression grammar:

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := atom ['^' INT]
    atom   := INT ['/' INT] | VAR | '(' expr ')'
    """

    def __init__(self, src: str, dim: int, params: int):
        self.src = src
        self.dim = dim
        self.params = params
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            raise ExprError("unexpected end of expression", len(self.src))
        self.i += 1
        return tok

    def expect_op(self, text: str) -> _Token:
        tok = self.next()
        if tok.kind != "op" or tok.text != text:
            raise ExprError(f"expected {text!r}, found {tok.text!r}", tok.pos)
        return tok

    def parse(self) -> PolyExpr:
        value = self.expr()
        tok = self.peek()
        if tok is not None:
            raise ExprError(f"unexpected trailing {tok.text!r}", tok.pos)
        return value

    def expr(self) -> PolyExpr:
        tok = self.peek()
        negate = False
        if tok is not None and tok.kind == "op" and tok.text == "-":
            self.next()
            negate = True
        value = self.term()
        if negate:
            value = -value
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "op" or tok.text not in "+-":
                return value
            self.next()
            rhs = self.term()
            value = value + rhs if tok.text == "+" else value - rhs

    def term(self) -> PolyExpr:
        value = self.factor()
        while True:
            tok = self.peek()
            if tok is None or tok.kind != "op" or tok.text != "*":
                return value
            self.next()
            value = value * self.factor()

    def factor(self) -> PolyExpr:
        value = self.atom()
        tok = self.peek()
        if tok is not None and tok.kind == "op" and tok.text == "^":
            self.next()
            etok = self.next()
            if etok.kind == "op" and etok.text == "-":
                after = self.peek()
                pos = after.pos if after is not None else etok.pos
                raise ExprError("negative exponent", pos)
            if etok.kind != "int":
                raise ExprError(f"expected integer exponent, found {etok.text!r}", etok.pos)
            value = value ** int(etok.text)
        return value

    def atom(self) -> PolyExpr:
        tok = self.next()
        if tok.kind == "int":
            nxt = self.peek()
            if nxt is not None and nxt.kind == "op" and nxt.text == "/":
                self.next()
                dtok = self.next()
                if dtok.kind != "int":
                    raise ExprError(f"expected integer denominator, found {dtok.text!r}", dtok.pos)
                if int(dtok.text) == 0:
                    raise ExprError("zero denominator", dtok.pos)
                return PolyExpr.const(Fraction(int(tok.text), int(dtok.text)))
            return PolyExpr.const(int(tok.text))
        if tok.kind == "var":
            return PolyExpr.variable(self._var(tok))
        if tok.kind == "op" and tok.text == "(":
            value = self.expr()
            self.expect_op(")")
            return value
        raise ExprError(f"unexpected {tok.text!r}", tok.pos)

    def _var(self, tok: _Token) -> Var:
        kind = "xt" if tok.text.startswith("xt") else tok.text[0]
        index = int(tok.text[len(kind):])
        if kind == KIND_PARAM:
            bound, what = self.params, "parameter"
        else:
            bound, what = self.dim, "coordinate"
        if not 1 <= index <= bound:
            raise ExprError(
                f"{what} index {index} out of range 1..{bound} in {tok.text!r}", tok.pos
            )
        return Var(kind, index)


def parse_expr(src: str, dim: int, params: int = 0) -> PolyExpr:
    """Parse an expression in the ASCII grammar into canonical form.

    ``dim`` bounds coordinate indices (x1..xD, xt1..xtD) and ``params``
    bounds parameter indices (p1..pP).  Raises ExprError with a position
    on syntax errors, out-of-range indices, and negative exponents.
    """
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    return _Parser(src, dim, params).parse()
