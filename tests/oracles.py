"""Independent brute-force expanders for the flat coordinate realization.

Everything here is written directly against the polynomial ring with raw
coordinate derivatives, term by term, sharing no code with the geometric
operations in the package.  Used to cross-check the engine's bracket,
obstruction sections, and flux contraction on randomized inputs.

Conventions (flat chart, identity anchors, no structure functions):
  dx(f, mu)  = d f / d x_mu          dxt(f, mu) = d f / d xt_mu
  [X, Y]^k   = sum_mu X^mu dx(Y^k, mu) - Y^mu dx(X^k, mu)
  [xi, eta]_k = sum_mu xi_mu dxt(eta_k, mu) - eta_mu dxt(xi_k, mu)
  (L_xi X)^k = sum_mu xi_mu dxt(X^k, mu) + X^mu dxt(xi_mu, k)
  (L_X xi)_k = sum_mu X^mu dx(xi_k, mu) + xi_mu dx(X^mu, k)
  <e1,e2>_pm = 1/2 (sum xi1 X2 pm sum xi2 X1)

``greedy_param_assignment`` is the witness search restated as one full
substitution per parameter, the reference for the engine's linear-time one.
``pairwise_certificate`` is the total-order certificate restated with one
weight per pair of coordinates, the reference for the engine's
one-linear-form polarization.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from doubled_algebroids.poly import DoubledIndex, PolyExpr, poly_sum

HALF = Fraction(1, 2)


def dx(f: PolyExpr, mu: int) -> PolyExpr:
    return f.partial(DoubledIndex("x", mu))


def dxt(f: PolyExpr, mu: int) -> PolyExpr:
    return f.partial(DoubledIndex("xt", mu))


def lie_xx(X, Y, dim):
    return [
        poly_sum(
            [X[mu] * dx(Y[k], mu + 1) - Y[mu] * dx(X[k], mu + 1) for mu in range(dim)]
        )
        for k in range(dim)
    ]


def lie_xixi(xi, eta, dim):
    return [
        poly_sum(
            [xi[mu] * dxt(eta[k], mu + 1) - eta[mu] * dxt(xi[k], mu + 1) for mu in range(dim)]
        )
        for k in range(dim)
    ]


def lie_mixed_on_x(xi, X, dim):
    """(L_xi X)^k = xi_mu dxt(X^k, mu) + X^mu dxt(xi_mu, k)."""
    return [
        poly_sum(
            [xi[mu] * dxt(X[k], mu + 1) for mu in range(dim)]
            + [X[mu] * dxt(xi[mu], k + 1) for mu in range(dim)]
        )
        for k in range(dim)
    ]


def lie_mixed_on_xi(X, xi, dim):
    """(L_X xi)_k = X^mu dx(xi_k, mu) + xi_mu dx(X^mu, k)."""
    return [
        poly_sum(
            [X[mu] * dx(xi[k], mu + 1) for mu in range(dim)]
            + [xi[mu] * dx(X[mu], k + 1) for mu in range(dim)]
        )
        for k in range(dim)
    ]


def inner(xi, X, dim) -> PolyExpr:
    return poly_sum([xi[mu] * X[mu] for mu in range(dim)])


def pair(sign: int, e1, e2, dim) -> PolyExpr:
    X1, xi1 = e1
    X2, xi2 = e2
    a = inner(xi1, X2, dim)
    b = inner(xi2, X1, dim)
    total = a + b if sign > 0 else a - b
    return total.scaled(HALF)


def grad_up(f: PolyExpr, dim):
    """Components of the dual-differential vector: dxt(f, k)."""
    return [dxt(f, k + 1) for k in range(dim)]


def grad_down(f: PolyExpr, dim):
    """Components of the plain differential: dx(f, k)."""
    return [dx(f, k + 1) for k in range(dim)]


def c_bracket_flat(e1, e2, dim):
    """All eight terms of the skew bracket, expanded directly."""
    X1, xi1 = e1
    X2, xi2 = e2
    minus = pair(-1, e1, e2, dim)
    x_part = [
        lie_xx(X1, X2, dim)[k]
        + lie_mixed_on_x(xi1, X2, dim)[k]
        - lie_mixed_on_x(xi2, X1, dim)[k]
        - dxt(minus, k + 1)
        for k in range(dim)
    ]
    xi_part = [
        lie_xixi(xi1, xi2, dim)[k]
        + lie_mixed_on_xi(X1, xi2, dim)[k]
        - lie_mixed_on_xi(X2, xi1, dim)[k]
        + dx(minus, k + 1)
        for k in range(dim)
    ]
    return (x_part, xi_part)


def courant_bracket_flat(e1, e2, dim):
    """The classical expression: [X1,X2] + L_X1 xi2 - L_X2 xi1 + half the
    gradient of the antisymmetrised inner products."""
    X1, xi1 = e1
    X2, xi2 = e2
    half_d = [
        (dx(inner(xi1, X2, dim), k + 1) - dx(inner(xi2, X1, dim), k + 1)).scaled(HALF)
        for k in range(dim)
    ]
    x_part = lie_xx(X1, X2, dim)
    xi_part = [
        lie_mixed_on_xi(X1, xi2, dim)[k] - lie_mixed_on_xi(X2, xi1, dim)[k] + half_d[k]
        for k in range(dim)
    ]
    return (x_part, xi_part)


def j1_flat(e1, e2, e3, dim):
    """First obstruction, from the two-form/bivector groups, expanded in
    components.

    xi half: ( d[xi1,xi2] - L^S_xi1 d xi2 + L^S_xi2 d xi1 )_{ab} contracted
    with X3^a, where for one-forms (d eta)_{ab} = dx(eta_b, a) - dx(eta_a, b)
    and the degree-2 action of xi on W_{ab} is
    xi_c dxt(W_{ab}, c) - W_{cb} dxt(xi_a, c) - W_{ac} dxt(xi_b, c).
    x half mirrors with raised derivatives.
    """
    X1, xi1 = e1
    X2, xi2 = e2
    X3, xi3 = e3

    def dform(eta):
        return [[dx(eta[b], a + 1) - dx(eta[a], b + 1) for b in range(dim)] for a in range(dim)]

    def dmulti(X):
        return [[dxt(X[b], a + 1) - dxt(X[a], b + 1) for b in range(dim)] for a in range(dim)]

    def schouten_xi(xi, W):
        out = []
        for a in range(dim):
            row = []
            for b in range(dim):
                row.append(
                    poly_sum(
                        [xi[c] * dxt(W[a][b], c + 1) for c in range(dim)]
                        + [-(W[c][b] * dxt(xi[a], c + 1)) for c in range(dim)]
                        + [-(W[a][c] * dxt(xi[b], c + 1)) for c in range(dim)]
                    )
                )
            out.append(row)
        return out

    def schouten_x(X, W):
        out = []
        for a in range(dim):
            row = []
            for b in range(dim):
                row.append(
                    poly_sum(
                        [X[c] * dx(W[a][b], c + 1) for c in range(dim)]
                        + [-(W[c][b] * dx(X[a], c + 1)) for c in range(dim)]
                        + [-(W[a][c] * dx(X[b], c + 1)) for c in range(dim)]
                    )
                )
            out.append(row)
        return out

    br_xi = lie_xixi(xi1, xi2, dim)
    group_xi = dform(br_xi)
    s1 = schouten_xi(xi1, dform(xi2))
    s2 = schouten_xi(xi2, dform(xi1))
    j1_xi = [
        poly_sum(
            [X3[a] * (group_xi[a][b] - s1[a][b] + s2[a][b]) for a in range(dim)]
        )
        for b in range(dim)
    ]

    br_x = lie_xx(X1, X2, dim)
    group_x = dmulti(br_x)
    t1 = schouten_x(X1, dmulti(X2))
    t2 = schouten_x(X2, dmulti(X1))
    j1_x = [
        poly_sum(
            [xi3[a] * (group_x[a][b] - t1[a][b] + t2[a][b]) for a in range(dim)]
        )
        for b in range(dim)
    ]
    return (j1_x, j1_xi)


def j2_flat(e1, e2, e3, dim):
    """Second obstruction: the gradient sections of the antisymmetric
    pairing acting on e3 through the mixed derivatives and brackets."""
    X3, xi3 = e3
    minus = pair(-1, e1, e2, dim)
    up = grad_up(minus, dim)  # vector components
    down = grad_down(minus, dim)  # covector components
    j2_xi = [
        lie_mixed_on_xi(up, xi3, dim)[k] + lie_xixi(down, xi3, dim)[k] for k in range(dim)
    ]
    j2_x = [
        -(lie_mixed_on_x(down, X3, dim)[k] + lie_xx(up, X3, dim)[k]) for k in range(dim)
    ]
    return (j2_x, j2_xi)


def flux_contraction_flat(entries, e1, e2, dim):
    """Direct expansion of the double contraction: the doubled components
    of e1 fill the first slot, e2 the second, and the third index splits
    the output over the two parts."""
    X1, xi1 = e1
    X2, xi2 = e2
    v1 = list(X1) + list(xi1)
    v2 = list(X2) + list(xi2)
    x_out = [[] for _ in range(dim)]
    xi_out = [[] for _ in range(dim)]
    for (m, n, l), poly in entries.items():
        term = poly * v1[m - 1] * v2[n - 1]
        if l <= dim:
            x_out[l - 1].append(term)
        else:
            xi_out[l - dim - 1].append(term)
    return ([poly_sum(p) for p in x_out], [poly_sum(p) for p in xi_out])


def greedy_param_assignment(poly: PolyExpr) -> tuple[dict[int, int], PolyExpr]:
    """For each parameter in index order: 0, unless 0 kills the polynomial."""
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


def pairwise_certificate(residual, inputs, coordinates, alloc) -> bool:
    """True when, for every input u, each 2-fold commutator of the residual
    with multiplication of u by two of its admissible coordinates vanishes
    on the constant ``inputs``.

    One fresh weight t_ij per pair c_i, c_j (i <= j) and q = sum t_ij c_i c_j:
    P(q u) - sum_i c_i P((dq/dc_i) u) + q P(u) = sum t_ij [[P, c_i], c_j](u),
    at n + 1 evaluations and n(n+1)/2 weights per input of n coordinates.
    """
    base = residual(**inputs)
    for name, variables in coordinates.items():
        coords = [PolyExpr.variable(v) for v in variables]
        quadratic, slopes = [], [[] for _ in coords]
        for i, j in itertools.combinations_with_replacement(range(len(coords)), 2):
            t = PolyExpr.param(alloc.fresh())
            quadratic.append(t * coords[i] * coords[j])
            slopes[i].append(t * coords[j])
            slopes[j].append(t * coords[i])
        q, u = poly_sum(quadratic), inputs[name]

        def at(factor):
            scaled = u * factor if isinstance(u, PolyExpr) else u.scaled(factor)
            return residual(**{**inputs, name: scaled})

        weighted = [(at(q), PolyExpr.one()), (base, q)]
        weighted += [(at(poly_sum(slope)), -c) for c, slope in zip(coords, slopes)]
        sums = {}
        for residuals, factor in weighted:
            for label, poly in residuals:
                sums.setdefault(label, []).append(poly * factor)
        if any(not poly_sum(pieces).is_zero() for pieces in sums.values()):
            return False
    return True
