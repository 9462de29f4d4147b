"""Exact polynomial integration over labelled polytopes.

Boundary integrals use the labelled measure d(sigma) on each facet F_j, fixed
by  dL_j ^ d(sigma) = -dx : rescaling a label rescales its facet measure
inversely, so the labels (not just the facets) enter.  Interior integrals
come from the same facets by the Euler-Stokes identity

    (l + |a|) int_P x^a dx = sum_j L_j(0) int_{F_j} x^a dsigma

(Euler's theorem for x^a and the divergence theorem; Lasserre, "Integration
on a convex polytope", Proc. AMS 126 (1998), and Baldoni, Berline,
De Loera, Koeppe & Vergne, Math. Comp. 80 (2011)), so P itself is never
triangulated.

Moments are cached per polytope: integrate and integrate_boundary read the
monomial integrals kept in P.moments, keyed (exponent, boundary), and _fill
writes both tables in one pass over the facet cells.  On a (l-1)-simplex
cell of facet j with coordinate denominators cleared by D, every missing x^a
(d = |a|) is an integer form in the barycentric coordinates, read off one
power tree per cell (exact._barycentric_powers, which bernstein shares), and
N = sum_b coeff_b * b! gives

    int_cell x^a dsigma = jac * N / ((l - 1 + d)! * D^d),
    L_j(0) * jac * N / ((l + d)! * D^d),

the cell's boundary moment and its share of the interior one (the signed
cone from the origin over the cell; the factor l + d merges into the
factorial).

Products are never formed to be integrated: _pair(f, g) = sum_a sum_b
f_a g_b m(a + b) reads int f g off the table, and _pair_row gives the moments
of f x^b for a list of b.  Every read asks _fill for all the monomials it
needs at once, so one read triangulates each facet of P at most once.

integrate_simplex and integrate_facet_cell pull whole polynomials back
through compose_affine instead; they stay as the independent path behind
df_via_cones and the tests.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import Point, Polynomial, _barycentric_powers, det, vsub
from .polytope import (
    LabelledPolytope,
    Simplex,
    _cell_jacobian,
    _transversal,
    triangulate_facet,
)


def integrate_simplex_standard(p: Polynomial) -> Fraction:
    """Integral of p over the standard simplex {u_i >= 0, sum u_i <= 1}.

    Monomials integrate by the Dirichlet formula:
    int u^a du = (prod a_i!) / (k + |a|)!  in dimension k.
    """
    k = p.dim
    total = Fraction(0)
    for expo, coeff in p.terms.items():
        num = math.prod(math.factorial(a) for a in expo)
        total += coeff * Fraction(num, math.factorial(k + sum(expo)))
    return total


def integrate_simplex(p: Polynomial, simplex: Simplex) -> Fraction:
    """Integral of p over a full-dimensional simplex (k = ambient dim)."""
    verts = simplex.vertices
    k = len(verts) - 1
    if k != simplex.ambient_dim or p.dim != simplex.ambient_dim:
        raise ValueError("integrate_simplex needs a full-dimensional simplex")
    v0 = verts[0]
    E = [[verts[i + 1][r] - v0[r] for i in range(k)] for r in range(k)]
    jac = abs(det(E))
    if jac == 0:
        return Fraction(0)
    pulled = p.compose_affine(E, v0)
    return jac * integrate_simplex_standard(pulled)


def integrate(p: Polynomial, P: LabelledPolytope) -> Fraction:
    return _pair_row(p, [(0,) * P.dim], P, False)[0]


def volume(P: LabelledPolytope) -> Fraction:
    return integrate(Polynomial.constant(P.dim, 1), P)


def integrate_facet_cell(
    p: Polynomial, cell: tuple[Point, ...], xi: Point
) -> Fraction:
    """d(sigma)-integral of p over one (dim-1)-simplex cell of facet j.

    With dL_j ^ d(sigma) = -dx, the measure of the cell spanned by
    w_0..w_{dim-1} is |det[w_1-w_0, ..., w_{dim-1}-w_0, xi]| / (dim-1)!  for
    any transversal xi with dL_j(xi) = 1; the integral pulls p back to the
    standard (dim-1)-simplex through u -> w_0 + sum u_i (w_i - w_0).
    """
    ell = len(xi)
    k = ell - 1  # cell dimension
    cols = [vsub(w, cell[0]) for w in cell[1:]] + [xi]
    jac = abs(det([[cols[c][r] for c in range(ell)] for r in range(ell)]))
    if jac == 0:
        return Fraction(0)
    if k == 0:
        return jac * p(cell[0])
    E = [[cell[i + 1][r] - cell[0][r] for i in range(k)] for r in range(ell)]
    pulled = p.compose_affine(E, cell[0])
    return jac * integrate_simplex_standard(pulled)


def integrate_facet(p: Polynomial, P: LabelledPolytope, j: int) -> Fraction:
    """d(sigma)-integral of p over facet j of P."""
    if p.dim != P.dim:
        raise ValueError("polynomial/polytope dimension mismatch")
    xi = _transversal(P, j)
    return sum(
        (integrate_facet_cell(p, cell, xi) for cell in triangulate_facet(P, j)),
        Fraction(0),
    )


def integrate_boundary(p: Polynomial, P: LabelledPolytope) -> Fraction:
    """d(sigma)-integral of p over the whole labelled boundary of P."""
    return _pair_row(p, [(0,) * P.dim], P, True)[0]


def _pair(f: Polynomial, g: Polynomial, P: LabelledPolytope, boundary: bool) -> Fraction:
    """The bilinear pairing sum_a sum_b f_a g_b m(a + b) = int f g, read from
    P.moments without forming the product f * g."""
    if g.dim != P.dim:
        raise ValueError("polynomial/polytope dimension mismatch")
    row = _pair_row(f, list(g.terms), P, boundary)
    return sum((c * r for c, r in zip(g.terms.values(), row)), Fraction(0))


def _pair_row(
    f: Polynomial, expos: list, P: LabelledPolytope, boundary: bool
) -> list[Fraction]:
    """[sum_a f_a m(a + b) for b in expos]: the moments of f * x^b, with every
    missing m(a + b) filled at once."""
    if f.dim != P.dim:
        raise ValueError("polynomial/polytope dimension mismatch")
    table = _fill(P, [_add(a, b) for b in expos for a in f.terms])
    return [
        sum((c * table[_add(a, b), boundary] for a, c in f.terms.items()), Fraction(0))
        for b in expos
    ]


def _add(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def _fill(P: LabelledPolytope, expos) -> dict:
    """Fill the interior and boundary moments of x^a (a in expos) missing
    from P.moments, keyed (exponent, boundary), in one pass over the facet
    cells; return the table."""
    table = P.moments
    missing = [expo for expo in dict.fromkeys(expos) if (expo, False) not in table]
    if missing:
        inner = [Fraction(0)] * len(missing)
        outer = [Fraction(0)] * len(missing)
        for j, L in enumerate(P.labels):
            xi = _transversal(P, j)
            for cell in triangulate_facet(P, j):
                for i, (b, m) in enumerate(_cell_moments(cell, xi, L.constant, missing)):
                    outer[i] += b
                    inner[i] += m
        for expo, m, b in zip(missing, inner, outer):
            table[expo, False] = m
            table[expo, True] = b
    return table


def _cell_moments(
    verts: tuple[Point, ...], xi: Point, c: Fraction, expos: list
) -> list[tuple[Fraction, Fraction]]:
    """(boundary, interior) moments of the monomials x^a (a in expos) on one
    (l-1)-simplex cell of a facet with transversal xi and label constant
    c = L_j(0).

    jac = |det[w_i - w_0, xi]|.  After clearing denominators (D = lcm of
    the coordinate denominators), each coordinate is an integer linear form
    L_r in the barycentric coordinates lambda_0..lambda_{l-1}, so D^d x^a
    (d = |a|) is an integer form of degree d, read off the cell's power tree
    (exact._barycentric_powers) as power(a + (0,)), so the cell's monomials
    share their factors.  With N = sum_b coeff_b * b!, Dirichlet's formula
    gives the boundary moment  jac * N / ((l - 1 + d)! * D^d), and the
    interior share  c * jac * N / ((l + d)! * D^d)  (see the module
    docstring).
    """
    ell = len(verts)
    jac = _cell_jacobian(verts, xi)
    D, power = _barycentric_powers(verts)
    fact = [math.factorial(i) for i in range(ell + max(map(sum, expos)) + 1)]
    out = []
    for a in expos:
        d = sum(a)
        N = sum(c_b * math.prod(fact[e] for e in b) for b, c_b in power(a + (0,)).items())
        num = jac.numerator * N
        den = jac.denominator * D**d
        out.append((Fraction(num, den * fact[ell - 1 + d]),
                    Fraction(num * c.numerator, den * fact[ell + d] * c.denominator)))
    return out
