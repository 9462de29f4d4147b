"""Exact polynomial integration over labelled polytopes.

Interior integrals use a fan triangulation and the Dirichlet formula on the
standard simplex.  Boundary integrals use the labelled measure d(sigma) on
each facet F_j, fixed by  dL_j ^ d(sigma) = -dx : rescaling a label rescales
its facet measure inversely, so the labels (not just the facets) enter.

Moments are cached per polytope: integrate and integrate_boundary are dot
products with the monomial integrals kept in P.moments, each filled once.
The fill works cell by cell over one triangulation: on a k-simplex cell with
coordinate denominators cleared by D, every missing x^a is an integer form in
the barycentric coordinates, read off one power tree per cell (built by
exact._barycentric_powers, which bernstein shares), and

    int_cell x^a = jac * sum_b coeff_b * b! / ((k + |a|)! * D^|a|).

Products are never formed to be integrated: _pair(f, g) = sum_a sum_b
f_a g_b m(a + b) reads int f g off the table, and _pair_row gives the moments
of f x^b for a list of b.  Every read asks _fill for all the monomials it
needs at once, so one read triangulates P at most once per table (interior
or boundary).

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
    triangulate,
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
    return _moment_dot(p, P, False)


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
    return _moment_dot(p, P, True)


def _moment_dot(p: Polynomial, P: LabelledPolytope, boundary: bool) -> Fraction:
    """Sum of coeff * moment over p's terms, read from P.moments."""
    if p.dim != P.dim:
        raise ValueError("polynomial/polytope dimension mismatch")
    table = _fill(P, p.terms, boundary)
    return sum((c * table[e, boundary] for e, c in p.terms.items()), Fraction(0))


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
    table = _fill(P, [_add(a, b) for b in expos for a in f.terms], boundary)
    return [
        sum((c * table[_add(a, b), boundary] for a, c in f.terms.items()), Fraction(0))
        for b in expos
    ]


def _add(a: tuple, b: tuple) -> tuple:
    return tuple(x + y for x, y in zip(a, b))


def _fill(P: LabelledPolytope, expos, boundary: bool) -> dict:
    """Fill the moments of x^a (a in expos) missing from P.moments, keyed
    (exponent, boundary), over one triangulation; return the table."""
    table = P.moments
    missing = [expo for expo in dict.fromkeys(expos) if (expo, boundary) not in table]
    if missing:
        if boundary:
            cells = [(c, _transversal(P, j)) for j in range(P.n_facets)
                     for c in triangulate_facet(P, j)]
        else:
            cells = [(s.vertices, None) for s in triangulate(P)]
        sums = [Fraction(0)] * len(missing)
        for verts, xi in cells:
            for i, m in enumerate(_cell_moments(verts, xi, missing)):
                sums[i] += m
        for expo, total in zip(missing, sums):
            table[expo, boundary] = total
    return table


def _cell_moments(verts: tuple[Point, ...], xi: Point | None, expos: list) -> list[Fraction]:
    """Moments of the monomials x^a (a in expos) over one k-simplex cell.

    With xi None the cell is full-dimensional and jac = |det[v_i - v_0]|;
    otherwise it is a facet cell and jac = |det[w_i - w_0, xi]|.  After
    clearing denominators (D = lcm of the coordinate denominators), each
    coordinate is an integer linear form L_r in the barycentric coordinates
    lambda_0..lambda_k, so D^d x^a (d = |a|) is an integer form of degree d,
    read off the cell's power tree (exact._barycentric_powers) as
    power(a + (0,)), so the cell's monomials share their factors.
    Dirichlet's formula int lambda^b = b! / (k + d)! then gives the moment
    jac * N / ((k + d)! * D^d)  with N = sum_b coeff_b * b!.
    """
    k = len(verts) - 1
    jac = _cell_jacobian(verts, xi)
    if jac == 0:
        return [Fraction(0)] * len(expos)
    D, power = _barycentric_powers(verts)
    fact = [math.factorial(i) for i in range(k + max(map(sum, expos)) + 1)]
    out = []
    for a in expos:
        d = sum(a)
        N = sum(c * math.prod(fact[e] for e in b) for b, c in power(a + (0,)).items())
        out.append(Fraction(jac.numerator * N, jac.denominator * fact[k + d] * D**d))
    return out
