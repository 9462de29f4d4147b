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

Moments are kept per polytope as integers.  Each moment of a monomial x^a
has a numerator N over a denominator that depends only on the degree
d = |a|:

    int_P x^a dx              = N / Delta_d,    Delta_d  = (l + d)! * D_P^d * J,
    int_{boundary P} x^a dsig = N / Delta'_d,   Delta'_d = (l - 1 + d)! * D_P^d * J,

with D_P the lcm of the denominators of P's vertex coordinates and J the lcm
of the denominators of jac and L_j(0) * jac over the facet cells (below),
each in lowest terms.
Delta_d = (l + d) Delta'_d, and Delta_d divides Delta_{d+1} =
(l + d + 1) D_P Delta_d, so any set of moments shares the interior
denominator of its largest degree.  P.moments is one record
(D_P, J, T, inner, outer), None until the first fill: inner and outer hold
the interior and boundary moments of every monomial of degree <= T, in
_monomials order, each as one integer over that shared denominator
Delta_T, so each side has one table.

_fill(P, top) returns the record at once when it already reaches degree
top, and otherwise rebuilds all of it up to T = top in one pass over the
facets (below).  The polytope owns the cells and the integers they are
read on: polytope._vertex_record holds P's vertices cleared once to the
rows u = D_P v (clip hands a piece that record at its birth), and
polytope._facet_cells triangulates each facet once per polytope into
vertex-index cells, keeping each cell's jac = |det[w_i - w_0, xi]| as an
integer numerator and denominator (one integer minor of the cell's U rows
over D_P^(l-1) |g_i|).  So a fill hands each cell's U rows to _cell_moments
as they are and reads jac and L_j(0) jac off integers, with no Fraction per
cell or per vertex coordinate.  On a cell v_0..v_k (k = l - 1) of facet j,
Dirichlet's formula
int_Delta lambda^b = k! vol b! / (k + |b|)! in the barycentric coordinates
lambda turns every moment into the functional phi: lambda^b -> b!, and

    int_cell x^a dsigma = jac * N_a / ((l - 1 + d)! * D_P^d),
    N_a = phi((D_P x)^a) = a! [c^a] prod_i 1/(1 - <c, u_i>),

with u_i = D_P v_i, integer vectors.  For the last identity write
y_i = <c, u_i>, so <c, D_P x> = sum_i y_i lambda_i.  Then

    phi(<c, D_P x>^d) = sum_{|b| = d} d!/b! y^b b! = d! h_d(y),
    <c, D_P x>^d = sum_{|a| = d} d!/a! c^a (D_P x)^a,

and comparing the coefficients of c^a gives phi((D_P x)^a) = a! [c^a] h_d(y),
where the complete homogeneous polynomial h_d(y) is the degree-d part of
prod_i 1/(1 - y_i) (Baldoni, Berline, De Loera, Koeppe & Vergne, "How to
integrate a polynomial over a simplex", Math. Comp. 80 (2011)).  So one
truncated series product per cell, up to the top degree, gives every N_a
(_cell_moments), and its share of the interior moment is

    L_j(0) * jac * N_a / ((l + d)! * D_P^d)

(the signed cone from the origin over the cell; the factor l + d merges into
the factorial).  Over Delta'_d and Delta_d these are the integers jac J N_a
and L_j(0) jac J N_a.  So the fill runs facet by facet on integers: each
cell's series starts at its boundary weight jac J instead of 1, a facet's
cell series are summed entry by entry into S_j, S_j goes to the boundary
side, and L_j(0) S_j, read once per facet as one exact division, to the
interior side (_fill proves it exact).  The a! of N_a and the degree's
scale to Delta_T are one weight per position, e! s[|e|], applied once per
side at the end (_weights, cached per dim, D_P and top).  A fill makes no
Fraction per monomial and no per-monomial pass per cell.

Products are never formed to be integrated.  _moment_rows reads the moments
of f x^b (f with integer coefficients, b in a list) as integer rows, every
moment brought over the interior denominator Delta_top of one top degree;
futaki's moment system and probe's crease rows are such rows.  _pair(f, g) =
sum_a sum_b f_a g_b m(a + b) = int f g reads the integer forms of the
Polynomials f and g (Polynomial.cleared), one row, and makes one Fraction.
A read has one path: _fill(P, top), then each entry of a row is one dot
product, f's coefficients against the table at the positions of the a + b
(_positions, cached per exponent lists).  Positions of lower degrees are a
prefix, so a record filled to T > top serves the read: its entries of
degree <= top are Delta_T / Delta_top times those over Delta_top, and each
row entry is divided by that factor exactly.  A read of degree past top
finds no position and raises.

integrate_simplex and integrate_facet_cell pull whole polynomials back
through compose_affine instead; they stay as the independent path behind
df_via_cones and the tests.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from operator import add, mul

from .exact import Point, Polynomial, det
from .polytope import LabelledPolytope, Simplex, _facet_cells, _points, _transversal, _vertex_record


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
    return _pair(p, Polynomial.constant(P.dim, 1), P, False)


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
    E = [[cell[i + 1][r] - cell[0][r] for i in range(k)] for r in range(ell)]
    jac = abs(det([row + [x] for row, x in zip(E, xi)]))
    if jac == 0:
        return Fraction(0)
    if k == 0:
        return jac * p(cell[0])
    pulled = p.compose_affine(E, cell[0])
    return jac * integrate_simplex_standard(pulled)


def integrate_facet(p: Polynomial, P: LabelledPolytope, j: int) -> Fraction:
    """d(sigma)-integral of p over facet j of P."""
    if p.dim != P.dim:
        raise ValueError("polynomial/polytope dimension mismatch")
    if not 0 <= j < P.n_facets:
        raise IndexError("facet index out of range")
    xi = _transversal(P, j)
    return sum(
        (integrate_facet_cell(p, _points(P, cell), xi) for cell, _, _ in _facet_cells(P)[j]),
        Fraction(0),
    )


def integrate_boundary(p: Polynomial, P: LabelledPolytope) -> Fraction:
    """d(sigma)-integral of p over the whole labelled boundary of P."""
    return _pair(p, Polynomial.constant(P.dim, 1), P, True)


def _pair(f: Polynomial, g: Polynomial, P: LabelledPolytope, boundary: bool) -> Fraction:
    """The bilinear pairing sum_a sum_b f_a g_b m(a + b) = int f g, read from
    P.moments without forming the product f * g."""
    (F, df), (G, dg) = _integer_terms(f, P.dim), _integer_terms(g, P.dim)
    top = max(_degree(F), 0) + max(_degree(G), 0)
    [row], delta = _moment_rows(P, [(F.items(), tuple(G), boundary)], top)
    return Fraction(sum(map(mul, G.values(), row)), df * dg * delta)


def _integer_terms(p: Polynomial, dim: int) -> tuple[dict, int]:
    """p.cleared(), the integer terms {a: c_a} over den > 0; ValueError
    unless p is on dim variables."""
    if p.dim != dim:
        raise ValueError("polynomial/polytope dimension mismatch")
    return p.cleared()


def _degree(G: dict) -> int:
    """The total degree of the terms G; -1 when there are none."""
    return max(map(sum, G), default=-1)


def _moment_rows(P: LabelledPolytope, requests: list, top: int) -> tuple[list, int]:
    """(rows, Delta_top): for each request (terms, expos, boundary), the row
    [sum_a c_a m(a + b) for b in expos] times Delta_top, an integer row for
    integer terms, pairs (a, c_a); top is at least every deg a + |b|.  Each
    entry is one dot product of the c_a with the record's table for the
    side at _positions, over the record's Delta_T; when T > top, it is then
    divided exactly by Delta_T / Delta_top."""
    D_P, J, T, inner, outer = _fill(P, top)
    rows = []
    for terms, bs, boundary in requests:
        table = outer if boundary else inner
        expos, coeffs = tuple(zip(*terms)) or ((), ())
        rows.append([sum(map(mul, coeffs, map(table.__getitem__, at)))
                     for at in _positions(P.dim, top, expos, tuple(bs))])
    if T > top:
        k = math.perm(P.dim + T, T - top) * D_P ** (T - top)  # Delta_T / Delta_top
        rows = [[x // k for x in row] for row in rows]
    return rows, math.factorial(P.dim + top) * D_P**top * J


@functools.lru_cache(maxsize=256)
def _positions(dim: int, top: int, expos: tuple, bs: tuple) -> tuple:
    """For each b in bs, the positions of the a + b (a in expos) in
    _monomials(dim, top); an a + b of degree past top raises KeyError."""
    index = _series_tables(dim, top)[0]
    return tuple(tuple(index[_add(a, b)] for a in expos) for b in bs)


def _add(a: tuple, b: tuple) -> tuple:
    return tuple(map(add, a, b))


def _scales(dim: int, D_P: int, top: int, boundary: bool) -> list[int]:
    """s with s[d] N / Delta_top the moment whose numerator of degree
    d <= top is N over Delta_d (interior) or Delta'_d (boundary): s[d] =
    Delta_top / Delta_d in the interior and (l + d) times that on the
    boundary."""
    s = [1] * (top + 1)
    for d in range(top, 0, -1):
        s[d - 1] = s[d] * (dim + d) * D_P
    return [(dim + d) * x for d, x in enumerate(s)] if boundary else s


def _fill(P: LabelledPolytope, top: int) -> tuple:
    """P.moments = (D_P, J, T, inner, outer), the interior and boundary
    moments of every monomial of degree <= T in _monomials order as
    integers over Delta_T, rebuilt to T = top in one pass over the facet
    cells unless P.moments already reaches top.  Return the record.

    A cell (cell, n, d) of facet j has jac = n / d and L_j(0) jac = cn / cd
    with cn = n a, cd = d b for L_j(0) = a / b in lowest terms (b > 0), so
    J is the lcm of d / gcd(n, d) and cd / gcd(cn, cd), and the cell's
    boundary weight k = n J / d and interior weight k a / b = cn J / cd
    are integers.  _cell_moments starts the cell's series at k, so it
    returns k H, H the cell's series prod_i 1/(1 - <c, u_i>), which has
    integer coefficients since the rows u_i are integers.  A facet's cells
    sum to S_j = sum k H, which goes to the boundary side as it is, and
    a S_j / b goes to the interior side.  That division is exact entry by
    entry: a S_j / b = sum (k a / b) H is a sum of integer multiples of
    integer series, so b divides every entry of a S_j, and the floor
    division a x // b is the quotient.  Each side is then multiplied once
    by its weight e! s[|e|] per position (_weights)."""
    if P.moments and P.moments[2] >= top:
        return P.moments
    D_P, U, _ = _vertex_record(P)
    facets = _facet_cells(P)
    constants = [(L.constant.numerator, L.constant.denominator) for L in P.labels]
    J = math.lcm(*(d // math.gcd(n, d) for cells in facets for _, n, d in cells),
                 *(d * b // math.gcd(n * a, d * b)
                   for (a, b), cells in zip(constants, facets) for _, n, d in cells))
    inner = outer = (0,) * len(_monomials(P.dim, top))
    for (a, b), cells in zip(constants, facets):
        S = functools.reduce(_add, [_cell_moments([U[k] for k in cell], top, n * J // d)
                                    for cell, n, d in cells])
        outer = _add(outer, S)
        if a:  # a facet through the origin adds nothing inside
            inner = _add(inner, S if (a, b) == (1, 1) else [a * x // b for x in S])
    wi, wb = _weights(P.dim, D_P, top)
    tables = list(map(mul, wi, inner)), list(map(mul, wb, outer))
    object.__setattr__(P, "moments", (D_P, J, top, *tables))
    return P.moments


@functools.lru_cache(maxsize=64)
def _weights(dim: int, D_P: int, top: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The interior and boundary weights e! s[|e|] per position of
    _monomials(dim, top), s = _scales(dim, D_P, top, side): a series
    coefficient of degree d times its weight is its moment numerator over
    Delta_top."""
    mons = _monomials(dim, top)
    fact = [math.prod(map(math.factorial, e)) for e in mons]
    return tuple(tuple([f * s[sum(e)] for e, f in zip(mons, fact)])
                 for s in (_scales(dim, D_P, top, False), _scales(dim, D_P, top, True)))


def _cell_moments(rows: list, top: int, weight: int = 1) -> list[int]:
    """weight times the series prod_i 1/(1 - <c, u_i>), truncated at degree
    top, as its coefficients in _monomials order, on the simplex cell whose
    vertices v have the integer rows u = D_P v.  With weight 1 its
    coefficient at a, times a!, is the integer N_a with

        int_cell x^a dsigma = jac * N_a / ((l - 1 + d)! * D_P^d)

    (d = |a|; see the module docstring).  The product is built one vertex at
    a time: dividing a series A by 1 - <c, u> gives B with
    B_e = A_e + sum_r u_r B_(e - e_r), so B is filled in place in graded
    order, one step per monomial and variable.
    """
    index, steps = _series_tables(len(rows[0]), top)
    B = [weight] + [0] * (len(index) - 1)
    for u in rows:
        for t, r, p in steps:
            B[t] += u[r] * B[p]
    return B


@functools.lru_cache(maxsize=32)
def _series_tables(n: int, top: int) -> tuple[dict, list]:
    """The tables of _cell_moments for n variables up to degree top: each
    exponent's position in _monomials(n, top), and the steps (t, r, p) with
    p the position of e_t - e_r."""
    mons = _monomials(n, top)
    index = {e: t for t, e in enumerate(mons)}
    steps = [(t, r, index[e[:r] + (e[r] - 1,) + e[r + 1:]])
             for t, e in enumerate(mons) for r in range(n) if e[r]]
    return index, steps


@functools.lru_cache(maxsize=64)
def _monomials(dim: int, d: int) -> tuple[tuple, ...]:
    """Exponents of degree <= d in graded order, so the list for a lower
    degree is a prefix of this one; degree k from its multisets of variables.
    Cached, and a tuple because every caller shares it."""
    return tuple(sorted(
        (tuple(map(idx.count, range(dim)))
         for k in range(d + 1)
         for idx in itertools.combinations_with_replacement(range(dim), k)),
        key=lambda e: (sum(e), e),
    ))
