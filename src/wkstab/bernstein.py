"""Bernstein-coefficient nonnegativity certificates on simplices.

Writing a polynomial p on a k-simplex in the degree-d Bernstein basis gives
coefficients b_gamma whose minimum bounds p from below on the simplex.  The
corner coefficient b_{d e_i} is the vertex value p(V_i), and the barycenter
value is sum_gamma b_gamma (d!/gamma!) / (k+1)^d.  Each node of the
certifier keeps its coefficients as integer numerators B_gamma over one
positive integer S and is decided from them alone, in this order: a
negative corner (in vertex order) or a negative barycenter value refutes
p >= 0 with that exact point; all B_gamma >= 0 certifies it with the bound
min B / S; otherwise the simplex is bisected across the midpoint of its
longest edge.  Nodes are decided breadth-first under a node budget, and a
node is split only while the budget still covers both its halves.  A
``Fraction`` is built only for a witness or a bound.  The certificate is
one-sided: it never certifies a false positive, and may return
"inconclusive" when the budget runs out.

Only the root's numerators come from p, and only through its integer form
(Polynomial.cleared): integer terms G_a over one positive denominator C.
The cone conditions of stability are Polynomials built on such integers,
so their Fraction terms are never made.  With D the lcm of the vertex
coordinate denominators, each coordinate is x_r = L_r(lambda) / D for an
integer linear form L_r, and the homogenizing form L_n = D (lambda_0 + ...
+ lambda_k) equals D on the simplex.  So, with d = deg p read off G's
nonzero terms, every term (G_a / C) x^a is G_a L^(a, d - |a|) / (C D^d),
homogeneous of degree d, and

    B_gamma = sum_a G_a R_a[gamma],  R_a[gamma] = gamma! [lambda^gamma] L^(a, d - |a|),
    S = d! C D^d.

A positive multiple of (G, C) scales every numerator and S alike, so the
decisions, bounds and witnesses do not depend on which one p is built on.

The row R_a depends on the cell and d alone.  _cell keeps one record per
cone cell for the last _CELLS cells: E, the vertices cleared to integer
rows Y, and the rows met so far, keyed by (d, a).  _numerators reads a row
off the simplex's integer barycentric power tree (_barycentric_powers;
measure fills its moments another way) only the first time a polynomial
of degree d on that cell has the monomial a.  Checks of several factor
choices on one fiber and base point meet the same cone cells (the rows of
a ``sweep`` over s or c), and all but the first build no power tree.

A child's numerators come from its parent's by blossoming, that is by de
Casteljau's algorithm (Boudaoud, Caruso & Roy, DCG 39 (2008)).  Replacing
the vertex V_r by the mean of the vertices V_i, i in I (r in I), is one de
Casteljau pyramid over I: c^0 = B, c^s_beta = sum_{i in I}
c^(s-1)_(beta + e_i), and the new numerator of gamma is
|I|^(d - gamma_r) c^(gamma_r)_(gamma - gamma_r e_r), over S |I|^d.  The
two halves of a bisection across the edge (a, b) are the stages over
I = {a, b} with r = a and r = b; they share one pyramid, and _bisection
keeps one table per edge for both.  So a node at bisection depth t is over
S 2^(d t), and p never enters below the root.

The node geometry is integer too.  The root's vertices are the cell's
integer rows Y over E, the lcm of their denominators, and a node at depth t
keeps its vertices as integer rows over E 2^t: a half's midpoint is
Y_a + Y_b and its other vertices double.  The longest edge is the first
greatest integer squared length, and a ``Fraction`` point is made only for
a corner or barycenter witness.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from operator import add, itemgetter, mul

from .exact import Point, Polynomial, _cleared_points
from .measure import _degree, _integer_terms, _monomials
from .polytope import Simplex

#: Cells whose records are kept: the cone cells of one fiber and base point
#: come back for every factor choice checked on them.
_CELLS = 64

CERTIFIED = "certified"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"


def bernstein_coefficients(p: Polynomial, simplex: Simplex) -> dict[tuple, Fraction]:
    """Coefficients of p on the simplex in the Bernstein basis of degree deg(p).

    Keys are exponent multi-indices gamma with |gamma| = deg(p) over the k+1
    barycentric coordinates, in ``measure._monomials`` order; the
    coefficient of the corner index d*e_i is exactly p(V_i).
    """
    B, S = _numerators(p, simplex)
    d = max(p.degree(), 0)
    return {gamma: Fraction(b, S) for gamma, b in zip(_levels(d, simplex.k + 1)[0][d], B)}


def _numerators(p: Polynomial, simplex: Simplex) -> tuple[list[int], int]:
    """The Bernstein numerators B (in ``measure._monomials`` order) of p on
    the simplex and their common denominator, read off p's integer form
    (ValueError unless p is on the simplex's ambient dimension)."""
    G, S = _integer_terms(p, simplex.ambient_dim)
    return _cleared_numerators(G, S, max(_degree(G), 0), _cell(simplex.vertices), simplex.k + 1)


def _cleared_numerators(G: dict, S: int, d: int, record, parts: int) -> tuple[list[int], int]:
    """The Bernstein numerators of G / S, of degree d, on the simplex with
    parts vertices whose _cell record is given, and their common
    denominator: B is the dot of G's coefficients with the cell's rows of
    G's monomials in degree d, over d! S E^d.  Rows the cell does not hold
    yet are read off one power tree, which builds only their powers."""
    E, Y, rows = record
    missing = [a for a in G if (d, a) not in rows]
    if missing:
        power = _barycentric_powers(E, Y)
        _, pos, _, weights = _levels(d, parts)
        fact_d = math.factorial(d)
        for a in missing:
            row = [0] * len(weights)
            for gamma, v in power(a + (d - sum(a),)).items():
                i = pos[d][gamma]
                row[i] = fact_d // weights[i] * v  # gamma! v
            rows[d, a] = tuple(row)
    scale = math.factorial(d) * E**d * S
    if not G:  # the zero polynomial, of degree 0 here
        return [0], scale
    B = [sum(map(mul, G.values(), column)) for column in zip(*(rows[d, a] for a in G))]
    return B, scale


@functools.lru_cache(maxsize=_CELLS)
def _cell(vertices: tuple[Point, ...]) -> tuple[int, tuple[tuple[int, ...], ...], dict]:
    """The cell's record (E, Y, rows): the lcm E of the vertex coordinate
    denominators, the vertices cleared to integer rows Y = E v_i, and the
    rows (d, a) -> the Bernstein numerators gamma! [lambda^gamma]
    L^(a, d - |a|) of x^a over d! E^d, in ``_levels`` order.  The rows are
    empty at first: _numerators adds the row of each monomial it meets, so
    a cell holds only rows some polynomial on it used."""
    return (*_cleared_points(vertices), {})


def _barycentric_powers(E: int, Y: tuple[tuple[int, ...], ...]):
    """The integer barycentric power tree of the simplex whose vertices are
    the integer rows Y over E.

    With lambda_0..lambda_k the barycentric coordinates, the n coordinates
    scaled by E are integer linear forms L_r(lambda) = sum_i Y_i[r] lambda_i,
    and the homogenizing form is L_n = E (lambda_0 + ... + lambda_k), equal
    to E on the simplex.  Returns a memoised ``power(a)`` giving
    prod_r L_r^a_r (len(a) = n+1) as a dict from lambda exponents to
    integers; each power is one linear form times a smaller one, so the
    terms of p share their factors.  ``power`` walks down to a stored power
    instead of calling itself: a self-referencing closure is a reference
    cycle, which would keep every tree alive until the cyclic garbage
    collector runs.
    """
    n, k = len(Y[0]), len(Y) - 1
    forms = [
        [(i, y[r]) for i, y in enumerate(Y) if y[r]] for r in range(n)
    ] + [[(i, E) for i in range(k + 1)]]
    tree = {(0,) * (n + 1): {(0,) * (k + 1): 1}}

    def power(a):
        chain = []
        while a not in tree:
            r = next(r for r, e in enumerate(a) if e)
            chain.append((a, r))
            a = a[:r] + (a[r] - 1,) + a[r + 1:]
        got = tree[a]
        for a, r in reversed(chain):
            prev, got = got, {}
            for b, c in prev.items():
                for i, coeff in forms[r]:
                    key = b[:i] + (b[i] + 1,) + b[i + 1:]
                    got[key] = got.get(key, 0) + c * coeff
            tree[a] = got
        return got

    return power


@functools.lru_cache(maxsize=64)
def _levels(d: int, parts: int):
    """The multi-indices of each total degree e = 0..d in
    ``measure._monomials`` order, their positions, the corner positions of
    degree d in vertex order and the multinomials d!/gamma! of degree d."""
    mons = _monomials(parts, d)
    comps = [tuple(g for g in mons if sum(g) == e) for e in range(d + 1)]
    pos = [{g: i for i, g in enumerate(level)} for level in comps]
    corners = tuple(pos[d][tuple(d if j == i else 0 for j in range(parts))] for i in range(parts))
    fact_d = math.factorial(d)
    weights = tuple(fact_d // math.prod(math.factorial(g) for g in gamma) for gamma in comps[d])
    return comps, pos, corners, weights


@functools.lru_cache(maxsize=1024)
def _bisection(d: int, parts: int, a: int, b: int):
    """Tables for bisecting across the edge (a, b): per pyramid level below
    d, one getter per multi-index beta picking its parents beta + e_a and
    beta + e_b; and for each half, V_a then V_b replaced by the midpoint,
    per output multi-index gamma its (level t = gamma_r, position of
    gamma - t e_r, scale 2^(d - t)) with r the replaced vertex."""
    comps, pos, _, _ = _levels(d, parts)
    steps = []
    for e in range(d - 1, -1, -1):
        steps.append([
            itemgetter(*(pos[e + 1][beta[:i] + (beta[i] + 1,) + beta[i + 1:]] for i in (a, b)))
            for beta in comps[e]
        ])
    outs = ([], [])
    for gamma in comps[d]:
        for out, r in zip(outs, (a, b)):
            t = gamma[r]
            out.append((t, pos[d - t][gamma[:r] + (0,) + gamma[r + 1:]], 1 << (d - t)))
    return steps, outs


def _children(Y: tuple[tuple[int, ...], ...], B: list[int], d: int):
    """The two halves of a node across the midpoint of its longest edge
    (a, b), the first such pair in index order on a tie: V_a replaced by the
    midpoint, then V_b, with their numerators over S 2^d when B is over S.
    The node's vertices are the integer rows Y over E 2^t, so the halves'
    are over E 2^(t+1): the midpoint is Y_a + Y_b and every other vertex
    doubles.  Both halves are read off one pyramid over the edge."""
    parts = len(Y)
    a, b = max(
        itertools.combinations(range(parts), 2),
        key=lambda e: sum((s - t) ** 2 for s, t in zip(Y[e[0]], Y[e[1]])),
    )
    mid = tuple(map(add, Y[a], Y[b]))
    doubled = tuple(tuple(2 * y for y in v) for v in Y)
    steps, outs = _bisection(d, parts, a, b)
    pyramid = [B]
    for step in steps:
        prev = pyramid[-1]
        pyramid.append([sum(pick(prev)) for pick in step])
    for r, out in zip((a, b), outs):
        yield (doubled[:r] + (mid,) + doubled[r + 1:],
               [pyramid[t][i] * scale for t, i, scale in out])


@dataclass(frozen=True)
class PositivityOutcome:
    status: str  # CERTIFIED | REFUTED | INCONCLUSIVE
    lower_bound: Fraction | None  # valid lower bound on the cell when certified
    witness: tuple | None  # (point, value) with value < 0 when refuted
    depth_used: int


def certify_nonnegative(p: Polynomial, simplex: Simplex, max_depth: int = 6) -> PositivityOutcome:
    """Certify p >= 0 on the simplex, refute with an exact witness, or give up.

    Sound in both directions it decides: CERTIFIED comes with a rational lower
    bound (min Bernstein coefficient over the leaves) and REFUTED with an
    exact rational point where p < 0.  At most sum_{i <= max_depth}
    ((k+1)!)^i nodes are decided, as many as a barycentric subdivision
    max_depth levels deep has; depth_used is the bisection depth reached.
    """
    if max_depth < 0:
        raise ValueError(f"max_depth must be >= 0, got {max_depth}")
    G, S = _integer_terms(p, simplex.ambient_dim)
    d, parts, record = max(_degree(G), 0), simplex.k + 1, _cell(simplex.vertices)
    B, S = _cleared_numerators(G, S, d, record, parts)
    _, _, corners, weights = _levels(d, parts)
    E, Y, _ = record
    # nodes not yet queued that may still be decided: q + q^2 + ... + q^max_depth,
    # capped at 2^62, more than any run decides (64 levels pass it when q >= 2)
    q, m = math.factorial(parts), min(max_depth, 64)
    unassigned = min((q ** (m + 1) - q) // (q - 1) if q > 1 else max_depth, 1 << 62)
    queue = deque([(Y, B, 0)])
    bound: Fraction | None = None
    undecided = False
    while queue:  # breadth-first, so depth never decreases
        Y, B, depth = queue.popleft()
        S_cell, E_cell = S << (d * depth), E << depth
        for y, c in zip(Y, corners):
            if B[c] < 0:
                vtx = tuple(Fraction(x, E_cell) for x in y)
                return PositivityOutcome(REFUTED, None, (vtx, Fraction(B[c], S_cell)), depth)
        center = sum(map(mul, B, weights))
        if center < 0:
            barycenter = tuple(Fraction(sum(xs), parts * E_cell) for xs in zip(*Y))
            witness = (barycenter, Fraction(center, S_cell * parts**d))
            return PositivityOutcome(REFUTED, None, witness, depth)
        low = min(B)
        if low >= 0:
            low = Fraction(low, S_cell)
            bound = low if bound is None else min(bound, low)
        elif unassigned >= 2:
            unassigned -= 2
            queue.extend((Y_child, B_child, depth + 1) for Y_child, B_child in _children(Y, B, d))
        else:
            undecided = True
    if undecided:
        return PositivityOutcome(INCONCLUSIVE, None, None, depth)
    return PositivityOutcome(CERTIFIED, bound, None, depth)
