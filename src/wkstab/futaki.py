"""The weighted Donaldson-Futaki functional and the extremal affine solver.

For weights v > 0 and w on a labelled polytope P, the functional is

    F(f) = 2 int_{boundary P} f v dsigma  -  int_P f w dx .

An equivalent cone form (used as an independent cross-check and as the source
of the per-cone sufficient condition) decomposes P into cones P_j over the
facets from an interior point x0:

    F(f) = sum_j (2/L_j(x0)) int_{P_j} (d_x f . (x - x0) - f) v dx
         + sum_j int_{P_j} [ (2/L_j(x0)) ((l+1) v + d_x v . (x - x0)) - w ] f dx .

The extremal affine function l_ext is the unique affine function for which F
with w = l_ext v - w_base vanishes on all affine functions; it is found by
solving the (l+1) x (l+1) moment system exactly.

F and the moment system are bilinear pairings with P's moment table, so no
product polynomial is formed.  Their weights are Polynomials, read through
their integer forms (Polynomial.cleared): a fibration's v and w_base are
built on integers, and stability_weight forms w = l_ext v - w_base on
integers too, so no Fraction term of a weight is made on the way from the
fibration to the moment rows.  Pairings against the affine basis X =
(1, x_1, ..., x_l) are read in one measure._moment_rows call each:
_moment_system reads <v, X_i X_j>, <v, X_i>_boundary and <w_base, X_i>, and
the Futaki check assert_futaki_vanishes reads only the last two, since with
w_base = -w the canonical right-hand side is F(X_i).  The table holds
integer numerators (see measure), so the system is built as an integer
matrix and right-hand side over one common denominator, and one
fraction-free Gauss-Jordan pass of exact._eliminate over that integer
system [M | b] gives both Sylvester's test of M (positive definite exactly
when the pass swaps no row and every pivot, a leading principal minor, is
positive) and the solve.  The ExtremalSolution record keeps that integer
system and solution; only l_ext's l + 1 coefficients are made Fractions,
and the moment matrix, right-hand side and residuals are built as Fractions
when read.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .exact import (
    AffineFunc, Polynomial, _eliminate, _lowest, _product, point, radial_derivative,
)
from .measure import _add, _degree, _integer_terms, _moment_rows, _pair, integrate_simplex
from .measure import integrate  # noqa: F401  (perfbench's tracer patches futaki.integrate)
from .polytope import LabelledPolytope, cone_decomposition
from .weights import Convention, Fibration


class SingularMomentMatrix(Exception):
    pass


class FutakiNotVanishing(Exception):
    def __init__(self, basis_index: int, value: Fraction):
        super().__init__(
            f"F does not vanish on the affine basis element X_{basis_index}: "
            f"F(X_{basis_index}) = {value}"
        )
        self.basis_index = basis_index
        self.value = value


def df_invariant(P: LabelledPolytope, v: Polynomial, w: Polynomial, f: Polynomial) -> Fraction:
    """F(f) = 2 * boundary integral of f*v  -  interior integral of f*w, as
    two pairings with P's moment table (no product polynomial is formed)."""
    return 2 * _pair(f, v, P, True) - _pair(f, w, P, False)


def df_via_cones(P: LabelledPolytope, x0, v: Polynomial, w: Polynomial, f: Polynomial) -> Fraction:
    """F(f) through the cone decomposition at x0 (must equal df_invariant)."""
    x0 = point(x0)
    decomp = cone_decomposition(P, x0)
    ell = P.dim
    total = Fraction(0)
    rad_f = radial_derivative(f, x0)
    rad_v = radial_derivative(v, x0)
    for j, cells in enumerate(decomp.cones):
        two_over_l = Fraction(2) / P.labels[j](x0)
        integ1 = (rad_f - f) * v
        integ2 = ((v * (ell + 1) + rad_v) * two_over_l - w) * f
        for cell in cells:
            total += two_over_l * integrate_simplex(integ1, cell)
            total += integrate_simplex(integ2, cell)
    return total


@functools.lru_cache(maxsize=8)
def _affine_exponents(dim: int) -> tuple[tuple, ...]:
    """The exponents of the affine basis X = (1, x_1, ..., x_l)."""
    return ((0,) * dim, *(tuple(int(r == i) for r in range(dim)) for i in range(dim)))


@functools.lru_cache(maxsize=8)
def _affine_products(dim: int) -> tuple[tuple, ...]:
    """The exponents of the products X_i X_j, row by row."""
    E = _affine_exponents(dim)
    return tuple(_add(Ei, Ej) for Ei in E for Ej in E)


def _moment_system(
    P: LabelledPolytope, v: Polynomial, w_base: Polynomial, convention: Convention
) -> tuple[list[list[int]], list[int], int]:
    """(M, b, den): the moment system M lam = b as integers over one common
    denominator den > 0, the system's own being M / den and b / den.

    With v = V / dv and w_base = W / dw their integer forms (_integer_terms,
    which also checks their dimension), every moment read
    is brought over Delta_top (see measure), top = max(deg v + 2, deg w_base
    + 1), so den = dv * dw * Delta_top.  The three rows it reads (<v, X_i X_j>,
    <v, X_i>_boundary, <w_base, X_i>) come from one measure._moment_rows
    call, so a cold P is filled in one pass over its facets and a warm one
    builds no exponent list.
    """
    (V, dv), (W, dw) = _integer_terms(v, P.dim), _integer_terms(w_base, P.dim)
    E, EE = _affine_exponents(P.dim), _affine_products(P.dim)
    top = max(_degree(V) + 2, _degree(W) + 1)
    V, W = V.items(), W.items()
    (MM, B, WB), delta = _moment_rows(P, [(V, EE, False), (V, E, True), (W, E, False)], top)
    n = len(E)
    M = [[dw * x for x in MM[i * n:(i + 1) * n]] for i in range(n)]
    beta = 1 if convention is Convention.LEGACY and P.dim == 1 else 2
    sign = -1 if convention is Convention.LEGACY else 1
    b = [beta * dw * x + sign * dv * y for x, y in zip(B, WB)]
    return M, b, dv * dw * delta


def _definite_pass(M: list[list[int]], b: list[int]) -> tuple[list[list[int]], int]:
    """(R, d): [M | b] after one Gauss-Jordan pass of exact._eliminate, so
    M x = b has x_i = R[i][-1] / d, d = det M.

    SingularMomentMatrix unless the integer matrix M is symmetric and, by
    Sylvester's criterion, positive definite: every leading principal minor
    is positive exactly when the pass swaps no row (a zero minor forces a
    swap or skips a column) and every pivot, the minors in order, is > 0.
    """
    n = len(M)
    for i in range(n):
        for j in range(i):
            if M[i][j] != M[j][i]:
                raise SingularMomentMatrix("moment matrix is not symmetric")
    R = [[*row, x] for row, x in zip(M, b)]
    values, pivots, swaps = _eliminate(R, above=True)
    if swaps or pivots != list(range(n)) or min(values, default=1) <= 0:
        raise SingularMomentMatrix(
            "moment matrix is not positive definite "
            "(degenerate polytope or nonpositive v)"
        )
    return R, values[-1] if values else 1


def _assert_positive_definite(M: list[list[int]]) -> None:
    """SingularMomentMatrix unless the integer matrix M is symmetric and
    positive definite, by _definite_pass's test."""
    _definite_pass(M, [0] * len(M))


@dataclass(frozen=True)
class ExtremalSolution:
    """l_ext and the integer moment system it solves exactly.

    system = (M, b, den) is _moment_system's M lam = b over den > 0, and
    solution = (Lam, d) gives lam = Lam / d, constant first, d > 0 the least
    common denominator.  The Fraction views moment_matrix = M / den, rhs =
    b / den and residuals b_i - <l_ext v, X_i> = (d b_i - sum_j M_ij Lam_j)
    / (d den) are built from these integers each time they are read.
    """

    l_ext: AffineFunc
    convention: Convention
    system: tuple
    solution: tuple

    @property
    def is_constant(self) -> bool:
        return all(g == 0 for g in self.l_ext.gradient)

    @property
    def moment_matrix(self) -> tuple:
        M, _, den = self.system
        return tuple(tuple(Fraction(x, den) for x in row) for row in M)

    @property
    def rhs(self) -> tuple:
        _, b, den = self.system
        return tuple(Fraction(x, den) for x in b)

    @property
    def residuals(self) -> tuple:
        (M, b, den), (Lam, d) = self.system, self.solution
        return tuple(
            Fraction(bi * d - sum(map(mul, row, Lam)), d * den) for row, bi in zip(M, b)
        )


def solve_extremal(
    P: LabelledPolytope, v: Polynomial, w_base: Polynomial,
    convention: Convention = Convention.CANONICAL,
) -> ExtremalSolution:
    """Solve the moment system for l_ext over weights v and w_base.

    The integer system of _moment_system is solved by _definite_pass, which
    checks M first; with lam = Lam / d, every residual numerator d b_i -
    sum_j M_ij Lam_j must be 0, so it checks the solve on integers.  Lam and
    d are then divided by their gcd, so d is lam's least common denominator.
    """
    M, b, den = _moment_system(P, v, w_base, convention)
    R, d = _definite_pass(M, b)
    Lam = [row[-1] for row in R]
    if any(bi * d != sum(map(mul, row, Lam)) for row, bi in zip(M, b)):
        raise SingularMomentMatrix("extremal solution failed exact re-verification")
    g = gcd(d, *Lam)
    Lam, d = tuple(x // g for x in Lam), d // g
    lam = [Fraction(x, d) for x in Lam]
    return ExtremalSolution(
        l_ext=AffineFunc(lam[1:], lam[0]),
        convention=convention,
        system=(tuple(map(tuple, M)), tuple(b), den),
        solution=(Lam, d),
    )


def extremal_affine(fib: Fibration) -> ExtremalSolution:
    """l_ext for a fibration, under its convention, solved once (fib.extremal)."""
    if fib.extremal is None:
        sol = solve_extremal(fib.fiber, fib.v, fib.w_base, fib.convention)
        object.__setattr__(fib, "extremal", sol)
    return fib.extremal


def stability_weight(fib: Fibration, l_ext: AffineFunc | None = None) -> Polynomial:
    """The w entering the stability condition: l_ext * v - w_base, built on
    integers in lowest terms, with the terms in the order Polynomial
    arithmetic gives them.

    l_ext's nonzero terms are its integer form (AffineFunc.cleared) over dl,
    in to_polynomial's order, and with v = V / dv and w_base = W / dw their
    integer forms, l_ext v is one exact._product of integer maps and w's
    terms are brought over lcm(dl dv, dw)."""
    if l_ext is None:
        l_ext = extremal_affine(fib).l_ext
    G, c, dl = l_ext.cleared()
    E = _affine_exponents(fib.dim)
    L = {e: x for e, x in zip((*E[1:], E[0]), (*G, c)) if x}
    (V, dv), (W, dw) = fib.v.cleared(), fib.w_base.cleared()
    D = lcm(dl * dv, dw)
    a, b = D // (dl * dv), D // dw
    terms = {e: a * c for e, c in _product(L, V).items() if c}
    for e, c in W.items():
        terms[e] = terms[e] - b * c if e in terms else -b * c
    return Polynomial._from_cleared(fib.dim, *_lowest(terms, D))


def futaki_character(fib: Fibration) -> tuple:
    """Obstruction to a constant extremal function.

    Fits the constant candidate lambda0 = b_0 / M_00 and reports the vector
    (b_i - M_{i0} lambda0) for i = 1..l; l_ext is constant iff this vanishes.
    """
    M, b, den = _moment_system(fib.fiber, fib.v, fib.w_base, fib.convention)
    if M[0][0] == 0:
        raise SingularMomentMatrix("zero total v-mass")
    return tuple(
        Fraction(b[i] * M[0][0] - M[i][0] * b[0], M[0][0] * den) for i in range(1, len(b))
    )


def assert_futaki_vanishes(P: LabelledPolytope, v: Polynomial, w: Polynomial) -> None:
    """Raise FutakiNotVanishing at the first affine basis element X_i with
    F(X_i) = 2 <v, X_i>_boundary - <w, X_i> != 0.  Only the two rows the
    canonical right-hand side of _moment_system reads are read, in one
    measure._moment_rows call up to degree max(deg v, deg w, 0) + 1: with v
    and w cleared over dv and dw, F(X_i) = (2 dw B_i - dv W_i) / (dv dw
    Delta_top)."""
    (V, dv), (W, dw) = _integer_terms(v, P.dim), _integer_terms(w, P.dim)
    E = _affine_exponents(P.dim)
    top = max(_degree(V), _degree(W), 0) + 1
    (B, WB), delta = _moment_rows(P, [(V.items(), E, True), (W.items(), E, False)], top)
    for i, (x, y) in enumerate(zip(B, WB)):
        if 2 * dw * x != dv * y:
            raise FutakiNotVanishing(i, Fraction(2 * dw * x - dv * y, dv * dw * delta))
