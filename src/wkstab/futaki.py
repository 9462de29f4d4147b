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

F and the moment system are bilinear pairings with P's moment table
(measure._pair), so no product polynomial is formed: F(f) = 2 <f, v>_boundary
- <f, w>, and the system's entries are <v, X_i X_j>, <v, X_i>_boundary and
<w_base, X_i> on the affine basis X = (1, x_1, ..., x_l).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    AffineFunc,
    Polynomial,
    det,
    point,
    radial_derivative,
    solve_square,
)
from .measure import _add, _fill, _pair, integrate_simplex
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


def _affine_basis(ell: int) -> list[Polynomial]:
    return [Polynomial.constant(ell, 1)] + [
        Polynomial.variable(ell, i) for i in range(ell)
    ]


def _moment_system(
    P: LabelledPolytope,
    v: Polynomial,
    w_base: Polynomial,
    convention: Convention,
):
    ell = P.dim
    X = _affine_basis(ell)
    E = [next(iter(Xi.terms)) for Xi in X]  # exponents 0, e_1, ..., e_l
    # every moment the entries below read, in one fill; the boundary
    # exponents e_i + b are among the interior ones e_i + 0 + b
    _fill(P, [_add(_add(a, c), b) for a in E for c in E for b in v.terms]
          + [_add(a, b) for a in E for b in w_base.terms])
    moments_boundary = [_pair(v, Xi, P, True) for Xi in X]
    moments_w = [_pair(w_base, Xi, P, False) for Xi in X]
    M = [[_pair(v, X[i] * X[j], P, False) for j in range(ell + 1)] for i in range(ell + 1)]
    if convention is Convention.LEGACY:
        beta = 1 if ell == 1 else 2
        b = [beta * moments_boundary[i] - moments_w[i] for i in range(ell + 1)]
    else:
        b = [2 * moments_boundary[i] + moments_w[i] for i in range(ell + 1)]
    return M, b, moments_boundary, moments_w


def _assert_positive_definite(M) -> None:
    n = len(M)
    for i in range(n):
        for j in range(i):
            if M[i][j] != M[j][i]:
                raise SingularMomentMatrix("moment matrix is not symmetric")
    for k in range(1, n + 1):
        minor = det([row[:k] for row in M[:k]])
        if minor <= 0:
            raise SingularMomentMatrix(
                "moment matrix is not positive definite "
                "(degenerate polytope or nonpositive v)"
            )


@dataclass(frozen=True)
class ExtremalSolution:
    l_ext: AffineFunc
    moment_matrix: tuple
    rhs: tuple
    residuals: tuple
    convention: Convention

    @property
    def is_constant(self) -> bool:
        return all(g == 0 for g in self.l_ext.gradient)


def solve_extremal(
    P: LabelledPolytope,
    v: Polynomial,
    w_base: Polynomial,
    convention: Convention = Convention.CANONICAL,
) -> ExtremalSolution:
    """Solve the moment system for l_ext over raw weight polynomials.

    The system asks for its moments {e_i + e_j + b : b in v} and
    {e_i + b : b in w_base} in one fill, which also covers its boundary
    moments {e_i + b : b in v}, so a cold P's facets are triangulated once.
    The entries, and the stored residuals b_i - <l_ext v, X_i>, are pairings
    with that table; the residuals must all be 0, so they check the solve.
    """
    ell = P.dim
    M, b, moments_boundary, moments_w = _moment_system(P, v, w_base, convention)
    _assert_positive_definite(M)
    lam = solve_square([row[:] for row in M], b)
    if lam is None:
        raise SingularMomentMatrix("moment system has no unique solution")
    l_ext = AffineFunc(lam[1:], lam[0])
    X = _affine_basis(ell)
    lv = l_ext.to_polynomial() * v
    residuals = tuple(b[i] - _pair(lv, X[i], P, False) for i in range(ell + 1))
    if any(r != 0 for r in residuals):
        raise SingularMomentMatrix("extremal solution failed exact re-verification")
    return ExtremalSolution(
        l_ext=l_ext,
        moment_matrix=tuple(tuple(row) for row in M),
        rhs=tuple(b),
        residuals=residuals,
        convention=convention,
    )


def extremal_affine(fib: Fibration) -> ExtremalSolution:
    """l_ext for a fibration, under the fibration's convention."""
    return solve_extremal(fib.fiber, fib.v, fib.w_base, fib.convention)


def stability_weight(fib: Fibration, l_ext: AffineFunc | None = None) -> Polynomial:
    """The w entering the stability condition: l_ext * v - w_base."""
    if l_ext is None:
        l_ext = extremal_affine(fib).l_ext
    return l_ext.to_polynomial() * fib.v - fib.w_base


def futaki_character(fib: Fibration) -> tuple:
    """Obstruction to a constant extremal function.

    Fits the constant candidate lambda0 = b_0 / M_00 and reports the vector
    (b_i - M_{i0} lambda0) for i = 1..l; l_ext is constant iff this vanishes.
    """
    M, b, _, _ = _moment_system(fib.fiber, fib.v, fib.w_base, fib.convention)
    if M[0][0] == 0:
        raise SingularMomentMatrix("zero total v-mass")
    lam0 = b[0] / M[0][0]
    return tuple(b[i] - M[i][0] * lam0 for i in range(1, fib.fiber.dim + 1))


def assert_futaki_vanishes(
    P: LabelledPolytope, v: Polynomial, w: Polynomial
) -> None:
    """Raise FutakiNotVanishing unless F kills every affine basis element."""
    for i, Xi in enumerate(_affine_basis(P.dim)):
        val = df_invariant(P, v, w, Xi)
        if val != 0:
            raise FutakiNotVanishing(i, val)
