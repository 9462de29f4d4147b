"""Fibration data and weight polynomials.

A fibration over a product of constant-scalar-curvature base factors, with
toric fiber given by a labelled polytope P, is encoded by per-factor data
(n_a, s_a, c_a, p_a):  n_a the complex dimension of the factor, s_a its
scalar curvature, c_a the Kaehler-class offset, and p_a a linear form on the
fiber coordinates.  The induced weights on P are

    v      = prod_a (p_a + c_a)^{n_a}
    w_base = sum_a s_a (p_a + c_a)^{n_a - 1} prod_{b != a} (p_b + c_b)^{n_b}

(w_base is v * sum_a s_a/(p_a + c_a) with denominators cleared).  Positivity
of every p_a + c_a on P is required and is checked at the vertices.  Both
weights are built factor by factor by the product rule, run on integer
coefficient maps over one denominator (see _build_weights), and fib.v and
fib.w_base are Polynomials built on the integers as they come out, each map
over its own denominator in lowest terms.  Every pairing, the extremal solve
and the stability weight read that integer form (Polynomial.cleared); the
Fraction terms are built only when something reads them.

Two sign conventions are carried through the extremal solve (module futaki):
"canonical", fixed by the Fano normalization l_ext == 2 dim Y on anticanonical
product fibrations, and "legacy", which reproduces an older convention that
accumulates the w_base term with the opposite sign (and, in fiber dimension 1,
drops the boundary factor 2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from .exact import (
    AffineFunc, Polynomial, _cleared, _cleared_points, _lowest, _product, format_point, rat,
)
from .polytope import LabelledPolytope, monotone_point, standard_fiber_polytope


class Convention(enum.Enum):
    CANONICAL = "canonical"
    LEGACY = "legacy"

    def __str__(self) -> str:
        return self.value


class NonpositiveWeight(Exception):
    def __init__(self, vertex, factor_index: int):
        super().__init__(
            f"factor {factor_index}: p + c is not positive at vertex {format_point(vertex)}"
        )
        self.vertex = vertex
        self.factor_index = factor_index


class NotMonotoneFiber(Exception):
    pass


class NotFanoFibration(Exception):
    pass


@dataclass(frozen=True)
class BaseFactor:
    """One base factor: (n, s, c) and the linear form p (zero constant term)."""

    n: int
    s: Fraction
    c: Fraction
    p: AffineFunc

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise ValueError("factor dimension n must be a positive integer")
        object.__setattr__(self, "s", rat(self.s))
        object.__setattr__(self, "c", rat(self.c))
        if self.p.constant != 0:
            raise ValueError("the linear form p must have zero constant term")

    @property
    def form(self) -> AffineFunc:
        """The affine function p + c."""
        return AffineFunc(self.p.gradient, self.c)


def base_factor(n: int, s, c, p_gradient, dim: int) -> BaseFactor:
    """Convenience constructor; ``p_gradient`` may be None for p = 0."""
    grad = [0] * dim if p_gradient is None else list(p_gradient)
    if len(grad) != dim:
        raise ValueError("p gradient length does not match fiber dimension")
    return BaseFactor(n=n, s=rat(s), c=rat(c), p=AffineFunc(grad, 0))


@dataclass(frozen=True)
class BasePreset:
    """Catalog entry: dimension, scalar curvature, Fano index (None if not Fano)."""

    n: int
    s: Fraction
    index: Fraction | None


#: Inert catalog of standard base factors (classical constant-scalar-curvature
#: manifolds).  For the Fano entries s = 2 n I; the entry "neg-KE3" is a
#: canonically polarized threefold with negative Kaehler-Einstein metric.
BASE_PRESETS: dict[str, BasePreset] = {
    "P1": BasePreset(1, Fraction(4), Fraction(2)),
    "P2": BasePreset(2, Fraction(12), Fraction(3)),
    "P3": BasePreset(3, Fraction(24), Fraction(4)),
    "Q3": BasePreset(3, Fraction(18), Fraction(3)),
    "V22": BasePreset(3, Fraction(6), Fraction(1)),
    "neg-KE3": BasePreset(3, Fraction(-6), None),
}


@dataclass(frozen=True)
class Fibration:
    """v and w_base as _build_weights gives them.  The factors fix the
    weights, so they take no part in equality, hashing or repr."""

    fiber: LabelledPolytope
    factors: tuple[BaseFactor, ...]
    convention: Convention
    v: Polynomial = field(repr=False, compare=False)
    w_base: Polynomial = field(repr=False, compare=False)
    fano_fiber: tuple | None  # (x0, t) when the fiber is monotone with scale t
    # the extremal solve, filled on first use by futaki.extremal_affine
    extremal: object = field(default=None, init=False, repr=False, compare=False)

    @property
    def dim(self) -> int:
        """Fiber (torus) dimension."""
        return self.fiber.dim

    @property
    def total_dim(self) -> int:
        """Complex dimension of the total space: fiber dim + sum of n_a."""
        return self.fiber.dim + sum(f.n for f in self.factors)

    def normalized_inequality(self) -> tuple[bool, ...]:
        """Diagnostic: whether c_a > sum_i p_{ai} for each factor.

        This is the textbook inequality for projective bundles under a
        degree-ordering normalization; the binding requirement is vertex
        positivity of p_a + c_a, enforced at construction.
        """
        return tuple(f.c > sum(f.p.gradient) for f in self.factors)


def _build_weights(vertices, factors: tuple[BaseFactor, ...]) -> tuple[Polynomial, Polynomial]:
    """(v, w_base) at these vertices, built on integer terms in lowest
    terms, by the product rule: a factor P^n
    (P = p + c) sends (v, w_base) to (v P^n, w_base P^n + s v P^(n-1)).

    It runs on integer coefficient maps over one tracked denominator d,
    (v, w_base) = (V, W) / d: with P = A / q (A integer) and s = s_n / s_d,
    a factor sends (V, W, d) to (s_d V A^n, (s_d W A + s_n q V) A^(n-1),
    s_d q^n d) and drops v's terms that cancel, so they come in the order
    Polynomial arithmetic gives prod_a (p_a + c_a)^(n_a), each power formed
    first.  P > 0 at a vertex x = X / D_P is the sign of one integer
    dot, <A, (X, D_P)>.  At the end each map is divided
    by the gcd of d and its coefficients once (exact._lowest), so the
    integer forms are those that clearing v's and w_base's Fractions would
    give, and each Polynomial is built on its own (_from_cleared).
    """
    dim = len(vertices[0])
    D_P, cleared = _cleared_points(vertices)
    basis = [tuple(int(i == j) for j in range(dim)) for i in range(dim)] + [(0,) * dim]
    V, W, d = {(0,) * dim: 1}, {}, 1
    for a, f in enumerate(factors):
        if f.p.dim != dim:
            raise ValueError(f"factor {a}: p is a form on the wrong dimension")
        A, q = _cleared((*f.p.gradient, f.c))
        for vert, X in zip(vertices, cleared):
            if sum(map(mul, A, X), A[-1] * D_P) <= 0:  # map stops at the end of X
                raise NonpositiveWeight(vert, a)
        A = {e: x for e, x in zip(basis, A) if x}
        sn, sd = f.s.numerator, f.s.denominator
        W = {e: sd * x for e, x in _product(W, A).items()}
        for e, x in V.items():
            W[e] = W.get(e, 0) + sn * q * x
        An = A  # A^n; no power of one form cancels a term
        for _ in range(f.n - 1):
            W, An = _product(W, A), _product(An, A)
        V = {e: sd * x for e, x in _product(V, An).items() if x}
        d *= sd * q**f.n
    (V, dv), (W, dw) = _lowest(V, d), _lowest(W, d)
    return Polynomial._from_cleared(dim, V, dv), Polynomial._from_cleared(dim, W, dw)


def _offset_terms(factors, X0: list[int], D0: int) -> list[tuple[list[int], int, int]]:
    """(A_a, S_a, E_a) per factor on integers, with x0 = X0 / D0, p_a + c_a
    = (G_a, C_a) / q_a = A_a / q_a and s_a = s_n / s_d cleared: S_a = s_n q_a
    and E_a = 2 n_a s_d (<G_a, X0> + C_a D0), so that for every rational L,
    L s_a - 2 n_a (p_a(x0) + c_a) = (L D0 S_a - E_a) / (s_d q_a D0)."""
    out = []
    for f in factors:
        A, q = _cleared((*f.p.gradient, f.c))
        at_x0 = sum(map(mul, A[:-1], X0)) + A[-1] * D0
        out.append((A, f.s.numerator * q, 2 * f.n * f.s.denominator * at_x0))
    return out


def fibration(
    fiber: LabelledPolytope,
    factors,
    convention: Convention = Convention.CANONICAL,
) -> Fibration:
    """Validate the factor data against the fiber polytope and expand weights."""
    factors = tuple(factors)
    v, w_base = _build_weights(fiber.vertices, factors)
    return Fibration(fiber, factors, convention, v, w_base, monotone_point(fiber))


def projective_bundle(
    degrees,
    base,
    c,
    t,
    convention: Convention = Convention.CANONICAL,
) -> Fibration:
    """Fibration with standard simplex fiber (scale t) over k base factors.

    ``degrees[a]`` is the integer/rational vector (p_{a1}, ..., p_{al}) of the
    a-th factor's twisting, ``base[a] = (n_a, s_a)``, and ``c[a]`` the class
    offset.  Positivity of p_a + c_a is enforced at the fiber vertices; the
    normalized inequality c_a > sum_i p_{ai} is available as a diagnostic on
    the result.
    """
    degrees = [list(d) for d in degrees]
    base = list(base)
    c = list(c)
    if not len(degrees) == len(base) == len(c):
        raise ValueError("degrees, base, and c must have one entry per factor")
    if not degrees:
        raise ValueError("at least one base factor is required")
    ell = len(degrees[0])
    fiber = standard_fiber_polytope(ell, t)
    factors = [
        base_factor(n=base[a][0], s=base[a][1], c=c[a], p_gradient=degrees[a], dim=ell)
        for a in range(len(base))
    ]
    return fibration(fiber, factors, convention)


def fano_anticanonical(
    fiber: LabelledPolytope,
    entries,
    convention: Convention = Convention.CANONICAL,
) -> Fibration:
    """Anticanonical specialization: c_a = I_a and s_a = 2 n_a I_a.

    ``entries[a] = (n_a, I_a, p_a)`` with p_a an AffineFunc (zero constant) or
    None for the untwisted factor.  The fiber must be monotone with scale 1.
    """
    mono = monotone_point(fiber)
    if mono is None or mono[1] != 1:
        raise NotMonotoneFiber(
            "the anticanonical normalization needs a monotone fiber with scale 1"
        )
    factors = []
    for n, index, p in entries:
        index = rat(index)
        p = AffineFunc([0] * fiber.dim, 0) if p is None else p
        factors.append(BaseFactor(n=n, s=2 * n * index, c=index, p=p))
    return fibration(fiber, factors, convention)

