"""Exact rational scalars, vectors, affine functions, and sparse polynomials.

Every quantity in this package is an exact :class:`fractions.Fraction`; no
floating point enters any computation.  This module holds the shared value
types:

* points / vectors as tuples of ``Fraction``,
* :class:`AffineFunc` -- an affine function ``x -> <gradient, x> + constant``,
* :class:`Polynomial` -- a sparse multivariate polynomial with rational
  coefficients and a canonical (graded-lexicographic) term order,

plus the small amount of exact linear algebra used by the rest of the library
(row reduction, square solves, determinants, affine rank).  Elimination runs
on integers: each row is scaled once by the lcm of its denominators, then
reduced fraction-free (Bareiss, Math. Comp. 22 (1968)), where every division
is exact, so no gcd is paid per entry operation.  One loop, _eliminate, does
it: ``det`` is its forward pass, and ``rref`` and the extremal solve of
futaki (which reads Sylvester's test off the same pivots) its Gauss-Jordan
pass.  Results are converted back to ``Fraction`` once, and equal those of
elimination over ``Fraction``.  A point set is cleared to integer rows by
one rule, _cleared_points.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd, lcm
from operator import add
from typing import Iterable, Sequence

Point = tuple[Fraction, ...]
Matrix = list[list[Fraction]]


def rat(x: int | str | Fraction) -> Fraction:
    """Coerce *x* to an exact ``Fraction``.

    Accepts integers, ``Fraction`` instances and strings such as ``"3"``,
    ``"-7/2"`` or ``"1.25"`` (decimal *strings* are exact).  Binary floats are
    rejected on purpose: they rarely represent the value the caller meant.
    A string that names no rational raises ValueError.  So does one with an
    exponent ("1e3"), before Fraction sees it: Fraction would build 10**exp,
    for "1e999999999" an integer of about 415 MB.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError("booleans are not rational numbers")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        if "e" in x or "E" in x:
            raise ValueError(f"not a rational: {x!r} (exponents are not accepted)")
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not a rational: {x!r} ({exc})") from exc
    if isinstance(x, float):
        raise TypeError(
            "floating-point input is not allowed; pass an int, a Fraction, "
            "or a string like '7/100'"
        )
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def point(xs: Iterable) -> Point:
    return tuple(rat(x) for x in xs)


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    if len(u) != len(v):
        raise ValueError("dimension mismatch in dot product")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def format_point(x: Sequence) -> str:
    """Coordinates as reports print them: ``(-1, 1/2)``."""
    return "(" + ", ".join(str(Fraction(c)) for c in x) + ")"


def vadd(u: Sequence[Fraction], v: Sequence[Fraction]) -> Point:
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: Sequence[Fraction], v: Sequence[Fraction]) -> Point:
    return tuple(a - b for a, b in zip(u, v))


def vscale(k, u: Sequence[Fraction]) -> Point:
    k = rat(k)
    return tuple(k * a for a in u)


def _centroid(points: Sequence[Point]) -> Point:
    """The mean of a nonempty list of points."""
    return vscale(Fraction(1, len(points)), functools.reduce(vadd, points))


class AffineFunc:
    """An affine function ``x -> <gradient, x> + constant`` on Q^dim."""

    __slots__ = ("gradient", "constant", "_hash", "_ints")

    def __init__(self, gradient: Iterable, constant=0):
        object.__setattr__(self, "gradient", point(gradient))
        object.__setattr__(self, "constant", rat(constant))

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("AffineFunc is immutable")

    def __reduce__(self):  # pickle/copy through the constructor
        return AffineFunc, (self.gradient, self.constant)

    @property
    def dim(self) -> int:
        return len(self.gradient)

    def cleared(self) -> tuple[tuple[int, ...], int, int]:
        """(G, c, den), f = (<G, x> + c) / den: the gradient and constant as
        integers over their least common denominator den, kept once made."""
        try:
            return self._ints
        except AttributeError:
            (*G, c), den = _cleared((*self.gradient, self.constant))
            object.__setattr__(self, "_ints", (tuple(G), c, den))
            return self._ints

    def __call__(self, x: Sequence[Fraction]) -> Fraction:
        if len(x) != self.dim:
            raise ValueError("dimension mismatch evaluating AffineFunc")
        return dot(self.gradient, x) + self.constant

    def to_polynomial(self) -> "Polynomial":
        terms = {}
        n = self.dim
        for i, g in enumerate(self.gradient):
            if g:
                e = [0] * n
                e[i] = 1
                terms[tuple(e)] = g
        if self.constant:
            terms[(0,) * n] = self.constant
        return Polynomial(n, terms)

    def compose_affine(self, A: Sequence[Sequence], b: Sequence) -> "AffineFunc":
        """The affine function ``y -> self(A y + b)`` (A has ``dim`` rows)."""
        rows = [point(r) for r in A]
        bb = point(b)
        if len(rows) != self.dim or len(bb) != self.dim:
            raise ValueError("dimension mismatch in compose_affine")
        m = len(rows[0]) if rows else 0
        grad = tuple(
            sum((self.gradient[i] * rows[i][j] for i in range(self.dim)), Fraction(0))
            for j in range(m)
        )
        return AffineFunc(grad, dot(self.gradient, bb) + self.constant)

    def __neg__(self) -> "AffineFunc":
        return AffineFunc(tuple(-g for g in self.gradient), -self.constant)

    def __add__(self, other):
        if isinstance(other, AffineFunc):
            if other.dim != self.dim:
                raise ValueError("dimension mismatch")
            return AffineFunc(vadd(self.gradient, other.gradient), self.constant + other.constant)
        return AffineFunc(self.gradient, self.constant + rat(other))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, AffineFunc) else -rat(other))

    def __mul__(self, k):
        k = rat(k)
        return AffineFunc(vscale(k, self.gradient), k * self.constant)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (
            isinstance(other, AffineFunc)
            and self.gradient == other.gradient
            and self.constant == other.constant
        )

    def __hash__(self):  # computed once: interned label tuples are hashed per lookup
        try:
            return self._hash
        except AttributeError:
            object.__setattr__(self, "_hash", hash((self.gradient, self.constant)))
            return self._hash

    def __repr__(self):
        return f"AffineFunc({self.gradient!r}, {self.constant!r})"


def _product(F: dict, G: dict) -> dict:
    """The product of two coefficient maps {exponent: coefficient}, over
    Fraction or int alike; a cancelled term stays, with coefficient 0."""
    terms: dict = {}
    for e1, c1 in F.items():
        for e2, c2 in G.items():
            e = tuple(map(add, e1, e2))
            terms[e] = terms[e] + c1 * c2 if e in terms else c1 * c2
    return terms


def _grlex_key(expo: tuple[int, ...]):
    return (sum(expo), expo)


class Polynomial:
    """Sparse multivariate polynomial over Q.

    ``terms`` maps exponent tuples (length ``dim``, nonnegative ints) to
    nonzero rational coefficients.  Zero coefficients are never stored, so
    structural equality of the term maps is semantic equality.

    cleared() is its integer form (G, den), p = G / den: the nonzero terms as
    integers, in the order of ``terms``, over one den > 0, kept once made.
    Built from Fractions, p is cleared over their least common denominator;
    built on integers (_from_cleared), p keeps them and makes ``terms`` only
    when first read.  Equality, hashing, repr and pickling read ``terms``.
    """

    __slots__ = ("dim", "_terms", "_ints")

    def __init__(self, dim: int, terms: dict | None = None):
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        clean: dict[tuple[int, ...], Fraction] = {}
        for expo, coeff in (terms or {}).items():
            expo = tuple(int(e) for e in expo)
            if len(expo) != dim or any(e < 0 for e in expo):
                raise ValueError(f"bad exponent vector {expo} for dim {dim}")
            c = rat(coeff)
            if c:
                clean[expo] = c
        self._set(dim, clean, None)

    def _set(self, dim: int, terms: dict | None, ints: tuple | None) -> "Polynomial":
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_terms", terms)
        object.__setattr__(self, "_ints", ints)
        return self

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):  # pickle/copy through the constructor
        return Polynomial, (self.dim, self.terms)

    @classmethod
    def _from_terms(cls, dim: int, terms: dict) -> "Polynomial":
        """The polynomial on *terms*, whose exponents are already int tuples
        of length dim and whose coefficients are already Fractions: only the
        zero terms are dropped, in place of the constructor's checks."""
        return object.__new__(cls)._set(dim, {e: c for e, c in terms.items() if c}, None)

    @classmethod
    def _from_cleared(cls, dim: int, terms: dict, den: int) -> "Polynomial":
        """The polynomial terms / den, for integer terms whose exponents are
        int tuples of length dim and den > 0 (ValueError otherwise).  Its
        integer form is these terms, the zero ones dropped, over den; no
        Fraction is made here."""
        if den <= 0:
            raise ValueError("the denominator of a cleared polynomial must be positive")
        return object.__new__(cls)._set(dim, None, ({e: c for e, c in terms.items() if c}, den))

    @property
    def terms(self) -> dict:
        if self._terms is None:
            G, den = self._ints
            object.__setattr__(self, "_terms", {e: Fraction(c, den) for e, c in G.items()})
        return self._terms

    def cleared(self) -> tuple[dict, int]:
        """(G, den), the integer form of the class docstring; the map G is
        shared, not a copy."""
        if self._ints is None:
            ints, den = _cleared(self._terms.values())
            object.__setattr__(self, "_ints", (dict(zip(self._terms, ints)), den))
        return self._ints

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "Polynomial":
        return cls(dim, {})

    @classmethod
    def constant(cls, dim: int, c) -> "Polynomial":
        return cls(dim, {(0,) * dim: rat(c)})

    @classmethod
    def variable(cls, dim: int, i: int) -> "Polynomial":
        if not 0 <= i < dim:
            raise IndexError("variable index out of range")
        e = [0] * dim
        e[i] = 1
        return cls(dim, {tuple(e): Fraction(1)})

    @classmethod
    def monomial(cls, dim: int, expo: Sequence[int], coeff=1) -> "Polynomial":
        return cls(dim, {tuple(expo): rat(coeff)})

    # -- basic queries -----------------------------------------------------

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max(map(sum, self._ints[0] if self._terms is None else self._terms), default=-1)

    def __bool__(self) -> bool:
        return self.degree() >= 0

    def terms_sorted(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Terms in descending graded-lexicographic order (canonical)."""
        return sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)

    def __call__(self, x: Sequence[Fraction]) -> Fraction:
        if len(x) != self.dim:
            raise ValueError("dimension mismatch evaluating Polynomial")
        xs = point(x)
        total = Fraction(0)
        for expo, coeff in self.terms.items():
            val = coeff
            for xi, ei in zip(xs, expo):
                if ei:
                    val *= xi**ei
            total += val
        return total

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other.dim != self.dim:
                raise ValueError("dimension mismatch")
            return other
        return Polynomial.constant(self.dim, other)

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for expo, coeff in other.terms.items():
            terms[expo] = terms[expo] + coeff if expo in terms else coeff
        return Polynomial._from_terms(self.dim, terms)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._from_terms(self.dim, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if not isinstance(other, Polynomial):
            k = rat(other)
            return Polynomial._from_terms(self.dim, {e: k * c for e, c in self.terms.items()})
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        return Polynomial._from_terms(self.dim, _product(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Polynomial.constant(self.dim, 1)
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.dim == other.dim
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.dim, tuple(self.terms_sorted())))

    # -- calculus ----------------------------------------------------------

    def partial(self, i: int) -> "Polynomial":
        """Exact partial derivative with respect to variable *i* (0-based)."""
        if not 0 <= i < self.dim:
            raise IndexError("variable index out of range")
        terms: dict[tuple[int, ...], Fraction] = {}
        for expo, coeff in self.terms.items():
            if expo[i]:
                e = list(expo)
                e[i] -= 1
                terms[tuple(e)] = terms.get(tuple(e), Fraction(0)) + coeff * expo[i]
        return Polynomial(self.dim, terms)

    def compose_affine(self, A: Sequence[Sequence], b: Sequence) -> "Polynomial":
        """Exact expansion of ``y -> self(A y + b)``.

        *A* has ``dim`` rows; the number of columns is the dimension of the
        resulting polynomial (rectangular substitutions parametrize simplices
        and facets).
        """
        rows = [point(r) for r in A]
        bb = point(b)
        if len(rows) != self.dim or len(bb) != self.dim:
            raise ValueError("dimension mismatch in compose_affine")
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise ValueError("ragged substitution matrix")
        # affine image of each old coordinate, as a polynomial in the new ones
        images = [AffineFunc(rows[i], bb[i]).to_polynomial() for i in range(self.dim)]
        powers: list[list[Polynomial]] = [[Polynomial.constant(m, 1)] for _ in range(self.dim)]
        result = Polynomial.zero(m)
        for expo, coeff in self.terms.items():
            term = Polynomial.constant(m, coeff)
            for i, e in enumerate(expo):
                while len(powers[i]) <= e:
                    powers[i].append(powers[i][-1] * images[i])
                if e:
                    term = term * powers[i][e]
            result = result + term
        return result

    def __repr__(self):
        if not self.terms:
            return "Polynomial(0)"
        bits = []
        for expo, coeff in self.terms_sorted():
            mono = "*".join(
                f"x{i}^{e}" if e > 1 else f"x{i}" for i, e in enumerate(expo) if e
            )
            bits.append(f"{coeff}" + (f"*{mono}" if mono else ""))
        return "Polynomial(" + " + ".join(bits) + ")"


def radial_derivative(p: Polynomial, x0: Sequence) -> Polynomial:
    """The polynomial ``x -> d_x p (x - x0)``, i.e. sum_i dp/dx_i * (x_i - x0_i).

    It vanishes identically at ``x0`` and reduces to Euler's identity
    (``deg(p) * p``) for homogeneous *p* when ``x0 = 0``.
    """
    x00 = point(x0)
    if len(x00) != p.dim:
        raise ValueError("dimension mismatch in radial_derivative")
    result = Polynomial.zero(p.dim)
    for i in range(p.dim):
        xi = Polynomial.variable(p.dim, i) - Polynomial.constant(p.dim, x00[i])
        result = result + p.partial(i) * xi
    return result


# ---------------------------------------------------------------------------
# small exact linear algebra
# ---------------------------------------------------------------------------


def _cleared(xs: Iterable[Fraction]) -> tuple[list[int], int]:
    """The rationals xs as integers over their least common denominator."""
    xs = list(xs)
    den = lcm(*(x.denominator for x in xs))
    return [x.numerator * (den // x.denominator) for x in xs], den


def _lowest(terms: dict, den: int) -> tuple[dict, int]:
    """terms / den (integer coefficients, den > 0) in lowest terms: the
    terms and den divided by the gcd of den and every coefficient, which,
    the zero terms dropped (as _from_cleared does), is what _cleared gives
    for the Fractions terms[a] / den."""
    g = gcd(den, *terms.values())
    return {a: c // g for a, c in terms.items()}, den // g


def _cleared_points(points: Sequence[Sequence[Fraction]]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """The lcm D of the points' coordinate denominators and the points
    cleared to integer rows D x."""
    D = lcm(*(x.denominator for v in points for x in v))
    return D, tuple([tuple([x.numerator * (D // x.denominator) for x in v]) for v in points])


def _integer_rows(A: Sequence[Sequence]) -> tuple[list[list[int]], int]:
    """Each row of A scaled to integers by the lcm of its denominators, and
    the product of those scales.  A row of ints is taken as it is; any other
    row is read through rat."""
    rows, scale = [], 1
    for row in A:
        if all(type(x) is int for x in row):
            rows.append(list(row))
            continue
        ints, s = _cleared(map(rat, row))
        rows.append(ints)
        scale *= s
    return rows, scale


def _eliminate(M: list[list[int]], above: bool) -> tuple[list[int], list[int], int]:
    """Fraction-free (Bareiss) elimination of the integer rows M, in place.

    Each update ``(p*x - f*y) // prev`` divides exactly (every entry is a
    minor of M).  Rows below the pivot are always reduced, the rows above
    too when *above* (Gauss-Jordan); the rows from the pivot down get the
    same updates either way, so both passes meet the same pivots.  Returns
    the pivot values, the pivot columns and the number of row swaps.  With
    no swap and pivot columns 0, ..., k-1, the k-th pivot value is the
    leading principal k x k minor of M (so futaki reads Sylvester's
    criterion off the pass that solves its system).
    """
    rows, cols = len(M), len(M[0]) if M else 0
    values: list[int] = []
    pivots: list[int] = []
    prev, swaps = 1, 0
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        pivot = next((i for i in range(r, rows) if M[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            M[r], M[pivot] = M[pivot], M[r]
            swaps += 1
        p, pr = M[r][c], M[r]
        for i in range(0 if above else r + 1, rows):
            if i != r:
                f = M[i][c]
                if f:
                    M[i] = [(p * x - f * y) // prev for x, y in zip(M[i], pr)]
                else:
                    M[i] = [p * x // prev for x in M[i]]
        prev = p
        values.append(p)
        pivots.append(c)
    return values, pivots, swaps


def rref(A: Sequence[Sequence]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form (a copy) and the list of pivot columns.

    Gauss-Jordan by _eliminate on the integer-scaled rows: every pivot row
    ends with the last pivot on its diagonal and is divided by it once.
    """
    M, _ = _integer_rows(A)
    values, pivots, _ = _eliminate(M, above=True)
    last, zero = values[-1] if values else 1, Fraction(0)
    return [[Fraction(x, last) if x else zero for x in row] for row in M], pivots


def det(A: Sequence[Sequence]) -> Fraction:
    """The forward pass of _eliminate on the integer-scaled rows, divided by
    the product of the row scales."""
    M, scale = _integer_rows(A)
    n = len(M)
    if any(len(row) != n for row in M):
        raise ValueError("determinant of a non-square matrix")
    values, pivots, swaps = _eliminate(M, above=False)
    if len(pivots) != n:
        return Fraction(0)
    return Fraction((-1) ** swaps * (values[-1] if values else 1), scale)


def solve_square(A: Sequence[Sequence], b: Sequence) -> Point | None:
    """Unique solution of ``A x = b`` for square A, or None if A is singular."""
    n = len(A)
    bb = point(b)
    if len(bb) != n or any(len(row) != n for row in A):
        raise ValueError("shape mismatch in solve_square")
    R, pivots = rref([[*row, bb[i]] for i, row in enumerate(A)])
    if len(pivots) != n or n in pivots:
        return None
    return tuple(R[i][n] for i in range(n))


def solve_general(
    A: Sequence[Sequence], b: Sequence
) -> tuple[Point, list[Point]] | None:
    """General exact solve of ``A x = b``.

    Returns ``(particular_solution, nullspace_basis)`` or ``None`` when the
    system is inconsistent.  *A* may be rectangular.
    """
    if not A:
        return (), []
    rows, cols = len(A), len(A[0])
    bb = point(b)
    if len(bb) != rows:
        raise ValueError("shape mismatch in solve_general")
    R, pivots = rref([[*A[i], bb[i]] for i in range(rows)])
    if cols in pivots:
        return None  # a pivot in the constant column: inconsistent
    part = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        part[c] = R[r][cols]
    free = [c for c in range(cols) if c not in pivots]
    basis: list[Point] = []
    for f in free:
        vec = [Fraction(0)] * cols
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -R[r][f]
        basis.append(tuple(vec))
    return tuple(part), basis


def matrix_rank(A: Sequence[Sequence]) -> int:
    _, pivots = rref(A)
    return len(pivots)


def affine_rank(points: Sequence[Sequence]) -> int:
    """Dimension of the affine hull of *points* (-1 for the empty set)."""
    pts = [point(p) for p in points]
    if not pts:
        return -1
    if len(pts) == 1:
        return 0
    base = pts[0]
    return matrix_rank([list(vsub(p, base)) for p in pts[1:]])

