"""Dense univariate polynomials with integer coefficients: determinants
and Cramer's rule over Z[x], gcds, and real root counting and isolation by
Descartes' rule of signs.

Polynomials are tuples of ints (index = power, no trailing zeros, () = 0).
A rational polynomial is an integer one over a positive denominator that
the caller keeps, and most of what is asked of it (its roots, its signs, a
gcd, a ratio num/den) does not see that denominator: this is the primitive
polynomial remainder sequence (PRS) view of Collins, with exact quotients by
Gauss's lemma.  det M and every Cramer numerator of M y = b over Z[x] come
from one node loop: at each node 0..B every entry of [M | b] is taken once by
integer Horner and one fraction-free Gauss-Jordan pass (Bareiss,
``exact._eliminate``) gives det M(x) and every numerator together (a
determinant per column only where M(x) is singular); each column of values
is fitted by integer forward differences (Newton's basis C(x, j) over B!,
which divides out exactly).  One remainder loop, _remainders,
yields the primitive integer PRS: its last member is the gcd, so the
squarefree part of p is p over the last member for p and p'.  A sign at
x = n/d is read off the integer d^deg q(n/d) by Horner's rule.  Every root
count on an interval (a, b) comes from Descartes' rule of signs (Collins
and Akritas): the sign variations of (1 + y)^d p((a + b y) / (1 + y)), two
integer Taylor shifts of p, bound the roots in (a, b) with their
multiplicity and parity, so a bound of 0 or 1 is the count.  Where it is
>= 2, _count bisects on the bound of the squarefree part until every piece
is decided.  Root isolation bisects on the bound alone and counts only an
interval no wider than its tolerance; an interval with one root is halved
on the sign of its integer image alone.  It returns exact rational roots
when a midpoint lands on one (dividing it out by the integer factor dx - n)
and width-bounded brackets otherwise.  positive_above decides by the same
rule on p(lo + y) and counts only on an even bound >= 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from . import exact
from .exact import rat

Poly1 = tuple


def _trim(cs) -> Poly1:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def degree(p: Poly1) -> int:
    return len(p) - 1


def derivative(p: Poly1) -> Poly1:
    return _trim(i * p[i] for i in range(1, len(p)))


def _interpolate(ys: list[int]) -> tuple[Poly1, int]:
    """(R, w): the polynomial p of degree <= B = len(ys) - 1 with
    p(k) = ys[k] for k = 0..B is R / w, R an integer polynomial and w = B!.

    Newton's forward form p(x) = sum_j Delta^j y_0 C(x, j) has integer
    differences Delta^j ys[0], and B! C(x, j) = (B!/j!) x (x-1) ... (x-j+1)
    has integer coefficients, so R is taken by Horner's rule from j = B down.
    """
    d = list(ys)
    B = len(d) - 1
    for j in range(1, B + 1):
        for i in range(B, j - 1, -1):
            d[i] -= d[i - 1]
    R, w = d[B:], 1
    for j in range(B - 1, -1, -1):
        w *= j + 1  # B!/j!
        R = [r1 - j * r0 for r0, r1 in zip(R + [0], [0] + R)]  # R <- R (x - j) + d_j w
        R[0] += d[j] * w
    return _trim(R), w


def _int_sum(ps) -> list[int]:
    out = [0] * max(map(len, ps))
    for p in ps:
        for i, c in enumerate(p):
            out[i] += c
    return out


def _int_mul(p, q) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def det(M) -> Poly1:
    """Determinant of a square matrix over Z[x]: the b-less case of cramer."""
    return cramer(M)[0]


def cramer(M, b=None) -> tuple[Poly1, list[Poly1]]:
    """(D, [C_0, ..., C_{n-1}]) for a square matrix M and a vector b over
    Z[x]: D = det M and C_i = det M with column i replaced by b, so that
    M (C_0, ..., C_{n-1}) = D b ([] for C when b is None).

    By evaluation and interpolation: each has degree at most B = the sum
    over the rows of [M | b] of the largest entry degree.  At each node
    x = 0..B every entry is taken once by integer Horner and one
    fraction-free Gauss-Jordan pass (exact._eliminate) runs on the integer
    rows [M(x) | b(x)].  When M(x) is regular the pass ends with rows
    R[i] = last (e_i | y_i), y = M(x)^-1 b(x) and last = (-1)^swaps det M(x),
    so D(x) = +-last and C_i(x) = D(x) y_i = +-R[i][n].  Where M(x) is
    singular D(x) = 0 and each C_i(x) is its own integer determinant.  Every
    column of values is fitted over B!, which divides out exactly.
    """
    n = len(M)
    if any(len(row) != n for row in M):
        raise ValueError("determinant of a non-square matrix")
    if b is not None and len(b) != n:
        raise ValueError("shape mismatch in cramer")
    rows = M if b is None else [[*row, e] for row, e in zip(M, b)]
    degs = [max(map(len, row), default=0) - 1 for row in rows]
    if min(degs, default=0) < 0:  # a zero row of [M | b]
        return (), [] if b is None else [()] * n
    nodes = []  # [D(x), C_0(x), ...] at x = 0..B
    for x in range(sum(degs) + 1):
        A = [[_scaled_value(e, x) for e in row] for row in rows]
        values, pivots, swaps = exact._eliminate(A, above=b is not None)
        if len(pivots) == n and (not n or pivots[-1] < n):  # M(x) is regular
            s = -1 if swaps % 2 else 1
            at_x = [s * (values[-1] if values else 1)]
            if b is not None:
                at_x += [s * row[n] for row in A]
        elif b is None:
            at_x = [0]
        else:  # A is eliminated: take [M(x) | b(x)] again
            Mb = [[_scaled_value(e, x) for e in row] for row in rows]
            at_x = [0] + [int(exact.det([row[:i] + row[n:] + row[i + 1 : n] for row in Mb]))
                          for i in range(n)]
        nodes.append(at_x)
    D, *C = (tuple(c // w for c in R) for R, w in map(_interpolate, zip(*nodes)))
    return D, C


def _primitive(p) -> Poly1:
    """p divided by the gcd of its integer coefficients."""
    if not p:
        return ()
    g = gcd(*p)
    return tuple(c // g for c in p)


def _positive_remainder(a: Poly1, b: Poly1) -> list:
    """A positive integer multiple of (a mod b): each step scales the
    running remainder by |lc(b)| before cancelling its top coefficient."""
    r = list(a)
    db, lead = len(b) - 1, b[-1]
    m, sgn = abs(lead), (1 if lead > 0 else -1)
    while len(r) - 1 >= db:
        k = len(r) - 1 - db
        f = sgn * r[-1]
        r = [m * x for x in r]
        for i, y in enumerate(b):
            r[k + i] -= f * y
        while r and r[-1] == 0:
            r.pop()
    return r


def _remainders(a: Poly1, b: Poly1) -> list[Poly1]:
    """The nonzero members of a, b, -(a mod b), ... (each next member the
    negated remainder of the two before), as primitive integer polynomials,
    each a positive multiple of the classical member; the last is a gcd of
    a and b."""
    seq = [_primitive(a), _primitive(b)]
    while seq[-1]:
        seq.append(_primitive([-c for c in _positive_remainder(seq[-2], seq[-1])]))
    return [q for q in seq if q]


def _scaled_value(q: Poly1, x) -> int:
    """d^deg(q) q(n/d) for x = n/d with d > 0 (an int or a Fraction): the
    sign of q(x), by integer Horner."""
    n, d = x.numerator, x.denominator
    acc, dpow = 0, 1
    for c in reversed(q):
        acc = acc * n + c * dpow
        dpow *= d
    return acc


def _variations(values) -> int:
    """Sign changes along a sequence of ints, zeros skipped."""
    signs = [v > 0 for v in values if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def cauchy_root_bound(p: Poly1) -> Fraction:
    """All real roots of p lie in [-B, B] with B = 1 + max |a_i| / |a_n|."""
    if degree(p) < 1:
        return Fraction(1)
    return 1 + Fraction(max(abs(c) for c in p[:-1]), abs(p[-1]))


def _taylor_shift(p, s: int) -> list[int]:
    """The coefficients of p(x + s), for an integer s."""
    c = list(p)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += s * c[j + 1]
    return c


def _unit_image(p: Poly1, a: Fraction, b: Fraction) -> Poly1:
    """r with r(x) a positive multiple of p(a + (b - a) x): with a = A/L and
    b = B/L over one denominator L, r(x) = L^deg(p) p((A + (B - A) x) / L),
    one Taylor shift of L^deg(p) p(z / L) by A, then one scale by B - A."""
    L = lcm(a.denominator, b.denominator)
    A, B = a.numerator * (L // a.denominator), b.numerator * (L // b.denominator)
    d = len(p) - 1
    shifted = _taylor_shift([c * L ** (d - i) for i, c in enumerate(p)], A)
    return _trim(c * (B - A) ** i for i, c in enumerate(shifted))


def _unit_bound(r: Poly1) -> int:
    """Descartes' bound for the roots of r in (0, 1): the sign variations of
    (1 + y)^d r(1 / (1 + y)), the reversed r shifted by 1."""
    return _variations(_taylor_shift(r[::-1], 1))


def _descartes_bound(p: Poly1, a, b) -> int:
    """The sign variations of (1 + y)^d p((a + b y) / (1 + y)), d = deg p.

    By Descartes' rule of signs this is at least the number of roots of p
    in the open interval (a, b) counted with multiplicity, and has its
    parity: 0 means no root there and 1 exactly one, which is simple.
    """
    return _unit_bound(_unit_image(p, rat(a), rat(b)))


def _squarefree(p: Poly1) -> Poly1:
    """The squarefree part of p: p over the last member of its PRS with p'."""
    g = _remainders(p, derivative(p))[-1]
    return _quotient(p, g) if degree(g) >= 1 else p


def _count(p: Poly1, a: Fraction, b: Fraction) -> int:
    """The number of distinct roots of a squarefree p in (a, b): an interval
    whose Descartes bound is 0 or 1 holds that many, one whose bound is >= 2
    is halved, and a root n/d at its midpoint is counted and divided out.
    It ends as p is squarefree: the bound is 0 when the disc with diameter
    [a, b] holds no root of p, and 1 when the two discs through a and b
    centred at (a + b)/2 +- i (b - a)/(2 sqrt 3) hold just one (Krandick and
    Mehlhorn, J. Symb. Comput. 41 (2006)), so it is 0 or 1 once sqrt 3 (b - a)
    is below the least distance between two roots of p in C.  About a
    repeated root it would stay >= 2 at every width."""
    count, work = 0, [(a, b)]
    while work:
        a, b = work.pop()
        n = _descartes_bound(p, a, b)
        if n < 2:
            count += n
            continue
        mid = (a + b) / 2
        if not _scaled_value(p, mid):
            count += 1
            p = _quotient(p, (-mid.numerator, mid.denominator))
        work += [(a, mid), (mid, b)]
    return count


def positive_above(p: Poly1, lo) -> bool:
    """Whether p(lo) > 0 and p has no real root above lo.

    By Descartes' rule on p(lo + y): no sign variation proves it, an odd
    number refutes it (p has a root above lo), and only an even number >= 2
    leaves it to _count on p's squarefree part, up to past the Cauchy bound.
    """
    lo = rat(lo)
    r = _unit_image(p, lo, lo + 1)
    if not r or r[0] <= 0:
        return False
    n = _variations(r)
    if n % 2:
        return False
    return n == 0 or _count(_squarefree(p), lo, max(lo, cauchy_root_bound(p)) + 1) == 0


@dataclass(frozen=True)
class RootLocation:
    low: Fraction
    high: Fraction
    exact: Fraction | None  # set when the root is known exactly (low == high)


def isolate_roots(p: Poly1, lo, hi, tol) -> list[RootLocation]:
    """Distinct real roots of p in the open interval (lo, hi).

    Each root comes back exact or bracketed by an open interval of width
    <= tol whose endpoints are not roots.  Roots at lo or hi themselves are
    not reported.  Intervals are halved at their midpoints on Descartes'
    bound: 0 means no root, 1 one simple root, halved on the sign of the
    unit image alone (_halve), and >= 2 a split while wider than tol; a
    narrower one is counted (_count, on p's squarefree part, which then
    replaces p) and reported whole if it holds one root.  A root n/d found
    at lo, hi or a midpoint is divided out as often as dx - n divides p.
    hi < lo raises ValueError.
    """
    lo, hi, tol = rat(lo), rat(hi), rat(tol)
    if hi < lo:
        raise ValueError("empty interval: hi < lo")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if degree(p) < 1:
        return []
    for r in (lo, hi):
        while not _scaled_value(p, r):
            p = _quotient(p, (-r.numerator, r.denominator))
    squarefree = False
    roots: list[RootLocation] = []
    work = [(lo, hi)]
    while work:
        a, b = work.pop()
        image = _unit_image(p, a, b)
        n = _unit_bound(image)
        if n >= 2 and b - a <= tol:
            if not squarefree:
                p, squarefree = _squarefree(p), True
            n = _count(p, a, b)
            if n == 1:
                roots.append(RootLocation(a, b, None))
                continue
        if n == 0:
            continue
        if n == 1:
            root = _halve(image, a, b, tol)
            roots.append(root)
            if root.exact is not None:  # a simple root
                p = _quotient(p, (-root.exact.numerator, root.exact.denominator))
            continue
        mid = (a + b) / 2
        if not _scaled_value(p, mid):
            roots.append(RootLocation(mid, mid, mid))
        while not _scaled_value(p, mid):
            p = _quotient(p, (-mid.numerator, mid.denominator))
        work += [(a, mid), (mid, b)]
    return sorted(roots, key=lambda r: r.low)


def _halve(r: Poly1, a: Fraction, b: Fraction, tol: Fraction) -> RootLocation:
    """The one simple root in (a, b) of a polynomial with unit image r
    (_unit_image), halved at dyadic midpoints until the bracket is at most
    tol wide or a midpoint is the root.  At depth k the midpoint is
    x = (2m + 1) / 2^k of (0, 1), read off the integer 2^(k deg r) r(x) by
    Horner's rule; only the final bracket or root becomes a Fraction."""
    w = b - a
    q = -(-w.numerator * tol.denominator // (w.denominator * tol.numerator))  # ceil(w / tol)
    depth, above, m = (q - 1).bit_length(), r[0] > 0, 0
    for k in range(1, depth + 1):
        x, acc, shift = 2 * m + 1, 0, 0
        for c in reversed(r):
            acc = acc * x + (c << shift)
            shift += k
        if not acc:
            root = a + w * Fraction(x, 1 << k)
            return RootLocation(root, root, root)
        m = x if (acc > 0) == above else x - 1
    return RootLocation(a + w * Fraction(m, 1 << depth), a + w * Fraction(m + 1, 1 << depth), None)


def _quotient(a: Poly1, b: Poly1) -> Poly1:
    """a / b for a nonzero integer a and a primitive integer divisor b of
    a.  By Gauss's lemma the quotient has integer coefficients, so each step
    of the long division divides exactly."""
    r = list(a)
    db, lead = len(b) - 1, b[-1]
    q = [0] * (len(r) - db)
    for k in range(len(q) - 1, -1, -1):
        q[k] = f = r[k + db] // lead
        for i, y in enumerate(b):
            r[k + i] -= f * y
    return tuple(q)


@dataclass(frozen=True)
class RationalFunction:
    """num/den in lowest terms: integer coefficients with no common factor,
    no common root, and den's leading coefficient positive."""

    num: Poly1
    den: Poly1

    def __call__(self, x) -> Fraction:
        # with x = n/q, num(x) = N / q^deg(num) and den(x) = D / q^deg(den)
        x = rat(x)
        d = _scaled_value(self.den, x)
        if d == 0:
            raise ZeroDivisionError(f"pole at {x}")
        e = degree(self.den) - degree(self.num)
        q = x.denominator
        return Fraction(_scaled_value(self.num, x) * q ** max(e, 0), d * q ** max(-e, 0))


def _reduced(num, den) -> RationalFunction:
    """num/den for integer num and nonzero integer den, in lowest terms: the
    gcd that ends their remainder sequence divided out (exactly, by Gauss's
    lemma), then their joint content, with the sign that makes den's
    leading coefficient positive."""
    num, den = _trim(num), _trim(den)
    if not num:
        return RationalFunction((), (1,))
    g = _remainders(num, den)[-1]
    if degree(g) >= 1:
        num, den = _quotient(num, g), _quotient(den, g)
    k = gcd(*num, *den) * (1 if den[-1] > 0 else -1)
    return RationalFunction(tuple(c // k for c in num), tuple(c // k for c in den))
