"""Destabilizer probe over piecewise-linear crease functions.

A crease is f = max(0, h) for an affine h with h(x0) <= 0, normalized so
f >= 0 = f(x0).  Such f is convex and piecewise linear, and F(f) is exactly
computable:  f vanishes on P intersect {h <= 0}, and on the positive piece
F restricts to

    F(f) = 2 int_{boundary(P+)} h v dsigma - int_{P+} h w dx,

where P+ = P intersect {h >= 0} carries P's labels plus h itself (the crease
facet contributes nothing since h = 0 there).  A crease with F(f) < 0 is an
exact instability witness; a positive minimum of F(f)/|f|_L1 over a family is
evidence (never proof) of a stability margin.

F(f) and |f|_L1 read the moment table of the positive piece (see measure).
probe does not evaluate them per crease.  Each crease keeps the integer rows

    rb_b = D_k sum_a h_a m_boundary(a + b)   (|b| <= deg v),
    ri_b = D_k sum_a h_a m(a + b)            (|b| <= deg w),

read off one fill of the piece (interior and boundary at once, up to the
larger degree) by measure._moment_rows, which returns them as integers already:
D_k is h's denominator times the table's denominator Delta_top of the top
degree 1 + max(deg v, deg w), so no lcm is taken.  The rows are rebuilt only
when a weight of larger degree arrives.  Boundary moments pair only with v and
interior ones only with w, so each row stops at the degree its weight
needs.  A weight pair becomes one integer vector (V, W) = D_vw (v_b, w_b),
and then

    F(f_k) = N_k / (D_vw D_k),   N_k = 2 V.rb_k - W.ri_k,   |f_k|_L1 = ri_k[0] / D_k,

so each crease costs one integer dot product, ratios N_k / (D_vw ri_k[0])
compare by cross-multiplication, and only the winner's ratio becomes a
Fraction.  A destabilizer's F(f) is re-checked on the independent cone path
(Crease.df_value_direct) before it is reported.

crease_family builds the offset grid once per family and clears it with x0
to integer rows over one denominator E.  Per direction n it takes the
integer dot n.(E x0) once, and each offset E n.q once, since equal offsets
give equal creases; so the test h(x0) <= 0 and the removal of duplicates
cost one integer comparison and one dict entry per offset, only a kept
crease's offset becomes a Fraction, and clip (which decides emptiness by
the sign of h at P's vertices) runs once per surviving crease.  Crease._rows
reads h's integer form (AffineFunc.cleared), which clip made and h keeps.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from .exact import (
    AffineFunc, Point, Polynomial, _cleared_points, format_point, point, vadd, vscale, vsub,
)
from .futaki import _affine_exponents, assert_futaki_vanishes, df_invariant, df_via_cones
from .measure import _degree, _integer_terms, _moment_rows, _monomials, integrate
from .polytope import EmptyInterior, LabelledPolytope, clip


@dataclass(frozen=True)
class Crease:
    h: AffineFunc
    positive: LabelledPolytope
    # derived cache (deg v, deg w, D_k, rb, ri) of _rows, read off the
    # positive piece's moment record; not part of the value
    _cache: tuple = field(default=(-1, -1), init=False, repr=False, compare=False)

    def df_value(self, v: Polynomial, w: Polynomial) -> Fraction:
        """F(max(0, h)), from the moment table of the positive piece."""
        return df_invariant(self.positive, v, w, self.h.to_polynomial())

    def l1_norm(self) -> Fraction:
        """|f|_L1 = integral of h over the positive piece."""
        return integrate(self.h.to_polynomial(), self.positive)

    def df_value_direct(self, v: Polynomial, w: Polynomial) -> Fraction:
        """F(f) by integrating whole polynomials over the cone cells of the
        positive piece (verification path: never reads the moment table)."""
        P = self.positive
        return df_via_cones(P, P.vertex_centroid(), v, w, self.h.to_polynomial())

    def _rows(self, dv: int, dw: int) -> tuple:
        """(D_k, rb, ri), the integer rows of the module docstring: rb over
        _monomials(dim, dv') and ri over _monomials(dim, dw'), where dv' >= dv
        and dw' >= dw are the largest degrees asked for so far, so the rows
        for (dv, dw) are prefixes.  Both rows come from one read, so P is
        filled at most once per rebuild, and over one denominator D_k."""
        if self._cache[0] < dv or self._cache[1] < dw:
            dv, dw = max(dv, self._cache[0]), max(dw, self._cache[1])
            P, h = self.positive, self.h
            G, c, dh = h.cleared()
            H = [(a, x) for a, x in zip(_affine_exponents(P.dim), (c, *G)) if x]
            bv, bw = _monomials(P.dim, dv), _monomials(P.dim, dw)
            (rb, ri), delta = _moment_rows(P, [(H, bv, True), (H, bw, False)], 1 + max(dv, dw))
            object.__setattr__(self, "_cache", (dv, dw, dh * delta, rb, ri))
        return self._cache[2:]


def _primitive_directions(dim: int, r: int) -> list[tuple]:
    """Nonzero integer vectors with sup-norm <= r, primitive, first nonzero > 0."""
    out = []
    for vec in itertools.product(range(-r, r + 1), repeat=dim):
        if not any(vec):
            continue
        first = next(c for c in vec if c != 0)
        if first < 0:
            continue
        if math.gcd(*(abs(c) for c in vec)) != 1:
            continue
        out.append(vec)
    return sorted(out)


def _offset_grid(P: LabelledPolytope, r: int) -> list[Point]:
    """Barycenter-to-vertex segments subdivided into r+1 parts."""
    b = P.vertex_centroid()
    pts = {b}
    for vtx in P.vertices:
        seg = vsub(vtx, b)
        for k in range(1, r + 2):
            pts.add(vadd(b, vscale(Fraction(k, r + 1), seg)))
    return sorted(pts)


def crease_family(P: LabelledPolytope, x0, r: int) -> list[Crease]:
    """All creases h = +-n.(x - q) with primitive |n|_inf <= r, offsets q on
    the (r+1)-fold subdivided vertex-barycenter grid, h(x0) <= 0 (so the piece
    h <= 0 is full-dimensional), and a full-dimensional positive piece.
    Deterministic order; duplicates removed."""
    x0 = point(x0)
    if r < 1:
        raise ValueError("resolution r must be >= 1")
    if not P.is_interior(x0):
        raise ValueError(f"x0 = {format_point(x0)} is not interior")
    E, (X, *grid) = _cleared_points([x0, *_offset_grid(P, r)])
    family: list[Crease] = []
    for d in _primitive_directions(P.dim, r):
        n, m = point(d), point(-c for c in d)
        nx0 = sum(map(mul, d, X))
        for s in dict.fromkeys(sum(map(mul, d, q)) for q in grid):  # each offset E n.q once
            # h = n.x - s/E and h = s/E - n.x, kept when h(x0) <= 0
            for g, c, keep in ((n, -s, nx0 <= s), (m, s, s <= nx0)):
                if not keep:
                    continue
                h = AffineFunc(g, Fraction(c, E))
                try:
                    pos = clip(P, h)
                except EmptyInterior:
                    continue
                family.append(Crease(h=h, positive=pos))
    return family


@dataclass(frozen=True)
class ProbeReport:
    min_ratio: Fraction | None  # min F(f)/|f|_L1; None for an empty family
    argmin: Crease | None
    destabilizer: Crease | None  # a crease with F(f) < 0, when found
    n_creases: int

    @property
    def found_destabilizer(self) -> bool:
        return self.destabilizer is not None


def probe(
    P: LabelledPolytope,
    v: Polynomial,
    w: Polynomial,
    family: list[Crease],
    verify_futaki: bool = True,
) -> ProbeReport:
    """Exact minimum of F(f)/|f|_L1 over the crease family.

    F must already vanish on affine functions (checked unless disabled);
    otherwise the ratio is not scale-normalized evidence.  The L1 surrogate
    stands in for the J-norm up to an uncomputed constant, so a positive
    minimum is evidence only; a negative F(f) is an exact refutation witness,
    re-checked on the cone path (ArithmeticError if the two disagree).
    """
    (Gv, cv), (Gw, cw) = _integer_terms(v, P.dim), _integer_terms(w, P.dim)
    if verify_futaki:
        assert_futaki_vanishes(P, v, w)
    # |f|_L1 = ri[0] / D_k needs ri even when w = 0
    dv, dw = _degree(Gv), max(_degree(Gw), 0)
    D_vw = math.lcm(cv, cw)
    V = [Gv.get(b, 0) * (D_vw // cv) for b in _monomials(P.dim, dv)]
    W = [Gw.get(b, 0) * (D_vw // cw) for b in _monomials(P.dim, dw)]
    best: tuple | None = None  # (N_k, ri_k[0], D_k, crease): ratio N_k / (D_vw ri_k[0])
    for crease in family:
        D_k, rb, ri = crease._rows(dv, dw)
        if ri[0] <= 0:
            continue
        N = 2 * sum(map(mul, V, rb)) - sum(map(mul, W, ri))
        if best is None or N * best[1] < best[0] * ri[0]:
            best = (N, ri[0], D_k, crease)
    if best is None:
        return ProbeReport(None, None, None, 0)
    N, norm, D_k, crease = best
    if N < 0 and crease.df_value_direct(v, w) != Fraction(N, D_vw * D_k):
        raise ArithmeticError("the destabilizer's F(f) does not re-verify on the cone path")
    destab = crease if N < 0 else None
    return ProbeReport(Fraction(N, D_vw * norm), crease, destab, len(family))
