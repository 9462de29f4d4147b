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

F(f) and |f|_L1 read the moment table of the positive piece (see measure), so
probing many weight pairs over one family reuses all quadrature.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import AffineFunc, Point, Polynomial, point, vadd, vscale, vsub
from .futaki import assert_futaki_vanishes, df_invariant, df_via_cones
from .measure import integrate
from .polytope import EmptyInterior, LabelledPolytope, clip


@dataclass(frozen=True)
class Crease:
    h: AffineFunc
    positive: LabelledPolytope

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
        raise ValueError(f"x0 = {x0} is not interior")
    seen: set = set()
    family: list[Crease] = []
    for n in _primitive_directions(P.dim, r):
        for q in _offset_grid(P, r):
            base = AffineFunc(n, -sum(Fraction(ni) * qi for ni, qi in zip(n, q)))
            for h in (base, -base):
                if h(x0) > 0:
                    continue
                key = (h.gradient, h.constant)
                if key in seen:
                    continue
                seen.add(key)
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
    minimum is evidence only; a negative F(f) is an exact refutation witness.
    """
    if verify_futaki:
        assert_futaki_vanishes(P, v, w)
    best: tuple | None = None
    for crease in family:
        norm = crease.l1_norm()
        if norm <= 0:
            continue
        ratio = crease.df_value(v, w) / norm
        if best is None or ratio < best[0]:
            best = (ratio, crease)
    if best is None:
        return ProbeReport(None, None, None, 0)
    destab = best[1] if best[0] < 0 else None
    return ProbeReport(best[0], best[1], destab, len(family))
