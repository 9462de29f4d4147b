"""Sufficient-condition checkers for weighted uniform K-stability.

The workhorse inequality is per-cone: with an interior base point x0 and the
cone P_j over facet F_j, the polytope is (v,w)-uniformly K-stable as soon as
F vanishes on affine functions and

    g_j(x) = (1/L_j(x0)) ((l+1) v(x) + d_x v . (x - x0)) - w(x)/2  >=  0 on P_j

for every j.  Certification routes, soundest-first:

* AffineVertex - g_j is affine, so cell-vertex evaluation is exact;
* VertexConcave - a caller-supplied (or factor-derived) concavity certificate
  reduces sign-checking to the cone's vertices;
* BernsteinSubdivision - Bernstein-coefficient nonnegativity with recursive
  barycentric subdivision (one-sided: never certifies falsely).

For monotone fibers the condition collapses to a single rational expression
whose positivity at the polytope vertices suffices under the standard
hypothesis p_a(x0) + c_a >= t s_a / (2 n_a) (the offset-compared-to-scalar
bound); that is the vertex route of check_fano_fiber.  threshold_c locates
the smallest Kaehler-class offset c above which the vertex condition holds,
by exact rational-function reconstruction in c and Sturm root isolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import univariate as u1
from .bernstein import CERTIFIED, INCONCLUSIVE, REFUTED, certify_nonnegative
from .exact import AffineFunc, Point, Polynomial, point, radial_derivative, rat
from .futaki import (
    SingularMomentMatrix,
    assert_futaki_vanishes,
    extremal_affine,
    stability_weight,
)
from .polytope import LabelledPolytope, NotInterior, cone_decomposition
from .weights import (
    Convention,
    Fibration,
    NonpositiveWeight,
    NotFanoFibration,
    NotMonotoneFiber,
)

VERDICT_CERTIFIED = "CertifiedSufficient"
VERDICT_FAILS = "ConditionFails"
VERDICT_INCONCLUSIVE = "Inconclusive"

METHOD_AFFINE = "AffineVertex"
METHOD_CONCAVE = "VertexConcave"
METHOD_BERNSTEIN = "BernsteinSubdivision"


class HypothesisViolatedOnBracket(Exception):
    pass


@dataclass(frozen=True)
class ConeOutcome:
    """Cell-level result: cone over facet j, cell index within its fan."""

    facet: int
    cell: int
    method: str
    status: str  # bernstein.CERTIFIED / REFUTED / INCONCLUSIVE
    value: Fraction | None  # Bernstein/affine: cell lower bound; concave: min vertex value
    witness: tuple | None  # (point, value) with value < 0
    depth: int


@dataclass(frozen=True)
class StabilityReport:
    verdict: str
    method: str
    depth: int
    convention: Convention
    x0: Point | None
    witness: tuple | None  # (point, value) when ConditionFails
    margin: Fraction | None  # min certified evidence value when certified
    per_cone: tuple = ()
    vertex_values: tuple = ()  # ((vertex, value), ...) for vertex-route checks
    notes: tuple = ()

    @property
    def certified(self) -> bool:
        return self.verdict == VERDICT_CERTIFIED


def condition_poly_general(
    P: LabelledPolytope, x0, j: int, v: Polynomial, w: Polynomial
) -> Polynomial:
    """The cleared cone inequality polynomial g_j (nonnegativity wanted)."""
    x0 = point(x0)
    if not P.is_interior(x0):
        raise NotInterior(x0)
    Lj0 = P.labels[j](x0)
    return (v * (P.dim + 1) + radial_derivative(v, x0)) * (Fraction(1) / Lj0) - w * Fraction(1, 2)


def default_base_point(P: LabelledPolytope) -> Point:
    """The monotone point when P is monotone, otherwise the vertex centroid."""
    from .polytope import monotone_point

    mono = monotone_point(P)
    return mono[0] if mono is not None else P.vertex_centroid()


def base_point_candidates(P: LabelledPolytope) -> list[Point]:
    """Interior points worth trying as x0: monotone point, vertex centroid,
    and the barycenters of the fan triangulation cells."""
    from .polytope import monotone_point, triangulate

    cands: list[Point] = []
    mono = monotone_point(P)
    if mono is not None:
        cands.append(mono[0])
    cands.append(P.vertex_centroid())
    for cell in triangulate(P):
        cands.append(cell.barycenter())
    seen: set = set()
    out = []
    for c in cands:
        if c not in seen and P.is_interior(c):
            seen.add(c)
            out.append(c)
    return out


def concave_cone_indices(fib: Fibration, x0) -> frozenset[int]:
    """Facets j where L_j(x0) s_a - 2 n_a (p_a(x0) + c_a) <= 0 for every a.

    On such cones the cleared inequality has the shape (positive) * (concave),
    so its sign over the cone is decided by the cone's vertices.
    """
    x0 = point(x0)
    out = []
    for j, L in enumerate(fib.fiber.labels):
        Lj0 = L(x0)
        if all(Lj0 * f.s - 2 * f.n * (f.p(x0) + f.c) <= 0 for f in fib.factors):
            out.append(j)
    return frozenset(out)


def _vertex_route(g: Polynomial, vertices, facet: int, cell: int, method: str) -> ConeOutcome:
    worst = None
    for vtx in vertices:
        val = g(vtx)
        if worst is None or val < worst[1]:
            worst = (vtx, val)
    if worst[1] < 0:
        return ConeOutcome(facet, cell, method, REFUTED, None, worst, 0)
    return ConeOutcome(facet, cell, method, CERTIFIED, worst[1], None, 0)


def check_general(
    P: LabelledPolytope,
    x0,
    v: Polynomial,
    w: Polynomial,
    *,
    convention: Convention = Convention.CANONICAL,
    max_depth: int = 6,
    concave_cones: frozenset = frozenset(),
    verify_futaki: bool = True,
) -> StabilityReport:
    """Certify g_j >= 0 on every cone cell, refute with an exact witness, or
    report Inconclusive at the subdivision depth limit.

    Refuses to run (FutakiNotVanishing) when F does not already vanish on
    affine functions, unless verify_futaki is disabled (legacy-convention
    archaeology, where the solver's defining pairing differs).
    """
    x0 = point(x0)
    if verify_futaki:
        assert_futaki_vanishes(P, v, w)
    decomp = cone_decomposition(P, x0)
    outcomes: list[ConeOutcome] = []
    for j, cells in enumerate(decomp.cones):
        g = condition_poly_general(P, x0, j, v, w)
        affine = g.degree() <= 1
        for ci, cell in enumerate(cells):
            if affine:
                outcomes.append(_vertex_route(g, cell.vertices, j, ci, METHOD_AFFINE))
            elif j in concave_cones:
                outcomes.append(_vertex_route(g, cell.vertices, j, ci, METHOD_CONCAVE))
            else:
                res = certify_nonnegative(g, cell, max_depth)
                outcomes.append(
                    ConeOutcome(
                        j, ci, METHOD_BERNSTEIN, res.status,
                        res.lower_bound, res.witness, res.depth_used,
                    )
                )
    return _aggregate(outcomes, convention, x0)


def _aggregate(outcomes, convention: Convention, x0) -> StabilityReport:
    depth = max((o.depth for o in outcomes), default=0)
    methods = {o.method for o in outcomes}
    if METHOD_BERNSTEIN in methods:
        method = METHOD_BERNSTEIN
    elif METHOD_CONCAVE in methods:
        method = METHOD_CONCAVE
    else:
        method = METHOD_AFFINE
    for o in outcomes:
        if o.status == REFUTED:
            return StabilityReport(
                VERDICT_FAILS, method, depth, convention, x0,
                o.witness, None, tuple(outcomes),
            )
    if any(o.status == INCONCLUSIVE for o in outcomes):
        return StabilityReport(
            VERDICT_INCONCLUSIVE, method, depth, convention, x0,
            None, None, tuple(outcomes),
        )
    margin = min((o.value for o in outcomes), default=None)
    return StabilityReport(
        VERDICT_CERTIFIED, method, depth, convention, x0,
        None, margin, tuple(outcomes),
    )


def check_fibration(
    fib: Fibration, x0=None, max_depth: int = 6
) -> StabilityReport:
    """Solve for l_ext, form w = l_ext v - w_base, and run check_general with
    the factor-derived concavity certificates."""
    sol = extremal_affine(fib)
    w = stability_weight(fib, sol.l_ext)
    if x0 is None:
        x0 = default_base_point(fib.fiber)
    return check_general(
        fib.fiber,
        x0,
        fib.v,
        w,
        convention=fib.convention,
        max_depth=max_depth,
        concave_cones=concave_cone_indices(fib, x0),
        verify_futaki=fib.convention is Convention.CANONICAL,
    )


def condition_value_fano(fib: Fibration, l_ext: AffineFunc, x) -> Fraction:
    """The monotone-fiber condition value at x (nonnegativity wanted):

    2(l + sum n_a) + 2 + sum_a (t s_a - 2 n_a (p_a(x0)+c_a))/(p_a(x)+c_a) - t l_ext(x),

    with (x0, t) the fiber's monotone point and scale.  For the anticanonical
    normalization this collapses to 2 dim Y + 2 - l_ext(x).
    """
    if fib.fano_fiber is None:
        raise NotMonotoneFiber("condition_value_fano needs a monotone fiber")
    x0, t = fib.fano_fiber
    x = point(x)
    total = 2 * fib.total_dim + 2 - t * l_ext(x)
    for a, f in enumerate(fib.factors):
        u = f.p(x) + f.c
        if u <= 0:
            raise NonpositiveWeight(x, a)
        total += (t * f.s - 2 * f.n * (f.p(x0) + f.c)) / u
    return total


def _fano_hypothesis_holds(fib: Fibration) -> bool:
    x0, t = fib.fano_fiber
    return all(f.p(x0) + f.c >= t * f.s / (2 * f.n) for f in fib.factors)


def check_fano_fiber(fib: Fibration, max_depth: int = 6) -> StabilityReport:
    """Vertex check of the monotone-fiber condition.

    Under the hypothesis p_a(x0) + c_a >= t s_a/(2 n_a) the condition value is
    concave, so vertex nonnegativity certifies it on all of P.  Without the
    hypothesis this falls back to the cleared per-cone polynomials via
    check_general.
    """
    if fib.fano_fiber is None:
        raise NotMonotoneFiber("check_fano_fiber needs a monotone fiber")
    x0, _t = fib.fano_fiber
    sol = extremal_affine(fib)
    if not _fano_hypothesis_holds(fib):
        w = stability_weight(fib, sol.l_ext)
        report = check_general(
            fib.fiber,
            x0,
            fib.v,
            w,
            convention=fib.convention,
            max_depth=max_depth,
            concave_cones=concave_cone_indices(fib, x0),
            verify_futaki=fib.convention is Convention.CANONICAL,
        )
        return StabilityReport(
            report.verdict, report.method, report.depth, report.convention,
            report.x0, report.witness, report.margin, report.per_cone,
            report.vertex_values, report.notes + (("route", "general-fallback"),),
        )
    vals = tuple((vtx, condition_value_fano(fib, sol.l_ext, vtx)) for vtx in fib.fiber.vertices)
    worst = min(vals, key=lambda pair: pair[1])
    if worst[1] < 0:
        return StabilityReport(
            VERDICT_FAILS, METHOD_CONCAVE, 0, fib.convention, x0,
            worst, None, (), vals,
        )
    return StabilityReport(
        VERDICT_CERTIFIED, METHOD_CONCAVE, 0, fib.convention, x0,
        None, worst[1], (), vals,
    )


def check_fano_total(fib: Fibration) -> StabilityReport:
    """sup_P l_ext <= 2 (dim Y + 1), for anticanonically normalized data."""
    if (
        fib.fano_fiber is None
        or fib.fano_fiber[1] != 1
        or any(f.s != 2 * f.n * f.c for f in fib.factors)
    ):
        raise NotFanoFibration(
            "check_fano_total needs a monotone fiber with scale 1 and "
            "anticanonical factors (s_a = 2 n_a c_a)"
        )
    sol = extremal_affine(fib)
    vals = tuple((vtx, sol.l_ext(vtx)) for vtx in fib.fiber.vertices)
    top = max(vals, key=lambda pair: pair[1])
    bound = Fraction(2 * (fib.total_dim + 1))
    notes = (("sup_l_ext", str(top[1])), ("bound", str(bound)))
    if top[1] <= bound:
        return StabilityReport(
            VERDICT_CERTIFIED, METHOD_AFFINE, 0, fib.convention,
            fib.fano_fiber[0], None, bound - top[1], (), vals, notes,
        )
    return StabilityReport(
        VERDICT_FAILS, METHOD_AFFINE, 0, fib.convention,
        fib.fano_fiber[0], top, None, (), vals, notes,
    )


@dataclass(frozen=True)
class VertexThreshold:
    vertex: Point
    low: Fraction
    high: Fraction
    exact: Fraction | None
    kind: str  # "root" (largest numerator root) or "floor" (no root above c_lo)
    tail_positive: bool
    num_degree: int
    den_degree: int


@dataclass(frozen=True)
class ThresholdResult:
    low: Fraction
    high: Fraction
    exact: Fraction | None
    certified: bool
    value_at_hi: Fraction | None  # min vertex condition value at c_hi
    per_vertex: tuple
    convention: Convention
    floor: Fraction  # = c_lo
    tol: Fraction


def threshold_c(
    make_fib: Callable[[Fraction], Fibration],
    c_lo,
    c_hi,
    tol=Fraction(1, 100),
    degree_cap: int = 12,
) -> ThresholdResult:
    """Smallest offset threshold: for each fiber vertex, reconstruct the
    condition value as an exact univariate rational function of c, isolate
    the largest numerator root above c_lo, and take the supremum bracket.

    Certification means: above the returned bracket every vertex value is
    provably positive (positive numerator leading coefficient, no numerator
    or denominator roots beyond the bracket, denominator positive at c_lo),
    and the direct pipeline value at c_hi is nonnegative.
    """
    c_lo, c_hi, tol = rat(c_lo), rat(c_hi), rat(tol)
    if c_hi < c_lo:
        raise ValueError("empty bracket: c_hi < c_lo")
    if tol <= 0:
        raise ValueError("tol must be positive")
    try:
        fib_lo = make_fib(c_lo)
    except NonpositiveWeight as exc:
        raise HypothesisViolatedOnBracket(
            f"fibration invalid at c_lo = {c_lo}: {exc}"
        ) from exc
    if fib_lo.fano_fiber is None:
        raise NotMonotoneFiber("threshold_c needs a monotone fiber")
    x0, t = fib_lo.fano_fiber
    for a, f in enumerate(fib_lo.factors):
        if f.p(x0) + f.c < t * f.s / (2 * f.n):
            raise HypothesisViolatedOnBracket(
                f"factor {a}: p(x0) + c >= t s/(2n) fails at c_lo = {c_lo}"
            )
    verts = fib_lo.fiber.vertices
    convention = fib_lo.convention

    rows: dict[Fraction, tuple | None] = {}

    def row(c: Fraction):
        if c not in rows:
            try:
                fib = make_fib(c)
                sol = extremal_affine(fib)
                rows[c] = tuple(
                    condition_value_fano(fib, sol.l_ext, vtx) for vtx in verts
                )
            except (NonpositiveWeight, SingularMomentMatrix):
                rows[c] = None
        return rows[c]

    per_vertex = []
    certified = True
    for i, vtx in enumerate(verts):

        def sample(c, _i=i):
            r = row(c)
            return None if r is None else r[_i]

        fn = u1.reconstruct_rational(
            sample, degree_cap=degree_cap, start=c_hi + 1, step=Fraction(1)
        )
        num, den = fn.num, fn.den
        den_hi = max(c_lo, u1.cauchy_root_bound(den)) + 1
        den_ok = u1.evaluate(den, c_lo) > 0 and not u1.isolate_roots(
            den, c_lo, den_hi, Fraction(1)
        )
        if not num:
            entry = VertexThreshold(vtx, c_lo, c_lo, c_lo, "floor", True, -1, u1.degree(den))
        else:
            tail = num[-1] > 0
            num_hi = max(c_hi, u1.cauchy_root_bound(num)) + 1
            roots = u1.isolate_roots(num, c_lo, num_hi, tol)
            if roots:
                top = roots[-1]
                entry = VertexThreshold(
                    vtx, top.low, top.high, top.exact, "root", tail,
                    u1.degree(num), u1.degree(den),
                )
            else:
                entry = VertexThreshold(
                    vtx, c_lo, c_lo, c_lo, "floor", tail,
                    u1.degree(num), u1.degree(den),
                )
        per_vertex.append(entry)
        certified = certified and entry.tail_positive and den_ok
    sup_low = max(e.low for e in per_vertex)
    sup_high = max(e.high for e in per_vertex)
    exact = sup_low if sup_low == sup_high else None
    at_hi = row(c_hi)
    value_at_hi = None if at_hi is None else min(at_hi)
    certified = certified and value_at_hi is not None and value_at_hi >= 0
    return ThresholdResult(
        low=sup_low,
        high=sup_high,
        exact=exact,
        certified=certified,
        value_at_hi=value_at_hi,
        per_vertex=tuple(per_vertex),
        convention=convention,
        floor=c_lo,
        tol=tol,
    )
