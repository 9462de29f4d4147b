"""Sufficient-condition checkers for weighted uniform K-stability.

The workhorse inequality is per-cone: with an interior base point x0 and the
cone P_j over facet F_j, the polytope is (v,w)-uniformly K-stable as soon as
F vanishes on affine functions and

    g_j(x) = (1/L_j(x0)) ((l+1) v(x) + d_x v . (x - x0)) - w(x)/2  >=  0 on P_j

for every j.  Each g_j is built on integers (_cone_conditions): v and w are
read through their integer forms and x0 is cleared once (and shown interior
by its label signs), A times their denominators is one integer coefficient
map read off v's terms, and g_j is an integer map G_j over one positive S_j.
The vertex routes read it as it is, and the Bernstein route gets it as a
Polynomial built on those integers.  No Fraction is built per cone; one is
made only for a reported value.
Certification routes, soundest-first:

* AffineVertex - g_j is affine, so cell-vertex evaluation is exact;
* VertexConcave - a caller-supplied (or factor-derived) concavity certificate
  reduces sign-checking to the cone's vertices;
* BernsteinSubdivision - Bernstein-coefficient nonnegativity with
  longest-edge bisection under a node budget (one-sided: never certifies
  falsely).

For monotone fibers the condition collapses to a single rational expression
whose positivity at the polytope vertices suffices under the standard
hypothesis p_a(x0) + c_a >= t s_a / (2 n_a) (the offset-compared-to-scalar
bound); that is the vertex route of check_fano_fiber.

threshold_c locates the smallest Kaehler-class offset c above which the
vertex condition holds.  Each factor offset is affine in c, so the weights
are polynomials v(x, c) and w_base(x, c), and _extremal_over_c reads the
extremal moment system M(c) lam = b(c) off them on the one fiber and solves
it over Z[c] by Cramer's rule: l_ext(c) = (cramer[0] + sum_i x_i
cramer[i+1]) / D, D = det M(c).  Each vertex's condition value is then an
exact rational function of c, whose numerator roots are isolated by
univariate.isolate_roots (every count by Descartes' rule of signs, on the
halves of an interval where one bound cannot decide).  A certified
threshold rests on that solve, on the positivity of det M(c) for c >= c_lo
(univariate.positive_above: the same rule on D(c_lo + y)), and on
agreement with the direct pipeline at c_hi; no sampled fit enters.  The
vertex denominators' signs follow from these (threshold_c).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm, prod
from operator import mul, pos
from typing import Callable

from . import univariate as u1
from .bernstein import CERTIFIED, INCONCLUSIVE, REFUTED, certify_nonnegative
from .exact import (
    AffineFunc, Point, Polynomial, _cleared, _cleared_points, format_point, point, rat,
)
from .futaki import (
    SingularMomentMatrix,
    _assert_positive_definite,
    _moment_system,
    assert_futaki_vanishes,
    extremal_affine,
    stability_weight,
)
from .measure import _integer_terms
from .polytope import (
    LabelledPolytope, NotInterior, Simplex, _facet_cells, _points, monotone_point, triangulate,
)
from .weights import (
    Convention,
    Fibration,
    NonpositiveWeight,
    NotFanoFibration,
    NotMonotoneFiber,
    _build_weights,
    _offset_terms,
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


def condition_poly_general(P: LabelledPolytope, x0, j: int, v, w) -> Polynomial:
    """The cone inequality polynomial g_j (nonnegativity wanted), built on
    the integer cone condition (G_j, S_j) of _cone_conditions as G_j / S_j."""
    return Polynomial._from_cleared(P.dim, *_cone_conditions(P, point(x0), v, w)[j])


def _label_values(P: LabelledPolytope, X0: list[int], D0: int) -> list[tuple[int, int]]:
    """(l_j, q_j) per facet with L_j(x0) = l_j / (q_j D0), x0 = X0 / D0:
    each label's integer form (AffineFunc.cleared) over q_j > 0.  An X0 of
    another length than P.dim raises ValueError (the dot would truncate)."""
    if len(X0) != P.dim:
        raise ValueError("dimension mismatch evaluating AffineFunc")
    return [(sum(map(mul, U, X0)) + lam * D0, q) for U, lam, q in (L.cleared() for L in P.labels)]


def _cone_conditions(P: LabelledPolytope, x0: Point, v, w) -> list[tuple[dict, int]]:
    """Every g_j, in facet order, as integer terms G_j over S_j > 0:
    g_j = A / L_j(x0) - w/2 with A = (dim + 1) v + d_x v . (x - x0).

    With v = V / C_v and w = W / C_w their integer forms (_integer_terms,
    which checks their dimension first) and x0 = X0 / D0, the
    integer map A^ = C_v D0 A takes one pass over v's terms: V_a x^a gives
    (dim + 1 + |a|) D0 V_a to x^a and -a_i X0_i V_a to x^(a - e_i).  With
    L_j(x0) = l_j / (q_j D0) (_label_values), l_j > 0 for interior x0,
    G_j = 2 C_w q_j A^ - C_v l_j W and S_j = 2 C_v C_w l_j.  G_j keeps only
    its nonzero terms, so a cancelled top degree leaves the true degree.
    The check path's one test of x0: NotInterior unless every l_j > 0."""
    (V, Cv), (W, Cw) = _integer_terms(v, P.dim), _integer_terms(w, P.dim)
    X0, D0 = _cleared(x0)
    labels = _label_values(P, X0, D0)
    if any(ell <= 0 for ell, _ in labels):
        raise NotInterior(x0)
    A: dict = {}
    for a, c in V.items():
        A[a] = A.get(a, 0) + (P.dim + 1 + sum(a)) * D0 * c
        for i, (ai, xi) in enumerate(zip(a, X0)):
            if ai and xi:
                b = a[:i] + (ai - 1,) + a[i + 1:]
                A[b] = A.get(b, 0) - ai * xi * c
    out = []
    for ell, q in labels:
        s, t = 2 * Cw * q, Cv * ell
        G = {a: s * c for a, c in A.items()}
        for a, c in W.items():
            G[a] = G.get(a, 0) - t * c
        out.append(({a: c for a, c in G.items() if c}, 2 * Cv * Cw * ell))
    return out


def default_base_point(P: LabelledPolytope) -> Point:
    """The monotone point when P is monotone, otherwise the vertex centroid."""
    mono = monotone_point(P)
    return mono[0] if mono is not None else P.vertex_centroid()


def base_point_candidates(P: LabelledPolytope) -> list[Point]:
    """Interior points worth trying as x0, each once: the monotone point
    (t > 0), the vertex centroid and the fan triangulation cells'
    barycenters, all strictly interior as P and its cells are full-dim."""
    mono = monotone_point(P)
    cands = [mono[0]] if mono is not None else []
    cands.append(P.vertex_centroid())
    cands.extend(cell.barycenter() for cell in triangulate(P))
    return list(dict.fromkeys(cands))


def concave_cone_indices(fib: Fibration, x0) -> frozenset[int]:
    """Facets j where L_j(x0) s_a - 2 n_a (p_a(x0) + c_a) <= 0 for every a.

    On such cones the cleared inequality has the shape (positive) * (concave),
    so its sign over the cone is decided by the cone's vertices.  The signs
    are read on integers: with L_j(x0) = l_j / (q_j D0) (_label_values), the
    value has the sign of l_j S_a - q_j E_a (_offset_terms).  Any x0 of
    length fib.dim gets a set.
    """
    X0, D0 = _cleared(point(x0))
    terms = _offset_terms(fib.factors, X0, D0)
    return frozenset(
        j for j, (ell, q) in enumerate(_label_values(fib.fiber, X0, D0))
        if all(ell * S - q * E <= 0 for _, S, E in terms)
    )


def _vertex_verdict(vals, slack) -> tuple:
    """(verdict, witness, margin) from vals = ((vertex, value), ...): the
    first vertex of least slack(value) decides (slack = pos when the value
    is its own slack).  It is the witness when its slack is negative, and
    otherwise its slack is the margin."""
    worst = min(vals, key=lambda pair: slack(pair[1]))
    margin = slack(worst[1])
    if margin < 0:
        return VERDICT_FAILS, worst, None
    return VERDICT_CERTIFIED, None, margin


def _vertex_route(G: dict, S: int, vertices, facet: int, cell: int, method: str) -> ConeOutcome:
    """Decide G / S >= 0 on a cell by its vertex values, each an integer sum
    over S E^d with the vertices cleared to integer rows over E."""
    E, Y = _cleared_points(vertices)
    d = max(map(sum, G), default=0)

    def value(y) -> Fraction:
        return Fraction(
            sum(c * E ** (d - sum(a)) * prod(map(pow, y, a)) for a, c in G.items()), S * E**d
        )

    vals = [(vtx, value(y)) for vtx, y in zip(vertices, Y)]
    _, witness, margin = _vertex_verdict(vals, pos)
    return ConeOutcome(facet, cell, method, REFUTED if witness else CERTIFIED, margin, witness, 0)


def check_general(
    P: LabelledPolytope,
    x0,
    v: Polynomial,
    w: Polynomial,
    *,
    convention: Convention = Convention.CANONICAL,
    max_depth: int = 6,
    concave_cones: frozenset = frozenset(),
) -> StabilityReport:
    """Certify g_j >= 0 on every cone cell, refute with an exact witness, or
    report Inconclusive when the subdivision's node budget (set by
    max_depth, see bernstein.certify_nonnegative) runs out.

    Each g_j is the integer cone condition (G_j, S_j) of _cone_conditions:
    an affine one or one on a concave cone is decided at the cell vertices,
    and any other goes to certify_nonnegative as the Polynomial built on
    those integers, once per cell.  A cell is a facet cell plus x0, as in
    cone_decomposition.  Weights of another dimension than P raise
    ValueError first, under either convention.  Under the canonical
    convention, refuses to run (FutakiNotVanishing) when F does not already
    vanish on affine functions; the legacy convention is not checked, since
    its solver's defining pairing differs.  Then _cone_conditions validates
    x0.
    """
    for p in (v, w):  # the weights' dimension before anything else
        _integer_terms(p, P.dim)
    x0 = point(x0)
    if convention is Convention.CANONICAL:
        assert_futaki_vanishes(P, v, w)
    outcomes: list[ConeOutcome] = []
    for j, ((G, S), bases) in enumerate(zip(_cone_conditions(P, x0, v, w), _facet_cells(P))):
        affine = max(map(sum, G), default=-1) <= 1
        g = Polynomial._from_cleared(P.dim, G, S)
        for ci, (base, _, _) in enumerate(bases):
            cell = Simplex._spanned(_points(P, base) + (x0,))
            if affine:
                outcomes.append(_vertex_route(G, S, cell.vertices, j, ci, METHOD_AFFINE))
            elif j in concave_cones:
                outcomes.append(_vertex_route(G, S, cell.vertices, j, ci, METHOD_CONCAVE))
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
    method = next((m for m in (METHOD_BERNSTEIN, METHOD_CONCAVE) if m in methods), METHOD_AFFINE)
    refuted = next((o for o in outcomes if o.status == REFUTED), None)
    witness = margin = None
    if refuted is not None:
        verdict, witness = VERDICT_FAILS, refuted.witness
    elif any(o.status == INCONCLUSIVE for o in outcomes):
        verdict = VERDICT_INCONCLUSIVE
    else:
        verdict, margin = VERDICT_CERTIFIED, min((o.value for o in outcomes), default=None)
    return StabilityReport(
        verdict, method, depth, convention, x0, witness, margin, tuple(outcomes)
    )


def check_fibration(
    fib: Fibration, x0=None, max_depth: int = 6
) -> StabilityReport:
    """Solve for l_ext, form w = l_ext v - w_base, and run check_general with
    the factor-derived concavity certificates."""
    w = stability_weight(fib)
    if x0 is None:
        x0 = default_base_point(fib.fiber)
    return check_general(
        fib.fiber, x0, fib.v, w, convention=fib.convention,
        max_depth=max_depth, concave_cones=concave_cone_indices(fib, x0),
    )


def condition_value_fano(fib: Fibration, l_ext: AffineFunc, x) -> Fraction:
    """The monotone-fiber condition value at x (nonnegativity wanted):

    2(l + sum n_a) + 2 + sum_a (t s_a - 2 n_a (p_a(x0)+c_a))/(p_a(x)+c_a) - t l_ext(x),

    with (x0, t) the fiber's monotone point and scale.  For the anticanonical
    normalization this collapses to 2 dim Y + 2 - l_ext(x).  It is
    _fano_evaluator(fib, l_ext) at x.
    """
    return _fano_evaluator(fib, l_ext)(x)


def _fano_evaluator(fib: Fibration, l_ext: AffineFunc) -> Callable[..., Fraction]:
    """x -> condition_value_fano(fib, l_ext, x), its x-free terms computed once.

    With x = X / D and p_a + c_a = A_a / q_a cleared to integers, the value
    is (<m, (X, D)> / D + sum_a k_a D / U_a) / sigma, U_a = <A_a, (X, D)>,
    where (m, k) over sigma clears (-t grad l_ext, K - t l_ext(0); e_a q_a),
    K = 2 dim Y + 2, e_a = t s_a - 2 n_a (p_a(x0) + c_a) and, with t = t_n /
    t_d, e_a q_a = (t_n D0 S_a - t_d E_a) / (t_d s_d D0) (_offset_terms).
    So a point costs one integer dot per factor and one Fraction.  The
    point's errors are condition_value_fano's: ValueError for a wrong length
    (checked here, as the dots would truncate), then NonpositiveWeight(x, a)
    for the first a with U_a <= 0.
    """
    if fib.fano_fiber is None:
        raise NotMonotoneFiber("condition_value_fano needs a monotone fiber")
    (X0, D0), t = _cleared(fib.fano_fiber[0]), fib.fano_fiber[1]
    (tn, td), forms = t.as_integer_ratio(), _offset_terms(fib.factors, X0, D0)
    m, sigma = _cleared(
        [-t * g for g in l_ext.gradient]
        + [2 * fib.total_dim + 2 - t * l_ext.constant]
        + [Fraction(tn * D0 * S - td * E, td * f.s.denominator * D0)
           for f, (_, S, E) in zip(fib.factors, forms)]
    )
    m, k = m[: l_ext.dim + 1], m[l_ext.dim + 1 :]
    terms = [(A, k_a) for (A, _, _), k_a in zip(forms, k)]

    def value(x) -> Fraction:
        x = point(x)
        if len(x) != l_ext.dim or terms and len(x) != fib.dim:
            raise ValueError("dimension mismatch evaluating AffineFunc")
        X, D = _cleared(x)
        X.append(D)
        num, den = sum(map(mul, m, X)), D
        for a, (A, k_a) in enumerate(terms):
            U = sum(map(mul, A, X))
            if U <= 0:
                raise NonpositiveWeight(x, a)
            num, den = num * U + k_a * D * den, den * U
        return Fraction(num, sigma * den)

    return value


def _fano_hypothesis_failure(fib: Fibration) -> int | None:
    """The first factor a with p_a(x0) + c_a < t s_a/(2 n_a), or None when
    the hypothesis holds for every factor; that is t_n D0 S_a > t_d E_a for
    t = t_n / t_d (_offset_terms)."""
    (X0, D0), (tn, td) = _cleared(fib.fano_fiber[0]), fib.fano_fiber[1].as_integer_ratio()
    terms = _offset_terms(fib.factors, X0, D0)
    return next((a for a, (_, S, E) in enumerate(terms) if tn * D0 * S > td * E), None)


def check_fano_fiber(fib: Fibration, max_depth: int = 6) -> StabilityReport:
    """Vertex check of the monotone-fiber condition.

    Under the hypothesis p_a(x0) + c_a >= t s_a/(2 n_a) the condition value is
    concave, so vertex nonnegativity certifies it on all of P; every vertex
    is evaluated by one _fano_evaluator.  Without the hypothesis this falls
    back to the cleared per-cone polynomials via check_general.
    """
    if fib.fano_fiber is None:
        raise NotMonotoneFiber("check_fano_fiber needs a monotone fiber")
    x0 = fib.fano_fiber[0]
    if _fano_hypothesis_failure(fib) is not None:
        report = check_fibration(fib, x0, max_depth)
        return replace(report, notes=report.notes + (("route", "general-fallback"),))
    value = _fano_evaluator(fib, extremal_affine(fib).l_ext)
    vals = tuple((vtx, value(vtx)) for vtx in fib.fiber.vertices)
    verdict, witness, margin = _vertex_verdict(vals, pos)
    return StabilityReport(
        verdict, METHOD_CONCAVE, 0, fib.convention, x0, witness, margin, vertex_values=vals
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
    bound = Fraction(2 * (fib.total_dim + 1))
    verdict, witness, margin = _vertex_verdict(vals, lambda value: bound - value)
    notes = (("sup_l_ext", str(max(value for _, value in vals))), ("bound", str(bound)))
    return StabilityReport(
        verdict, METHOD_AFFINE, 0, fib.convention, fib.fano_fiber[0], witness, margin,
        vertex_values=vals, notes=notes,
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
    value_at_hi: Fraction  # min vertex condition value at c_hi
    per_vertex: tuple
    convention: Convention
    floor: Fraction  # = c_lo
    tol: Fraction


def _check_template(
    fib_lo: Fibration, fib: Fibration, offsets, c_lo: Fraction, c: Fraction
) -> None:
    """ValueError unless fib differs from fib_lo only in its factor offsets,
    each at its value c_a(c_lo) + Delta_a (c - c_lo), offsets[a] =
    (c_a(c_lo), Delta_a)."""
    if (
        fib.fiber.labels != fib_lo.fiber.labels
        or fib.convention is not fib_lo.convention
        or len(fib.factors) != len(fib_lo.factors)
    ):
        raise ValueError(f"make_fib changed the fiber, convention or factors at c = {c}")
    for a, (f, g, (c_a, d)) in enumerate(zip(fib.factors, fib_lo.factors, offsets)):
        if (f.n, f.s, f.p) != (g.n, g.s, g.p):
            raise ValueError(f"make_fib changed factor {a}'s n, s or p at c = {c}")
        if f.c != c_a + d * (c - c_lo):
            raise ValueError(f"make_fib: factor {a}'s offset is not affine in c at c = {c}")


def _system_over_c(fib_lo: Fibration, offsets, c_lo: Fraction):
    """(v, w_base, M, b, L): v(x, c) and w_base(x, c), c the last variable,
    as _build_weights gives them on the forms p_a + c_a(0) + Delta_a c at
    the vertices lifted to (x, c_lo); M(c) and b(c) on fib_lo's fiber,
    integer polynomials in c over L.  The c^m terms of v and w_base, built
    on their integers over v's and w_base's own denominators, give
    _moment_system's M_m / den_m and b_m / den_m, and L = lcm of the den_m."""
    P = fib_lo.fiber
    forms = [replace(f, c=c_a - d * c_lo, p=AffineFunc((*f.p.gradient, d), 0))
             for f, (c_a, d) in zip(fib_lo.factors, offsets)]
    v, w_base = _build_weights([(*x, c_lo) for x in P.vertices], forms)
    (V, dv), (W, dw) = v.cleared(), w_base.cleared()

    def power(G: dict, d: int, m: int) -> Polynomial:  # the c^m terms of G / d
        return Polynomial._from_cleared(P.dim, {e[:-1]: x for e, x in G.items() if e[-1] == m}, d)

    systems = [_moment_system(P, power(V, dv, m), power(W, dw, m), fib_lo.convention)
               for m in range(max(e[-1] for e in V) + 1)]
    L = lcm(*(den for _, _, den in systems))
    # every entry of M (row by row) and b over L, then its coefficients of c^0..c^N
    scaled = [[x * (L // den) for row in [*Ms, bs] for x in row] for Ms, bs, den in systems]
    entries = [u1._trim(e) for e in zip(*scaled)]
    n = P.dim + 1
    return v, w_base, [entries[i * n:(i + 1) * n] for i in range(n)], entries[n * n:], L


def _extremal_over_c(make_fib, fib_lo: Fibration, c_lo: Fraction):
    """The extremal solve over Q[c]: (offsets, D, cramer, sound), D and each
    cramer[i] integer polynomials in c with l_ext(c) = (cramer[0] +
    sum_i x_i cramer[i + 1]) / D wherever D(c) != 0.

    offsets[a] = (c_a(c_lo), Delta_a) with c_a(c) = c_a(c_lo) +
    Delta_a (c - c_lo), Delta_a read from c_lo and c_lo + 1 and checked up
    to c_lo + N, N = sum of n_a over the factors with Delta_a != 0.  M(c) and
    b(c) come from _system_over_c over one denominator.  D = det M(c) and
    cramer[i] = det M(c) with column i replaced by b come together from
    univariate.cramer: one fraction-free elimination of [M | b] at each
    integer node c = 0..B, then one fit per column.  The denominator scales
    D and every cramer[i] alike and cancels in l_ext.

    sound: M(c_lo) is positive definite and D has no root in [c_lo, oo);
    since det M(c) never vanishes there, no eigenvalue of the symmetric M(c)
    crosses 0, so M(c) is positive definite and Cramer's lam(c) is the
    extremal solve for every c >= c_lo.
    """
    fib_1 = make_fib(c_lo + 1)
    offsets = tuple((f.c, g.c - f.c) for f, g in zip(fib_lo.factors, fib_1.factors))
    _check_template(fib_lo, fib_1, offsets, c_lo, c_lo + 1)
    if any(d < 0 for _, d in offsets):
        raise ValueError("make_fib: a factor offset decreases in c")
    N = sum(f.n for f, (_, d) in zip(fib_lo.factors, offsets) if d)
    for k in range(2, N + 1):
        _check_template(fib_lo, make_fib(c_lo + k), offsets, c_lo, c_lo + k)
    _, _, M, b, _ = _system_over_c(fib_lo, offsets, c_lo)
    D, cramer = u1.cramer(M, b)
    if not D:
        raise SingularMomentMatrix("the moment determinant vanishes identically in c")
    q = c_lo.denominator  # M_lo = q^N L M(c_lo), a positive multiple of M(c_lo)
    M_lo = [[u1._scaled_value(e, c_lo) * q ** (N + 1 - len(e)) for e in row] for row in M]
    try:
        _assert_positive_definite(M_lo)
        sound = u1.positive_above(D, c_lo)
    except SingularMomentMatrix:
        sound = False
    return offsets, D, cramer, sound


def _fano_vertex_function(
    fib_lo: Fibration, offsets, c_lo: Fraction, D, cramer, x: Point
) -> u1.RationalFunction:
    """condition_value_fano at the fiber vertex x as an exact rational
    function of c, from the Q[c] solve (offsets, D, cramer) of
    _extremal_over_c.  Its numerator and denominator are summed on integers
    and reduced once."""
    x0, t = fib_lo.fano_fiber
    # with l_ext(x) = (C_0 + sum_i x_i C_{i+1}) / D, C = cramer: num / den =
    # (K D - t C_0 - sum_i t x_i C_{i+1}) / D, K = 2 dim Y + 2, its scalars
    # cleared over sigma, then each e_a / u_a added over a common denominator, where
    # u_a = p_a(x) + c_a(c) and e_a = t s_a - 2 n_a (p_a(x0) + c_a(c)) are
    # affine in c, cleared over one denominator that cancels in e_a / u_a
    ks, sigma = _cleared([2 * fib_lo.total_dim + 2, -t] + [-t * xi for xi in x])
    num = u1._int_sum([[k * c for c in Q] for k, Q in zip(ks, [D] + cramer)])
    den = [sigma * c for c in D]
    for f, (c_a, d) in zip(fib_lo.factors, offsets):
        at_0 = c_a - d * c_lo  # c_a(0)
        (u0, du, e0, de), _ = _cleared(
            [f.p(x) + at_0, d, t * f.s - 2 * f.n * (f.p(x0) + at_0), -2 * f.n * d]
        )
        U, E = (u0, du), (e0, de)
        num, den = u1._int_sum([u1._int_mul(num, U), u1._int_mul(den, E)]), u1._int_mul(den, U)
    return u1._reduced(num, den)


def threshold_c(
    make_fib: Callable[[Fraction], Fibration],
    c_lo,
    c_hi,
    tol=Fraction(1, 100),
) -> ThresholdResult:
    """Smallest offset threshold: for each fiber vertex, solve exactly for
    the condition value as a rational function of c, isolate the largest
    numerator root above c_lo (roots counted by Descartes' rule of signs,
    univariate), and take the supremum bracket.

    Contract on make_fib: from one c to another it changes only the factor
    offsets, each affine in c and nondecreasing, c_a(c) = c_a(c_lo) +
    Delta_a (c - c_lo) with Delta_a >= 0; the fiber, the convention and every
    n, s and p stay fixed.  It is checked at every c built (c_lo, ...,
    c_lo + N and c_hi) and a violation raises ValueError.  Under it the
    vertex functions come from one solve over Q[c] (_extremal_over_c).

    Certification means: Cramer's rule over Q[c] is the extremal solve for
    every c >= c_lo (M(c_lo) positive definite, det M(c) positive with no
    root above c_lo: the one positivity test, on D(c_lo + y)); above the
    returned bracket every vertex value is provably positive (positive
    numerator leading coefficient, no numerator root beyond it); and the direct
    pipeline value at c_hi is nonnegative.  The exact functions must equal
    the direct pipeline values at c_hi; a mismatch raises ArithmeticError.

    A vertex denominator is positive on [c_lo, oo) once D is, so it gets
    no count of its own.  Before _reduced it is sigma D prod_a kappa_a
    U_a(c) with sigma, kappa_a > 0 and U_a(c) = p_a(x) + c_a(c) =
    U_a(c_lo) + Delta_a (c - c_lo), where U_a(c_lo) > 0 at every fiber
    vertex (_build_weights raises otherwise) and Delta_a >= 0.  _reduced
    divides out a common factor and makes the leading coefficient
    positive, so the reduced denominator has no root on [c_lo, oo) and is
    positive there.  When the solve is not sound, nothing is certified.
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
    a = _fano_hypothesis_failure(fib_lo)
    if a is not None:
        raise HypothesisViolatedOnBracket(
            f"factor {a}: p(x0) + c >= t s/(2n) fails at c_lo = {c_lo}"
        )
    offsets, D, cramer, certified = _extremal_over_c(make_fib, fib_lo, c_lo)
    fib_hi = make_fib(c_hi)
    _check_template(fib_lo, fib_hi, offsets, c_lo, c_hi)
    value_hi = _fano_evaluator(fib_hi, extremal_affine(fib_hi).l_ext)
    per_vertex, at_hi = [], []
    for vtx in fib_lo.fiber.vertices:
        fn = _fano_vertex_function(fib_lo, offsets, c_lo, D, cramer, vtx)
        value = value_hi(vtx)
        if not u1._scaled_value(fn.den, c_hi) or fn(c_hi) != value:
            raise ArithmeticError(
                f"exact condition value at vertex {format_point(vtx)} disagrees with the "
                f"direct value {value} at c_hi = {c_hi}"
            )
        # the zero numerator () needs no branch: no roots, tail positive, degree -1
        num = fn.num
        roots = u1.isolate_roots(num, c_lo, max(c_hi, u1.cauchy_root_bound(num)) + 1, tol)
        top = roots[-1] if roots else u1.RootLocation(c_lo, c_lo, c_lo)
        entry = VertexThreshold(
            vtx, top.low, top.high, top.exact, "root" if roots else "floor",
            not num or num[-1] > 0, u1.degree(num), u1.degree(fn.den),
        )
        per_vertex.append(entry)
        at_hi.append(value)
        certified = certified and entry.tail_positive
    sup_low = max(e.low for e in per_vertex)
    sup_high = max(e.high for e in per_vertex)
    exact = sup_low if sup_low == sup_high else None
    value_at_hi = min(at_hi)
    certified = certified and value_at_hi >= 0
    return ThresholdResult(
        low=sup_low,
        high=sup_high,
        exact=exact,
        certified=certified,
        value_at_hi=value_at_hi,
        per_vertex=tuple(per_vertex),
        convention=fib_lo.convention,
        floor=c_lo,
        tol=tol,
    )
