import itertools
import math
import operator
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import hexagon, interval, square, triangle
from _reference_fraction import (
    concave_cone_indices_fraction, cone_conditions_fraction, reconstruct_rational,
)
from wkstab import (
    AffineFunc,
    Convention,
    FutakiNotVanishing,
    LabelledPolytope,
    NonpositiveWeight,
    NotFanoFibration,
    NotInterior,
    NotMonotoneFiber,
    Polynomial,
    VERDICT_CERTIFIED,
    VERDICT_FAILS,
    base_factor,
    certify_nonnegative,
    check_fano_fiber,
    check_fano_total,
    check_fibration,
    check_general,
    condition_poly_general,
    condition_value_fano,
    default_base_point,
    extremal_affine,
    fano_anticanonical,
    fibration,
    from_halfspaces,
    projective_bundle,
    stability_weight,
    threshold_c,
)
from wkstab import exact, futaki, stability
from wkstab.exact import det as exact_det
from wkstab import univariate as u1
from _reference_fraction import evaluate
from wkstab.stability import (
    HypothesisViolatedOnBracket,
    METHOD_AFFINE,
    METHOD_BERNSTEIN,
    METHOD_CONCAVE,
    base_point_candidates,
    concave_cone_indices,
)
from wkstab.polytope import cone_decomposition
from _frozen import (
    COND_TRI_CANONICAL,
    COND_TRI_LEGACY,
    FANO_TOTAL_LEXT_C,
    FANO_TOTAL_LEXT_G1,
    FANO_TOTAL_LEXT_G2,
    FANO_TOTAL_SUP,
    FANO_TOTAL_WITNESS,
    RANK_ONE_COND_MINUS,
    RANK_ONE_COND_PLUS,
    RANK_ONE_REFUTED_MINUS,
    RANK_ONE_REFUTED_PLUS,
    THRESHOLD_CANONICAL_S18,
    THRESHOLD_CANONICAL_S24,
)


def rank_one(p=1, c=15, convention=Convention.CANONICAL):
    return projective_bundle([[p]], [(3, -6)], [c], t=1, convention=convention)


def min_cone_condition(fib, x0, pt):
    """min over the facets j of g_j(pt), through condition_poly_general."""
    w = stability_weight(fib)
    gs = [condition_poly_general(fib.fiber, x0, j, fib.v, w) for j in range(len(fib.fiber.labels))]
    return min(g(pt) for g in gs)


def tri_family(c, s=18, p=(1, 2), convention=Convention.CANONICAL):
    return projective_bundle([list(p)], [(3, s)], [c], t=1, convention=convention)


def test_condition_poly_interval_reduction():
    # v = 1 on [-1,1]: the cone inequality over facet j is 2/L_j(x0) - w/2,
    # i.e. w <= 4/L_j(x0) on the half-interval
    P = interval()
    v = Polynomial.constant(1, 1)
    w = Polynomial.constant(1, 3)
    x0 = (F(1, 3),)
    for j in range(2):
        g = condition_poly_general(P, x0, j, v, w)
        Lj0 = P.labels[j](x0)
        assert g == Polynomial.constant(1, 2 / Lj0 - F(3, 2))


def test_condition_value_fano_frozen_both_conventions():
    for conv, want in (
        (Convention.CANONICAL, COND_TRI_CANONICAL),
        (Convention.LEGACY, COND_TRI_LEGACY),
    ):
        fib = tri_family(c=12, convention=conv)
        sol = extremal_affine(fib)
        assert condition_value_fano(fib, sol.l_ext, (F(-1), F(-1))) == want


def test_condition_value_matches_cleared_polynomial():
    # phi = 2 t g_j / v at any point of the cone over facet j
    fib = tri_family(c=12)
    sol = extremal_affine(fib)
    from wkstab import stability_weight

    w = stability_weight(fib, sol.l_ext)
    x0, t = fib.fano_fiber
    for j, vtx_pair in ((0, (F(2), F(-1))), (1, (F(-1), F(2)))):
        g = condition_poly_general(fib.fiber, x0, j, fib.v, w)
        for x in (vtx_pair, (F(0), F(-1, 2))):
            assert condition_value_fano(fib, sol.l_ext, x) == 2 * t * g(x) / fib.v(x)


def test_check_fano_fiber_frozen_vertex_values():
    report = check_fano_fiber(rank_one())
    assert report.verdict == VERDICT_CERTIFIED
    vals = dict(report.vertex_values)
    assert vals[(F(1),)] == RANK_ONE_COND_PLUS
    assert vals[(F(-1),)] == RANK_ONE_COND_MINUS
    assert report.margin == min(RANK_ONE_COND_PLUS, RANK_ONE_COND_MINUS)


def test_check_fano_fiber_refutes_with_witness():
    report = check_fano_fiber(rank_one(c=F(11, 10)))
    assert report.verdict == VERDICT_FAILS
    vals = dict(report.vertex_values)
    assert vals[(F(1),)] == RANK_ONE_REFUTED_PLUS
    assert vals[(F(-1),)] == RANK_ONE_REFUTED_MINUS
    pt, val = report.witness
    assert val == min(RANK_ONE_REFUTED_PLUS, RANK_ONE_REFUTED_MINUS)
    assert val < 0


def test_check_fibration_certifies_rank_one():
    report = check_fibration(rank_one())
    assert report.certified
    assert report.method in (METHOD_AFFINE, METHOD_CONCAVE)
    assert report.x0 == (F(0),)
    assert report.margin > 0


@pytest.mark.parametrize(
    "s, c, verdict, witness",
    [(10, 2, VERDICT_CERTIFIED, None), (20, F(11, 10), VERDICT_FAILS, ((F(0),), F(-4907, 2630)))],
    ids=["certified", "refuted"],
)
def test_check_general_bernstein_route(s, c, verdict, witness):
    # hypothesis c >= t s / (2 n) fails (2 < 5, 11/10 < 10): no concavity
    # certificate, the Bernstein route must decide
    fib = projective_bundle([[1]], [(1, s)], [c], t=1)
    assert concave_cone_indices(fib, (F(0),)) != frozenset({0, 1})
    report = check_fibration(fib)
    assert report.method == METHOD_BERNSTEIN
    assert (report.verdict, report.witness, report.depth) == (verdict, witness, 0)
    if witness is not None:
        pt, val = witness
        assert min_cone_condition(fib, report.x0, pt) == val < 0


def test_check_fibration_vertex_concave_refutes():
    fib = rank_one(c=F(11, 10))
    report = check_fibration(fib)
    assert (report.verdict, report.method) == (VERDICT_FAILS, METHOD_CONCAVE)
    pt, val = report.witness
    assert pt in fib.fiber.vertices and min_cone_condition(fib, report.x0, pt) == val < 0


def test_check_fibration_affine_vertex_certifies():
    report = check_fibration(fano_anticanonical(triangle(), [(3, 2, None)]))
    assert (report.verdict, report.method, report.margin) == (VERDICT_CERTIFIED, METHOD_AFFINE, 8)


def test_check_fano_fiber_fallback_route_notes():
    fib = projective_bundle([[1]], [(1, 10)], [2], t=1)
    report = check_fano_fiber(fib)
    assert ("route", "general-fallback") in report.notes


def test_concave_cone_indices_all_when_untwisted_fano():
    fib = fano_anticanonical(triangle(), [(3, 2, None)])
    x0 = (F(0), F(0))
    assert concave_cone_indices(fib, x0) == frozenset({0, 1, 2})


def test_default_base_point_and_candidates():
    assert default_base_point(triangle()) == (F(0), F(0))
    sq = square()
    cands = base_point_candidates(sq)
    assert (F(0), F(0)) in cands
    assert all(sq.is_interior(c) for c in cands)
    assert len(set(cands)) == len(cands)


def test_check_fano_total_frozen_failure():
    fib = tri_family(c=4, s=24)
    report = check_fano_total(fib)
    sol = extremal_affine(fib)
    assert sol.l_ext.gradient == (FANO_TOTAL_LEXT_G1, FANO_TOTAL_LEXT_G2)
    assert sol.l_ext.constant == FANO_TOTAL_LEXT_C
    assert report.verdict == VERDICT_FAILS
    pt, val = report.witness
    assert pt == FANO_TOTAL_WITNESS
    assert val == FANO_TOTAL_SUP
    assert dict(report.notes)["bound"] == "12"


def test_check_fano_total_certifies_untwisted():
    fib = fano_anticanonical(triangle(), [(3, 1, None)])
    report = check_fano_total(fib)
    assert report.certified
    # constant l_ext = 2 dim Y = 10, bound 12: margin 2
    assert report.margin == 2


def test_check_fano_total_rejects_non_anticanonical():
    with pytest.raises(NotFanoFibration):
        check_fano_total(tri_family(c=12, s=18))  # s != 2 n c
    with pytest.raises(NotFanoFibration):
        check_fano_total(
            projective_bundle([[0]], [(3, 12)], [2], t=F(2))
        )  # scale 2 fiber


def _first_of_the_tied(vals, worst):
    tied = [vtx for vtx, val in vals if val == worst]
    assert len(tied) == 2
    return tied[0]


def test_affine_route_witness_is_the_first_tied_vertex():
    # w = 8 - 2 L_0: on the cone over facet 0, g = 3 - w/2 is -1 at both
    # facet vertices and 0 at x0
    P, x0 = triangle(), (F(0), F(0))
    v = Polynomial.constant(2, 1)
    w = Polynomial.constant(2, 8) - P.labels[0].to_polynomial() * 2
    report = check_general(P, x0, v, w, convention=Convention.LEGACY)
    assert (report.verdict, report.method) == (VERDICT_FAILS, METHOD_AFFINE)
    first = report.per_cone[0]
    g = condition_poly_general(P, x0, 0, v, w)
    cell = cone_decomposition(P, x0).cones[0][0]
    vals = [(vtx, g(vtx)) for vtx in cell.vertices]
    assert report.witness == first.witness == (_first_of_the_tied(vals, F(-1)), F(-1))


def test_fano_fiber_witness_is_the_first_tied_vertex():
    # the twist p = (1, 1) is symmetric in x1 <-> x2: (-1, 2) and (2, -1) tie
    report = check_fano_fiber(projective_bundle([[1, 1]], [(3, 12)], [F(9, 4)], t=1))
    assert report.verdict == VERDICT_FAILS and ("route", "general-fallback") not in report.notes
    worst = min(val for _, val in report.vertex_values)
    assert report.witness == (_first_of_the_tied(report.vertex_values, worst), worst)


def test_fano_total_witness_is_the_first_tied_vertex():
    report = check_fano_total(projective_bundle([[1, 1]], [(3, 15)], [F(5, 2)], t=1))
    assert report.verdict == VERDICT_FAILS
    top = max(val for _, val in report.vertex_values)
    assert report.witness == (_first_of_the_tied(report.vertex_values, top), top)
    assert dict(report.notes)["sup_l_ext"] == str(top)


@pytest.mark.parametrize(
    "fib, route",
    [(rank_one(), None), (projective_bundle([[1]], [(1, 10)], [2], t=1), "general-fallback")],
    ids=["vertex", "fallback"],
)
def test_check_fano_fiber_solves_once(monkeypatch, fib, route):
    calls = []
    real = futaki.extremal_affine

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(stability, "extremal_affine", counting)
    monkeypatch.setattr(futaki, "extremal_affine", counting)
    report = check_fano_fiber(fib)
    assert dict(report.notes).get("route") == route
    assert len(calls) == 1


def test_threshold_canonical_bracket_contains_root():
    res = threshold_c(lambda c: tri_family(c, s=24), F(4), F(9), tol=F(1, 100))
    assert res.certified
    assert res.low <= THRESHOLD_CANONICAL_S24 <= res.high
    assert res.high - res.low <= F(1, 100)
    assert res.value_at_hi >= 0
    kinds = {v.kind for v in res.per_vertex}
    assert kinds == {"root", "floor"}
    root_entries = [v for v in res.per_vertex if v.kind == "root"]
    assert len(root_entries) == 1
    assert root_entries[0].vertex == (F(-1), F(2))


@pytest.mark.parametrize("convention", list(Convention))
def test_threshold_brackets_and_values_are_fractions(convention):
    # the integer kernels must never hand back a float (int / int)
    res = threshold_c(lambda c: tri_family(c, s=24, convention=convention), F(4), F(9))
    ends = [res.low, res.high, res.value_at_hi, res.floor, res.tol]
    for e in res.per_vertex:
        ends += [e.low, e.high] + ([] if e.exact is None else [e.exact])
    assert all(type(x) is F for x in ends + ([] if res.exact is None else [res.exact]))


def test_threshold_floor_when_no_roots_above_lo():
    # legacy numerators have no roots above the floor: bracket collapses
    res = threshold_c(
        lambda c: tri_family(c, s=24, convention=Convention.LEGACY),
        F(4),
        F(9),
        tol=F(1, 100),
    )
    assert res.low == res.high == res.exact == F(4)
    assert all(v.kind == "floor" for v in res.per_vertex)
    assert res.floor == F(4)


def test_threshold_hypothesis_violated_on_bracket():
    with pytest.raises(HypothesisViolatedOnBracket):
        # c_lo = 1 < t s/(2n) = 4 violates the vertex-route hypothesis
        threshold_c(lambda c: tri_family(c, s=24), F(7, 2), F(9))
    with pytest.raises(HypothesisViolatedOnBracket):
        # c_lo = 1/2: p + c not positive on the fiber
        threshold_c(lambda c: tri_family(c, s=24), F(1, 2), F(9))


def test_threshold_rejects_nonpositive_tol_before_sampling():
    built = []

    def make(c):
        built.append(c)
        return tri_family(c, s=24)

    for tol in (F(0), F(-1, 100)):
        with pytest.raises(ValueError, match="tol must be positive"):
            threshold_c(make, F(4), F(9), tol=tol)
    assert built == []


def test_threshold_rejects_non_monotone():
    rect = from_halfspaces(
        [
            AffineFunc([1, 0], 1),
            AffineFunc([-1, 0], 1),
            AffineFunc([0, 1], 2),
            AffineFunc([0, -1], 2),
        ]
    )

    def make(c):
        return fibration(rect, [base_factor(3, 12, c, None, 2)])

    with pytest.raises(NotMonotoneFiber):
        threshold_c(make, F(4), F(9))


def test_condition_value_fano_requires_positive_factor():
    from wkstab import NonpositiveWeight

    fib = rank_one()
    sol = extremal_affine(fib)
    with pytest.raises(NonpositiveWeight):
        condition_value_fano(fib, sol.l_ext, (F(-20),))


def test_condition_value_fano_rejects_a_point_of_the_wrong_length():
    fib = projective_bundle([[1, 2]], [(3, 24)], [4], t=1)
    l_ext = extremal_affine(fib).l_ext
    for x in ((F(0),), (F(0), F(0), F(0))):
        with pytest.raises(ValueError, match="dimension mismatch evaluating AffineFunc"):
            condition_value_fano(fib, l_ext, x)


def test_x0_sweep_candidates_agree_on_certified_instance():
    fib = rank_one()
    for x0 in base_point_candidates(fib.fiber):
        assert check_fibration(fib, x0=x0).certified


# ------------------------------------------------- threshold: exact solve over Q[c]


def _triangle_twists(base):
    # a twist p on the triangle is fixed by its values at the three vertices
    # (they sum to 0); the fiber's symmetries permute those values
    verts = triangle().vertices
    p = AffineFunc(list(base), 0)
    values = [p(v) for v in verts]
    out = set()
    for a, b, _ in itertools.permutations(values):
        p1 = (b - a) / 3  # a = p(-1, -1), b = p(2, -1)
        out.add((p1, -a - p1))
    return sorted(out)


TRIANGLE_TWISTS = _triangle_twists((1, 2)) + _triangle_twists((2, 4))


def _c_floor(make_fib):
    """The smallest positive integer c at which make_fib builds and the Fano
    hypothesis holds (offsets grow with c, so every larger c works too)."""
    for c in itertools.count(1):
        try:
            fib = make_fib(F(c))
        except NonpositiveWeight:
            continue
        x0, t = fib.fano_fiber
        if all(f.p(x0) + f.c >= t * f.s / (2 * f.n) for f in fib.factors):
            return F(c)


def _oracle_functions(make_fib, c_lo, c_hi):
    """The sampled reconstruction threshold_c used before the exact solve."""
    verts = make_fib(c_lo).fiber.vertices
    rows = {}

    def row(c):
        if c not in rows:
            fib = make_fib(c)
            l_ext = extremal_affine(fib).l_ext
            rows[c] = [condition_value_fano(fib, l_ext, v) for v in verts]
        return rows[c]

    return [
        reconstruct_rational(lambda c, i=i: row(c)[i], start=c_hi + 1)
        for i in range(len(verts))
    ]


def _monic_pair(fn):
    """num/den, integer or Fraction, scaled to a monic den."""
    lead = F(fn.den[-1])
    return tuple(c / lead for c in fn.num), tuple(c / lead for c in fn.den)


def _assert_matches_oracle(make_fib):
    c_lo = _c_floor(make_fib)
    fib_lo = make_fib(c_lo)
    offsets, D, cramer, sound = stability._extremal_over_c(make_fib, fib_lo, c_lo)
    assert sound
    functions = [
        stability._fano_vertex_function(fib_lo, offsets, c_lo, D, cramer, x)
        for x in fib_lo.fiber.vertices
    ]
    oracle = _oracle_functions(make_fib, c_lo, c_lo + 5)
    assert [_monic_pair(f) for f in functions] == [_monic_pair(f) for f in oracle]


@settings(max_examples=8, deadline=None)
@given(
    st.sampled_from(TRIANGLE_TWISTS),
    st.integers(12, 36),
    st.sampled_from(list(Convention)),
)
def test_exact_vertex_functions_match_sampled_oracle_on_triangle(p, s, convention):
    _assert_matches_oracle(lambda c: tri_family(c, s=s, p=p, convention=convention))


# the triangle moved by (1, 0): monotone point x0 = (1, 0), so p(x0) != 0
SHIFTED_TRIANGLE = from_halfspaces(
    [AffineFunc([1, 0], 0), AffineFunc([0, 1], 1), AffineFunc([-1, -1], 2)]
)


TEMPLATES = [
    lambda c: fibration(SHIFTED_TRIANGLE, [base_factor(3, 24, c, [1, 2], 2)]),
    # the interval, both conventions
    lambda c: projective_bundle([[1]], [(3, 24)], [c], t=1),
    lambda c: projective_bundle([[2]], [(2, 12)], [c], t=1, convention=Convention.LEGACY),
    # the 3-simplex
    lambda c: projective_bundle([[1, 2, 0]], [(3, 24)], [c], t=1),
    # two factors: a fixed offset beside the moving one, and both moving
    # at different rates (N = n_1 + n_2)
    lambda c: projective_bundle([[0, 1], [1, 2]], [(1, 4), (3, 24)], [3, c], t=1),
    lambda c: projective_bundle([[0, 1], [1, 2]], [(1, 4), (1, 6)], [c, 2 * c - 3], t=1),
]
TEMPLATE_IDS = [
    "shifted-triangle", "interval", "interval-legacy", "3-simplex",
    "fixed-and-moving", "two-moving",
]


def _at_c(p, c):
    """p(x, c) with c, its last variable, set to the given value, for p a
    weight in (x, c) of _system_over_c."""
    terms = {}
    for e, x in p.terms.items():
        terms[e[:-1]] = terms.get(e[:-1], 0) + x * c ** e[-1]
    return Polynomial(p.dim - 1, terms)


def _assert_record_is_the_family(make_fib, steps):
    # the weights in (x, c) and the moment system read off them, against
    # make_fib(c) built directly, at c = c_lo + step
    c_lo = _c_floor(make_fib)
    fib_lo, fib_1 = make_fib(c_lo), make_fib(c_lo + 1)
    offsets = tuple((f.c, g.c - f.c) for f, g in zip(fib_lo.factors, fib_1.factors))
    v, w_base, M, b, L = stability._system_over_c(fib_lo, offsets, c_lo)
    for c in (c_lo + step for step in steps):
        fib = make_fib(c)
        assert (_at_c(v, c), _at_c(w_base, c)) == (fib.v, fib.w_base)
        Mc, bc, den = futaki._moment_system(fib.fiber, fib.v, fib.w_base, fib.convention)
        assert [[evaluate(e, c) / L for e in row] for row in M] == [
            [F(x, den) for x in row] for row in Mc
        ]
        assert [evaluate(e, c) / L for e in b] == [F(x, den) for x in bc]


# rational steps above c_lo that are not integers, up to past c_lo + N
OFF_NODE_STEPS = st.lists(
    st.fractions(0, 9, max_denominator=12).filter(lambda x: x.denominator > 1),
    min_size=1, max_size=3,
)


@pytest.mark.parametrize("make_fib", TEMPLATES, ids=TEMPLATE_IDS)
@settings(max_examples=10, deadline=None)
@given(OFF_NODE_STEPS)
@example([F(1, 3), F(29, 3)])
def test_weights_and_system_in_c_are_the_family(make_fib, steps):
    _assert_record_is_the_family(make_fib, steps)


@settings(max_examples=30, deadline=None)
@given(
    st.tuples(*[st.fractions(-3, 3, max_denominator=4)] * 2),
    st.integers(12, 36),
    st.sampled_from(list(Convention)),
    OFF_NODE_STEPS,
)
@example((F(1), F(2)), 24, Convention.LEGACY, [F(29, 3)])
def test_weights_and_system_in_c_are_the_family_on_triangle_twists(p, s, convention, steps):
    _assert_record_is_the_family(lambda c: tri_family(c, s=s, p=p, convention=convention), steps)


@pytest.mark.parametrize("make_fib", TEMPLATES, ids=TEMPLATE_IDS)
def test_exact_vertex_functions_match_sampled_oracle(make_fib):
    _assert_matches_oracle(make_fib)


@pytest.mark.parametrize("make_fib", TEMPLATES, ids=TEMPLATE_IDS)
def test_extremal_over_c_is_the_cramer_solve_of_l_ext(make_fib):
    # the Q[c] solve alone, with no vertex condition: (cramer[0] +
    # sum_i x_i cramer[i + 1]) / D is l_ext at c_lo, off the integer nodes,
    # and beyond the last interpolation node c_lo + N
    c_lo = _c_floor(make_fib)
    fib_lo = make_fib(c_lo)
    offsets, D, cramer, sound = stability._extremal_over_c(make_fib, fib_lo, c_lo)
    assert sound and len(cramer) == fib_lo.fiber.dim + 1
    N = sum(f.n for f, (_, d) in zip(fib_lo.factors, offsets) if d)
    for c in (c_lo, c_lo + F(1, 3), c_lo + N + F(5, 2)):
        l_ext = extremal_affine(make_fib(c)).l_ext
        lam = [evaluate(C, c) / evaluate(D, c) for C in cramer]
        assert AffineFunc(lam[1:], lam[0]) == l_ext


# D and cramer of the canonical s = 24 triangle family at c_lo = 4, as the
# separate univariate.det of each matrix gave them
S24_D = (0, -103097241168768, 0, 6248317646592, 0, 45560649506400, 0, 2362404048480, 0,
         2187411156000)
S24_CRAMER = [
    (-299919247036416, -912254376402432, 120800807834112, -373510543762944,
     696571708008960, 68847203698560, 135444498779520, -69297185422080, 52497867744000,
     8749644624000),
    (-524858682313728, -43738223526144, -466541050945536, -60747532675200, 627724504310400,
     29698793752320, 37798464775680, -5249786774400, 26248933872000),
    (0, -1224670258732032, 524858682313728, -388784209121280, 542677958565120,
     18899232387840, 201591812136960, -104995735488000, 52497867744000),
]


def test_extremal_over_c_keeps_d_and_cramer_of_the_s24_template():
    make_fib = lambda c: tri_family(c, s=24)
    offsets, D, cramer, sound = stability._extremal_over_c(make_fib, make_fib(F(4)), F(4))
    assert offsets == ((F(4), F(1)),) and sound
    assert D == S24_D and cramer == S24_CRAMER


def test_threshold_solves_once_and_builds_no_system_per_node(monkeypatch):
    solves, systems = [], []
    real_solve, real_system = futaki.solve_extremal, stability._moment_system

    def counting_solve(*args):
        solves.append(args)
        return real_solve(*args)

    def counting_system(*args):
        systems.append(args)
        return real_system(*args)

    monkeypatch.setattr(futaki, "solve_extremal", counting_solve)
    monkeypatch.setattr(stability, "_moment_system", counting_system)
    res = threshold_c(lambda c: tri_family(c, s=24), F(4), F(9), tol=F(1, 100))
    assert res.certified and res.low <= THRESHOLD_CANONICAL_S24 <= res.high
    # one direct solve, at c_hi; the N + 1 = n + 1 = 4 systems are the
    # c^0, ..., c^3 coefficients of v(x, c) on one fiber, and none is built
    # from the weights of make_fib(c) at c = 4, ..., 7
    # (the solves and systems read Polynomials built on the integer weights)
    assert len(solves) == 1 and solves[0][1].cleared() == tri_family(F(9), s=24).v.cleared()
    assert len(systems) == 4 and all(args[0] is systems[0][0] for args in systems)
    nodes = [tri_family(F(c), s=24).v for c in range(4, 8)]
    assert not any(args[1] in nodes for args in systems)
    for c in (F(9, 2), F(11)):
        v = sum((args[1] * c**m for m, args in enumerate(systems)), Polynomial.zero(2))
        assert v == tri_family(c, s=24).v


@pytest.mark.parametrize(
    "make_fib, c_lo, match",
    [
        # quadratic offset: affine through c = 4, 5, wrong at c = 6
        (lambda c: tri_family(c + (c - 4) * (c - 5) / 2, s=24), 4, "not affine in c at c = 6"),
        # s changes between the interpolation nodes and c_hi
        (lambda c: tri_family(c, s=24 if c < 9 else 18), 4, "n, s or p at c = 9"),
        # offset decreasing in c
        (lambda c: tri_family(16 - c, s=24), 8, "decreases"),
    ],
    ids=["quadratic-offset", "changed-s", "negative-delta"],
)
def test_threshold_rejects_a_template_outside_the_affine_contract(make_fib, c_lo, match):
    with pytest.raises(ValueError, match=match):
        threshold_c(make_fib, F(c_lo), F(9))


def test_threshold_raises_when_an_exact_function_disagrees_at_c_hi(monkeypatch):
    real = stability._fano_vertex_function
    verts = tri_family(F(4), s=24).fiber.vertices

    def off_by_one(*args):
        f = real(*args)
        if args[-1] != verts[1]:
            return f
        n = max(len(f.num), len(f.den))
        num = [sum(p[i] for p in (f.num, f.den) if i < len(p)) for i in range(n)]
        return u1.RationalFunction(tuple(num), f.den)  # f + 1

    monkeypatch.setattr(stability, "_fano_vertex_function", off_by_one)
    with pytest.raises(ArithmeticError, match="disagrees"):
        threshold_c(lambda c: tri_family(c, s=24), F(4), F(9))


def test_threshold_certified_needs_a_positive_definite_moment_matrix(monkeypatch):
    def not_definite(M):
        raise futaki.SingularMomentMatrix("moment matrix is not positive definite")

    good = threshold_c(lambda c: tri_family(c, s=24), F(4), F(9))
    monkeypatch.setattr(stability, "_assert_positive_definite", not_definite)
    res = threshold_c(lambda c: tri_family(c, s=24), F(4), F(9))
    assert good.certified and not res.certified
    assert (res.low, res.high, res.per_vertex) == (good.low, good.high, good.per_vertex)


def test_threshold_certified_needs_det_m_positive_above_c_lo(monkeypatch):
    # the first positivity test threshold_c runs is on D = det M(c); make it fail
    tested = []
    real = u1.positive_above

    def det_fails(p, lo):
        tested.append(p)
        return len(tested) > 1 and real(p, lo)

    monkeypatch.setattr(u1, "positive_above", det_fails)
    res = threshold_c(lambda c: tri_family(c, s=24), F(4), F(9))
    assert not res.certified
    assert len(tested) == 1  # D only: a vertex denominator's sign follows from it
    # D is det M(c) times one positive constant
    scales = set()
    for c in (F(4), F(9, 2), F(11)):
        M = futaki.extremal_affine(tri_family(c, s=24)).moment_matrix
        scales.add(evaluate(tested[0], c) / exact_det(M))
    assert len(scales) == 1 and scales.pop() > 0


@pytest.mark.parametrize("s, c_hi, want", [(24, F(9), THRESHOLD_CANONICAL_S24),
                                           (18, F(10), THRESHOLD_CANONICAL_S18)])
def test_threshold_counts_the_c07b_roots_without_a_sturm_sequence(monkeypatch, s, c_hi, want):
    # Descartes' bound decides det M(c) above c_lo and every vertex numerator:
    # no squarefree part is built and no root is counted by bisection
    calls = []
    real = u1._squarefree

    def counting(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(u1, "_squarefree", counting)
    res = threshold_c(lambda c: tri_family(c, s=s), F(4), c_hi, tol=F(1, 100))
    assert res.certified and res.low <= want <= res.high
    assert calls == []


def _assert_vertex_denominators_positive(make_fib, step):
    # threshold_c counts no root of a vertex denominator: whenever the
    # Q[c] solve is sound, each one is positive on [c_lo, oo) already
    c_lo = _c_floor(make_fib) + step
    fib_lo = make_fib(c_lo)
    offsets, D, cramer, sound = stability._extremal_over_c(make_fib, fib_lo, c_lo)
    if sound:
        for x in fib_lo.fiber.vertices:
            fn = stability._fano_vertex_function(fib_lo, offsets, c_lo, D, cramer, x)
            assert u1.positive_above(fn.den, c_lo)


STEPS_ABOVE_FLOOR = st.fractions(0, 12, max_denominator=9)


@pytest.mark.parametrize("make_fib", TEMPLATES, ids=TEMPLATE_IDS)
@settings(max_examples=8, deadline=None)
@given(STEPS_ABOVE_FLOOR)
@example(F(0))
def test_vertex_denominators_are_positive_above_c_lo_when_sound(make_fib, step):
    _assert_vertex_denominators_positive(make_fib, step)


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(TRIANGLE_TWISTS),
    st.integers(12, 36),
    st.sampled_from(list(Convention)),
    STEPS_ABOVE_FLOOR,
)
def test_vertex_denominators_are_positive_above_c_lo_on_triangle_twists(p, s, convention, step):
    _assert_vertex_denominators_positive(
        lambda c: tri_family(c, s=s, p=p, convention=convention), step
    )


def rational_quad():
    return from_halfspaces([
        AffineFunc([2, 0], 1), AffineFunc([0, 3], 2),
        AffineFunc([-1, -1], F(3, 2)), AffineFunc([1, -2], 3),
    ])


CONE_POLYTOPES = [
    interval(), interval(F(1, 2)), triangle(), triangle(F(2)), square(), hexagon(),
    rational_quad(),
]
COEFF = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@st.composite
def cone_cases(draw):
    """(P, x0, v, w, fib): a rational interior x0 with denominators up to 7,
    and random weights (fib None) or a fibration's v and stability weight
    under either convention."""
    P = draw(st.sampled_from(CONE_POLYTOPES))
    q = draw(st.integers(1, 7))
    box = [(math.floor(min(x) * q) + 1, math.ceil(max(x) * q) - 1) for x in zip(*P.vertices)]
    x0 = draw(st.tuples(*[
        st.integers(lo, max(lo, hi)).map(lambda k: F(k, q)) for lo, hi in box
    ]).filter(P.is_interior))
    if draw(st.booleans()):
        exponents = st.tuples(*[st.integers(0, 2)] * P.dim)
        v, w = (Polynomial(P.dim, draw(st.dictionaries(exponents, COEFF, max_size=4)))
                for _ in range(2))
        return P, x0, v, w, None
    factors = []
    for _ in range(draw(st.integers(1, 2))):
        p = draw(st.lists(COEFF, min_size=P.dim, max_size=P.dim))
        c = 1 + max(-sum(map(operator.mul, p, vtx)) for vtx in P.vertices) + abs(draw(COEFF))
        factors.append(base_factor(draw(st.integers(1, 3)), draw(COEFF) * 8, c, p, P.dim))
    fib = fibration(P, factors, draw(st.sampled_from(list(Convention))))
    return P, x0, fib.v, stability_weight(fib), fib


@settings(max_examples=80, deadline=None)
@given(cone_cases())
def test_integer_cone_conditions_match_the_fraction_reference(case):
    # each (G_j, S_j) is g_j over a positive denominator, with its true
    # degree, and the concave cones are the Fraction test's
    P, x0, v, w, fib = case
    want = cone_conditions_fraction(P, x0, v, w)
    got = stability._cone_conditions(P, x0, v, w)
    assert len(got) == len(want) == P.n_facets
    for j, ((G, S), g) in enumerate(zip(got, want)):
        assert S > 0 and all(G.values())
        assert Polynomial(P.dim, {a: F(c, S) for a, c in G.items()}) == g
        assert max(map(sum, G), default=-1) == g.degree()
        assert condition_poly_general(P, x0, j, v, w) == g
    if fib is not None:
        assert concave_cone_indices(fib, x0) == concave_cone_indices_fraction(fib, x0)


@settings(max_examples=30, deadline=None)
@given(cone_cases())
def test_general_route_outcomes_match_the_fraction_cone_conditions(case):
    # every cell outcome of check_general, as certify_nonnegative or the
    # vertex values give it on the Fraction g_j
    P, x0, v, w, fib = case
    concave = frozenset() if fib is None else concave_cone_indices(fib, x0)
    report = check_general(P, x0, v, w, convention=Convention.LEGACY, max_depth=2,
                           concave_cones=concave)
    gs = cone_conditions_fraction(P, x0, v, w)
    cells = [(j, ci, cell) for j, cone in enumerate(cone_decomposition(P, x0).cones)
             for ci, cell in enumerate(cone)]
    assert len(report.per_cone) == len(cells)
    for out, (j, ci, cell) in zip(report.per_cone, cells):
        g = gs[j]
        assert (out.facet, out.cell) == (j, ci)
        if g.degree() <= 1 or j in concave:
            assert out.method == (METHOD_AFFINE if g.degree() <= 1 else METHOD_CONCAVE)
            vals = [(vtx, g(vtx)) for vtx in cell.vertices]
            worst = min(vals, key=lambda pair: pair[1])
            if worst[1] < 0:
                assert (out.status, out.value, out.witness) == ("refuted", None, worst)
            else:
                assert (out.status, out.value, out.witness) == ("certified", worst[1], None)
        else:
            res = certify_nonnegative(g, cell, 2)
            assert out.method == METHOD_BERNSTEIN
            assert (out.status, out.value, out.witness, out.depth) == (
                res.status, res.lower_bound, res.witness, res.depth_used)


def test_cancelled_top_degree_gives_the_true_degree():
    # v = x^2 + 1 on [-1, 1] at x0 = 0: A = 2 v + x v' = 4 x^2 + 2 and
    # L_j(0) = 1, so w = 8 x^2 leaves g_j = 2, of degree 0 < deg A = deg w
    P, x = interval(), Polynomial.variable(1, 0)
    v, w = x * x + 1, x * x * 8
    for G, S in stability._cone_conditions(P, (F(0),), v, w):
        assert list(G) == [(0,)] and F(G[(0,)], S) == 2
    assert condition_poly_general(P, (F(0),), 0, v, w) == Polynomial.constant(1, 2)
    report = check_general(P, (F(0),), v, w, convention=Convention.LEGACY)
    assert (report.verdict, report.method, report.margin) == (VERDICT_CERTIFIED, METHOD_AFFINE, 2)


def test_check_general_hands_each_bernstein_cell_its_integer_condition_once(monkeypatch):
    # one certify_nonnegative call per Bernstein cell, on a Polynomial built
    # on the integer condition; no radial derivative, no Polynomial built
    # from Fractions and no Fraction term is made on the way
    real = stability.certify_nonnegative
    calls = []

    def counting(p, cell, max_depth):
        G, S = p.cleared()
        assert p._terms is None and all(type(c) is int for c in (S, *G.values()))
        calls.append(cell)
        return real(p, cell, max_depth)

    def forbidden(*args, **kwargs):
        raise AssertionError("check_general built a polynomial")

    monkeypatch.setattr(stability, "certify_nonnegative", counting)
    cases = [
        (projective_bundle([[0, 1]], [(3, 36)], [F(41, 32)], t=1), None),
        (projective_bundle([[0, 1]], [(3, 36)], [F(101, 100)], t=1), (F(-3, 16), F(5, 16))),
        (projective_bundle([[0, 0, 1]], [(3, 48)], [F(15, 8)], t=1), None),
    ]
    for fib, x0 in cases:
        x0 = default_base_point(fib.fiber) if x0 is None else x0
        v, w, concave = fib.v, stability_weight(fib), concave_cone_indices(fib, x0)
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(exact, "radial_derivative", forbidden)
            m.setattr(Polynomial, "__init__", forbidden)
            m.setattr(Polynomial, "_from_terms", staticmethod(forbidden))
            report = check_general(fib.fiber, x0, v, w, max_depth=3, concave_cones=concave)
            # check_fibration hands on the integer weights, w included
            assert check_fibration(fib, x0, max_depth=3) == report
        bernstein = [o for o in report.per_cone if o.method == METHOD_BERNSTEIN]
        assert len(calls) == 2 * len(bernstein) > 0


def test_check_path_evaluates_no_label_in_fractions(monkeypatch):
    # x0 is validated once, on the integer label values of _cone_conditions:
    # no AffineFunc is evaluated and no is_interior test runs, at the
    # default x0, a given x0 or any base point candidate
    cases = [
        projective_bundle([[1, 2]], [(3, 24)], [4], t=1),
        projective_bundle([[0, 1]], [(3, 36)], [F(101, 100)], t=1),
        projective_bundle([[2]], [(2, 12)], [3], t=1, convention=Convention.LEGACY),
        fibration(rational_quad(), [base_factor(3, 24, 6, [1, 1], 2)]),
    ]
    given_x0 = {2: (F(-3, 16), F(5, 16)), 1: (F(1, 3),)}
    weights = [stability_weight(fib) for fib in cases]
    calls = []
    for cls, name in ((AffineFunc, "__call__"), (LabelledPolytope, "is_interior")):
        def recording(self, x, real=getattr(cls, name), name=name):
            calls.append(name)
            return real(self, x)

        monkeypatch.setattr(cls, name, recording)
    for fib, w in zip(cases, weights):
        P = fib.fiber
        check_fibration(fib, max_depth=2)
        for x0 in [given_x0[P.dim]] + base_point_candidates(P):
            check_fibration(fib, x0, max_depth=2)
            check_general(P, x0, fib.v, w, convention=fib.convention, max_depth=2)
            for j in range(P.n_facets):
                condition_poly_general(P, x0, j, fib.v, w)
    assert calls == []


BAD_X0_FIB = tri_family(F(4), s=24)  # the triangle 1 + x, 1 + y, 1 - x - y >= 0
BAD_X0_RUNS = {
    "check_general": lambda x0: check_general(
        BAD_X0_FIB.fiber, x0, BAD_X0_FIB.v, stability_weight(BAD_X0_FIB)),
    "condition_poly_general": lambda x0: condition_poly_general(
        BAD_X0_FIB.fiber, x0, 2, BAD_X0_FIB.v, stability_weight(BAD_X0_FIB)),
    "check_fibration": lambda x0: check_fibration(BAD_X0_FIB, x0),
}


@pytest.mark.parametrize("run", list(BAD_X0_RUNS.values()), ids=list(BAD_X0_RUNS))
@pytest.mark.parametrize(
    "x0, error, message",
    [
        ((F(0),), ValueError, "dimension mismatch evaluating AffineFunc"),
        ((F(0),) * 3, ValueError, "dimension mismatch evaluating AffineFunc"),
        ((F(1, 2), F(1, 2)), NotInterior, "point (1/2, 1/2) is not strictly interior"),
        ((F(-1), F(-1)), NotInterior, "point (-1, -1) is not strictly interior"),
        ((F(3), F(-2, 3)), NotInterior, "point (3, -2/3) is not strictly interior"),
    ],
    ids=["short", "long", "on-a-facet", "at-a-vertex", "outside"],
)
def test_a_bad_base_point_raises_one_error_on_every_entry(run, x0, error, message):
    with pytest.raises(error) as info:
        run(x0)
    assert type(info.value) is error and str(info.value) == message


def test_weights_and_futaki_are_checked_before_the_base_point():
    P, outside = triangle(), (F(3), F(3))
    v = Polynomial.constant(2, 1)
    with pytest.raises(ValueError, match="polynomial/polytope dimension mismatch"):
        check_general(P, outside, v, Polynomial.constant(1, 1))
    with pytest.raises(ValueError, match="polynomial/polytope dimension mismatch"):
        condition_poly_general(P, outside, 0, v, Polynomial.constant(1, 1))
    with pytest.raises(FutakiNotVanishing):
        check_general(P, outside, v, Polynomial.variable(2, 0))
    with pytest.raises(NotInterior):
        check_general(P, outside, v, Polynomial.variable(2, 0), convention=Convention.LEGACY)


def test_checks_and_probe_build_no_fraction_term_of_a_weight(monkeypatch):
    # v, w_base and w are Polynomials built on integers, and every route
    # reads their integer forms: no Fraction term of a weight (or of a cone
    # condition handed to Bernstein) is built on the way
    from wkstab import crease_family, probe

    real = exact.Polynomial.terms

    def unbuilt(self):
        assert self._terms is not None, "a Polynomial's Fraction terms were built"
        return real.fget(self)

    cases = [
        projective_bundle([[1, 2]], [(3, 18)], [12], t=1),  # the vertex route
        projective_bundle([[0, 1]], [(3, 36)], [F(41, 32)], t=1),  # the general fallback
        projective_bundle([[1]], [(3, -6)], [15], t=1),
    ]
    families = {id(fib): crease_family(fib.fiber, default_base_point(fib.fiber), 2)
                for fib in cases}
    with monkeypatch.context() as m:
        m.setattr(exact.Polynomial, "terms", property(unbuilt))
        for fib in cases:
            check_fano_fiber(fib)
            check_fibration(fib, max_depth=3)
            w = stability_weight(fib)
            report = probe(fib.fiber, fib.v, w, families[id(fib)])
            assert report.n_creases and not report.found_destabilizer
            assert (fib.v._terms, fib.w_base._terms, w._terms) == (None, None, None)
