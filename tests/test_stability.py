from fractions import Fraction as F

import pytest

from conftest import interval, square, triangle
from wkstab import (
    AffineFunc,
    Convention,
    NotFanoFibration,
    NotMonotoneFiber,
    Polynomial,
    VERDICT_CERTIFIED,
    VERDICT_FAILS,
    base_factor,
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
    threshold_c,
)
from wkstab.stability import (
    HypothesisViolatedOnBracket,
    METHOD_AFFINE,
    METHOD_BERNSTEIN,
    METHOD_CONCAVE,
    base_point_candidates,
    concave_cone_indices,
)
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
    THRESHOLD_CANONICAL_S24,
)


def rank_one(p=1, c=15, convention=Convention.CANONICAL):
    return projective_bundle([[p]], [(3, -6)], [c], t=1, convention=convention)


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


def test_check_general_bernstein_route():
    # hypothesis c >= t s / (2 n) fails (2 < 5): no concavity certificate,
    # the Bernstein route must decide
    fib = projective_bundle([[1]], [(1, 10)], [2], t=1)
    assert concave_cone_indices(fib, (F(0),)) != frozenset({0, 1})
    report = check_fibration(fib)
    assert report.method == METHOD_BERNSTEIN
    assert report.verdict in (VERDICT_CERTIFIED, VERDICT_FAILS)
    if report.verdict == VERDICT_FAILS:
        pt, val = report.witness
        from wkstab import stability_weight

        w = stability_weight(fib)
        gs = [
            condition_poly_general(fib.fiber, report.x0, j, fib.v, w)
            for j in range(2)
        ]
        assert min(g(pt) for g in gs) == val < 0


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


def test_x0_sweep_candidates_agree_on_certified_instance():
    fib = rank_one()
    for x0 in base_point_candidates(fib.fiber):
        assert check_fibration(fib, x0=x0).certified
