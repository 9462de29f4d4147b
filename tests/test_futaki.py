import dataclasses
import math
import operator
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import hexagon, interior_points, interval, square, triangle
from wkstab import (
    AffineFunc,
    Convention,
    FutakiNotVanishing,
    Polynomial,
    assert_futaki_vanishes,
    base_factor,
    check_general,
    condition_poly_general,
    df_invariant,
    df_via_cones,
    extremal_affine,
    fano_anticanonical,
    fibration,
    futaki_character,
    integrate_facet,
    jsonio,
    probe,
    projective_bundle,
    solve_extremal,
    stability_weight,
)
from wkstab import futaki
from wkstab.measure import integrate_simplex
from wkstab.polytope import triangulate
from _reference_fraction import solve_extremal_by_minors, stability_weight_fraction
from _frozen import (
    RANK_ONE_FUTAKI,
    RANK_ONE_LEXT_CONST,
    RANK_ONE_LEXT_SLOPE,
)


def rank_one(p=1, c=15, convention=Convention.CANONICAL):
    return projective_bundle(
        degrees=[[p]], base=[(3, -6)], c=[c], t=1, convention=convention
    )


def random_poly(rng, dim, max_degree=3, n_terms=4):
    terms = {}
    for _ in range(n_terms):
        expo = tuple(rng.randint(0, max_degree) for _ in range(dim))
        terms[expo] = F(rng.randint(-9, 9), rng.randint(1, 6))
    return Polynomial(dim, terms)


def test_df_invariant_on_square_is_symmetric_zero():
    # v = 1, w = 2*dim*v/t on a monotone polytope kills affine functions
    P = square()
    v = Polynomial.constant(2, 1)
    w = Polynomial.constant(2, 4)
    for f in (Polynomial.constant(2, 1), Polynomial.variable(2, 0)):
        assert df_invariant(P, v, w, f) == 0
    assert_futaki_vanishes(P, v, w)


def test_futaki_not_vanishing_raises():
    P = square()
    v = Polynomial.constant(2, 1)
    w = Polynomial.constant(2, 5)  # wrong normalization: F(1) != 0
    with pytest.raises(FutakiNotVanishing) as info:
        assert_futaki_vanishes(P, v, w)
    assert info.value.basis_index == 0
    assert info.value.value != 0


def test_cone_identity_randomized():
    rng = random.Random(20240815)
    polytopes = [triangle(), square(), hexagon(), triangle(F(2))]
    checked = 0
    for P in polytopes:
        for x0 in interior_points(P):
            for _ in range(2):
                v = random_poly(rng, P.dim)
                w = random_poly(rng, P.dim)
                f = random_poly(rng, P.dim, max_degree=2, n_terms=3)
                assert df_via_cones(P, x0, v, w, f) == df_invariant(P, v, w, f)
                checked += 1
    assert checked >= 20


def test_extremal_rank_one_frozen():
    sol = extremal_affine(rank_one())
    assert sol.l_ext.gradient == (RANK_ONE_LEXT_SLOPE,)
    assert sol.l_ext.constant == RANK_ONE_LEXT_CONST
    assert not sol.is_constant
    assert sol.convention is Convention.CANONICAL
    assert all(r == 0 for r in sol.residuals)


def test_futaki_character_frozen():
    char = futaki_character(rank_one())
    assert char == (RANK_ONE_FUTAKI,)


def test_futaki_character_vanishes_for_untwisted():
    fib = projective_bundle(degrees=[[0]], base=[(3, 18)], c=[3], t=1)
    assert futaki_character(fib) == (F(0),)
    assert extremal_affine(fib).is_constant


def test_fano_normalization_fixes_convention():
    # untwisted anticanonical fibration: canonical solve gives the constant
    # 2 dim Y; the legacy solve gives a different (wrong) constant, -5
    from conftest import interval

    fib = fano_anticanonical(interval(), [(3, 3, None)])
    sol = extremal_affine(fib)
    assert sol.l_ext.gradient == (F(0),)
    assert sol.l_ext.constant == 2 * fib.total_dim  # = 8
    legacy = extremal_affine(dataclasses.replace(fib, convention=Convention.LEGACY))
    assert legacy.l_ext.gradient == (F(0),)
    assert legacy.l_ext.constant == F(-5)


def test_solve_extremal_direct_call_matches():
    fib = rank_one()
    sol = solve_extremal(fib.fiber, fib.v, fib.w_base, fib.convention)
    assert sol.l_ext == extremal_affine(fib).l_ext


DATA = Path(__file__).resolve().parent.parent / "demos" / "data"

SOLVE_CORPUS = [
    rank_one,
    lambda: rank_one(p=F(1, 3), c=F(7, 2)),
    lambda: projective_bundle([[1, 2]], [(3, 18)], [12], 1),
    lambda: projective_bundle(
        [[F(1, 2), -1], [0, F(2, 3)]], [(2, 5), (1, -3)], [F(9, 2), F(7, 3)], t=F(1, 2)
    ),
    lambda: fano_anticanonical(hexagon(), [(2, 3, AffineFunc([1, -1], 0))]),
    lambda: projective_bundle([[1, 0, F(1, 2)]], [(2, 7)], [F(5, 2)], t=1),
] + [
    lambda name=name: jsonio.fibration_from_json(
        jsonio.loads((DATA / name).read_text()), Convention.CANONICAL
    )
    for name in ("anticanonical_product.json", "bernstein_band.json", "rank_one_refuted.json")
]


def _fraction_path_system(fib):
    """M and b integrated as whole products over triangulations of P and of
    its facets, without the moment table."""
    P, v, w = fib.fiber, fib.v, fib.w_base
    cells = triangulate(P)
    X = [Polynomial.constant(P.dim, 1)] + [Polynomial.variable(P.dim, i) for i in range(P.dim)]

    def inner(p):
        return sum((integrate_simplex(p, s) for s in cells), F(0))

    def outer(p):
        return sum((integrate_facet(p, P, j) for j in range(P.n_facets)), F(0))

    M = tuple(tuple(inner(v * Xi * Xj) for Xj in X) for Xi in X)
    if fib.convention is Convention.LEGACY:
        beta = 1 if P.dim == 1 else 2
        b = tuple(beta * outer(v * Xi) - inner(w * Xi) for Xi in X)
    else:
        b = tuple(2 * outer(v * Xi) + inner(w * Xi) for Xi in X)
    return M, b


@pytest.mark.parametrize("convention", list(Convention))
@pytest.mark.parametrize("make", SOLVE_CORPUS)
def test_integer_moment_system_equals_the_fraction_path(make, convention):
    fib = dataclasses.replace(make(), convention=convention)
    sol = extremal_affine(fib)
    M, b = _fraction_path_system(fib)
    assert sol.moment_matrix == M and sol.rhs == b
    assert sol.residuals == (F(0),) * len(b)
    entries = [x for row in sol.moment_matrix for x in row] + list(sol.rhs + sol.residuals)
    assert all(type(x) is F for x in entries)


@pytest.mark.parametrize("convention", list(Convention))
@pytest.mark.parametrize("make", SOLVE_CORPUS)
def test_the_extremal_record_builds_its_views_when_read(make, convention, monkeypatch):
    fib = dataclasses.replace(make(), convention=convention)
    want = solve_extremal_by_minors(fib.fiber, fib.v, fib.w_base, convention)
    matrix, rhs, residuals = want.moment_matrix, want.rhs, want.residuals
    made = []

    def counted(*args):
        made.append(args)
        return F(*args)

    monkeypatch.setattr(futaki, "Fraction", counted)
    sol = solve_extremal(fib.fiber, fib.v, fib.w_base, convention)
    n = fib.dim + 1
    assert len(made) == n  # l_ext's coefficients only
    assert sol.moment_matrix == matrix and len(made) == n + n * n
    assert sol.rhs == rhs and sol.residuals == residuals == (F(0),) * n
    assert (sol.l_ext, sol.convention) == (want.l_ext, want.convention)
    # the residuals are recomputed from the integers, not stored: a moved
    # solution numerator shows in them
    (Lam, d) = sol.solution
    moved = dataclasses.replace(sol, solution=((Lam[0] + 1, *Lam[1:]), d))
    assert any(moved.residuals)


def _bundle_weights():
    fib = projective_bundle([[1, 2]], [(3, 18)], [12], 1)
    return fib.fiber, fib.v, fib.w_base


def _wide_base_weights():
    # w_base reaches monomials that no X_i X_j v does
    x, y = Polynomial.variable(2, 0), Polynomial.variable(2, 1)
    return hexagon(), 2 + x, x ** 3 + y * y + 1


@pytest.mark.parametrize("make", [_bundle_weights, _wide_base_weights])
def test_cold_solve_fills_each_moment_table_once(monkeypatch, make):
    import wkstab.measure as measure
    import wkstab.polytope as polytope

    polytope._interned.cache_clear()  # a standard fiber built before is shared
    P, v, w_base = make()
    assert not P.moments
    calls = []

    def counting(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(polytope, "triangulate", counting(polytope.triangulate))
    monkeypatch.setattr(polytope, "triangulate_facet", counting(polytope.triangulate_facet))
    monkeypatch.setattr(polytope, "_facet_triangulation", counting(polytope._facet_triangulation))
    monkeypatch.setattr(measure, "_cell_moments", counting(measure._cell_moments))
    solve_extremal(P, v, w_base)
    # from_halfspaces already triangulated each facet, once in P's life; one
    # pass over those cells fills both tables, and P itself is never
    # triangulated
    assert calls == ["_cell_moments"] * sum(map(len, P.facet_cells))
    calls.clear()
    solve_extremal(P, v, w_base)
    assert calls == []


def test_stability_weight_pairs_to_zero_on_affine():
    # w = l_ext v - w_base makes F vanish on all affine functions, exactly
    for fib in (rank_one(), projective_bundle([[1, 2]], [(3, 18)], [12], 1)):
        w = stability_weight(fib)
        assert_futaki_vanishes(fib.fiber, fib.v, w)


_WEIGHT_COEFFS = st.fractions(min_value=-5, max_value=5, max_denominator=6)


def _polys(dim, degree):
    return st.dictionaries(
        st.tuples(*[st.integers(0, degree)] * dim), _WEIGHT_COEFFS, max_size=5
    ).map(lambda terms: Polynomial(dim, terms))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(lambda dim: st.tuples(
    st.lists(_WEIGHT_COEFFS, min_size=dim + 1, max_size=dim + 1), _polys(dim, 3), _polys(dim, 4),
)))
# x v cancels v's x term, which w_base then brings back
@example(([F(1), F(-1)], Polynomial(1, {(1,): 1, (0,): 1}), Polynomial(1, {(1,): F(2, 3)})))
@example(([F(0), F(0)], Polynomial(1, {(2,): F(1, 2)}), Polynomial(1, {(2,): F(3, 4)})))
def test_stability_weight_on_integers_is_the_fraction_weight(case):
    # the same terms, in the same order, as Fraction Polynomial arithmetic
    (*grad, const), v, w_base = case
    dim = len(grad)
    fib = dataclasses.replace(rank_one() if dim == 1 else (
        projective_bundle([[1, 2]], [(3, 18)], [12], 1) if dim == 2
        else projective_bundle([[1, 0, 2]], [(3, 24)], [9], 1)),
        v=v, w_base=w_base)
    l_ext = AffineFunc(grad, const)
    w = stability_weight(fib, l_ext)
    assert list(w.terms.items()) == list(stability_weight_fraction(fib, l_ext).terms.items())
    assert all(type(c) is F for c in w.terms.values())


def test_stability_weight_reads_the_solved_l_ext():
    for fib in (rank_one(), rank_one(convention=Convention.LEGACY),
                projective_bundle([[1, 2]], [(3, 18)], [F(25, 2)], F(1, 2))):
        ref = stability_weight_fraction(fib, extremal_affine(fib).l_ext)
        assert list(stability_weight(fib).terms.items()) == list(ref.terms.items())


def test_stability_weight_legacy_pairs_differently():
    # the legacy solution does NOT satisfy the canonical affine pairing
    fib = rank_one(convention=Convention.LEGACY)
    w = stability_weight(fib)
    with pytest.raises(FutakiNotVanishing):
        assert_futaki_vanishes(fib.fiber, fib.v, w)


def test_translation_equivariance_of_extremal():
    # translate the polytope and the weights: l_ext translates along
    fib = projective_bundle([[1, 2]], [(3, 18)], [12], 1)
    P = fib.fiber
    shift = (F(1, 3), F(-2, 5))
    A = [[F(1), F(0)], [F(0), F(1)]]
    back = [-s for s in shift]
    from wkstab import from_halfspaces

    moved = from_halfspaces([L.compose_affine(A, back) for L in P.labels])
    v_m = fib.v.compose_affine(A, back)
    w_m = fib.w_base.compose_affine(A, back)
    sol = solve_extremal(P, fib.v, fib.w_base, Convention.CANONICAL)
    sol_m = solve_extremal(moved, v_m, w_m, Convention.CANONICAL)
    assert sol_m.l_ext == sol.l_ext.compose_affine(A, back)


def test_futaki_check_reads_the_moment_table_once(monkeypatch):
    # the check is the right-hand side of one moment system: one row read,
    # and neither the pairing nor df_invariant runs per basis element
    import wkstab.futaki as futaki
    import wkstab.measure as measure

    reads = []

    def counting(*args):
        reads.append(args[0])
        return real(*args)

    def forbidden(*args):
        raise AssertionError("the Futaki check read F a second way")

    real = measure._moment_rows
    monkeypatch.setattr(measure, "_moment_rows", counting)
    monkeypatch.setattr(futaki, "_moment_rows", counting)
    for name in ("_pair", "df_invariant"):
        monkeypatch.setattr(futaki, name, forbidden)
    monkeypatch.setattr(measure, "_pair", forbidden)
    fib = projective_bundle([[1, 2]], [(3, 18)], [12], 1)
    w = stability_weight(fib)
    reads.clear()
    assert_futaki_vanishes(fib.fiber, fib.v, w)
    assert reads == [fib.fiber]
    with pytest.raises(FutakiNotVanishing):
        assert_futaki_vanishes(fib.fiber, fib.v, w + 1)
    assert reads == [fib.fiber] * 2


def test_futaki_check_reads_only_the_right_hand_side(monkeypatch):
    # <v, X_i>_boundary and <w, X_i> up to max(deg v, deg w) + 1, not the
    # (l+1)^2 row <v, X_i X_j> of the moment matrix
    import wkstab.futaki as futaki

    reads = []
    real = futaki._moment_rows

    def recording(P, requests, top):
        reads.append(([(len(bs), boundary) for _, bs, boundary in requests], top))
        return real(P, requests, top)

    monkeypatch.setattr(futaki, "_moment_rows", recording)
    fib = projective_bundle([[1, 2]], [(3, 18)], [12], 1)
    w = stability_weight(fib)
    reads.clear()
    assert_futaki_vanishes(fib.fiber, fib.v, w)
    assert reads == [([(3, True), (3, False)], max(fib.v.degree(), w.degree()) + 1)]


@pytest.mark.parametrize(
    "v, w",
    [
        # one-variable weights on the triangle once raised a bare KeyError
        (Polynomial.variable(1, 0) + 3, Polynomial.constant(1, 2)),
        # three-variable ones once solved silently (l_ext = 24/5)
        (Polynomial.variable(3, 2) + 3, Polynomial.constant(3, 2)),
        (Polynomial.constant(2, 3), Polynomial.variable(3, 0)),
    ],
)
def test_weights_of_another_dimension_raise(v, w):
    P = triangle()
    fib = dataclasses.replace(projective_bundle([[1, 2]], [(3, 18)], [12], 1), v=v, w_base=w)
    calls = [
        lambda: solve_extremal(P, v, w),
        lambda: solve_extremal(P, v, w, Convention.LEGACY),
        lambda: futaki_character(fib),
        lambda: assert_futaki_vanishes(P, v, w),
        lambda: check_general(P, (0, 0), v, w),
        lambda: check_general(P, (0, 0), v, w, convention=Convention.LEGACY),
        lambda: condition_poly_general(P, (0, 0), 0, v, w),
        lambda: probe(P, v, w, [], verify_futaki=True),
        lambda: probe(P, v, w, [], verify_futaki=False),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="polynomial/polytope dimension mismatch"):
            call()


FUTAKI_POLYTOPES = [interval(), interval(F(1, 2)), triangle(), triangle(F(2)), square(), hexagon()]
SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=5)


@st.composite
def futaki_cases(draw):
    """(P, x0, v, w, balanced): random weights, or, when balanced, a
    fibration's v with its stability weight, for which F kills every affine
    function."""
    P = draw(st.sampled_from(FUTAKI_POLYTOPES))
    x0 = draw(st.sampled_from(interior_points(P)))
    if draw(st.booleans()):
        exponents = st.tuples(*[st.integers(0, 2)] * P.dim)
        v, w = (Polynomial(P.dim, draw(st.dictionaries(exponents, SMALL, max_size=4)))
                for _ in range(2))
        return P, x0, v, w, False
    p = draw(st.lists(SMALL, min_size=P.dim, max_size=P.dim))
    c = 1 + max(-sum(map(operator.mul, p, vtx)) for vtx in P.vertices) + draw(SMALL.map(abs))
    factor = base_factor(draw(st.integers(1, 3)), draw(SMALL) * 8, c, p, P.dim)
    fib = fibration(P, [factor])
    return P, x0, fib.v, stability_weight(fib), True


def _either(fn, *args, **kwargs):
    """fn's result, or the type and message of the error it raised."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, FutakiNotVanishing, futaki.SingularMomentMatrix) as exc:
        return type(exc), str(exc)


def _built_on_integers(p):
    """p built by Polynomial._from_cleared on its coefficients cleared over
    their least common denominator, here and not by p.cleared()."""
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    return Polynomial._from_cleared(p.dim, {a: int(c * den) for a, c in p.terms.items()}, den)


@settings(max_examples=40, deadline=None)
@given(futaki_cases(), st.sampled_from(list(Convention)))
def test_entry_points_read_a_polynomial_built_on_fractions_or_integers_alike(case, convention):
    # one integer form: each public entry point gives the same result, or
    # raises the same error, for weights built from Fractions and for the
    # same weights built from integers (Polynomial._from_cleared)
    P, x0, v, w, _ = case
    fractions = Polynomial(P.dim, v.terms), Polynomial(P.dim, w.terms)
    integers = _built_on_integers(v), _built_on_integers(w)
    assert fractions == integers
    f = Polynomial.variable(P.dim, 0) + 1
    entries = [
        (solve_extremal, (P,), {"convention": convention}),
        (assert_futaki_vanishes, (P,), {}),
        (check_general, (P, x0), {"convention": convention, "max_depth": 1}),
        *((condition_poly_general, (P, x0, j), {}) for j in range(P.n_facets)),
        (df_invariant, (P,), {"f": f}),
        (lambda v, w: probe(P, v, w, [], verify_futaki=True), (), {}),
    ]
    for fn, args, kwargs in entries:
        assert _either(fn, *args, *fractions, **kwargs) == _either(fn, *args, *integers, **kwargs)


@settings(max_examples=60, deadline=None)
@given(futaki_cases())
def test_futaki_check_agrees_with_the_cone_path(case):
    # the moment-system read of F(X_i) against the independent cone
    # decomposition at x0: the check raises exactly when some F(X_i) != 0,
    # naming the first such i and its exact value
    P, x0, v, w, balanced = case
    basis = [Polynomial.constant(P.dim, 1)] + [Polynomial.variable(P.dim, i) for i in range(P.dim)]
    values = [df_via_cones(P, x0, v, w, X) for X in basis]
    first = next(((i, val) for i, val in enumerate(values) if val), None)
    if first is None:
        assert_futaki_vanishes(P, v, w)
        return
    assert not balanced
    with pytest.raises(FutakiNotVanishing) as info:
        assert_futaki_vanishes(P, v, w)
    assert (info.value.basis_index, info.value.value) == first
