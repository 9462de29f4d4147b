import copy
import math
import pickle
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from wkstab import (
    AffineFunc,
    Polynomial,
    condition_value_fano,
    extremal_affine,
    integrate,
    projective_bundle,
    radial_derivative,
    rat,
    standard_fiber_polytope,
    threshold_c,
)
from wkstab import exact
from wkstab.exact import (
    affine_rank,
    det,
    dot,
    matrix_rank,
    point,
    rref,
    solve_general,
    solve_square,
)
from wkstab.univariate import isolate_roots

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=8
)


def small_polys(dim, max_degree=3):
    expo = st.tuples(*[st.integers(0, max_degree) for _ in range(dim)])
    return st.dictionaries(expo, rationals, max_size=5).map(
        lambda d: Polynomial(dim, d)
    )


def test_rat_accepts_exact_inputs():
    assert rat(3) == F(3)
    assert rat("2/7") == F(2, 7)
    assert rat(F(1, 3)) == F(1, 3)


def test_rat_rejects_floats_and_bools():
    with pytest.raises(TypeError):
        rat(0.5)
    with pytest.raises(TypeError):
        rat(True)


@pytest.mark.parametrize(
    "read",
    [
        rat,
        lambda s: point([0, s]),
        lambda s: threshold_c(lambda c: projective_bundle([[1, 2]], [(3, 18)], [c], t=1), s, 9),
        lambda s: isolate_roots((-2, 0, 1), 0, s, F(1, 100)),
    ],
    ids=["rat", "point", "threshold_c-c_lo", "isolate_roots-hi"],
)
def test_every_rational_reader_rejects_an_exponent(read):
    with pytest.raises(ValueError, match="exponents are not accepted"):
        read("1e3")


def test_affine_func_evaluation_and_arithmetic():
    f = AffineFunc([1, -2], 3)
    g = AffineFunc([0, 1], -1)
    assert f((F(1), F(1))) == 2
    assert (f + g)((F(2), F(3))) == f((F(2), F(3))) + g((F(2), F(3)))
    assert (f - g)((F(0), F(0))) == 4
    assert (-f).gradient == (F(-1), F(2))
    assert (f * F(1, 2)).constant == F(3, 2)


def test_affine_compose():
    f = AffineFunc([1, 1], 0)
    # substitute x = (y1 + 1, 2*y1)
    g = f.compose_affine([[1], [2]], [1, 0])
    assert g.gradient == (F(3),)
    assert g.constant == F(1)


def test_polynomial_basics():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = (x + y) ** 2 - x * x - y * y
    assert p == 2 * x * y
    assert p.degree() == 2
    assert Polynomial.zero(2).degree() == -1
    assert p((F(3), F(5))) == 30


def test_polynomial_partial_and_radial():
    x = Polynomial.variable(1, 0)
    p = (x + 2) ** 3
    assert p.partial(0) == 3 * (x + 2) ** 2
    # d_x p . (x - x0) at x0 = 1
    r = radial_derivative(p, (F(1),))
    assert r == 3 * (x + 2) ** 2 * (x - 1)


@given(small_polys(2), small_polys(2), small_polys(2))
def test_polynomial_ring_axioms(p, q, r):
    assert p * (q + r) == p * q + p * r
    assert (p + q) * r == p * r + q * r
    assert p + q == q + p


def _product_reference(p, q):
    # the product summed into a dict and validated by the public constructor
    terms = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            terms[e] = terms.get(e, F(0)) + c1 * c2
    return Polynomial(p.dim, terms)


def _sum_reference(p, q):
    terms = dict(p.terms)
    for e, c in q.terms.items():
        terms[e] = terms.get(e, F(0)) + c
    return Polynomial(p.dim, terms)


@given(small_polys(2), small_polys(2), rationals)
def test_arithmetic_keeps_the_validated_terms_and_order(p, q, k):
    # cancellation included: p - p, p * 0 and products that cancel
    for got, want in [
        (p * q, _product_reference(p, q)),
        (p + q, _sum_reference(p, q)),
        (p - p, Polynomial.zero(2)),
        (-p, Polynomial(2, {e: -c for e, c in p.terms.items()})),
        (p * k, Polynomial(2, {e: k * c for e, c in p.terms.items()})),
        ((p + q) * (p - q), _product_reference(_sum_reference(p, q), _sum_reference(p, -q))),
    ]:
        assert list(got.terms.items()) == list(want.terms.items())
        assert all(c and type(c) is F for c in got.terms.values())


def test_public_constructor_still_validates():
    with pytest.raises(ValueError):
        Polynomial(2, {(1,): 1})
    with pytest.raises(ValueError):
        Polynomial(2, {(1, -1): 1})
    with pytest.raises(TypeError):
        Polynomial(2, {(1, 0): 0.5})
    assert Polynomial(2, {(1, 0): 0, (0, 1): "1/2"}).terms == {(0, 1): F(1, 2)}


@given(small_polys(2, max_degree=2))
def test_compose_affine_identity(p):
    assert p.compose_affine([[1, 0], [0, 1]], [0, 0]) == p


@given(
    small_polys(2, max_degree=2),
    st.tuples(rationals, rationals),
)
def test_compose_affine_evaluates_correctly(p, y):
    A = [[F(2), F(1)], [F(0), F(1)]]
    b = [F(1), F(-1)]
    q = p.compose_affine(A, b)
    x = tuple(sum(A[i][j] * y[j] for j in range(2)) + b[i] for i in range(2))
    assert q(y) == p(x)


def test_det_and_invert():
    A = [[F(2), F(1)], [F(1), F(1)]]
    assert det(A) == 1


def test_solve_square_singular_returns_none():
    assert solve_square([[F(1), F(2)], [F(2), F(4)]], [F(1), F(1)]) is None
    assert solve_square([[F(1), F(0)], [F(0), F(3)]], [F(2), F(6)]) == (
        F(2),
        F(2),
    )


def test_solve_general_particular_plus_nullspace():
    A = [[F(1), F(1), F(0)], [F(0), F(0), F(1)]]
    b = [F(3), F(4)]
    sol = solve_general(A, b)
    assert sol is not None
    part, null = sol
    assert [dot(row, part) for row in A] == b
    assert len(null) == 1
    for vec in null:
        assert all(dot(row, vec) == 0 for row in A)
    assert solve_general([[F(1)], [F(1)]], [F(0), F(1)]) is None


def test_matrix_and_affine_rank():
    assert matrix_rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    pts = [(F(0), F(0)), (F(1), F(0)), (F(2), F(0))]
    assert affine_rank(pts) == 1
    pts.append((F(0), F(1)))
    assert affine_rank(pts) == 2


@given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=3, max_size=3))
def test_det_transpose_invariance(rows):
    A = [[rows[i][j] for j in range(3)] for i in range(3)]
    At = [[rows[j][i] for j in range(3)] for i in range(3)]
    assert det(A) == det(At)


# ---------------------------------------------------------------------------
# reference oracle: Gauss-Jordan and Gaussian elimination over Fraction, as
# the kernels ran before they moved to fraction-free integer elimination
# ---------------------------------------------------------------------------


def rref_fraction(A):
    M = [[rat(x) for x in row] for row in A]
    if not M:
        return [], []
    rows, cols = len(M), len(M[0])
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if M[i][c]), None)
        if pivot is None:
            continue
        M[r], M[pivot] = M[pivot], M[r]
        inv = 1 / M[r][c]
        M[r] = [x * inv for x in M[r]]
        for i in range(rows):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return M, pivots


def det_fraction(A):
    M = [[rat(x) for x in row] for row in A]
    n = len(M)
    sign = 1
    d = F(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if M[i][c]), None)
        if pivot is None:
            return F(0)
        if pivot != c:
            M[c], M[pivot] = M[pivot], M[c]
            sign = -sign
        d *= M[c][c]
        inv = 1 / M[c][c]
        for i in range(c + 1, n):
            if M[i][c]:
                f = M[i][c] * inv
                M[i] = [x - f * y for x, y in zip(M[i], M[c])]
    return sign * d


sparse_rationals = st.one_of(st.just(F(0)), rationals)


@st.composite
def degenerate_matrices(draw, square=False):
    """Random matrices, then made rank-deficient: duplicated rows, rows that
    are combinations of others, and zero columns."""
    rows = draw(st.integers(0, 6))
    cols = rows if square else draw(st.integers(1, 7))
    M = [[draw(sparse_rationals) for _ in range(cols)] for _ in range(rows)]
    if rows >= 2 and draw(st.booleans()):
        M[draw(st.integers(1, rows - 1))] = list(M[0])
    if rows >= 3 and draw(st.booleans()):
        a, b = draw(rationals), draw(rationals)
        M[-1] = [a * x + b * y for x, y in zip(M[0], M[1])]
    if cols and draw(st.booleans()):
        k = draw(st.integers(0, cols - 1))
        for row in M:
            row[k] = F(0)
    return M


@settings(max_examples=200, deadline=None)
@given(degenerate_matrices())
def test_rref_matches_fraction_oracle(M):
    assert rref(M) == rref_fraction(M)
    assert matrix_rank(M) == len(rref_fraction(M)[1])


@settings(max_examples=200, deadline=None)
@given(degenerate_matrices(square=True))
def test_det_matches_fraction_oracle(M):
    assert det(M) == det_fraction(M)


EMPTY_MATRICES = [[], [[]], [[], [], []]]


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.booleans().flatmap(lambda square: degenerate_matrices(square=square)),
    st.sampled_from(EMPTY_MATRICES),
))
def test_det_rref_and_rank_share_one_elimination(M):
    # square, rectangular, singular and empty matrices: the Gauss-Jordan and
    # the forward pass of the one integer elimination agree with Fraction
    R, pivots = rref_fraction(M)
    assert rref(M) == (R, pivots)
    assert matrix_rank(M) == len(pivots)
    if all(len(row) == len(M) for row in M):
        assert det(M) == det_fraction(M)
        assert (det(M) != 0) == (len(pivots) == len(M))
    else:
        with pytest.raises(ValueError):
            det(M)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(-3, 3), min_size=n + 1, max_size=n + 1), min_size=n, max_size=n)))
@example([[0, 1, 5], [1, 1, 7]])  # a zero first minor: a swap, then pivots 1 and 1
def test_swap_free_pivots_are_the_leading_minors(M):
    # both passes meet the same pivots; while no row was swapped, the k-th
    # pivot in column k - 1 is the k-th leading principal minor
    n = len(M)
    forward, jordan = [list(row) for row in M], [list(row) for row in M]
    values, pivots, swaps = exact._eliminate(forward, above=False)
    assert exact._eliminate(jordan, above=True) == (values, pivots, swaps)
    minors = [det_fraction([row[:k] for row in M[:k]]) for k in range(1, n + 1)]
    if swaps == 0 and pivots[:n] == list(range(n)):
        assert values[:n] == minors
    else:
        assert 0 in minors


def test_an_all_int_matrix_reaches_the_elimination_uncleared(monkeypatch):
    seen = []
    eliminate = exact._eliminate

    def recorded(M, above):
        seen.append([list(row) for row in M])
        return eliminate(M, above)

    monkeypatch.setattr(exact, "_cleared", lambda xs: pytest.fail("_cleared was called"))
    monkeypatch.setattr(exact, "_eliminate", recorded)
    assert det([[2, -3], [4, 5]]) == 22
    assert seen == [[[2, -3], [4, 5]]]
    assert rref([(0, 6), (3, 0)]) == ([[1, 0], [0, 1]], [0, 1])


def test_rref_negative_pivots_and_swaps():
    M = [[F(0), F(-3, 2), F(1)], [F(-2), F(1, 3), F(0)], [F(-4), F(-7, 3), F(2)]]
    assert rref(M) == rref_fraction(M)
    assert det(M) == det_fraction(M) == 0
    N = [[F(0), F(-1)], [F(-5, 7), F(2)]]
    assert det(N) == det_fraction(N) == F(-5, 7)


def test_rref_threshold_interpolation_system():
    # the 21 x 22 linearized system of a degree-(10, 10) fit: the first 21
    # threshold_c samples (c = 10, 11, ...) of the s=24 template on [4, 9],
    # at the vertex whose value has a root in the bracket
    vtx = (F(-1), F(2))
    rows = []
    for c in range(10, 31):
        fib = projective_bundle([[1, 2]], [(3, 24)], [c], t=1)
        y = condition_value_fano(fib, extremal_affine(fib).l_ext, vtx)
        xs = [F(c) ** i for i in range(11)]
        rows.append(xs + [-y * x for x in xs])
    R, pivots = rref(rows)
    R_ref, pivots_ref = rref_fraction(rows)
    assert pivots == pivots_ref
    assert len(R) == 21
    for row, row_ref in zip(R, R_ref):
        assert row == row_ref


# ---------------------------------------------------------------------------
# pickling and copying rebuild through the constructors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("clone", [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy])
def test_values_round_trip_through_pickle_and_copy(clone):
    P = standard_fiber_polytope(2, 1)
    f = AffineFunc([F(1, 2), -3], F(7, 5))
    p = Polynomial(2, {(2, 0): F(1, 3), (0, 1): -2, (0, 0): 5})
    f2, p2 = clone(f), clone(p)
    assert f2 == f and hash(f2) == hash(f)
    assert p2 == p and hash(p2) == hash(p)
    with pytest.raises(AttributeError):
        p2.dim = 3
    assert integrate(p2, P) == integrate(p, P)
    assert integrate(f2.to_polynomial(), P) == integrate(f.to_polynomial(), P)


# ---------------------------------------------------------------------------
# the integer form: a polynomial built on integers is the one built from
# the same Fractions
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 3).flatmap(lambda dim: st.tuples(
        st.just(dim),
        st.dictionaries(st.tuples(*[st.integers(0, 3)] * dim), st.integers(-40, 40), max_size=6),
    )),
    st.integers(1, 60),
)
def test_a_polynomial_built_on_integers_is_the_one_built_on_fractions(case, den):
    dim, G = case
    q = Polynomial._from_cleared(dim, G, den)
    p = Polynomial(dim, {a: F(c, den) for a, c in G.items()})
    # the integer form is the integers q was given, zero terms dropped, and
    # for p the coefficients over their least common denominator; neither
    # builds q's Fraction terms
    nonzero = {a: c for a, c in G.items() if c}
    lcd = math.lcm(*(c.denominator for c in p.terms.values()))
    assert q.cleared() == (nonzero, den) and q.cleared() is q.cleared()
    assert p.cleared() == ({a: int(c * lcd) for a, c in p.terms.items()}, lcd)
    assert list(p.cleared()[0]) == list(nonzero)
    assert q.degree() == p.degree() and bool(q) == bool(p)
    assert q._terms is None
    assert q == p and p == q and hash(q) == hash(p) and repr(q) == repr(p)
    assert list(q.terms.items()) == list(p.terms.items())
    assert q.terms is q.terms  # built once
    r = pickle.loads(pickle.dumps(Polynomial._from_cleared(dim, G, den)))
    assert r == p and hash(r) == hash(p) and list(r.terms.items()) == list(p.terms.items())
