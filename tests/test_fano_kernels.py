"""The integer kernels of the monotone-fiber vertex path against the Fraction
forms they replaced (tests/_reference_fraction.py): the weights' product
rule, Sylvester's test read off the extremal solve's one elimination, and the
condition value with its per-fibration constants computed once."""

import math
from fractions import Fraction as F
from types import SimpleNamespace

from hypothesis import example, given, settings, strategies as st

from conftest import hexagon
from _reference_fraction import (
    assert_positive_definite_by_minors,
    build_weights_fraction,
    condition_value_fano_fraction,
    fano_hypothesis_failure_fraction,
    solve_extremal_by_minors,
)
from wkstab import (
    AffineFunc,
    Convention,
    NonpositiveWeight,
    SingularMomentMatrix,
    check_fano_fiber,
    condition_value_fano,
    fibration,
    solve_extremal,
    standard_fiber_polytope,
)
from wkstab.exact import Polynomial
from wkstab.futaki import _assert_positive_definite
from wkstab.measure import _integer_terms
from wkstab.stability import _fano_evaluator, _fano_hypothesis_failure
from wkstab.weights import BaseFactor, _build_weights

RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=12)


def _outcome(fn, *args):
    """fn's value, or the type, message, vertex and factor index of what it
    raised."""
    try:
        return fn(*args)
    except (NonpositiveWeight, SingularMomentMatrix, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "vertex", None), getattr(exc, "factor_index", None)


@st.composite
def _fibration_data(draw, min_factors=0, failing=0):
    """(fiber, factors, convention): a standard simplex in dims 1-3 with a
    rational scale t, or the hexagon given by its labels, and min_factors to
    3 factors with n in 1..4 and rational s, c and p (denominators <= 12).
    Each c is drawn around its positivity floor -min_P p, so p + c sometimes
    fails at a vertex; with failing = k, the offsets of k drawn factors are
    at or below their floors, so p + c fails for each of them."""
    dim = draw(st.integers(0, 3))
    if dim:
        fiber = standard_fiber_polytope(dim, draw(st.fractions(F(1, 12), 3, max_denominator=12)))
    else:
        fiber, dim = hexagon(), 2
    count = draw(st.integers(min_factors, 3))
    bad = set(draw(st.permutations(range(count)))[:failing])
    factors = []
    for a in range(count):
        p = AffineFunc(draw(st.lists(RATIONALS, min_size=dim, max_size=dim)), 0)
        floor = -min(p(vtx) for vtx in fiber.vertices)
        lo, hi = (floor - 2, floor) if a in bad else (floor - F(1, 12), floor + 4)
        lo, hi = (F(math.floor(x * 12), 12) for x in (lo, hi))
        c = draw(st.fractions(lo, hi, max_denominator=12))
        factors.append(BaseFactor(n=draw(st.integers(1, 4)), s=draw(RATIONALS), c=c, p=p))
    return fiber, tuple(factors), draw(st.sampled_from(Convention))


@settings(max_examples=200, deadline=None)
@given(_fibration_data())
def test_weights_solve_and_condition_values_match_the_fraction_path(case):
    fiber, factors, convention = case
    got = _outcome(_build_weights, fiber.vertices, factors)
    want = _outcome(build_weights_fraction, fiber, factors)
    if isinstance(want[0], Polynomial):  # the integer forms are the Fractions cleared
        got = tuple(p.cleared() for p in got)
        want_polys, want = want, tuple(_integer_terms(p, fiber.dim) for p in want)
    assert got == want
    if got[0] is NonpositiveWeight:
        return
    fib = fibration(fiber, factors, convention)
    sol = solve_extremal(fiber, fib.v, fib.w_base, convention)
    assert sol == solve_extremal(fiber, *want_polys, convention)
    assert sol == solve_extremal_by_minors(fiber, fib.v, fib.w_base, convention)
    value = _fano_evaluator(fib, sol.l_ext)
    x0 = fib.fano_fiber[0]
    for vtx in fiber.vertices:
        want = condition_value_fano_fraction(fib, sol.l_ext, vtx)
        assert value(vtx) == condition_value_fano(fib, sol.l_ext, vtx) == want
        # the CSV's sample points on the segment x0 -> vtx, and points past
        # the vertex, where some p + c may fail
        for s in (F(k, 4) for k in range(13)):
            pt = tuple(a + s * (b - a) for a, b in zip(x0, vtx))
            assert _outcome(value, pt) == _outcome(condition_value_fano_fraction, fib, sol.l_ext, pt)
    if _fano_hypothesis_failure(fib) is None:
        report = check_fano_fiber(fib)
        assert report.vertex_values == tuple(
            (vtx, condition_value_fano_fraction(fib, sol.l_ext, vtx)) for vtx in fiber.vertices
        )


@settings(max_examples=60, deadline=None)
@given(_fibration_data(min_factors=2, failing=2))
def test_two_failing_factors_name_the_same_vertex_and_factor(case):
    fiber, factors, _ = case
    got = _outcome(_build_weights, fiber.vertices, factors)
    assert got[0] is NonpositiveWeight
    assert got == _outcome(build_weights_fraction, fiber, factors)


def test_condition_value_reports_the_first_of_two_failing_factors():
    fib = fibration(
        standard_fiber_polytope(2, 1),
        [
            BaseFactor(n=1, s=F(4), c=F(3), p=AffineFunc([1, 0], 0)),
            BaseFactor(n=2, s=F(1, 2), c=F(5, 2), p=AffineFunc([1, 1], 0)),
        ],
    )
    l_ext = solve_extremal(fib.fiber, fib.v, fib.w_base).l_ext
    # p_0 + c_0 = 0 and p_1 + c_1 = -5/2 at (-3, -2): factor 0 is named
    for x in ((F(-3), F(-2)), (F(-4), F(-3))):
        got = _outcome(condition_value_fano, fib, l_ext, x)
        assert got == _outcome(condition_value_fano_fraction, fib, l_ext, x)
        assert got[0] is NonpositiveWeight and got[3] == 0
    got = _outcome(condition_value_fano, fib, l_ext, (F(1), F(-5)))
    assert got[0] is NonpositiveWeight and got[3] == 1


def _symmetric(n, entries):
    M = [[0] * n for _ in range(n)]
    it = iter(entries)
    for i in range(n):
        for j in range(i, n):
            M[i][j] = M[j][i] = next(it)
    return M


@st.composite
def _square_matrices(draw):
    """Integer n x n matrices, n in 1..4: symmetric ones, Gram matrices
    (positive semidefinite, definite when nonsingular), and either kind with
    one off-diagonal entry moved."""
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        M = _symmetric(n, draw(st.lists(st.integers(-3, 3), min_size=n * (n + 1) // 2,
                                        max_size=n * (n + 1) // 2)))
    else:
        A = draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                          min_size=n, max_size=n))
        M = [[sum(A[k][i] * A[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    if n > 1 and draw(st.integers(0, 4)) == 0:
        i = draw(st.integers(1, n - 1))
        M[i][draw(st.integers(0, i - 1))] += draw(st.sampled_from([-1, 1]))
    return M


@settings(max_examples=300, deadline=None)
@given(_square_matrices())
@example([[2, 1], [1, 2]])  # positive definite
@example([[0, 1], [1, 1]])  # zero leading minor: a swap, then pivots 1 and 1
@example([[0, 0, 0], [0, 1, 0], [0, 0, 1]])  # a zero column skipped, no swap
@example([[1, 2], [2, 1]])  # negative second minor, no swap
@example([[-1]])  # negative first minor
@example([[1, 2], [3, 4]])  # not symmetric
@example([[1, 0, 5], [0, 1, 0], [4, 0, 9]])  # not symmetric, first minors positive
def test_positive_definite_test_matches_the_leading_minors(M):
    def outcome(check):
        rows = [list(row) for row in M]
        try:
            check(rows)
        except SingularMomentMatrix as exc:
            return str(exc)
        assert rows == M  # the test leaves its argument as it was
        return None

    assert outcome(_assert_positive_definite) == outcome(assert_positive_definite_by_minors)


@st.composite
def _hypothesis_data(draw):
    """(x0, t, factors): a rational point x0 in dims 1-3, a rational t > 0
    and 1-3 factors with rational s (negative too), p and c, each c drawn
    either freely or exactly on its bound t s / (2 n) - p(x0)."""
    dim = draw(st.integers(1, 3))
    x0 = tuple(draw(st.lists(RATIONALS, min_size=dim, max_size=dim)))
    t = draw(st.fractions(F(1, 12), 4, max_denominator=12))
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        n, s = draw(st.integers(1, 4)), draw(RATIONALS)
        p = AffineFunc(draw(st.lists(RATIONALS, min_size=dim, max_size=dim)), 0)
        bound = t * s / (2 * n) - p(x0)
        c = draw(st.sampled_from([bound, bound + F(1, 144), bound - F(1, 144)]) | RATIONALS)
        factors.append(BaseFactor(n=n, s=s, c=c, p=p))
    return x0, t, tuple(factors)


@settings(max_examples=300, deadline=None)
@given(_hypothesis_data())
def test_fano_hypothesis_on_integers_matches_the_fraction_form(case):
    x0, t, factors = case
    # the hypothesis reads only the monotone point and the factors
    fib = SimpleNamespace(fano_fiber=(x0, t), factors=factors)
    assert _fano_hypothesis_failure(fib) == fano_hypothesis_failure_fraction(fib)


def test_fano_hypothesis_holds_at_equality():
    x0, t = (F(1, 3), F(-1, 2)), F(3, 2)
    p = AffineFunc([F(2, 5), -3], 0)
    on = BaseFactor(n=2, s=F(-7, 3), c=t * F(-7, 3) / 4 - p(x0), p=p)
    below = BaseFactor(n=2, s=F(-7, 3), c=on.c - F(1, 10**9), p=p)
    for factors, want in (((on,), None), ((on, below), 1), ((below, on), 0)):
        fib = SimpleNamespace(fano_fiber=(x0, t), factors=factors)
        assert _fano_hypothesis_failure(fib) == fano_hypothesis_failure_fraction(fib) == want
