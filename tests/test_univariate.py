import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import _reference_fraction
from _reference_fraction import (
    DegreeEscalationFailed,
    count_roots_between_fraction,
    det_fraction,
    euclid_gcd_monic,
    fit_rational,
    interpolate_fraction,
    isolate_roots_fraction,
    reconstruct_rational,
    sturm_sequence_fraction,
)
from wkstab import exact
from wkstab.univariate import (
    RationalFunction,
    cauchy_root_bound,
    count_roots_between,
    det,
    divmod_exact,
    evaluate,
    gcd_monic,
    interpolate,
    isolate_roots,
    monic,
    mul,
    normalize,
    positive_above,
    scale,
    squarefree_part,
    sturm_sequence,
    sub,
)


def poly_from_roots(roots, lead=1):
    p = (F(lead),)
    for r in roots:
        p = mul(p, (-F(r), F(1)))
    return p


def test_normalize_strips_trailing_zeros():
    assert normalize([F(1), F(2), F(0), F(0)]) == (F(1), F(2))
    assert normalize([F(0)]) == ()
    assert evaluate((), F(5)) == 0


def test_divmod_exact():
    p = poly_from_roots([1, 2, 3])
    q, r = divmod_exact(p, poly_from_roots([2]))
    assert r == ()
    assert q == poly_from_roots([1, 3])


def test_gcd_and_squarefree():
    p = mul(poly_from_roots([1, 1, 2]), (F(3),))  # 3(x-1)^2(x-2)
    d = gcd_monic(p, poly_from_roots([1, 5]))
    assert d == poly_from_roots([1])
    # squarefree part up to a scalar: same roots, multiplicity one
    assert monic(squarefree_part(p)) == monic(poly_from_roots([1, 2]))


def test_sturm_root_count():
    p = poly_from_roots([1, 2, 3])
    seq = sturm_sequence(p)
    assert count_roots_between(seq, F(0), F(4)) == 3
    assert count_roots_between(seq, F(0), F(3, 2)) == 1
    assert count_roots_between(seq, F(5, 2), F(4)) == 1
    with pytest.raises(ValueError):
        count_roots_between(seq, F(1), F(4))  # endpoint is a root


def test_sturm_counts_multiple_roots_once():
    p = poly_from_roots([1, 1, -1])
    seq = sturm_sequence(squarefree_part(p))
    assert count_roots_between(seq, F(-2), F(2)) == 2


def test_cauchy_bound_contains_roots():
    p = poly_from_roots([-7, F(1, 3), 5])
    bound = cauchy_root_bound(p)
    assert bound >= 7


def test_isolate_rational_roots_exactly():
    # roots on the dyadic bisection grid of the scan interval are
    # recognized exactly and deflated
    p = poly_from_roots([F(1, 2), 2, -3], lead=6)
    roots = isolate_roots(p, F(-8), F(8), F(1, 1000))
    assert [r.exact for r in roots] == [F(-3), F(1, 2), F(2)]
    assert all(r.low == r.high == r.exact for r in roots)


def test_isolate_irrational_roots_bracketed():
    p = (F(-2), F(0), F(1))  # x^2 - 2
    roots = isolate_roots(p, F(0), F(10), F(1, 10000))
    assert len(roots) == 1
    (r,) = roots
    assert r.exact is None
    assert r.high - r.low <= F(1, 10000)
    assert r.low**2 < 2 < r.high**2


def test_isolate_mixed_exact_and_bracketed():
    # (x - 1)(x^2 - 3): exact 1 plus bracketed sqrt(3)
    p = mul(poly_from_roots([1]), (F(-3), F(0), F(1)))
    roots = isolate_roots(p, F(0), F(4), F(1, 100))
    assert len(roots) == 2
    assert roots[0].exact == F(1)
    assert roots[1].exact is None
    assert roots[1].low**2 < 3 < roots[1].high**2


def test_isolate_respects_open_interval_endpoints():
    p = poly_from_roots([0, 3])
    # roots at the scan endpoints are excluded (open interval)
    assert isolate_roots(p, F(0), F(3), F(1, 100)) == []


def test_rational_function_call_and_reduction():
    f = RationalFunction(num=(F(1), F(1)), den=(F(2),))
    assert f(F(3)) == 2


# The sampled reconstruction lives on as an oracle in _reference_fraction;
# these tests pin its behaviour.


def test_fit_rational_recovers_function():
    num = poly_from_roots([1, -2], lead=3)
    den = (F(2), F(0), F(1))  # x^2 + 2 > 0
    samples = [(F(k), evaluate(num, F(k)) / evaluate(den, F(k))) for k in range(6)]
    fit = fit_rational(samples, 2, 2)
    assert fit is not None
    for xq in (F(7), F(-5, 3), F(22, 7)):
        assert fit(xq) == evaluate(num, xq) / evaluate(den, xq)


def test_fit_rational_returns_none_when_degree_too_low():
    samples = [(F(k), F(k) ** 3) for k in range(8)]
    assert fit_rational(samples, 1, 1) is None


@settings(max_examples=20, deadline=None)
@given(
    st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=3), min_size=1, max_size=3),
    st.lists(st.fractions(min_value=1, max_value=5, max_denominator=3), min_size=0, max_size=2),
)
def test_reconstruct_rational_roundtrip(num_roots, den_shifts):
    num = poly_from_roots(num_roots, lead=2)
    den = (F(1),)
    for s in den_shifts:
        den = mul(den, (s, F(0), F(1)))  # (x^2 + s): positive on the samples

    def sample(x):
        return evaluate(num, x) / evaluate(den, x)

    got = reconstruct_rational(sample, degree_cap=8, start=F(1), step=F(1))
    for xq in (F(17), F(-9, 2), F(31, 3)):
        assert got(xq) == sample(xq)


def test_reconstruct_skips_none_samples():
    # the sampler may refuse some points (e.g. outside a validity region)
    def sample(x):
        if x == 3:
            return None
        return (x**2 + 1) / (x + 20)

    got = reconstruct_rational(sample, degree_cap=4, start=F(1), step=F(1))
    assert got(F(100)) == F(100**2 + 1, 120)


def test_reconstruct_escalation_failure_is_honest():
    def sample(x):
        return x**13

    with pytest.raises(DegreeEscalationFailed):
        reconstruct_rational(sample, degree_cap=5, start=F(1), step=F(1))


def _count_reductions(monkeypatch):
    calls = []
    real = _reference_fraction.euclid_gcd_monic

    def counting(p, q):
        calls.append((p, q))
        return real(p, q)

    monkeypatch.setattr(_reference_fraction, "euclid_gcd_monic", counting)
    return calls


def test_reconstruct_reduces_only_the_accepted_fit(monkeypatch):
    num = poly_from_roots([F(1, 2), -3, F(7, 3), 5], lead=2)
    den = mul(poly_from_roots([F(-1, 2), F(9, 2)]), (F(3), F(1), F(1)))

    def sample(x):
        return evaluate(num, x) / evaluate(den, x)

    calls = _count_reductions(monkeypatch)
    got = reconstruct_rational(sample, degree_cap=8, start=F(1), step=F(1))
    assert len(calls) == 1  # not once per tried degree (k = 1..4)
    assert (len(got.num), len(got.den)) == (5, 5)
    for xq in (F(40), F(-7, 3), F(1, 2)):
        assert got(xq) == sample(xq)


def test_fit_rational_reduces_a_nullspace_with_common_factors(monkeypatch):
    # 7 samples of a degree-(1, 1) function fitted at (3, 3): every null
    # vector is (num*q, den*q) with deg q <= 2, a 3-dimensional nullspace
    def f(x):
        return (2 * x + 1) / (x + 5)

    samples = [(F(k), f(F(k))) for k in range(7)]
    calls = _count_reductions(monkeypatch)
    fit = fit_rational(samples, 3, 3)
    assert fit == RationalFunction(num=(F(1), F(2)), den=(F(5), F(1)))
    assert len(calls) == 1


def test_fit_rational_unattainable_point_falls_back_to_reduction():
    # the (1, 1) linearized system forces num = 2x, den = x: den vanishes at
    # the sample x = 0, and the reduced candidate 2 misses its value 1
    samples = [(F(0), F(1)), (F(1), F(2)), (F(2), F(2))]
    assert fit_rational(samples, 1, 1) is None
    assert fit_rational(samples, 2, 1) is not None


def test_reconstruct_rejects_a_fit_with_a_pole_at_a_validation_point():
    # the degree-(1, 1) interpolant through x = 1, 2, 3 is 1/(x - 4), whose
    # pole is the first validation point; the quadratic is found at k = 2
    q = (F(-1, 2), F(1, 3), F(-1, 6))
    assert [evaluate(q, F(x)) for x in (1, 2, 3)] == [F(-1, 3), F(-1, 2), F(-1)]

    got = reconstruct_rational(lambda x: evaluate(q, x), degree_cap=4, start=F(1), step=F(1))
    assert got == RationalFunction(num=q, den=(F(1),))


# ------------------------------------------- integer Sturm, interpolation, det


def _squarefree_poly(rational_roots, irrational, complex_pairs, lead):
    p = poly_from_roots(rational_roots, lead=lead)
    for k in irrational:
        p = mul(p, (F(-k), F(0), F(1)))  # x^2 - k, k not a square
    for k in complex_pairs:
        p = mul(p, (F(k), F(1), F(1)))  # x^2 + x + k, no real root for k > 1/4
    return squarefree_part(p)


rationals = st.fractions(min_value=-6, max_value=6, max_denominator=5)
dyadics = st.builds(lambda m, e: F(m, 2**e), st.integers(-400, 400), st.integers(0, 6))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(rationals, max_size=4),
    st.lists(st.sampled_from([2, 3, 5, F(7, 4), F(1, 3)]), max_size=2),
    st.lists(st.sampled_from([1, F(5, 2)]), max_size=1),
    st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool),
    dyadics,
    dyadics,
)
def test_integer_sturm_counts_match_fraction_oracle(roots, irr, cpx, lead, a, b):
    p = _squarefree_poly(roots, irr, cpx, lead)
    if a > b:
        a, b = b, a
    if evaluate(p, a) == 0 or evaluate(p, b) == 0:
        with pytest.raises(ValueError):
            count_roots_between(sturm_sequence(p), a, b)
        return
    seq, ref = sturm_sequence(p), sturm_sequence_fraction(p)
    assert count_roots_between(seq, a, b) == count_roots_between_fraction(ref, a, b)
    # each member is a primitive integer polynomial, a positive multiple of
    # the classical one
    assert len(seq) == len(ref)
    for q, r in zip(seq, ref):
        assert all(isinstance(c, int) for c in q) and math.gcd(*q) == 1
        ratio = F(q[-1]) / r[-1]
        assert ratio > 0 and tuple(ratio * c for c in r) == q


def test_positive_above():
    p = poly_from_roots([1, 3])  # (x - 1)(x - 3)
    assert positive_above(p, F(3, 1) + F(1, 100))
    assert not positive_above(p, F(2))  # negative at 2
    assert not positive_above(p, F(1, 2))  # positive at 1/2, roots above
    assert not positive_above(p, F(3))  # zero at 3
    assert positive_above((F(2), F(0), F(1)), F(-100))  # x^2 + 2
    assert not positive_above((), F(0))


@settings(max_examples=50, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=7), st.integers(-3, 3))
def test_interpolate_recovers_the_polynomial(coeffs, x0):
    p = normalize(coeffs)
    xs = [F(x0 + k) for k in range(len(coeffs))]
    assert interpolate(xs, [evaluate(p, x) for x in xs]) == p


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.lists(rationals, max_size=3), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
))
def test_bareiss_det_over_q_x_matches_pointwise_det(entries):
    M = [[normalize(c) for c in row] for row in entries]
    D = det(M)
    for x in (F(-2), F(0), F(1, 3), F(5)):
        assert evaluate(D, x) == exact.det([[evaluate(c, x) for c in row] for row in M])


def test_bareiss_det_pivots_past_a_zero_entry():
    x = (F(0), F(1))
    M = [[(), x], [(F(1),), (F(2),)]]  # det = -x
    assert det(M) == (F(0), F(-1))
    assert det([[x, x], [x, x]]) == ()


# ------------------------- gcd and det against the Fraction loops they replace


def bareiss_det(M):
    """Reference: Bareiss elimination over Q[x], one exact polynomial
    division per update."""
    A = [list(row) for row in M]
    n = len(A)
    sign, prev = 1, (F(1),)
    for k in range(n):
        pivot = next((i for i in range(k, n) if A[i][k]), None)
        if pivot is None:
            return ()
        if pivot != k:
            A[k], A[pivot] = A[pivot], A[k]
            sign = -sign
        p, pr = A[k][k], A[k]
        for i in range(k + 1, n):
            f = A[i][k]
            for j in range(k + 1, n):
                q, r = divmod_exact(sub(mul(p, A[i][j]), mul(f, pr[j])), prev)
                assert r == ()
                A[i][j] = q
        prev = p
    return scale(prev, sign)


small_polys = st.lists(rationals, max_size=4).map(normalize)


@st.composite
def gcd_pairs(draw):
    """p = g a and q = g b with a shared factor g that may have multiple
    roots; either side may be zero or constant, and deg q may exceed deg p."""
    g = poly_from_roots(draw(st.lists(st.sampled_from([-1, 0, F(1, 2), 2]), max_size=3)),
                        lead=draw(st.sampled_from([1, -3, F(2, 5)])))
    p, q = (mul(g, draw(small_polys)) for _ in range(2))
    return draw(st.sampled_from([(p, q), (q, p), (p, ()), ((), q), ((), ()), (p, g[-1:])]))


@settings(max_examples=200, deadline=None)
@given(gcd_pairs())
def test_gcd_monic_matches_euclid_oracle(pq):
    p, q = pq
    assert gcd_monic(p, q) == euclid_gcd_monic(p, q)


def test_gcd_monic_edge_cases():
    x_minus_1_sq = poly_from_roots([1, 1])
    assert gcd_monic((), ()) == ()
    assert gcd_monic((), (F(-3),)) == (F(1),)
    assert gcd_monic((F(2),), poly_from_roots([4])) == (F(1),)
    assert gcd_monic(x_minus_1_sq, ()) == x_minus_1_sq
    assert gcd_monic(poly_from_roots([1]), mul(x_minus_1_sq, (F(5),))) == poly_from_roots([1])
    assert gcd_monic(mul(x_minus_1_sq, (F(0), F(3))), x_minus_1_sq) == x_minus_1_sq


@st.composite
def poly_matrices(draw, coefficients=rationals):
    """Square matrices over Q[x] of size 0..4 with entries of unequal degree,
    sometimes given a zero row or made singular by a repeated row."""
    n = draw(st.integers(0, 4))
    M = [[normalize(draw(st.lists(coefficients, max_size=draw(st.integers(0, 4)))))
          for _ in range(n)] for _ in range(n)]
    if n and draw(st.booleans()):
        M[draw(st.integers(0, n - 1))] = [()] * n
    if n >= 2 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        M[i] = [mul(e, (F(-2), F(1))) for e in M[j]]
    return M


@settings(max_examples=200, deadline=None)
@given(poly_matrices())
def test_det_matches_bareiss_oracle(M):
    assert det(M) == bareiss_det(M)


def test_det_degree_bound_is_attained():
    # one entry per row of top degree on the diagonal: deg det = 1 + 2 + 3
    x = (F(0), F(1))
    M = [[x, (F(1),), ()], [(F(2),), mul(x, x), x], [(), (F(1),), mul(x, mul(x, x))]]
    D = det(M)
    assert len(D) - 1 == 6 and D == bareiss_det(M)
    assert det([]) == (F(1),) == bareiss_det([])


# ------------------------- integer det, interpolate and isolate_roots against
# the Fraction paths they replace

large_rationals = st.builds(F, st.integers(-10**15, 10**15), st.integers(1, 10**12))


@settings(max_examples=200, deadline=None)
@given(st.one_of(poly_matrices(), poly_matrices(large_rationals)))
def test_det_matches_fraction_oracle(M):
    D = det(M)
    assert D == det_fraction(M)
    assert all(type(c) is F for c in D)


def test_det_hands_exact_det_only_integers(monkeypatch):
    x = (F(0), F(1))
    M = [[(F(1, 3), F(2, 7)), (F(5),), ()],
         [(), (F(-1, 2), F(0), F(3, 11)), x],
         [(F(10**20, 3),), (F(1), F(1, 10**9)), (F(4, 9),)]]
    want = det_fraction(M)
    seen = []
    real = exact.det

    def counting(A):
        seen.append([list(row) for row in A])
        return real(A)

    monkeypatch.setattr(exact, "det", counting)
    assert det(M) == want
    assert len(seen) == 5  # the nodes 0..B, B = 1 + 2 + 1
    assert all(type(e) is int for A in seen for row in A for e in row)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.one_of(rationals, large_rationals), max_size=8),
    st.sampled_from([F(-3), F(0), F(4), F(37, 8), F(-41, 7)]),
)
def test_interpolate_matches_divided_differences(ys, x0):
    xs = [x0 + k for k in range(len(ys))]
    p = interpolate(xs, ys)
    assert p == interpolate_fraction(xs, ys)
    assert all(type(c) is F for c in p)


@pytest.mark.parametrize(
    "xs",
    [[0, 2], [1, 0], [0, 1, 3], [F(1, 2), F(1)], [0, 0]],
    ids=["gap", "descending", "late-gap", "half-step", "repeated"],
)
def test_interpolate_rejects_nodes_that_are_not_unit_spaced(xs):
    with pytest.raises(ValueError, match=r"x0, x0 \+ 1"):
        interpolate(xs, [F(1)] * len(xs))


def test_interpolate_rejects_a_value_count_that_does_not_match():
    with pytest.raises(ValueError):
        interpolate([0, 1, 2], [F(1), F(2)])


half_integers = st.builds(lambda m: F(m, 2), st.integers(-12, 12))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(half_integers, max_size=5),
    st.lists(st.sampled_from([2, 3, F(7, 4)]), max_size=2),
    st.sampled_from([1, -3, F(2, 5)]),
    half_integers,
    half_integers,
    st.sampled_from([F(1), F(1, 8), F(1, 1000)]),
)
def test_isolate_roots_matches_fraction_oracle(roots, irr, lead, a, b, tol):
    # repeated roots, roots at the ends and at bisection midpoints
    p = poly_from_roots(roots, lead=lead)
    for k in irr:
        p = mul(p, (F(-k), F(0), F(1)))
    lo, hi = min(a, b), max(a, b)
    assert isolate_roots(p, lo, hi, tol) == isolate_roots_fraction(p, lo, hi, tol)


@pytest.mark.parametrize(
    "roots, lo, hi, want",
    [([1, 1, 3], 0, 2, [1]), ([1, 1, 3], 0, 4, [1, 3]), ([2, 2, 2, F(1, 3)], 1, 3, [2])],
)
def test_isolate_roots_divides_out_a_repeated_root_at_a_midpoint(roots, lo, hi, want):
    p = poly_from_roots(roots)
    got = isolate_roots(p, lo, hi, F(1, 100))
    assert got == isolate_roots_fraction(p, lo, hi, F(1, 100))
    assert [r.exact for r in got] == want
