import math
from fractions import Fraction as F

import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

import _reference_fraction
from _reference_fraction import (
    DegreeEscalationFailed,
    RationalFunction as FractionRationalFunction,
    _reduced as reduced_fraction,
    count_roots_between,
    count_roots_between_fraction,
    derivative as derivative_fraction,
    det_fraction,
    divmod_exact,
    euclid_gcd_monic,
    evaluate,
    fit_rational,
    interpolate_fraction,
    isolate_roots_fraction,
    isolate_roots_full_sturm,
    monic,
    mul,
    normalize,
    reconstruct_rational,
    scale,
    sturm_sequence,
    sturm_sequence_fraction,
    sub,
)
from wkstab import exact, univariate
from wkstab.univariate import (
    RationalFunction,
    RootLocation,
    _count,
    _descartes_bound,
    _int_mul,
    _interpolate,
    _quotient,
    _reduced,
    _remainders,
    _scaled_value,
    _squarefree,
    cauchy_root_bound,
    cramer,
    degree,
    derivative,
    det,
    isolate_roots,
    positive_above,
)


def poly_from_roots(roots, lead=1):
    p = (F(lead),)
    for r in roots:
        p = mul(p, (-F(r), F(1)))
    return p


def cleared(p):
    """The polynomial p over Q as one over Z: p times the lcm of its
    denominators, a positive scalar that keeps its roots and signs."""
    return tuple(exact._cleared(p)[0])


def cleared_matrix(M):
    """The matrix M over Q[x] as one over Z[x], and the lcm s of all its
    denominators that scales it: the determinant of the result is
    s^n det M."""
    s = math.lcm(*(c.denominator for row in M for e in row for c in e))
    return [[tuple(int(c * s) for c in e) for e in row] for row in M], s


def gcd_of(p, q):
    """The gcd of integer p and q: the last member of their remainder
    sequence (() when both are 0)."""
    return (_remainders(p, q) or [()])[-1]


def monic_gcd(p, q):
    return monic(tuple(F(c) for c in gcd_of(p, q)))


def test_normalize_strips_trailing_zeros():
    # the oracles' Fraction helper, and the integer kernels' outputs
    assert normalize([F(1), F(2), F(0), F(0)]) == (F(1), F(2))
    assert normalize([F(0)]) == ()
    assert evaluate((), F(5)) == 0
    assert derivative((7,)) == () and derivative((1, 2, 3)) == (2, 6)
    assert degree(()) == -1 and degree((7,)) == 0
    assert _interpolate([1, 1, 1]) == ((2,), 2)  # the constant 1 over 2!


def test_divmod_exact():
    p = poly_from_roots([1, 2, 3])
    q, r = divmod_exact(p, poly_from_roots([2]))
    assert r == ()
    assert q == poly_from_roots([1, 3])
    # the integer quotient by a primitive divisor: 5(2x - 1)(3x + 1) / (2x - 1)
    assert _quotient(cleared(mul(poly_from_roots([F(1, 2), F(-1, 3)]), (F(30),))),
                     (-1, 2)) == (5, 15)


def test_gcd_and_squarefree():
    p = cleared(mul(poly_from_roots([1, 1, 2]), (F(3),)))  # 3(x-1)^2(x-2)
    assert monic_gcd(p, cleared(poly_from_roots([1, 5]))) == poly_from_roots([1])
    # squarefree part up to a scalar: same roots, multiplicity one
    sf = _quotient(p, gcd_of(p, derivative(p)))
    assert _squarefree(p) == sf
    assert monic(tuple(map(F, sf))) == monic(poly_from_roots([1, 2]))
    # its roots counted by Descartes' bound, as the Fraction Sturm sequence counts them
    ref = sturm_sequence_fraction(tuple(map(F, p)))
    for a, b in [(0, 3), (0, F(3, 2)), (F(3, 2), 3), (3, 4), (-1, 0)]:
        assert _count(sf, F(a), F(b)) == count_roots_between_fraction(ref, a, b)
    assert _count(sf, F(0), F(3)) == 2


def test_sturm_root_count():
    p = cleared(poly_from_roots([1, 2, 3]))
    seq = sturm_sequence(p)
    assert count_roots_between(seq, F(0), F(4)) == 3
    assert count_roots_between(seq, F(0), F(3, 2)) == 1
    assert count_roots_between(seq, F(5, 2), F(4)) == 1
    with pytest.raises(ValueError):
        count_roots_between(seq, F(1), F(4))  # endpoint is a root


def test_sturm_counts_multiple_roots_once():
    p = cleared(poly_from_roots([1, 1, -1]))
    seq = sturm_sequence(_quotient(p, gcd_of(p, derivative(p))))
    assert count_roots_between(seq, F(-2), F(2)) == 2


def test_cauchy_bound_contains_roots():
    p = cleared(poly_from_roots([-7, F(1, 3), 5]))
    bound = cauchy_root_bound(p)
    assert bound >= 7 and type(bound) is F
    assert cauchy_root_bound(()) == cauchy_root_bound((5,)) == 1


def test_isolate_rational_roots_exactly():
    # roots on the dyadic bisection grid of the scan interval are
    # recognized exactly and deflated
    p = cleared(poly_from_roots([F(1, 2), 2, -3], lead=6))
    roots = isolate_roots(p, F(-8), F(8), F(1, 1000))
    assert [r.exact for r in roots] == [F(-3), F(1, 2), F(2)]
    assert all(r.low == r.high == r.exact for r in roots)


def test_isolate_irrational_roots_bracketed():
    p = (-2, 0, 1)  # x^2 - 2
    roots = isolate_roots(p, F(0), F(10), F(1, 10000))
    assert len(roots) == 1
    (r,) = roots
    assert r.exact is None
    assert r.high - r.low <= F(1, 10000)
    assert r.low**2 < 2 < r.high**2


def test_isolate_mixed_exact_and_bracketed():
    # (x - 1)(x^2 - 3): exact 1 plus bracketed sqrt(3)
    p = cleared(mul(poly_from_roots([1]), (F(-3), F(0), F(1))))
    roots = isolate_roots(p, F(0), F(4), F(1, 100))
    assert len(roots) == 2
    assert roots[0].exact == F(1)
    assert roots[1].exact is None
    assert roots[1].low**2 < 3 < roots[1].high**2


def test_isolate_respects_open_interval_endpoints():
    p = cleared(poly_from_roots([0, 3]))
    # roots at the scan endpoints are excluded (open interval)
    assert isolate_roots(p, F(0), F(3), F(1, 100)) == []
    # the zero polynomial reports no roots
    assert isolate_roots((), F(0), F(3), F(1, 100)) == []


def test_rational_function_call_and_reduction():
    f = RationalFunction(num=(1, 1), den=(2,))
    assert f(F(3)) == 2 and type(f(3)) is F
    assert f(F(1, 3)) == F(2, 3) and RationalFunction((1,), (0, 3))(F(2, 5)) == F(5, 6)
    # 2(x^2 - 1) / -2(x - 1) = -(x + 1)
    assert _reduced([-2, 0, 2], [2, -2]) == RationalFunction((-1, -1), (1,))
    assert _reduced([], [0, -3]) == RationalFunction((), (1,))


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
    assert fit == FractionRationalFunction(num=(F(1), F(2)), den=(F(5), F(1)))
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
    assert got == FractionRationalFunction(num=q, den=(F(1),))


# ------------------------------------------- integer Sturm, interpolation, det


def _squarefree_poly(rational_roots, irrational, complex_pairs, lead):
    p = poly_from_roots(rational_roots, lead=lead)
    for k in irrational:
        p = mul(p, (F(-k), F(0), F(1)))  # x^2 - k, k not a square
    for k in complex_pairs:
        p = mul(p, (F(k), F(1), F(1)))  # x^2 + x + k, no real root for k > 1/4
    return divmod_exact(p, euclid_gcd_monic(p, derivative_fraction(p)))[0]


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
            count_roots_between(sturm_sequence(cleared(p)), a, b)
        # _count takes the open interval: divide the roots at its ends out
        whole = _count(cleared(p), a, b)
        for x in {a, b}:
            if evaluate(p, x) == 0:
                p = divmod_exact(p, (-x, F(1)))[0]
        assert whole == _count(cleared(p), a, b)
    seq, ref = sturm_sequence(cleared(p)), sturm_sequence_fraction(p)
    assert _count(cleared(p), a, b) == count_roots_between(seq, a, b) == \
        count_roots_between_fraction(ref, a, b)
    # each member is a primitive integer polynomial, a positive multiple of
    # the classical one
    assert len(seq) == len(ref)
    for q, r in zip(seq, ref):
        assert all(isinstance(c, int) for c in q) and math.gcd(*q) == 1
        ratio = F(q[-1]) / r[-1]
        assert ratio > 0 and tuple(ratio * c for c in r) == q


def test_positive_above():
    p = (3, -4, 1)  # (x - 1)(x - 3)
    assert positive_above(p, F(3, 1) + F(1, 100))
    assert not positive_above(p, F(2))  # negative at 2
    assert not positive_above(p, F(1, 2))  # positive at 1/2, roots above
    assert not positive_above(p, F(3))  # zero at 3
    assert positive_above((2, 0, 1), F(-100))  # x^2 + 2
    assert not positive_above((), F(0))


def _counting_squarefree(monkeypatch):
    calls = []
    real = univariate._squarefree

    def counting(p):
        calls.append(p)
        return real(p)

    monkeypatch.setattr(univariate, "_squarefree", counting)
    return calls


@pytest.mark.parametrize(
    "p, lo, want, squarefree",
    [
        ((26, -100, 100), 0, True, 1),  # 100x^2 - 100x + 26: two variations, no real root
        ((2, -3, 1), 0, False, 1),  # (x - 1)(x - 2): two variations, two roots
        ((-3, 1), 1, False, 0),  # x - 3 is negative at 1
        ((-6, 1, 1), 1, False, 0),  # (x - 2)(x + 3): negative at 1
        ((2, -1, 2, -1), 0, False, 0),  # (2 - x)(x^2 + 1): three variations, odd
        ((1, 2, 1), 0, True, 0),  # (x + 1)^2: no variation
    ],
)
def test_positive_above_builds_a_sturm_sequence_only_on_an_even_bound(
    monkeypatch, p, lo, want, squarefree
):
    # only an even bound >= 2 builds the squarefree part and counts its roots
    calls = _counting_squarefree(monkeypatch)
    assert positive_above(p, lo) is want
    assert len(calls) == squarefree


@settings(max_examples=50, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=7))
def test_interpolate_recovers_the_polynomial(coeffs):
    p = normalize(coeffs)
    ys, L = exact._cleared([evaluate(p, k) for k in range(len(coeffs))])
    R, w = _interpolate(ys)
    assert w == math.factorial(len(coeffs) - 1)
    assert tuple(F(c, L * w) for c in R) == p


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
    IM, s = cleared_matrix(M)
    D = det(IM)
    for x in (F(-2), F(0), F(1, 3), F(5)):
        want = exact.det([[evaluate(c, x) for c in row] for row in M])
        assert evaluate(D, x) == s ** len(M) * want


def test_bareiss_det_pivots_past_a_zero_entry():
    x = (0, 1)
    M = [[(), x], [(1,), (2,)]]  # det = -x
    assert det(M) == (0, -1)
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
    assert monic_gcd(cleared(p), cleared(q)) == euclid_gcd_monic(p, q)


def test_gcd_monic_edge_cases():
    x_minus_1_sq = (1, -2, 1)
    assert gcd_of((), ()) == ()
    assert monic_gcd((), (-3,)) == (F(1),)
    assert monic_gcd((2,), (-4, 1)) == (F(1),)
    assert monic_gcd(x_minus_1_sq, ()) == poly_from_roots([1, 1])
    assert monic_gcd((-1, 1), (5, -10, 5)) == poly_from_roots([1])
    assert monic_gcd(tuple(_int_mul(x_minus_1_sq, (0, 3))), x_minus_1_sq) == poly_from_roots([1, 1])


@st.composite
def reduced_pairs(draw):
    """num/den over Q with a common factor g of degree >= 1, den's leading
    coefficient of either sign, and num = 0 on some draws."""
    g = poly_from_roots(draw(st.lists(st.sampled_from([-1, 0, F(1, 2), 2, F(-7, 3)]),
                                      min_size=1, max_size=3)),
                        lead=draw(st.sampled_from([1, -3, F(2, 5)])))
    num = draw(st.sampled_from([mul(g, draw(small_polys)), ()]))
    den = mul(g, draw(small_polys.filter(bool)))
    return num, scale(den, draw(st.sampled_from([1, -1, F(-3, 7)])))


@settings(max_examples=200, deadline=None)
@given(reduced_pairs(), st.lists(rationals, min_size=3, max_size=3))
@example(((F(-1), F(0), F(1)), (F(1), F(-1))), [F(1), F(-1), F(1, 2)])  # (x^2 - 1)/(1 - x)
@example(((), (F(2), F(-3))), [F(2, 3), F(0), F(5)])  # 0/(2 - 3x)
@example((mul(poly_from_roots([1, 1, -2]), (F(1, 3),)), poly_from_roots([1, 1], lead=-3)),
         [F(1), F(-2), F(7, 2)])  # common factor (x - 1)^2
def test_integer_reduced_matches_fraction_oracle(pair, xs):
    num, den = pair
    ints, _ = exact._cleared(num + den)  # num and den over one denominator
    got = _reduced(ints[: len(num)], ints[len(num):])
    want = reduced_fraction(num, den)
    assert all(type(c) is int for c in got.num + got.den)
    # the same num/den up to one positive scalar
    lam = got.den[-1] / want.den[-1]
    assert lam > 0
    assert got.num == tuple(lam * c for c in want.num)
    assert got.den == tuple(lam * c for c in want.den)
    for x in xs:
        if evaluate(want.den, x) == 0:
            with pytest.raises(ZeroDivisionError):
                got(x)
            continue
        value = got(x)
        assert type(value) is F and value == want(x)
        if evaluate(den, x) != 0:
            assert value == evaluate(num, x) / evaluate(den, x)


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
    IM, s = cleared_matrix(M)
    assert det(IM) == scale(bareiss_det(M), s ** len(M))


def test_det_degree_bound_is_attained():
    # one entry per row of top degree on the diagonal: deg det = 1 + 2 + 3
    x = (F(0), F(1))
    M = [[x, (F(1),), ()], [(F(2),), mul(x, x), x], [(), (F(1),), mul(x, mul(x, x))]]
    D = det(cleared_matrix(M)[0])
    assert len(D) - 1 == 6 and D == bareiss_det(M)
    assert det([]) == (1,) == bareiss_det([])


# ------------------------- integer det, interpolate and isolate_roots against
# the Fraction paths they replace

large_rationals = st.builds(F, st.integers(-10**15, 10**15), st.integers(1, 10**12))


@settings(max_examples=200, deadline=None)
@given(st.one_of(poly_matrices(), poly_matrices(large_rationals)))
def test_det_matches_fraction_oracle(M):
    IM, s = cleared_matrix(M)
    D = det(IM)
    assert D == scale(det_fraction(M), s ** len(M))
    assert all(type(c) is int for c in D)


def test_det_hands_the_elimination_only_integers(monkeypatch):
    x = (F(0), F(1))
    M = [[(F(1, 3), F(2, 7)), (F(5),), ()],
         [(), (F(-1, 2), F(0), F(3, 11)), x],
         [(F(10**20, 3),), (F(1), F(1, 10**9)), (F(4, 9),)]]
    want = det_fraction(M)
    seen = []
    real = exact._eliminate

    def counting(A, above):
        seen.append([list(row) for row in A])
        return real(A, above)

    monkeypatch.setattr(exact, "_eliminate", counting)
    IM, s = cleared_matrix(M)
    assert det(IM) == scale(want, s**3)
    assert len(seen) == 5  # the nodes 0..B, B = 1 + 2 + 1
    assert all(type(e) is int for A in seen for row in A for e in row)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(rationals, large_rationals), max_size=8))
def test_interpolate_matches_divided_differences(ys):
    # the values at 0..B as integers over one denominator L, fitted over
    # L w with w = B!
    ints, L = exact._cleared(ys)
    R, w = _interpolate(ints)
    assert tuple(F(c, L * w) for c in R) == interpolate_fraction(range(len(ys)), ys)
    assert all(type(c) is int for c in R)
    if ys:
        assert w == math.factorial(len(ys) - 1)


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
    assert isolate_roots(cleared(p), lo, hi, tol) == isolate_roots_fraction(p, lo, hi, tol)


@pytest.mark.parametrize(
    "roots, lo, hi, want",
    [([1, 1, 3], 0, 2, [1]), ([1, 1, 3], 0, 4, [1, 3]), ([2, 2, 2, F(1, 3)], 1, 3, [2])],
)
def test_isolate_roots_divides_out_a_repeated_root_at_a_midpoint(roots, lo, hi, want):
    p = poly_from_roots(roots)
    got = isolate_roots(cleared(p), lo, hi, F(1, 100))
    assert got == isolate_roots_fraction(p, lo, hi, F(1, 100))
    assert [r.exact for r in got] == want


def test_isolate_and_count_reject_an_empty_interval():
    with pytest.raises(ValueError, match="empty interval"):
        count_roots_between(sturm_sequence((-1, 0, 1)), 2, -2)  # counted -2 roots
    with pytest.raises(ValueError, match="empty interval"):
        isolate_roots((-1, 0, 1), 2, -2, F(1, 100))  # reported +-1 inside (2, -2)
    with pytest.raises(ValueError, match="empty interval"):
        isolate_roots((-2, 0, 1), 2, -2, F(1, 100))  # looped forever on (2, -2)
    # a point is an empty interval, but not a reversed one
    assert isolate_roots((-1, 0, 1), 3, 3, F(1, 100)) == []
    assert count_roots_between(sturm_sequence((-1, 0, 1)), 3, 3) == 0


# ------------------------- the Cramer kernel against the Bareiss oracle


@st.composite
def cramer_systems(draw):
    """(M, b) over Q[x] with n = 1..4 and entry degree <= 4, sometimes with
    a zero row of M or M singular through a repeated row."""
    n = draw(st.integers(1, 4))
    entry = st.lists(rationals, max_size=5).map(normalize)
    M = [[draw(entry) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        M[draw(st.integers(0, n - 1))] = [()] * n
    if n >= 2 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        M[i] = [mul(e, (F(-2), F(1))) for e in M[j]]
    return M, [draw(entry) for _ in range(n)]


X = (F(0), F(1))


@settings(max_examples=200, deadline=None)
@given(cramer_systems())
@example(([[X, (F(1),)], [(F(1),), X]], [(F(1),), (F(2),)]))  # singular at the node x = 1
@example(([[X, (F(1),)], [(), ()]], [(F(1),), (F(3),)]))  # a zero row of M beside b_r = 3
@example(([[X, X], [X, X]], [(F(1),), X]))  # identically singular
def test_cramer_is_det_and_each_column_replaced_by_b(system):
    M, b = system
    rows, s = cleared_matrix([[*row, e] for row, e in zip(M, b)])
    IM, Ib = [row[:-1] for row in rows], [row[-1] for row in rows]
    D, C = cramer(IM, Ib)
    n = len(M)
    assert D == det(IM) == scale(bareiss_det(M), s**n)
    assert len(C) == n
    for i, Ci in enumerate(C):
        Mi = [row[:i] + [e] + row[i + 1:] for row, e in zip(M, b)]
        assert Ci == scale(bareiss_det(Mi), s**n)
    assert all(type(c) is int for p in [D, *C] for c in p)


def test_cramer_runs_one_elimination_per_node(monkeypatch):
    calls = []
    real = exact._eliminate

    def counting(A, above):
        calls.append(above)
        return real(A, above)

    monkeypatch.setattr(exact, "_eliminate", counting)
    x = (0, 1)
    D, C = cramer([[x, (1,)], [(2,), x]], [(1,), (0, 0, 1)])  # regular at every node
    assert (D, C) == ((-2, 0, 1), [(0, 1, -1), (-2, 0, 0, 1)])
    assert calls == [True] * 4  # nodes 0..B, B = 1 + 2
    calls.clear()
    D, C = cramer([[x, (1,)], [(1,), x]], [(1,), (2,)])  # singular at x = 1
    assert (D, C) == ((-1, 0, 1), [(-2, 1), (-1, 2)])
    assert calls == [True, True, False, False, True]  # two column dets at x = 1
    with pytest.raises(ValueError, match="shape"):
        cramer([[x]], [])


# ------------------------- sign-only halving against the full-Sturm bisection


# (3x - 1)(100 (3000x - 1001)^2 + 9): a complex pair 1001/3000 +- i/1000
# near the root 1/3, so Descartes' bound is 3 on the bracket (21/64, 43/128)
# of width <= 1/100 that holds only that root
NEAR_PAIR = tuple(_int_mul((-1, 3), (100 * 1001**2 + 9, -600000 * 1001, 900000000)))


@st.composite
def isolation_cases(draw):
    """An integer polynomial built from rational linear factors (roots at
    bisection midpoints, repeated factors), irreducible quadratics and close
    root pairs, with an interval and a tolerance."""
    p = (draw(st.sampled_from([1, -3, 2])),)
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(["linear", "quadratic", "close"]))
        if kind == "linear":
            r = draw(st.builds(F, st.integers(-16, 16), st.sampled_from([1, 2, 3, 4, 8])))
            factor = (-r.numerator, r.denominator)
        elif kind == "quadratic":
            factor = (-draw(st.sampled_from([2, 3, 5, 7])), 0, draw(st.sampled_from([1, 2, 3])))
        else:  # roots r and r + 1/(1000 d)
            r = draw(st.builds(F, st.integers(-300, 300), st.sampled_from([7, 64, 100])))
            d = draw(st.integers(1, 50))
            factor = tuple(_int_mul((-1000 * d * r.numerator, 1000 * d * r.denominator),
                                    (-(1000 * d * r.numerator + r.denominator),
                                     1000 * d * r.denominator)))
        p = tuple(_int_mul(p, factor))
    lo = draw(st.builds(F, st.integers(-40, 40), st.sampled_from([1, 2, 4])))
    hi = lo + draw(st.builds(F, st.integers(0, 60), st.sampled_from([1, 2, 4])))
    return p, lo, hi, draw(st.sampled_from([F(1), F(1, 8), F(1, 1000), F(1, 10**9)]))


@settings(max_examples=300, deadline=None)
@given(isolation_cases())
@example(((-2, 0, 1), F(0), F(2), F(1, 10**6)))
@example(((-1, 0, 0, 1), F(-1), F(2), F(1, 100)))  # x^3 - 1: the root 1 at the first midpoint
@example((tuple(_int_mul(_int_mul((-1, 2), (-1, 2)), (-3, 4))), F(0), F(1), F(1, 1000)))
@example(((26, -100, 100), F(0), F(1), F(1, 100)))  # bound 2, no real root
@example((tuple(_int_mul((26, -100, 100), (-1, 3))), F(0), F(1), F(1, 100)))  # bound 3, one root
@example((tuple(_int_mul(_int_mul((-1, 3), (-1, 3)), (-2, 1))), F(0), F(4), F(1, 100)))  # double
@example((NEAR_PAIR, F(0), F(1), F(1, 100)))  # bound 3 on the one-root bracket
@example((tuple(_int_mul(NEAR_PAIR, (-1, 3))), F(0), F(1), F(1, 100)))  # and with (3x - 1)^2
def test_isolate_roots_matches_full_sturm_bisection(case):
    p, lo, hi, tol = case
    assert isolate_roots(p, lo, hi, tol) == isolate_roots_full_sturm(p, lo, hi, tol)


def test_isolate_roots_falls_back_to_sturm_where_the_bound_is_two_or_more():
    q = (26, -100, 100)  # 100x^2 - 100x + 26, no real root
    assert _descartes_bound(q, 0, 1) == 2
    assert isolate_roots(q, 0, 1, F(1, 100)) == []
    one = tuple(_int_mul(q, (-1, 3)))
    bracket = RootLocation(F(21, 64), F(43, 128), None)
    assert _descartes_bound(one, 0, 1) == 3
    assert isolate_roots(one, 0, 1, F(1, 100)) == [bracket]
    double = tuple(_int_mul(_int_mul((-1, 3), (-1, 3)), (-2, 1)))  # (3x - 1)^2 (x - 2)
    assert _descartes_bound(double, 0, 4) == 3
    assert isolate_roots(double, 0, 4, F(1, 100)) == [bracket, RootLocation(F(2), F(2), F(2))]
    # a bracket no wider than tol is counted, and reported whole with its one root
    assert _descartes_bound(NEAR_PAIR, bracket.low, bracket.high) == 3
    assert isolate_roots(NEAR_PAIR, 0, 1, F(1, 100)) == [bracket]
    assert isolate_roots(tuple(_int_mul(NEAR_PAIR, (-1, 3))), 0, 1, F(1, 100)) == [bracket]


def positive_above_by_sturm(p, lo):
    """positive_above by one Sturm count alone."""
    seq = sturm_sequence(p)
    return bool(seq) and _scaled_value(seq[0], lo) > 0 and count_roots_between(
        seq, lo, max(lo, cauchy_root_bound(p)) + 1) == 0


@settings(max_examples=300, deadline=None)
@given(isolation_cases())
@example(((26, -100, 100), F(0), F(1), F(1)))
@example(((2, -3, 1), F(0), F(1), F(1)))
def test_positive_above_matches_the_sturm_count(case):
    p, lo, _, _ = case
    assert positive_above(p, lo) == positive_above_by_sturm(p, lo)


@settings(max_examples=150, deadline=None)
@given(isolation_cases())
def test_descartes_bound_bounds_the_roots_with_their_parity(case):
    p, lo, hi, _ = case
    x = sympy.Symbol("x")
    roots = sympy.Poly(list(reversed(p)), x).real_roots()
    inside = sum(1 for r in roots if lo < r < hi)  # with multiplicity
    bound = _descartes_bound(p, lo, hi)
    assert bound >= inside and (bound - inside) % 2 == 0


def test_isolate_roots_halves_a_one_root_interval_on_sign_alone(monkeypatch):
    calls = _counting_squarefree(monkeypatch)
    got = isolate_roots((-2, 0, 1), 0, 2, F(1, 10**6))
    assert calls == []  # Descartes' bound is 1 on (0, 2): nothing is counted
    assert got == isolate_roots_full_sturm((-2, 0, 1), 0, 2, F(1, 10**6))
    (r,) = got
    assert r.exact is None and r.low**2 < 2 < r.high**2 and r.high - r.low <= F(1, 10**6)


@settings(max_examples=150, deadline=None)
@given(isolation_cases())
@example((NEAR_PAIR, F(0), F(1), F(1)))
@example((NEAR_PAIR, F(21, 64), F(43, 128), F(1)))
def test_count_is_the_number_of_distinct_real_roots(case):
    p, lo, hi, _ = case
    x = sympy.Symbol("x")
    roots = set(sympy.Poly(list(reversed(p)), x).real_roots())
    assert _count(_squarefree(p), lo, hi) == sum(1 for r in roots if lo < r < hi)
