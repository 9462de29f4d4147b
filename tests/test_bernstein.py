import gc
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from wkstab import (
    CERTIFIED,
    INCONCLUSIVE,
    REFUTED,
    Polynomial,
    bernstein_coefficients,
    certify_nonnegative,
)
from wkstab.bernstein import barycentric_subdivision
from wkstab.polytope import Simplex
from _reference_fraction import bernstein_coefficients_fraction

TRI = Simplex(((F(0), F(0)), (F(1), F(0)), (F(0), F(1))))
SEG = Simplex(((F(-1),), (F(1),)))


def test_constant_has_all_coefficients_equal():
    p = Polynomial.constant(2, F(7, 3))
    coeffs = bernstein_coefficients(p, TRI)
    assert set(coeffs.values()) == {F(7, 3)}
    # degree-0 polynomial: single coefficient
    assert len(coeffs) == 1


def test_affine_coefficients_are_vertex_values():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = 2 * x - y + 1
    coeffs = bernstein_coefficients(p, TRI)
    # multi-indices (1,0,0), (0,1,0), (0,0,1) give the vertex values
    assert coeffs[(1, 0, 0)] == p(TRI.vertices[0])
    assert coeffs[(0, 1, 0)] == p(TRI.vertices[1])
    assert coeffs[(0, 0, 1)] == p(TRI.vertices[2])
    # the dict is complete: every multi-index of the degree appears
    assert len(coeffs) == 3


def test_corner_coefficients_equal_vertex_values():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = (x - y) ** 2 + x * y * 3 - y + 2
    d = p.degree()
    coeffs = bernstein_coefficients(p, TRI)
    for i, vtx in enumerate(TRI.vertices):
        corner = tuple(d if j == i else 0 for j in range(3))
        assert coeffs[corner] == p(vtx)


def test_subdivision_count_and_volume():
    children = barycentric_subdivision(TRI)
    assert len(children) == math.factorial(3)
    # children tile the parent: their areas sum to the parent's
    def area(s):
        (a, b, c) = s.vertices
        return abs((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])) / 2

    assert sum(area(ch) for ch in children) == area(TRI)


def test_certify_positive_quadratic():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = (x - y) ** 2 + F(1, 100)
    out = certify_nonnegative(p, TRI, max_depth=4)
    assert out.status == CERTIFIED
    assert out.lower_bound is not None and out.lower_bound >= 0


def test_refute_with_exact_witness():
    x = Polynomial.variable(2, 0)
    p = x - F(1, 2)
    out = certify_nonnegative(p, TRI, max_depth=2)
    assert out.status == REFUTED
    pt, val = out.witness
    assert val < 0
    assert p(pt) == val


def test_square_of_linear_certifies_with_zero_bound():
    # (x - y)^2 vanishes on the diagonal; after one subdivision the zero set
    # lies on cell faces and every cell certifies, with the honest bound 0
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = (x - y) ** 2
    out = certify_nonnegative(p, TRI, max_depth=2)
    assert out.status == CERTIFIED
    assert out.lower_bound == 0


def test_irrational_zero_line_stays_inconclusive():
    # (x^2 - 2 y^2)^2 >= 0 vanishes on x = sqrt(2) y, which no rational
    # subdivision face can contain: never certified, never refutable.
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = (x * x - 2 * y * y) ** 2
    out = certify_nonnegative(p, TRI, max_depth=2)
    assert out.status == INCONCLUSIVE


def test_depth_zero_inconclusive_when_mixed_coefficients():
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = (x - y) ** 2 + F(1, 100)
    assert certify_nonnegative(p, TRI, max_depth=0).status == INCONCLUSIVE


def test_negative_depth_is_rejected_before_any_work():
    # a depth below 0 would never reach the "max_depth == 0" stop
    with pytest.raises(ValueError):
        certify_nonnegative(Polynomial.constant(2, 1), TRI, max_depth=-1)
    x = Polynomial.variable(2, 0) - F(1, 3)
    y = Polynomial.variable(2, 1) - F(1, 5)
    p = x * x + y * y - x * y  # zero at an interior point: never certified
    with pytest.raises(ValueError):
        certify_nonnegative(p, TRI, max_depth=-1)
    assert certify_nonnegative(p, TRI, max_depth=0).status == INCONCLUSIVE


def test_soundness_on_random_polynomials():
    rng = random.Random(99)
    certified = refuted = 0
    for _ in range(40):
        terms = {
            (rng.randint(0, 2), rng.randint(0, 2)): F(rng.randint(-5, 5))
            for _ in range(4)
        }
        p = Polynomial(2, terms)
        out = certify_nonnegative(p, TRI, max_depth=3)
        samples = [
            (F(rng.randint(0, 50), 100), F(rng.randint(0, 50), 100))
            for _ in range(25)
        ]
        if out.status == CERTIFIED:
            certified += 1
            assert all(p(pt) >= 0 for pt in samples)
            assert all(p(pt) >= out.lower_bound for pt in samples)
        elif out.status == REFUTED:
            refuted += 1
            pt, val = out.witness
            assert p(pt) == val < 0
    # the sampler really exercises both branches
    assert certified >= 5 and refuted >= 5


def test_interval_certification():
    x = Polynomial.variable(1, 0)
    p = (x + 1) * (x + 1) + 1
    out = certify_nonnegative(p, SEG, max_depth=3)
    assert out.status == CERTIFIED
    out2 = certify_nonnegative(-p, SEG, max_depth=3)
    assert out2.status == REFUTED


# ------------------------------------------------- integer kernel vs oracle

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=7)


@st.composite
def simplex_and_polynomial(draw):
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, n))
    verts = tuple(
        draw(st.tuples(*[rationals] * n)) for _ in range(k + 1)
    )
    expos = st.tuples(*[st.integers(0, 6)] * n).filter(lambda e: sum(e) <= 6)
    terms = draw(st.dictionaries(expos, rationals, max_size=6))
    return verts, Polynomial(n, terms)


@settings(max_examples=150, deadline=None)
@given(simplex_and_polynomial())
def test_coefficients_match_fraction_oracle(case):
    verts, p = case
    try:
        simplex = Simplex(verts)
    except ValueError:
        assume(False)
    got = bernstein_coefficients(p, simplex)
    want = bernstein_coefficients_fraction(p, simplex)
    assert got == want
    assert list(got) == list(want)  # same keys in the same order
    assert all(type(c) is F for c in got.values())


@pytest.mark.parametrize("simplex", [TRI, SEG, Simplex(((F(1, 2), F(-1, 3)), (F(2), F(1, 5))))])
def test_zero_and_constant_polynomials_match_oracle(simplex):
    n = simplex.ambient_dim
    for p in (Polynomial.zero(n), Polynomial.constant(n, F(-5, 6))):
        got = bernstein_coefficients(p, simplex)
        assert got == bernstein_coefficients_fraction(p, simplex)
        assert list(got) == [(0,) * (simplex.k + 1)]
        assert got[(0,) * (simplex.k + 1)] == p(simplex.vertices[0])


def test_certify_never_calls_compose_affine(monkeypatch):
    calls = []
    original = Polynomial.compose_affine

    def counting(self, A, b):
        calls.append(len(A))
        return original(self, A, b)

    monkeypatch.setattr(Polynomial, "compose_affine", counting)
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = (x - y) ** 2 + F(1, 100)  # needs subdivision: coefficients on every node
    out = certify_nonnegative(p, TRI, max_depth=4)
    assert out.status == CERTIFIED and out.depth_used > 0
    assert calls == []


def test_coefficients_leave_no_garbage_cycle():
    # the power tree must die with the call, not wait for the cyclic collector
    x = Polynomial.variable(2, 0)
    y = Polynomial.variable(2, 1)
    p = (x - y) ** 4 + x * y - F(1, 3)
    gc.collect()
    gc.disable()
    try:
        bernstein_coefficients(p, TRI)
        assert gc.collect() == 0
    finally:
        gc.enable()
