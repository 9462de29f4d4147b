import dataclasses
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from conftest import hexagon, square, triangle
from wkstab import (
    AffineFunc,
    BASE_PRESETS,
    Convention,
    NonpositiveWeight,
    NotMonotoneFiber,
    Polynomial,
    base_factor,
    fano_anticanonical,
    fibration,
    projective_bundle,
    standard_fiber_polytope,
)
from wkstab.measure import _integer_terms
from wkstab.weights import BaseFactor, _build_weights


def x_var(dim=1, i=0):
    return Polynomial.variable(dim, i)


def test_v_single_linear_factor():
    # one factor, n=1, p = x, c = 2 on the interval: v = x + 2
    fib = projective_bundle(degrees=[[1]], base=[(1, 1)], c=[2], t=1)
    assert fib.v == x_var() + 2


def test_w_base_constant_factor():
    # n=3, p=0, c=2, s=12: w_base = 12 * 2^2 = 48
    fib = projective_bundle(degrees=[[0]], base=[(3, 12)], c=[2], t=1)
    assert fib.w_base == Polynomial.constant(1, 48)
    assert fib.v == Polynomial.constant(1, 8)


def test_w_base_two_factors():
    # (n=1, p=x, c=2, s=1) and (n=1, p=0, c=3, s=1): w_base = 3 + (x+2) = x+5
    fib = projective_bundle(
        degrees=[[1], [0]], base=[(1, 1), (1, 1)], c=[2, 3], t=1
    )
    assert fib.w_base == x_var() + 5
    assert fib.v == (x_var() + 2) * 3


def test_product_fibration_constant_v():
    fib = projective_bundle(degrees=[[0, 0]], base=[(2, 5)], c=[4], t=1)
    assert fib.v == Polynomial.constant(2, 16)
    assert fib.total_dim == 4


def test_positivity_enforced_at_vertices():
    # p + c = x + 1 vanishes at the vertex -1 and is negative left of it
    with pytest.raises(NonpositiveWeight) as info:
        projective_bundle(degrees=[[1]], base=[(1, 1)], c=[1], t=1)
    assert info.value.factor_index == 0
    assert str(info.value) == "factor 0: p + c is not positive at vertex (-1)"
    with pytest.raises(NonpositiveWeight) as info:
        projective_bundle(degrees=[[1, 2]], base=[(3, 24)], c=[1], t=1)
    # coordinates print as in reports, not as Fraction reprs
    assert str(info.value) == "factor 0: p + c is not positive at vertex (-1, -1)"
    assert info.value.vertex == (F(-1), F(-1))
    assert str(NonpositiveWeight((F(1, 2), F(-3)), 1)) == (
        "factor 1: p + c is not positive at vertex (1/2, -3)"
    )
    # strictly inside the allowed range is fine
    projective_bundle(degrees=[[1]], base=[(1, 1)], c=[F(11, 10)], t=1)


def test_base_factor_validation():
    with pytest.raises(ValueError):
        base_factor(n=0, s=1, c=1, p_gradient=[0], dim=1)
    f = base_factor(n=2, s="3/2", c=1, p_gradient=[1], dim=1)
    assert f.s == F(3, 2)
    assert f.form.gradient == (F(1),)
    assert f.form.constant == F(1)


def test_presets_catalog():
    assert set(BASE_PRESETS) == {"P1", "P2", "P3", "Q3", "V22", "neg-KE3"}
    assert (BASE_PRESETS["P3"].n, BASE_PRESETS["P3"].s) == (3, 24)
    assert BASE_PRESETS["P3"].index == 4
    assert (BASE_PRESETS["Q3"].n, BASE_PRESETS["Q3"].s) == (3, 18)
    assert BASE_PRESETS["neg-KE3"].s == -6
    assert BASE_PRESETS["neg-KE3"].index is None
    # anticanonical consistency s = 2 n I for the Fano presets
    for key in ("P1", "P2", "P3", "Q3", "V22"):
        pr = BASE_PRESETS[key]
        assert pr.s == 2 * pr.n * pr.index


def test_fano_anticanonical_sets_s_and_c():
    fib = fano_anticanonical(triangle(), [(3, 3, None)])
    assert fib.factors[0].c == 3
    assert fib.factors[0].s == 18
    assert fib.v == Polynomial.constant(2, 27)


def test_fano_anticanonical_needs_monotone_scale_one():
    with pytest.raises(NotMonotoneFiber):
        fano_anticanonical(triangle(F(2)), [(3, 3, None)])


def test_projective_bundles_share_their_standard_fiber():
    # the library's standard fibers are interned: a second bundle on the
    # same simplex reuses the fiber, and with it its moment record
    a = projective_bundle([[1, 2]], [(3, 18)], [12], 1)
    b = projective_bundle([[0, 1]], [(2, 12)], [5], 1)
    assert a.fiber is b.fiber is standard_fiber_polytope(2, 1)
    assert projective_bundle([[1, 2]], [(3, 18)], [12], 2).fiber is not a.fiber


def test_fibration_on_general_fiber():
    fib = fibration(hexagon(), [base_factor(1, 4, 3, [1, 1], 2)])
    assert fib.fano_fiber == (((F(0), F(0))), F(1))
    assert fib.dim == 2
    assert fib.normalized_inequality() == (True,)


def test_with_convention_round_trip():
    fib = projective_bundle(degrees=[[1]], base=[(3, -6)], c=[15], t=1)
    assert fib.convention is Convention.CANONICAL
    legacy = dataclasses.replace(fib, convention=Convention.LEGACY)
    assert legacy.convention is Convention.LEGACY
    assert legacy.v == fib.v and legacy.w_base == fib.w_base


@st.composite
def _factor_sets(draw):
    """A standard simplex in dims 1-3 and one to three factors with integer
    or rational forms, n <= 5, each offset large enough to keep p + c > 0 at
    the vertices."""
    dim = draw(st.integers(1, 3))
    fiber = standard_fiber_polytope(dim, 1)
    coeff = st.one_of(
        st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=7)
    )
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        p = AffineFunc(draw(st.lists(coeff, min_size=dim, max_size=dim)), 0)
        c = 1 - min(p(vtx) for vtx in fiber.vertices) + draw(coeff) ** 2
        factors.append(BaseFactor(n=draw(st.integers(1, 5)), s=draw(coeff), c=c, p=p))
    return fiber, tuple(factors)


@settings(max_examples=40, deadline=None)
@given(_factor_sets(), st.booleans())
def test_build_weights_equals_the_product_form(case, legacy):
    # the integer forms are the Fraction product form cleared by
    # _integer_terms, and fib.v and fib.w_base are built on them
    fiber, factors = case
    P = [f.form.to_polynomial() for f in factors]
    one = Polynomial.constant(fiber.dim, 1)
    v = math.prod((Pa ** f.n for Pa, f in zip(P, factors)), start=one)
    w_base = sum(
        (
            math.prod(
                (Pb ** g.n for b, (Pb, g) in enumerate(zip(P, factors)) if b != a),
                start=Pa ** (f.n - 1) * f.s,
            )
            for a, (Pa, f) in enumerate(zip(P, factors))
        ),
        Polynomial.zero(fiber.dim),
    )
    record = tuple(p.cleared() for p in _build_weights(fiber.vertices, factors))
    assert record == (_integer_terms(v, fiber.dim), _integer_terms(w_base, fiber.dim))
    assert all(type(c) is int for G, d in record for c in (d, *G.values()))
    fib = fibration(fiber, factors, Convention.LEGACY if legacy else Convention.CANONICAL)
    assert (fib.v.cleared(), fib.w_base.cleared()) == record
    assert (fib.w_base, fib.v) == (w_base, v)
    assert list(fib.v.terms.items()) == list(v.terms.items())
    assert fib.v.terms is fib.v.terms  # built once


def _bundle(c=F(25, 2)):
    return projective_bundle([[1, 2]], [(3, 18)], [c], F(1, 2))


def test_fibrations_from_the_same_data_are_equal_whether_or_not_v_was_read():
    a, b, c = _bundle(), _bundle(), _bundle()
    assert a is not b and b.v._terms is None
    assert a.v.terms and c.w_base.terms  # read on a and c, not on b
    assert b.v._terms is None and b.w_base._terms is None
    assert a == b == c and hash(a) == hash(b) == hash(c)
    assert len({a, b, c}) == 1
    assert a.v.cleared() == b.v.cleared() and a.v == b.v and c.w_base == b.w_base
    other = _bundle(13)
    assert other != a and other.v != a.v
    assert dataclasses.replace(a, convention=Convention.LEGACY) != b
    # an equal fibration solved on one side is still equal
    from wkstab import extremal_affine
    extremal_affine(a)
    assert a == b and hash(a) == hash(b)
